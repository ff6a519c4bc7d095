// A cluster node: the one serving node type. A Node is one
// romserver.Server behind the full serving HTTP API (nodehttp.go), with
// optional write-through disk persistence and peer cache-fill over the
// internal routes. cmd/codecompd is a Node with flags and an
// http.Server around it; the cluster harness and the loadgen drills
// boot the same type, so every drill exercises the handlers production
// runs, and the router proxies to nodes that cannot tell it from a
// direct client.
package cluster

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"codecomp/internal/cluster/client"
	"codecomp/internal/obsv"
	"codecomp/internal/romserver"
)

// NodeOptions configures one node.
type NodeOptions struct {
	// Name identifies the node in logs, /healthz and ring membership.
	Name string
	// DataDir is where registered images (and their tier migrations)
	// persist and are recovered from on boot; empty keeps images in
	// memory only. A cluster member needs one: a node that forgets its
	// images on restart defeats rebalancing.
	DataDir string
	// Server tunes the underlying romserver (zero values take its
	// defaults). Registry is overridden by the node, and so is
	// Tiering.Persist when DataDir is set; Tracer passes through and
	// feeds GET /debug/traces.
	Server romserver.Options
	// FillTimeout bounds one peer cache probe (default 150ms).
	FillTimeout time.Duration
	// MaxImageBytes caps one request body — an upload, a posted trace or
	// a tier policy (default 64 MiB).
	MaxImageBytes int64
	// FaultsAllowed enables PUT /images/{name}/faults (chaos testing);
	// without it the route answers 403.
	FaultsAllowed bool
	// Logf receives node log lines; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Node is one serving process: a romserver with persistence, peer fill
// and the serving + internal HTTP API. Construct with NewNode, serve
// Handler(), Close when done.
type Node struct {
	name          string
	rs            *romserver.Server
	st            *Store // nil without a DataDir
	reg           *obsv.Registry
	tracer        *obsv.Tracer
	mux           *http.ServeMux
	maxIm         int64
	faultsAllowed bool
	started       time.Time
	logf          func(format string, args ...any)

	// regMu serializes registration/removal and tier persistence with
	// their store write-through, so a concurrent add+delete cannot leave
	// disk and registry disagreeing.
	regMu sync.Mutex

	// Peer cache-fill: for each image, the replica peers its cache
	// misses may fill from (pushed by the router), probed through
	// fillHTTP.
	fillHTTP *http.Client
	peersMu  sync.RWMutex
	peers    map[string][]*client.Client

	fillAttempts *obsv.Counter
	fillHits     *obsv.Counter
	fillErrors   *obsv.Counter
	peekRequests *obsv.Counter
	peekHits     *obsv.Counter

	// HTTP-layer instruments; the per-route series are resolved at route
	// registration, not per request.
	httpInflight *obsv.Gauge
	httpRequests *obsv.CounterVec
	httpErrors   *obsv.CounterVec
	httpLatency  *obsv.HistogramVec
}

// NewNode builds the node, recovers every image persisted under
// DataDir into the registry, and starts serving state. Recovery errors
// on individual images are logged, not fatal — the router re-registers
// anything missing.
func NewNode(opts NodeOptions) (*Node, error) {
	if opts.Name == "" {
		return nil, fmt.Errorf("cluster: node needs a name")
	}
	n := &Node{
		name:          opts.Name,
		reg:           obsv.NewRegistry(),
		tracer:        opts.Server.Tracer,
		maxIm:         opts.MaxImageBytes,
		faultsAllowed: opts.FaultsAllowed,
		started:       time.Now(),
		logf:          opts.Logf,
		fillHTTP:      &http.Client{Timeout: opts.FillTimeout},
		peers:         make(map[string][]*client.Client),
	}
	if n.maxIm <= 0 {
		n.maxIm = 64 << 20
	}
	if n.logf == nil {
		n.logf = log.Printf
	}
	if n.fillHTTP.Timeout <= 0 {
		n.fillHTTP.Timeout = 150 * time.Millisecond
	}
	sopts := opts.Server
	sopts.Registry = n.reg
	if opts.DataDir != "" {
		st, err := OpenStore(opts.DataDir)
		if err != nil {
			return nil, err
		}
		n.st = st
		// Tier migrations write through like uploads, so a restart
		// recovers the migrated tier map, not the upload-time one.
		tiering := romserver.TieringOptions{Interval: -1}
		if sopts.Tiering != nil {
			tiering = *sopts.Tiering
		}
		tiering.Persist = n.persistTiers
		sopts.Tiering = &tiering
	}
	n.rs = romserver.New(sopts)
	n.rs.SetFillHook(n.fill)
	n.registerMetrics()
	n.recoverImages()
	n.mux = n.routes()
	return n, nil
}

// registerMetrics adds the node's own metric families to its registry.
func (n *Node) registerMetrics() {
	reg := n.reg
	n.fillAttempts = reg.Counter("cluster_peer_fill_attempts_total",
		"Peer cache probes issued on local cache misses.")
	n.fillHits = reg.Counter("cluster_peer_fill_hits_total",
		"Local misses satisfied from a replica's hot cache (before sidecar verification; see romserver_peer_fills_total for the verified count).")
	n.fillErrors = reg.Counter("cluster_peer_fill_errors_total",
		"Peer cache probes that failed (network error or unexpected status); clean peer misses are not errors.")
	n.peekRequests = reg.Counter("cluster_cached_peek_requests_total",
		"Cache-only block requests served to peers (/internal/images/{name}/cached/{i}).")
	n.peekHits = reg.Counter("cluster_cached_peek_hits_total",
		"Cache-only peer requests answered from the local cache.")
	reg.GaugeFunc("cluster_peer_images",
		"Images with a configured peer set (fill candidates).",
		func() float64 {
			n.peersMu.RLock()
			defer n.peersMu.RUnlock()
			return float64(len(n.peers))
		})
	n.httpInflight = reg.Gauge("codecompd_http_inflight",
		"HTTP requests currently being served.")
	n.httpRequests = reg.CounterVec("codecompd_http_requests_total",
		"HTTP requests served, by route.", "route")
	n.httpErrors = reg.CounterVec("codecompd_http_errors_total",
		"HTTP responses with status >= 400, by route.", "route")
	n.httpLatency = reg.HistogramVec("codecompd_http_request_seconds",
		"HTTP request latency, by route.", "route")
}

// recoverImages registers every image the store holds.
func (n *Node) recoverImages() {
	recovered := n.reg.Counter("cluster_store_recovered_images_total",
		"Images recovered from the data dir into the registry at boot.")
	recoverErrs := n.reg.Counter("cluster_store_recover_errors_total",
		"Images that failed recovery at boot (corrupt payload, bad manifest, rejected registration).")
	if n.st == nil {
		return
	}
	imgs, errs := n.st.Load()
	for _, e := range errs {
		recoverErrs.Inc()
		n.logf("%s: store: %v", n.name, e)
	}
	for _, im := range imgs {
		if _, err := n.rs.AddImage(im.Name, im.Payload); err != nil {
			recoverErrs.Inc()
			n.logf("%s: recovering %q: %v", n.name, im.Name, err)
			continue
		}
		recovered.Inc()
	}
	if len(imgs) > 0 {
		n.logf("%s: recovered %d image(s) from %s", n.name, len(imgs), n.st.Dir())
	}
}

// persistTiers is the romserver tiering Persist hook: a pass that
// migrated blocks writes the image through to the store, under regMu
// and only while the image is still registered, so it cannot resurrect
// a concurrently deleted one.
func (n *Node) persistTiers(name string, image []byte) error {
	n.regMu.Lock()
	defer n.regMu.Unlock()
	if _, err := n.rs.Image(name); err != nil {
		return err
	}
	return n.st.Save(name, image)
}

// Name returns the node's ring name.
func (n *Node) Name() string { return n.name }

// Handler returns the node's HTTP API.
func (n *Node) Handler() http.Handler { return n.mux }

// Server exposes the underlying romserver (tests and the harness use
// it).
func (n *Node) Server() *romserver.Server { return n.rs }

// Registry exposes the node's metrics registry.
func (n *Node) Registry() *obsv.Registry { return n.reg }

// Close drains the underlying romserver.
func (n *Node) Close() error { return n.rs.Close() }

// fill is the romserver.FillFunc: ask each replica peer's cache for the
// block, first answer wins. The romserver verifies whatever comes back
// against the local integrity sidecar, so this function only has to be
// fast, not trusted.
func (n *Node) fill(image string, block int) ([]byte, bool) {
	n.peersMu.RLock()
	peers := n.peers[image]
	n.peersMu.RUnlock()
	for _, p := range peers {
		n.fillAttempts.Inc()
		data, err := p.CachedBlock(image, block)
		if err == nil {
			n.fillHits.Inc()
			return data, true
		}
		if !errors.Is(err, client.ErrNotCached) {
			n.fillErrors.Inc()
		}
	}
	return nil, false
}

// setPeers replaces the peer-fill table: for each image, the base URLs
// of its replica peers.
func (n *Node) setPeers(peers map[string][]string) {
	next := make(map[string][]*client.Client, len(peers))
	for img, addrs := range peers {
		cs := make([]*client.Client, 0, len(addrs))
		for _, addr := range addrs {
			cs = append(cs, client.New(addr, n.fillHTTP))
		}
		next[img] = cs
	}
	n.peersMu.Lock()
	n.peers = next
	n.peersMu.Unlock()
}
