package cluster

// The node's HTTP surface — the one serving API every codecompd, harness
// node and loadgen drill node mounts — plus the request helpers the
// router shares with it.
//
// Routes (label in the codecompd_http_* families in brackets):
//
//	POST   /images?name=N                 upload a marshaled image, format auto-detected [upload]
//	GET    /images                        list registered images [list]
//	GET    /images/{name}                 one image's metadata [image]
//	DELETE /images/{name}                 deregister an image [delete]
//	GET    /images/{name}/blocks/{i}      one decompressed block, X-Cache: hit|miss [block]
//	GET    /images/{name}/blocks?range=i-j  blocks [i,j] through the batched
//	                                      decode path, X-Range-* stats [range]
//	GET    /images/{name}/bytes?off=O&len=N  N decompressed bytes at byte offset
//	                                      O; a mid-block tail is partially
//	                                      decoded, X-Decoded-Bytes [bytes]
//	GET    /images/{name}/text            the whole program, streamed block by block [text]
//	POST   /images/{name}/train           train from the live trace ring, or from a
//	                                      posted codecomp-trace body [train]
//	GET    /images/{name}/profile         trained profile summary [profile]
//	GET    /images/{name}/trace           recorded trace as codecomp-trace text [trace]
//	PUT    /images/{name}/policy?policy=markov&k=2&depth=4&pin=64
//	                                      switch prefetch policy [set_policy]
//	GET    /images/{name}/policy          the active policy [get_policy]
//	GET    /images/{name}/tiering         tier map and effective tier policy [get_tiering]
//	PUT    /images/{name}/tiering?hot=&warm=&max_hot=  set the tier policy (or
//	                                      a JSON body); &recompress=1 runs a
//	                                      synchronous pass [set_tiering]
//	PUT    /images/{name}/faults?bitflip=&transient=&seed=&latency_ms=&panic_blocks=&error_blocks=
//	                                      install a fault injector; 403 unless
//	                                      FaultsAllowed [set_faults]
//	DELETE /images/{name}/faults          remove the injector [clear_faults]
//	GET    /healthz                       liveness with the readiness breakdown [healthz]
//	GET    /readyz                        readiness: 503 while any image is quarantined [readyz]
//	GET    /metrics                       Prometheus text; JSON stats with
//	                                      Accept: application/json or ?format=json [metrics]
//	GET    /debug/traces?n=               sampled block-load traces, newest first [debug_traces]
//	GET    /internal/images/{name}/cached/{i}  cache-only peer read: 200, or 204
//	                                      on a clean miss [internal_cached]
//	PUT    /internal/peers                replace the peer-fill table [internal_peers]

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"time"

	"codecomp"
	"codecomp/internal/faultinj"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
	"codecomp/internal/traceprof"
)

// routes builds the node's instrumented mux.
func (n *Node) routes() *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range []struct {
		pattern, route string
		h              http.HandlerFunc
	}{
		{"POST /images", "upload", n.handleUpload},
		{"GET /images", "list", n.handleList},
		{"GET /images/{name}", "image", n.handleImage},
		{"DELETE /images/{name}", "delete", n.handleDelete},
		{"GET /images/{name}/blocks/{i}", "block", n.handleBlock},
		{"GET /images/{name}/blocks", "range", n.handleRange},
		{"GET /images/{name}/bytes", "bytes", n.handleBytes},
		{"GET /images/{name}/text", "text", n.handleText},
		{"POST /images/{name}/train", "train", n.handleTrain},
		{"GET /images/{name}/profile", "profile", n.handleProfile},
		{"GET /images/{name}/trace", "trace", n.handleTrace},
		{"PUT /images/{name}/policy", "set_policy", n.handleSetPolicy},
		{"GET /images/{name}/policy", "get_policy", n.handleGetPolicy},
		{"GET /images/{name}/tiering", "get_tiering", n.handleGetTiering},
		{"PUT /images/{name}/tiering", "set_tiering", n.handleSetTiering},
		{"PUT /images/{name}/faults", "set_faults", n.handleSetFaults},
		{"DELETE /images/{name}/faults", "clear_faults", n.handleClearFaults},
		{"GET /healthz", "healthz", n.handleHealthz},
		{"GET /readyz", "readyz", n.handleReadyz},
		{"GET /metrics", "metrics", n.handleMetrics},
		{"GET /debug/traces", "debug_traces", n.handleTraces},
		{"GET /internal/images/{name}/cached/{i}", "internal_cached", n.handleCached},
		{"PUT /internal/peers", "internal_peers", n.handlePeers},
	} {
		mux.HandleFunc(rt.pattern, n.instrument(rt.route, rt.h))
	}
	return mux
}

// instrument wraps one route with the HTTP-layer metrics: request and
// error (status >= 400) counters, a per-route latency histogram and the
// in-flight gauge. The labeled series resolve here, once per route, so
// per-request cost is four atomic operations plus the status wrapper.
func (n *Node) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	reqs := n.httpRequests.With(route)
	errs := n.httpErrors.With(route)
	lat := n.httpLatency.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		n.httpInflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		n.httpInflight.Add(-1)
		lat.Observe(time.Since(start))
		reqs.Inc()
		if sw.status >= 400 {
			errs.Inc()
		}
	}
}

func (n *Node) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing ?name=")
		return
	}
	data, ok := readBody(w, r, n.maxIm)
	if !ok {
		return
	}
	n.regMu.Lock()
	defer n.regMu.Unlock()
	info, err := n.rs.AddImage(name, data)
	if err != nil {
		if errors.Is(err, romserver.ErrClosed) {
			writeErr(w, err)
		} else {
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	// Write-through: the image is not durably registered until it is on
	// disk. A failed save rolls the registration back so the node never
	// claims an image a restart would lose.
	if n.st != nil {
		if err := n.st.Save(name, data); err != nil {
			n.rs.RemoveImage(name) //nolint:errcheck — best-effort rollback
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	n.logf("%s: registered %q (%s, %d blocks, ratio %.4f)", n.name, name, info.Format, info.Blocks, info.Ratio)
	writeJSON(w, http.StatusCreated, info)
}

func (n *Node) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.rs.Images())
}

func (n *Node) handleImage(w http.ResponseWriter, r *http.Request) {
	info, err := n.rs.Image(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleDelete deregisters an image and forgets it on disk. A failed
// store removal is a 500: the registry already dropped the image, but a
// restart would resurrect it, and the caller must know.
func (n *Node) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	n.regMu.Lock()
	defer n.regMu.Unlock()
	if err := n.rs.RemoveImage(name); err != nil {
		writeErr(w, err)
		return
	}
	if n.st != nil {
		if err := n.st.Remove(name); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleBlock(w http.ResponseWriter, r *http.Request) {
	i, ok := blockIndex(w, r)
	if !ok {
		return
	}
	ctx, cancel, ok := requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	data, hit, err := n.rs.BlockContext(ctx, r.PathValue("name"), i)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeBlock(w, data, hit)
}

// handleRange serves blocks?range=i-j through the batched decode path:
// one worker-pool ticket per contiguous miss-run instead of one per
// block, streamed from the view with its stats as X-Range-* headers.
func (n *Node) handleRange(w http.ResponseWriter, r *http.Request) {
	first, last, ok := parseRange(r.URL.Query().Get("range"))
	if !ok {
		writeError(w, http.StatusBadRequest, "range must be i-j with 0 <= i <= j")
		return
	}
	v, err := n.rs.RangeView(r.PathValue("name"), first, last)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer v.Close()
	writeView(w, v)
}

// handleBytes serves bytes?off=&len=, the byte-granular sub-block read:
// cached blocks stream zero-copy from leases, and a tail that ends
// mid-block on a healthy image is only partially decoded.
func (n *Node) handleBytes(w http.ResponseWriter, r *http.Request) {
	off, ln, ok := byteWindow(w, r)
	if !ok {
		return
	}
	ctx, cancel, ok := requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	v, err := n.rs.ReadAtContext(ctx, r.PathValue("name"), off, ln)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer v.Close()
	writeView(w, v)
}

// writeView sends a zero-copy view as the response body through its
// vectored WriteTo — no concatenation buffer on the node side.
func writeView(w http.ResponseWriter, v *romserver.View) {
	setRangeHeaders(w.Header(), v.Len(), v.Stats(), v.DecodedBytes())
	v.WriteTo(w) //nolint:errcheck — client went away
}

// handleText streams the decompressed program block by block instead
// of materializing it: the original size is known up front, so
// Content-Length still goes out before the first block decodes.
func (n *Node) handleText(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, err := n.rs.Image(name)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(info.OrigSize))
	if _, err := n.rs.WriteText(name, w); err != nil && !isNetworkWriteErr(err) {
		// Headers are gone; the short body is the client's error signal.
		n.logf("%s: text %s: %v", n.name, name, err)
	}
}

// isNetworkWriteErr reports whether the error came from writing the
// response (client gone) rather than from decoding.
func isNetworkWriteErr(err error) bool {
	return errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, context.Canceled)
}

// handleTrain trains the image's access profile: from a posted
// codecomp-trace text body when one is supplied, otherwise from the live
// trace ring. Responds with the profile summary.
func (n *Node) handleTrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, ok := readBody(w, r, n.maxIm)
	if !ok {
		return
	}
	var prof *traceprof.Profile
	var err error
	if len(body) > 0 {
		tr, perr := traceprof.Parse(bytes.NewReader(body))
		if perr != nil {
			writeError(w, http.StatusBadRequest, perr.Error())
			return
		}
		prof, err = n.rs.TrainFrom(name, tr.Accesses)
	} else {
		prof, err = n.rs.Train(name)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	n.logf("%s: trained %q on %d accesses (%d unique blocks)", n.name, name, prof.Accesses, prof.UniqueBlocks())
	writeJSON(w, http.StatusOK, prof.Summary(16))
}

func (n *Node) handleProfile(w http.ResponseWriter, r *http.Request) {
	prof, err := n.rs.Profile(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, prof.Summary(16))
}

func (n *Node) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, err := n.rs.TraceSnapshot(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	tr.WriteTo(w) //nolint:errcheck — client went away
}

func (n *Node) handleSetPolicy(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := romserver.PolicySpec{Policy: q.Get("policy")}
	for _, f := range []struct {
		key string
		dst *int
	}{{"depth", &spec.Depth}, {"k", &spec.TopK}, {"pin", &spec.PinCount}} {
		if v := q.Get(f.key); v != "" {
			k, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, f.key+" must be an integer")
				return
			}
			*f.dst = k
		}
	}
	info, err := n.rs.SetPolicy(r.PathValue("name"), spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	n.logf("%s: %q now serving with policy %s (%d pinned)", n.name, info.Image, info.Policy, info.Pinned)
	writeJSON(w, http.StatusOK, info)
}

func (n *Node) handleGetPolicy(w http.ResponseWriter, r *http.Request) {
	info, err := n.rs.Policy(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleGetTiering reports a tiered image's tier populations, per-block
// assignments and effective recompression policy; 409 for single-codec
// images.
func (n *Node) handleGetTiering(w http.ResponseWriter, r *http.Request) {
	info, err := n.rs.Tiering(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleSetTiering installs a per-image tier policy — from a JSON policy
// body when one is posted, else from ?hot=&warm=&max_hot= (an empty PUT
// resets to the server defaults, the rollback path for a bad policy).
// With ?recompress=1 it then runs a synchronous recompression pass and
// returns its stats alongside the policy.
func (n *Node) handleSetTiering(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	q := r.URL.Query()
	var p codecomp.TierPolicy
	body, ok := readBody(w, r, n.maxIm)
	if !ok {
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &p); err != nil {
			writeError(w, http.StatusBadRequest, "policy body: "+err.Error())
			return
		}
	} else {
		for _, f := range []struct {
			key string
			dst *float64
		}{{"hot", &p.HotFraction}, {"warm", &p.WarmFraction}, {"max_hot", &p.MaxHotFraction}} {
			if v := q.Get(f.key); v != "" {
				frac, err := strconv.ParseFloat(v, 64)
				if err != nil {
					writeError(w, http.StatusBadRequest, f.key+" must be a fraction")
					return
				}
				*f.dst = frac
			}
		}
	}
	if err := n.rs.SetTierPolicy(name, p); err != nil {
		writeErr(w, err)
		return
	}
	resp := map[string]any{"image": name, "policy": p}
	if q.Get("recompress") != "" {
		st, err := n.rs.Recompress(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		n.logf("%s: recompressed %q: %d/%d blocks migrated (%+d bytes, %d verify failures)",
			n.name, name, st.Migrated, st.Planned, st.BytesDelta, st.VerifyFailures)
		resp["pass"] = st
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSetFaults installs a deterministic fault injector in front of one
// image's codec. Refused unless the node was built with FaultsAllowed,
// so a production deployment cannot be chaos-tested by accident.
func (n *Node) handleSetFaults(w http.ResponseWriter, r *http.Request) {
	if !n.faultsAllowed {
		writeError(w, http.StatusForbidden, "fault injection disabled; restart codecompd with -enable-fault-injection")
		return
	}
	q := r.URL.Query()
	var opts faultinj.Options
	for _, f := range []struct {
		key string
		dst *float64
	}{{"bitflip", &opts.BitFlipRate}, {"transient", &opts.TransientRate}} {
		if v := q.Get(f.key); v != "" {
			rate, err := strconv.ParseFloat(v, 64)
			if err != nil || rate < 0 || rate > 1 {
				writeError(w, http.StatusBadRequest, f.key+" must be a rate in [0,1]")
				return
			}
			*f.dst = rate
		}
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "seed must be an integer")
			return
		}
		opts.Seed = seed
	}
	if v := q.Get("latency_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "latency_ms must be a non-negative integer")
			return
		}
		opts.Latency = time.Duration(ms) * time.Millisecond
	}
	var err error
	if opts.PanicBlocks, err = parseBlockList(q.Get("panic_blocks")); err != nil {
		writeError(w, http.StatusBadRequest, "panic_blocks: "+err.Error())
		return
	}
	if opts.ErrorBlocks, err = parseBlockList(q.Get("error_blocks")); err != nil {
		writeError(w, http.StatusBadRequest, "error_blocks: "+err.Error())
		return
	}
	name := r.PathValue("name")
	if err := n.rs.SetFaults(name, &opts); err != nil {
		writeErr(w, err)
		return
	}
	n.logf("%s: fault injector on %q: bitflip=%g transient=%g panic=%v error=%v latency=%s seed=%d",
		n.name, name, opts.BitFlipRate, opts.TransientRate, opts.PanicBlocks, opts.ErrorBlocks, opts.Latency, opts.Seed)
	writeJSON(w, http.StatusOK, opts)
}

// parseBlockList parses a comma-separated list of block indices.
func parseBlockList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 0 {
			return nil, errors.New("want comma-separated non-negative block indices")
		}
		out = append(out, k)
	}
	return out, nil
}

func (n *Node) handleClearFaults(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := n.rs.SetFaults(name, nil); err != nil {
		writeErr(w, err)
		return
	}
	n.logf("%s: fault injector removed from %q", n.name, name)
	w.WriteHeader(http.StatusNoContent)
}

// handleHealthz is liveness: 200 as long as the process serves HTTP at
// all, with the readiness breakdown as payload so a human poking the
// endpoint sees degraded/quarantined images immediately.
func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ready, images := n.rs.Health()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"node":           n.name,
		"ready":          ready,
		"images":         len(n.rs.Images()),
		"health":         images,
		"uptime_seconds": time.Since(n.started).Seconds(),
	})
}

// handleReadyz is readiness: 503 while any image is quarantined, so a
// load balancer drains traffic from a replica serving a corrupted ROM
// without restarting it (liveness stays green and the re-verifier can
// heal it).
func (n *Node) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, images := n.rs.Health()
	writeJSON(w, readyStatus(ready), map[string]any{"ready": ready, "health": images})
}

// handleMetrics serves Prometheus text exposition, or the JSON stats
// when the client asks for JSON (loadgen and the router's prober do).
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsJSON(r) {
		writeJSON(w, http.StatusOK, n.rs.Stats())
		return
	}
	w.Header().Set("Content-Type", obsv.PrometheusContentType)
	n.reg.WritePrometheus(w) //nolint:errcheck — client went away
}

// handleTraces serves the sampled block-load trace ring, newest first;
// ?n= bounds how many traces are returned.
func (n *Node) handleTraces(w http.ResponseWriter, r *http.Request) {
	recs := n.tracer.Snapshot()
	if v := r.URL.Query().Get("n"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 0 {
			writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
			return
		}
		if k < len(recs) {
			recs = recs[:k]
		}
	}
	begun, done := n.tracer.Sampled()
	writeJSON(w, http.StatusOK, map[string]any{
		"sampled_begun": begun,
		"sampled_done":  done,
		"traces":        recs,
	})
}

// handleCached serves the cache-only peer read: the block bytes with 200
// if cached, 204 if not (a clean miss), 404 for an unknown image. It
// never decompresses.
func (n *Node) handleCached(w http.ResponseWriter, r *http.Request) {
	n.peekRequests.Inc()
	i, ok := blockIndex(w, r)
	if !ok {
		return
	}
	data, ok, err := n.rs.CachedBlock(r.PathValue("name"), i)
	if err != nil {
		status := http.StatusNotFound
		if errors.Is(err, romserver.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err.Error())
		return
	}
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	n.peekHits.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data) //nolint:errcheck — client went away
}

// handlePeers replaces the peer-fill table from a JSON object mapping
// image names to replica peer base URLs.
func (n *Node) handlePeers(w http.ResponseWriter, r *http.Request) {
	var peers map[string][]string
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&peers); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	n.setPeers(peers)
	w.WriteHeader(http.StatusNoContent)
}

// writeErr is the one romserver error → HTTP status table. Overload
// outcomes are deliberately distinct so clients and dashboards can tell
// them apart: 429 + Retry-After means admission control rejected the
// request up front (back off and retry), 503 + Retry-After means
// brownout shed a cold miss (503 without Retry-After remains
// quarantine/closed), and 504 means the request's own propagated
// deadline expired (retrying with the same deadline will fail again).
func writeErr(w http.ResponseWriter, err error) {
	var rej *overload.RejectError
	if errors.As(err, &rej) {
		status := http.StatusTooManyRequests
		if rej.Reason == overload.ReasonBrownout {
			status = http.StatusServiceUnavailable
		}
		secs := int(rej.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, status, err.Error())
		return
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	case errors.Is(err, romserver.ErrNotFound), errors.Is(err, romserver.ErrOutOfRange):
		status = http.StatusNotFound
	case errors.Is(err, romserver.ErrClosed), errors.Is(err, romserver.ErrQuarantined):
		status = http.StatusServiceUnavailable
	case errors.Is(err, romserver.ErrCorruptBlock), errors.Is(err, romserver.ErrCodecPanic):
		status = http.StatusBadGateway
	case errors.Is(err, romserver.ErrDecompressTimeout):
		status = http.StatusGatewayTimeout
	case errors.Is(err, romserver.ErrNoTrace), errors.Is(err, romserver.ErrNoProfile),
		errors.Is(err, romserver.ErrNotTiered):
		status = http.StatusConflict
	case errors.Is(err, romserver.ErrBadPolicy):
		status = http.StatusBadRequest
	}
	writeError(w, status, err.Error())
}

// The helpers below are shared by the node and the router.

// statusWriter captures the response status for per-route error
// accounting; a body written without WriteHeader counts as 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Write records the implicit 200 before delegating.
func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// writeJSON writes v as indented JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck — client went away
}

// writeError writes the JSON error envelope {"error": msg}.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// wantsJSON reports whether a /metrics request negotiated the JSON
// stats view (Accept: application/json or ?format=json).
func wantsJSON(r *http.Request) bool {
	return r.URL.Query().Get("format") == "json" || strings.Contains(r.Header.Get("Accept"), "application/json")
}

// readyStatus maps readiness onto /readyz's status.
func readyStatus(ready bool) int {
	if ready {
		return http.StatusOK
	}
	return http.StatusServiceUnavailable
}

// readBody reads a request body of at most limit bytes; on failure it
// answers 400 and reports false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	return body, true
}

// blockIndex parses the {i} path value; on failure it answers 400 and
// reports false.
func blockIndex(w http.ResponseWriter, r *http.Request) (int, bool) {
	i, err := strconv.Atoi(r.PathValue("i"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "block index must be an integer")
		return 0, false
	}
	return i, true
}

// byteWindow parses ?off=&len=; on failure it answers 400 and reports
// false.
func byteWindow(w http.ResponseWriter, r *http.Request) (off, n int, ok bool) {
	q := r.URL.Query()
	off, err1 := strconv.Atoi(q.Get("off"))
	n, err2 := strconv.Atoi(q.Get("len"))
	if err1 != nil || err2 != nil || off < 0 || n < 0 {
		writeError(w, http.StatusBadRequest, "off and len must be non-negative integers")
		return 0, 0, false
	}
	return off, n, true
}

// parseRange parses "i-j" into an inclusive block interval.
func parseRange(s string) (first, last int, ok bool) {
	dash := strings.IndexByte(s, '-')
	if dash <= 0 {
		return 0, 0, false
	}
	first, err1 := strconv.Atoi(s[:dash])
	last, err2 := strconv.Atoi(s[dash+1:])
	if err1 != nil || err2 != nil || first < 0 || first > last {
		return 0, 0, false
	}
	return first, last, true
}

// requestContext binds the request's X-Deadline-Ms budget to its
// context; a malformed header answers 400 and reports false.
func requestContext(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	ctx, cancel, err := overload.WithDeadlineHeader(r.Context(), r.Header.Get(overload.DeadlineHeader))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, nil, false
	}
	return ctx, cancel, true
}

// writeBlock sends one block with its X-Cache verdict.
func writeBlock(w http.ResponseWriter, data []byte, hit bool) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Write(data) //nolint:errcheck — client went away
}

// setRangeHeaders writes a range or byte read's headers: the body
// length, how the read was served (X-Range-*) and how many bytes of
// codec output it paid for (X-Decoded-Bytes). client.Client parses
// them back.
func setRangeHeaders(h http.Header, length int, st romserver.RangeStats, decoded int) {
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(length))
	h.Set("X-Range-Blocks", strconv.Itoa(st.Blocks))
	h.Set("X-Range-Cached", strconv.Itoa(st.CachedBlocks))
	h.Set("X-Range-Dispatches", strconv.Itoa(st.Dispatches))
	h.Set("X-Range-Decoded", strconv.Itoa(st.DecodedBlocks))
	h.Set("X-Decoded-Bytes", strconv.Itoa(decoded))
}
