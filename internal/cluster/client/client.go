// Package client is the one HTTP client for the codecompd serving API
// (/images, /images/{name}/blocks/{i}, /metrics, health probes) plus the
// cluster-internal endpoints (/internal/cached, /internal/peers). The
// router's proxy path, a node's peer cache-fill and cmd/loadgen all
// speak this API; before this package each grew its own request/parse
// code, and the three copies had already started to disagree on error
// handling. A Client is cheap (one struct), safe for concurrent use,
// and shares its underlying http.Client connection pool.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"codecomp/internal/overload"
	"codecomp/internal/romserver"
)

// ErrNotCached is returned by CachedBlock when the peer does not hold
// the block in its cache (a clean miss, not a failure).
var ErrNotCached = errors.New("client: block not cached on peer")

// StatusError is a non-2xx HTTP response. Callers that care whether a
// failure means "the node is unreachable" (transport error) or "the
// node answered, just not with what we wanted" (StatusError) — the
// router's health accounting, for one — unwrap with errors.As.
type StatusError struct {
	// What describes the request for the error string.
	What string
	// Code is the HTTP status.
	Code int
	// Body is the trimmed response body.
	Body string
	// RetryAfter is the server's Retry-After hint (zero when absent):
	// set on overload rejections (429, brownout 503) so callers can back
	// off for the server's estimate instead of guessing.
	RetryAfter time.Duration
}

// Error renders the status failure.
func (e *StatusError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.What, e.Code, e.Body)
}

// ClusterStats is a router's aggregated view of its members
// (GET /cluster/stats on a codecomprouter).
type ClusterStats struct {
	// Epoch is the current ring generation.
	Epoch uint64 `json:"epoch"`
	// Nodes maps member name to its full stats snapshot; members that
	// could not be reached are absent.
	Nodes map[string]romserver.Stats `json:"nodes"`
	// Ejected lists members currently removed from placement by health.
	Ejected []string `json:"ejected,omitempty"`
}

// CacheHits sums member cache hits.
func (cs ClusterStats) CacheHits() int64 {
	var n int64
	for _, st := range cs.Nodes {
		n += st.Cache.Hits
	}
	return n
}

// CacheMisses sums member cache misses.
func (cs ClusterStats) CacheMisses() int64 {
	var n int64
	for _, st := range cs.Nodes {
		n += st.Cache.Misses
	}
	return n
}

// Client talks to one codecompd node or cluster router by base URL.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8077".
	Base string
	// HTTP is the underlying client; nil uses a shared default with a
	// 30s request timeout.
	HTTP *http.Client
}

// defaultHTTP is shared across Clients constructed without an explicit
// http.Client, so they pool connections together.
var defaultHTTP = &http.Client{Timeout: 30 * time.Second}

// New returns a client for the server at base. hc may be nil.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = defaultHTTP
	}
	return &Client{Base: base, HTTP: hc}
}

// do issues req, reads the whole body, and fails non-2xx statuses with
// the body text folded into the error.
func (c *Client) do(req *http.Request) (status int, body []byte, err error) {
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, body, nil
}

// get is do for parameterless GETs.
func (c *Client) get(path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.Base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

// statusErr folds a non-OK response into a *StatusError.
func statusErr(what string, status int, body []byte) error {
	return &StatusError{What: what, Code: status, Body: string(bytes.TrimSpace(body))}
}

// Upload registers a marshaled image under name (POST /images?name=)
// and returns the server's metadata for it.
func (c *Client) Upload(name string, payload []byte) (romserver.ImageInfo, error) {
	var info romserver.ImageInfo
	req, err := http.NewRequest(http.MethodPost, c.Base+"/images?name="+name, bytes.NewReader(payload))
	if err != nil {
		return info, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	status, body, err := c.do(req)
	if err != nil {
		return info, err
	}
	if status != http.StatusCreated {
		return info, statusErr("upload "+name, status, body)
	}
	return info, json.Unmarshal(body, &info)
}

// Delete deregisters an image (DELETE /images/{name}). Deleting an
// image the server does not have returns an error wrapping the server's
// 404 body.
func (c *Client) Delete(name string) error {
	req, err := http.NewRequest(http.MethodDelete, c.Base+"/images/"+name, nil)
	if err != nil {
		return err
	}
	status, body, err := c.do(req)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return statusErr("delete "+name, status, body)
	}
	return nil
}

// Images lists the server's registered images.
func (c *Client) Images() ([]romserver.ImageInfo, error) {
	status, body, err := c.get("/images")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, statusErr("list images", status, body)
	}
	var infos []romserver.ImageInfo
	return infos, json.Unmarshal(body, &infos)
}

// Image returns one image's metadata.
func (c *Client) Image(name string) (romserver.ImageInfo, error) {
	var info romserver.ImageInfo
	status, body, err := c.get("/images/" + name)
	if err != nil {
		return info, err
	}
	if status != http.StatusOK {
		return info, statusErr("image "+name, status, body)
	}
	return info, json.Unmarshal(body, &info)
}

// Block fetches one decompressed block. hit reports the server's
// X-Cache header ("hit" on a cache hit; through the router this is the
// serving replica's cache verdict).
func (c *Client) Block(name string, i int) (data []byte, hit bool, err error) {
	return c.BlockContext(context.Background(), name, i)
}

// BlockContext is Block with end-to-end deadline propagation: the
// request is bound to ctx, and ctx's remaining deadline rides the
// X-Deadline-Ms header so the far side's admission control can reject
// doomed work before it queues. A non-2xx answer is a *StatusError;
// overload rejections carry the server's Retry-After hint in it.
func (c *Client) BlockContext(ctx context.Context, name string, i int) (data []byte, hit bool, err error) {
	body, h, err := c.read(ctx, fmt.Sprintf("/images/%s/blocks/%d", name, i))
	if err != nil {
		return nil, false, err
	}
	return body, h.Get("X-Cache") == "hit", nil
}

// Range fetches blocks [first,last] through the server's batched decode
// path (GET /images/{name}/blocks?range=first-last) and reports how the
// read was served, parsed back from the X-Range-* headers.
func (c *Client) Range(name string, first, last int) ([]byte, romserver.RangeStats, error) {
	body, h, err := c.read(context.Background(), fmt.Sprintf("/images/%s/blocks?range=%d-%d", name, first, last))
	if err != nil {
		return nil, romserver.RangeStats{}, err
	}
	st, _ := rangeHeaders(h)
	return body, st, nil
}

// ReadBytes fetches n decompressed bytes at byte offset off; see
// ReadBytesContext.
func (c *Client) ReadBytes(name string, off, n int) ([]byte, romserver.RangeStats, int, error) {
	return c.ReadBytesContext(context.Background(), name, off, n)
}

// ReadBytesContext fetches n decompressed bytes at absolute byte offset
// off through the server's sub-block path (GET /images/{name}/bytes?
// off=&len=), with deadline propagation like BlockContext. It returns
// how the read was served (X-Range-* headers) and how many bytes of
// codec output the server decoded for it (X-Decoded-Bytes — zero for a
// fully cached read, less than the covering blocks' total when the
// tail was partially decoded).
func (c *Client) ReadBytesContext(ctx context.Context, name string, off, n int) ([]byte, romserver.RangeStats, int, error) {
	body, h, err := c.read(ctx, fmt.Sprintf("/images/%s/bytes?off=%d&len=%d", name, off, n))
	if err != nil {
		return nil, romserver.RangeStats{}, 0, err
	}
	st, decoded := rangeHeaders(h)
	return body, st, decoded, nil
}

// read GETs one of the serving read endpoints under ctx, its remaining
// deadline riding X-Deadline-Ms, and returns a 200's body and headers.
// Any other status is a *StatusError carrying the Retry-After hint.
func (c *Client) read(ctx context.Context, path string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	if v := overload.HeaderValue(ctx); v != "" {
		req.Header.Set(overload.DeadlineHeader, v)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{What: "GET " + path, Code: resp.StatusCode, Body: string(bytes.TrimSpace(body))}
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
		return nil, nil, se
	}
	return body, resp.Header, nil
}

// rangeHeaders parses a range or byte read's X-Range-* stats and its
// X-Decoded-Bytes figure.
func rangeHeaders(h http.Header) (st romserver.RangeStats, decoded int) {
	st.Blocks, _ = strconv.Atoi(h.Get("X-Range-Blocks"))
	st.CachedBlocks, _ = strconv.Atoi(h.Get("X-Range-Cached"))
	st.Dispatches, _ = strconv.Atoi(h.Get("X-Range-Dispatches"))
	st.DecodedBlocks, _ = strconv.Atoi(h.Get("X-Range-Decoded"))
	decoded, _ = strconv.Atoi(h.Get("X-Decoded-Bytes"))
	return st, decoded
}

// CachedBlock asks the cluster-internal cache-only endpoint for one
// block (GET /internal/images/{name}/cached/{i}): the bytes if the peer
// holds them hot, ErrNotCached on a clean miss, any other failure as an
// error. It never causes a decompression on the peer.
func (c *Client) CachedBlock(name string, i int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/internal/images/%s/cached/%d", c.Base, name, i), nil)
	if err != nil {
		return nil, err
	}
	status, body, err := c.do(req)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
		return body, nil
	case http.StatusNoContent, http.StatusNotFound:
		return nil, ErrNotCached
	}
	return nil, statusErr(fmt.Sprintf("cached block %d of %s", i, name), status, body)
}

// SetPeers replaces the node's peer table (PUT /internal/peers): for
// each image, the addresses of its replica peers (excluding the node
// itself), the sources its cache misses may fill from.
func (c *Client) SetPeers(peers map[string][]string) error {
	buf, err := json.Marshal(peers)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, c.Base+"/internal/peers", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	status, body, err := c.do(req)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent && status != http.StatusOK {
		return statusErr("set peers", status, body)
	}
	return nil
}

// Stats fetches the server's JSON stats view of /metrics.
func (c *Client) Stats() (romserver.Stats, error) {
	var st romserver.Stats
	req, err := http.NewRequest(http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return st, err
	}
	req.Header.Set("Accept", "application/json")
	status, body, err := c.do(req)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, statusErr("metrics", status, body)
	}
	return st, json.Unmarshal(body, &st)
}

// ClusterStats fetches a router's aggregated member stats
// (GET /cluster/stats).
func (c *Client) ClusterStats() (ClusterStats, error) {
	var cs ClusterStats
	status, body, err := c.get("/cluster/stats")
	if err != nil {
		return cs, err
	}
	if status != http.StatusOK {
		return cs, statusErr("cluster stats", status, body)
	}
	return cs, json.Unmarshal(body, &cs)
}

// Healthz probes liveness; nil means the server answered 200.
func (c *Client) Healthz() error {
	status, body, err := c.get("/healthz")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return statusErr("healthz", status, body)
	}
	return nil
}

// Readyz probes readiness; nil means the server answered 200.
func (c *Client) Readyz() error {
	status, body, err := c.get("/readyz")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return statusErr("readyz", status, body)
	}
	return nil
}
