package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"codecomp/internal/obsv"
	"codecomp/internal/romserver"
)

// conn is one keep-alive HTTP/1.1 connection for the data-plane reads.
// It speaks just enough HTTP to issue a GET and read a Content-Length
// body into a reused buffer, so the load generator spends microseconds,
// not tens of them, per request on a box it shares with the servers.
// Control-plane calls (upload, train, tiering, scrape) use net/http.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

// reply is one parsed data-plane response. body aliases the conn's
// buffer and is valid until the next call.
type reply struct {
	status  int
	body    []byte
	hit     bool // X-Cache: hit
	decoded int  // X-Decoded-Bytes, -1 when absent
}

var errChunked = errors.New("response without Content-Length")

// newConn returns an unconnected conn; the first get dials.
func newConn(addr string) *conn {
	return &conn{addr: addr, br: bufio.NewReaderSize(nil, 16<<10)}
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// get sends GET path and reads the whole response. Any error leaves the
// connection closed; the next get redials.
func (c *conn) get(path []byte) (reply, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return reply{}, err
		}
		c.nc = nc
		c.br.Reset(nc)
	}
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	if _, err := c.nc.Write(c.req); err != nil {
		c.close()
		return reply{}, err
	}
	r, keep, err := c.read()
	if err != nil || !keep {
		c.close()
	}
	return r, err
}

func (c *conn) read() (r reply, keep bool, err error) {
	r.decoded = -1
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return r, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return r, false, fmt.Errorf("bad status line %q", line)
	}
	if r.status, err = atoi(line[9:12]); err != nil {
		return r, false, fmt.Errorf("bad status %q", line)
	}
	cl, keep := -1, true
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return r, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return r, false, fmt.Errorf("bad header %q", line)
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			cl, err = atoi(val)
		case bytes.EqualFold(name, []byte("X-Cache")):
			r.hit = string(val) == "hit"
		case bytes.EqualFold(name, []byte("X-Decoded-Bytes")):
			r.decoded, err = atoi(val)
		case bytes.EqualFold(name, []byte("Connection")):
			keep = !bytes.EqualFold(val, []byte("close"))
		}
		if err != nil {
			return r, false, fmt.Errorf("header %q: %w", line, err)
		}
	}
	if cl < 0 {
		return r, false, errChunked
	}
	if cap(c.body) < cl {
		c.body = make([]byte, cl)
	}
	c.body = c.body[:cl]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return r, false, err
	}
	r.body = c.body
	return r, keep, nil
}

func atoi(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, errors.New("empty number")
	}
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, fmt.Errorf("not a number: %q", b)
		}
		n = n*10 + int(ch-'0')
	}
	return n, nil
}

// control is the net/http client for set-up, writes and scrapes.
var control = &http.Client{Timeout: 60 * time.Second}

// call issues one control-plane request, wants status, and decodes a
// JSON response into out when out is non-nil.
func call(method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := control.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return nil
}

// listImages reads GET /images.
func listImages(base string) ([]romserver.ImageInfo, error) {
	var infos []romserver.ImageInfo
	err := call(http.MethodGet, base+"/images", nil, http.StatusOK, &infos)
	return infos, err
}

// scrape reads and parses one Prometheus exposition.
func scrape(base string) (obsv.Parsed, error) {
	resp, err := control.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, resp.StatusCode)
	}
	return obsv.ParsePrometheus(resp.Body)
}

// appendPath renders op's request path into dst without allocating.
func appendPath(dst []byte, o op, name string) []byte {
	dst = append(dst, "/images/"...)
	dst = append(dst, name...)
	switch o.kind {
	case opBlock:
		dst = append(dst, "/blocks/"...)
		dst = strconv.AppendInt(dst, int64(o.a), 10)
	case opRange:
		dst = append(dst, "/blocks?range="...)
		dst = strconv.AppendInt(dst, int64(o.a), 10)
		dst = append(dst, '-')
		dst = strconv.AppendInt(dst, int64(o.b), 10)
	case opBytes:
		dst = append(dst, "/bytes?off="...)
		dst = strconv.AppendInt(dst, int64(o.a), 10)
		dst = append(dst, "&len="...)
		dst = strconv.AppendInt(dst, int64(o.b), 10)
	}
	return dst
}
