package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"codecomp"
	"codecomp/internal/cluster/client"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
)

// TestWriteErrOverloadMapping pins the node's romserver error → status
// table: admission rejects are 429 + Retry-After, brownout sheds are
// 503 + Retry-After, propagated-deadline expiry is 504, a missing
// trace, profile or tier map is a 409 and a bad policy the caller's
// fault (400).
func TestWriteErrOverloadMapping(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		status     int
		retryAfter bool
	}{
		{"admission deadline", &overload.RejectError{Reason: overload.ReasonDeadline, RetryAfter: 2 * time.Second}, http.StatusTooManyRequests, true},
		{"admission queue full", &overload.RejectError{Reason: overload.ReasonQueueFull, RetryAfter: time.Second}, http.StatusTooManyRequests, true},
		{"brownout shed", &overload.RejectError{Reason: overload.ReasonBrownout, RetryAfter: 3 * time.Second}, http.StatusServiceUnavailable, true},
		{"deadline expired", context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{"canceled", context.Canceled, http.StatusGatewayTimeout, false},
		{"quarantined", romserver.ErrQuarantined, http.StatusServiceUnavailable, false},
		{"timeout", romserver.ErrDecompressTimeout, http.StatusGatewayTimeout, false},
		{"no trace", fmt.Errorf("%w: %q", romserver.ErrNoTrace, "img"), http.StatusConflict, false},
		{"no profile", romserver.ErrNoProfile, http.StatusConflict, false},
		{"not tiered", romserver.ErrNotTiered, http.StatusConflict, false},
		{"bad policy", fmt.Errorf("%w: hot > 1", romserver.ErrBadPolicy), http.StatusBadRequest, false},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeErr(rec, tc.err)
		if rec.Code != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, rec.Code, tc.status)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
			t.Errorf("%s: Retry-After present = %v, want %v", tc.name, got, tc.retryAfter)
		}
	}
}

// TestRegistryDiskAgreement races re-registrations against deletes of
// one name at a node with a data dir — each round a delete lands at a
// seeded offset into a concurrent upload's registry → store write-through
// — and after every round the registry must list exactly what is on
// disk, format for format. A restart from the same dir must then serve
// the same list.
func TestRegistryDiskAgreement(t *testing.T) {
	// A small image keeps registration cheap, so the delete offsets span
	// the whole upload.
	_, text := testImage(t)
	text = text[:1024]
	samc, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{BlockSize: testBlockSize, Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	rans, err := codecomp.CompressRANS(text, codecomp.RANSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{samc.Marshal(), rans.Marshal()}
	dir := t.TempDir()
	n1, err := NewNode(NodeOptions{Name: "n1", DataDir: dir, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	h := n1.Handler()
	serve := func(method, target string, body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return rec.Code
	}
	srv := httptest.NewServer(h)
	cli := client.New(srv.URL, nil)

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		if code := serve(http.MethodPost, "/images?name=prog", payloads[0]); code != http.StatusCreated {
			t.Fatalf("round %d: seed upload: %d", round, code)
		}
		payload := payloads[rng.Intn(len(payloads))]
		delay := time.Duration(rng.Intn(400)) * time.Microsecond
		var upload, del int
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			upload = serve(http.MethodPost, "/images?name=prog", payload)
		}()
		go func() {
			defer wg.Done()
			for start := time.Now(); time.Since(start) < delay; {
			}
			del = serve(http.MethodDelete, "/images/prog", nil)
		}()
		wg.Wait()
		if upload != http.StatusCreated || (del != http.StatusNoContent && del != http.StatusNotFound) {
			t.Fatalf("round %d: upload %d, delete %d", round, upload, del)
		}
		if reg, disk := listed(t, cli), stored(t, n1.st); reg != disk {
			t.Fatalf("round %d (delete after %v): the registry lists %s but the disk holds %s", round, delay, reg, disk)
		}
	}

	before := listed(t, cli)
	srv.Close()
	n1.Close()
	n2, err := NewNode(NodeOptions{Name: "n1", DataDir: dir, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	srv2 := httptest.NewServer(n2.Handler())
	defer srv2.Close()
	if after := listed(t, client.New(srv2.URL, nil)); after != before {
		t.Fatalf("after restart the registry lists %s, before it %s", after, before)
	}
}

// listed renders GET /images as sorted name=format pairs.
func listed(t *testing.T, cli *client.Client) string {
	t.Helper()
	infos, err := cli.Images()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(infos))
	for _, in := range infos {
		out = append(out, in.Name+"="+in.Format)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// stored renders the store's images as sorted name=format pairs.
func stored(t *testing.T, st *Store) string {
	t.Helper()
	imgs, errs := st.Load()
	if len(errs) > 0 {
		t.Fatalf("store load: %v", errs)
	}
	out := make([]string, 0, len(imgs))
	for _, im := range imgs {
		out = append(out, im.Name+"="+codecomp.DetectFormat(im.Payload))
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// FuzzParseRange: any range= string either parses to an interval with
// 0 <= first <= last that round-trips through its canonical form, or
// is rejected — never a panic.
func FuzzParseRange(f *testing.F) {
	for _, s := range []string{"1-10", "0-0", "", "5-2", "x-3", "-1-4", "3", "1-", "+1-2", "1--2", "9223372036854775807-9223372036854775807"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		first, last, ok := parseRange(s)
		if !ok {
			return
		}
		if first < 0 || first > last {
			t.Fatalf("parseRange(%q) = [%d,%d]", s, first, last)
		}
		f2, l2, ok2 := parseRange(fmt.Sprintf("%d-%d", first, last))
		if !ok2 || f2 != first || l2 != last {
			t.Fatalf("parseRange(%q) = [%d,%d] does not round-trip", s, first, last)
		}
	})
}
