package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"codecomp/internal/romserver"
)

// clients is the closed loop's size: one client per core of the 2-core
// box the benchmark is sized for. Each client is a refill engine that
// waits for its block before asking for the next.
const clients = 2

// target is what a loop drives: one entry address, the images behind
// it and the seeded operation sequence.
type target struct {
	addr string // host:port of codecompd or codecomprouter
	base string // its base URL, for writes
	imgs []*image
	ops  []op
}

// loopStats is one client's (or, merged, one loop's) record.
type loopStats struct {
	ok, failed, mismatches int64
	// reads and readNs count successful reads and sum their latency;
	// hits and misses split the block reads by their X-Cache header.
	reads, readNs, hits, misses int64
	// lat and at are each successful op's latency and completion time,
	// in ns; at counts from the window start.
	lat, at []int64
	// served and decoded sum response bytes and the bytes the server
	// decoded on the request's behalf (X-Decoded-Bytes, or the block on
	// an X-Cache miss).
	served, decoded int64
	passes          []romserver.TieringPassStats
	spans           spanLog
	firstErr        error
}

func (s *loopStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *loopStats) merge(o *loopStats) {
	s.ok += o.ok
	s.failed += o.failed
	s.mismatches += o.mismatches
	s.reads += o.reads
	s.readNs += o.readNs
	s.hits += o.hits
	s.misses += o.misses
	s.lat = append(s.lat, o.lat...)
	s.at = append(s.at, o.at...)
	s.served += o.served
	s.decoded += o.decoded
	s.passes = append(s.passes, o.passes...)
	s.spans.merge(&o.spans)
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// loopSpec bounds one closed-loop run: either count operations from
// first, or everything completed within dur.
type loopSpec struct {
	first int64
	count int64         // > 0: run exactly ops [first, first+count)
	dur   time.Duration // count == 0: run until dur has passed
	trace bool          // record client spans
}

// runLoop drives t with the closed loop and returns the merged record
// and the index of the next unissued operation. Times are recorded
// relative to start.
func runLoop(t *target, spec loopSpec, start time.Time) (*loopStats, int64) {
	var next atomic.Int64
	next.Store(spec.first)
	per := make([]*loopStats, clients)
	var wg sync.WaitGroup
	for c := range per {
		st := &loopStats{}
		per[c] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			runClient(t, spec, &next, start, st)
		}()
	}
	wg.Wait()
	all := &loopStats{}
	for _, st := range per {
		all.merge(st)
	}
	return all, next.Load()
}

func runClient(t *target, spec loopSpec, next *atomic.Int64, start time.Time, st *loopStats) {
	c := newConn(t.addr)
	defer c.close()
	var path []byte
	limit := spec.first + spec.count
	for {
		if spec.count == 0 && time.Since(start) >= spec.dur {
			return
		}
		i := next.Add(1) - 1
		if spec.count > 0 && i >= limit {
			return
		}
		o := t.ops[i%int64(len(t.ops))]
		im := t.imgs[o.img]
		t0 := time.Now()
		if o.kind == opWrite {
			pass, err := tierWrite(t.base, im, t.ops, int(o.a))
			switch {
			case err != nil:
				st.fail(err)
			case pass.VerifyFailures > 0:
				st.fail(fmt.Errorf("recompression pass: %d verify failures", pass.VerifyFailures))
			default:
				st.passes = append(st.passes, pass)
				st.record(start, t0, time.Now())
			}
			continue
		}
		path = appendPath(path[:0], o, im.name)
		r, err := c.get(path)
		t1 := time.Now()
		if err != nil {
			st.fail(err)
			continue
		}
		if r.status != 200 {
			st.fail(fmt.Errorf("GET %s: status %d: %s", path, r.status, r.body))
			continue
		}
		if !bytes.Equal(r.body, im.want(o)) {
			st.mismatches++
			st.fail(fmt.Errorf("GET %s: %d bytes differ from the source text", path, len(r.body)))
			continue
		}
		t2 := time.Now()
		st.reads++
		st.readNs += t2.Sub(t0).Nanoseconds()
		st.served += int64(len(r.body))
		switch {
		case r.decoded >= 0:
			st.decoded += int64(r.decoded)
		case r.hit:
			st.hits++
		default:
			st.misses++
			st.decoded += int64(len(r.body))
		}
		if spec.trace {
			at := func(t time.Time) int64 { return t.Sub(start).Nanoseconds() }
			st.spans.add([]span{
				{req: i, id: 0, parent: -1, name: spHTTPRequest, start: at(t0), end: at(t2)},
				{req: i, id: 1, parent: 0, name: spHTTPRoundtrip, start: at(t0), end: at(t1)},
				{req: i, id: 2, parent: 0, name: spVerify, start: at(t1), end: at(t2)},
			})
		}
		st.record(start, t0, t2)
	}
}

// record books one successful op that ran from t0 to t1.
func (s *loopStats) record(start, t0, t1 time.Time) {
	s.ok++
	s.lat = append(s.lat, t1.Sub(t0).Nanoseconds())
	s.at = append(s.at, t1.Sub(start).Nanoseconds())
}

// window is one measured run of the closed loop: the loop record plus
// what was sampled at each slice boundary.
type window struct {
	stats  *loopStats
	dur    time.Duration
	cpu    []float64 // server CPU seconds at slice boundaries 0..slices
	ratios []float64 // stored/source bytes at slice boundaries 1..slices
	next   int64
	slices int
}

// measure runs the loop for dur from op first, sampling server CPU and
// the stored-bytes ratio at the boundary of every one-second slice.
func measure(t *target, procs []*proc, first int64, dur time.Duration, trace bool) (*window, error) {
	slices := max(int(dur/time.Second), 1)
	w := &window{dur: dur, slices: slices, cpu: make([]float64, slices+1)}
	start := time.Now()
	var sampleErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k <= slices; k++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(k) / time.Duration(slices))))
			cpu, err := serverCPU(procs)
			if err == nil && k > 0 {
				var ratio float64
				ratio, err = storedRatio(t.base)
				w.ratios = append(w.ratios, ratio)
			}
			if err != nil && sampleErr == nil {
				sampleErr = err
			}
			w.cpu[k] = cpu
		}
	}()
	w.stats, w.next = runLoop(t, loopSpec{first: first, dur: dur, trace: trace}, start)
	<-done
	return w, sampleErr
}

// serverCPU sums user+system CPU seconds over the server processes.
func serverCPU(procs []*proc) (float64, error) {
	total := 0.0
	for _, p := range procs {
		v, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// sliceStat is one slice's end-to-end figures.
type sliceStat struct {
	rps, p50us, p90us, cpuUsPerReq float64
	n                              int
}

// slicesOf splits the window into its equal time slices.
func (w *window) slicesOf() []sliceStat {
	width := w.dur.Nanoseconds() / int64(w.slices)
	lats := make([][]int64, w.slices)
	for i, at := range w.stats.at {
		k := int(at / width)
		if k >= w.slices {
			continue // completed after the window closed
		}
		lats[k] = append(lats[k], w.stats.lat[i])
	}
	out := make([]sliceStat, w.slices)
	secs := float64(width) / 1e9
	for k, l := range lats {
		sortInt64(l)
		s := sliceStat{n: len(l), rps: float64(len(l)) / secs}
		if len(l) > 0 {
			s.p50us = float64(quantile(l, 0.50)) / 1e3
			s.p90us = float64(quantile(l, 0.90)) / 1e3
			s.cpuUsPerReq = (w.cpu[k+1] - w.cpu[k]) * 1e6 / float64(len(l))
		}
		out[k] = s
	}
	return out
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// quantile is the nearest-rank q-quantile of sorted s.
func quantile(sorted []int64, q float64) int64 {
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
