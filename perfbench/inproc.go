package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"codecomp"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
)

// formats indexes span.tag: the codec a decoded block was stored in.
var formats = []string{"-", "samc", "raw", "huffman", "rans"}

func formatTag(name string) uint8 {
	for i, f := range formats {
		if f == name {
			return uint8(i)
		}
	}
	return 0
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// shippedOptions mirrors the romserver.Options codecompd builds from its
// default flags (cmd/codecompd newDaemon), with cacheBlocks overriding
// -cache-blocks when non-zero and tieringOff standing for
// -tiering-interval 0.
func shippedOptions(cacheBlocks int, tieringOff bool) romserver.Options {
	if cacheBlocks == 0 {
		cacheBlocks = 8192
	}
	interval := 10 * time.Second
	if tieringOff {
		interval = -1
	}
	return romserver.Options{
		CacheBlocks:      cacheBlocks,
		CacheShards:      16,
		Workers:          8,
		PrefetchDepth:    4,
		TraceBuffer:      65536,
		LoadTimeout:      5 * time.Second,
		LoadAttempts:     3,
		ReverifyInterval: 2 * time.Second,
		Registry:         obsv.NewRegistry(),
		Tracer:           obsv.NewTracer(256, 16),
		Overload:         &overload.Config{},
		Tiering:          &romserver.TieringOptions{Interval: interval},
	}
}

// shadow is the benchmark's own decoded copy of one registered image,
// used to re-run the decode and CRC of every block a server call had to
// decode. A tiered shadow follows the server's tier map after each write.
type shadow struct {
	codec  codecomp.BlockCodec
	tiered *codecomp.TieredImage
	format uint8
}

func newShadow(im *image) (*shadow, error) {
	if codecomp.DetectFormat(im.payload) == codecomp.FormatTiered {
		t, err := codecomp.UnmarshalTiered(im.payload)
		if err != nil {
			return nil, err
		}
		return &shadow{codec: t, tiered: t}, nil
	}
	c, err := codecomp.UnmarshalAny(im.payload)
	if err != nil {
		return nil, err
	}
	return &shadow{codec: c, format: formatTag(codecomp.DetectFormat(im.payload))}, nil
}

// formatOf is the codec block b is stored in.
func (s *shadow) formatOf(b int) uint8 {
	if s.tiered == nil {
		return s.format
	}
	t, err := s.tiered.TierOf(b)
	if err != nil {
		return 0
	}
	return formatTag(s.tiered.Tiers()[t])
}

// follow migrates the shadow's blocks to the server's tier map.
func (s *shadow) follow(srv *romserver.Server, name string) error {
	if s.tiered == nil {
		return nil
	}
	info, err := srv.Tiering(name)
	if err != nil {
		return err
	}
	for b, want := range info.Assignments {
		if cur, err := s.tiered.TierOf(b); err == nil && cur != int(want) {
			if _, err := s.tiered.MigrateBlock(b, int(want), nil); err != nil {
				return fmt.Errorf("shadow migrate block %d: %w", b, err)
			}
		}
	}
	return nil
}

// inprocResult is what the in-process replay measured.
type inprocResult struct {
	ops   int64
	spans spanLog
	// decodeNs and decodeBytes sum full-block AppendBlock time and
	// output per format; decodes counts them.
	decodeNs, decodeBytes, decodes [8]int64
}

// replayInProcess replays the warm-up and then ops [from,to) against an
// in-process romserver.Server configured as codecompd ships, with the
// same closed loop of clients. Over [from,to) it times each public call
// and re-runs the decode and CRC of the blocks each call decoded. It
// stops early once budget has passed.
func replayInProcess(w *workload, imgs []*image, ops []op, from, to int64, budget time.Duration) (*inprocResult, error) {
	srv := romserver.New(shippedOptions(w.cache, w.writeEvery > 0))
	defer srv.Close()
	shadows := make([]*shadow, len(imgs))
	for i, im := range imgs {
		if _, err := srv.AddImage(im.name, im.payload); err != nil {
			return nil, fmt.Errorf("register %s: %w", im.name, err)
		}
		sh, err := newShadow(im)
		if err != nil {
			return nil, err
		}
		shadows[i] = sh
	}
	if w.writeEvery > 0 {
		err := convergeTiers(func(phase int) (romserver.TieringPassStats, error) {
			return inprocWrite(srv, imgs[0], ops, phase)
		})
		if err != nil {
			return nil, err
		}
		if err := shadows[0].follow(srv, imgs[0].name); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	res := &inprocResult{}
	for _, part := range []struct {
		from, to int64
		record   bool
	}{{0, int64(w.warmOps), false}, {from, to, true}} {
		if err := replayRange(srv, imgs, shadows, ops, part.from, part.to, part.record, start, budget, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// replayRange runs ops [from,to) with the closed loop of clients,
// adding what they recorded to res.
func replayRange(srv *romserver.Server, imgs []*image, shadows []*shadow, ops []op, from, to int64, record bool, start time.Time, budget time.Duration, res *inprocResult) error {
	var next atomic.Int64
	next.Store(from)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &replayer{srv: srv, imgs: imgs, shadows: shadows, seq: ops, start: start, record: record}
			for time.Since(start) < budget {
				i := next.Add(1) - 1
				if i >= to {
					break
				}
				if err := r.do(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			res.ops += r.ops
			res.spans.merge(&r.spans)
			for f := range res.decodeNs {
				res.decodeNs[f] += r.decodeNs[f]
				res.decodeBytes[f] += r.decodeBytes[f]
				res.decodes[f] += r.decodes[f]
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return firstErr
}

// inprocWrite is tierWrite through the public Go calls.
func inprocWrite(srv *romserver.Server, im *image, ops []op, phase int) (romserver.TieringPassStats, error) {
	if _, err := srv.TrainFrom(im.name, phaseAccesses(im, ops, phase)); err != nil {
		return romserver.TieringPassStats{}, err
	}
	return srv.Recompress(im.name)
}

// replayer is one in-process client.
type replayer struct {
	srv     *romserver.Server
	imgs    []*image
	shadows []*shadow
	seq     []op
	start   time.Time
	record  bool // time the calls and re-run their decodes
	inprocResult
	buf     bytes.Buffer
	scratch []byte
	cached  []bool
	op      []span // the spans of the operation in progress
}

func (r *replayer) ns(t time.Time) int64 { return t.Sub(r.start).Nanoseconds() }

// do replays op i and records its spans.
func (r *replayer) do(i int64) error {
	o := r.seq[i%int64(len(r.seq))]
	im, sh := r.imgs[o.img], r.shadows[o.img]
	ctx := context.Background()
	t0 := time.Now()
	if o.kind == opWrite {
		acc := phaseAccesses(im, r.seq, int(o.a))
		if _, err := r.srv.TrainFrom(im.name, acc); err != nil {
			return err
		}
		t1 := time.Now()
		st, err := r.srv.Recompress(im.name)
		if err != nil {
			return err
		}
		if st.VerifyFailures > 0 {
			return fmt.Errorf("in-process recompression: %d verify failures", st.VerifyFailures)
		}
		t2 := time.Now()
		if err := sh.follow(r.srv, im.name); err != nil {
			return err
		}
		if !r.record {
			return nil
		}
		r.spans.add([]span{
			{req: i, id: 0, parent: -1, name: spOp, start: r.ns(t0), end: r.ns(time.Now())},
			{req: i, id: 1, parent: 0, name: spTrainFrom, start: r.ns(t0), end: r.ns(t1)},
			{req: i, id: 2, parent: 0, name: spRecompress, start: r.ns(t1), end: r.ns(t2)},
		})
		r.ops++
		return nil
	}
	// Which blocks the call will decode: those not cached just before
	// it (CachedBlock is neutral to LRU order and hit accounting).
	first, last := im.opBlocks(o)
	r.cached = r.cached[:0]
	for b := first; r.record && b <= last; b++ {
		_, ok, err := r.srv.CachedBlock(im.name, b)
		if err != nil {
			return err
		}
		r.cached = append(r.cached, ok)
	}
	r.buf.Reset()
	callName := spBlockContext
	var t1, t2 time.Time
	if o.kind == opBlock {
		data, _, err := r.srv.BlockContext(ctx, im.name, first)
		t1 = time.Now()
		if err != nil {
			return err
		}
		r.buf.Write(data)
	} else {
		var v *romserver.View
		var err error
		if o.kind == opRange {
			callName = spRangeView
			v, err = r.srv.RangeView(im.name, first, last)
		} else {
			callName = spReadAt
			v, err = r.srv.ReadAtContext(ctx, im.name, int(o.a), int(o.b))
		}
		t1 = time.Now()
		if err != nil {
			return err
		}
		_, err = v.WriteTo(&r.buf)
		v.Close()
		t2 = time.Now()
		if err != nil {
			return err
		}
	}
	if !bytes.Equal(r.buf.Bytes(), im.want(o)) {
		return fmt.Errorf("in-process op %d on %s: bytes differ from the source text", i, im.name)
	}
	if !r.record {
		return nil
	}
	r.op = append(r.op[:0],
		span{req: i, id: 0, parent: -1, name: spOp, start: r.ns(t0)},
		span{req: i, id: 1, parent: 0, name: callName, start: r.ns(t0), end: r.ns(t1)})
	if o.kind != opBlock {
		r.op = append(r.op, span{req: i, id: 2, parent: 0, name: spWriteTo, start: r.ns(t1), end: r.ns(t2)})
	}
	// Re-run the decode (and, for verified blocks, the CRC) of every
	// block the call had to decode, as children of the call's span.
	id := int32(3)
	for k, hit := range r.cached {
		if hit {
			continue
		}
		b := first + k
		limit := 0
		if o.kind == opBytes && b == last {
			if end := int(o.a + o.b); end < min((b+1)*im.blockSize, len(im.text)) {
				limit = end - b*im.blockSize
			}
		}
		f := sh.formatOf(b)
		d0 := time.Now()
		var err error
		name := spAppendBlock
		if limit > 0 {
			name = spAppendPrefix
			r.scratch, _, err = codecomp.AppendBlockPrefix(sh.codec, r.scratch[:0], b, limit)
		} else {
			r.scratch, err = codecomp.AppendBlock(sh.codec, r.scratch[:0], b)
		}
		d1 := time.Now()
		if err != nil {
			return fmt.Errorf("shadow decode %s block %d: %w", im.name, b, err)
		}
		r.op = append(r.op, span{req: i, id: id, parent: 1, name: name, tag: f, n: int32(len(r.scratch)), start: r.ns(d0), end: r.ns(d1)})
		id++
		if limit > 0 {
			continue // partial tails are served unverified
		}
		r.decodeNs[f] += d1.Sub(d0).Nanoseconds()
		r.decodeBytes[f] += int64(len(r.scratch))
		r.decodes[f]++
		c0 := time.Now()
		crc32.Checksum(r.scratch, castagnoli)
		r.op = append(r.op, span{req: i, id: id, parent: 1, name: spCRC, n: int32(len(r.scratch)), start: r.ns(c0), end: r.ns(time.Now())})
		id++
	}
	r.op[0].end = r.ns(time.Now())
	r.spans.add(r.op)
	r.ops++
	return nil
}

// loadTimeoutOverhead times demand misses through BlockContext on the
// same blocks with the shipped options and with LoadTimeout: -1, in
// alternating order over several rounds, and returns the median of the
// per-round differences in mean miss time, in µs. The blocks are spaced
// wider than the prefetch depth so each one misses.
func loadTimeoutOverhead(w *workload, im *image) (float64, error) {
	const rounds, maxBlocks, stride = 5, 1024, 8
	var blocks []int
	for b := 0; b < im.blocks && len(blocks) < maxBlocks; b += stride {
		blocks = append(blocks, b)
	}
	opts := shippedOptions(w.cache, w.writeEvery > 0)
	noTimeout := opts
	noTimeout.LoadTimeout = -1
	noTimeout.Registry = obsv.NewRegistry()
	noTimeout.Tracer = obsv.NewTracer(256, 16)
	servers := []*romserver.Server{romserver.New(opts), romserver.New(noTimeout)}
	for _, s := range servers {
		defer s.Close()
	}
	missMean := func(s *romserver.Server) (float64, error) {
		s.RemoveImage(im.name) //nolint:errcheck — absent on the first round
		if _, err := s.AddImage(im.name, im.payload); err != nil {
			return 0, err
		}
		var total time.Duration
		misses := 0
		for _, b := range blocks {
			t := time.Now()
			data, hit, err := s.BlockContext(context.Background(), im.name, b)
			d := time.Since(t)
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(data, im.span(b, b)) {
				return 0, fmt.Errorf("load-timeout probe: block %d differs from the source text", b)
			}
			if !hit {
				total += d
				misses++
			}
		}
		if misses == 0 {
			return 0, errors.New("load-timeout probe: no misses")
		}
		return float64(total.Nanoseconds()) / float64(misses) / 1e3, nil
	}
	var diffs []float64
	for r := 0; r < rounds; r++ {
		var means [2]float64
		for k := 0; k < 2; k++ {
			s := (k + r) % 2 // alternate which configuration runs first
			m, err := missMean(servers[s])
			if err != nil {
				return 0, err
			}
			means[s] = m
		}
		diffs = append(diffs, means[0]-means[1])
	}
	return median(diffs), nil
}

// median of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
