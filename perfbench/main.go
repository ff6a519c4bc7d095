// Command perfbench is codecomp's end-to-end serving benchmark. It builds
// nothing itself (run.sh builds codecompd, codecomprouter and this
// load generator from the checkout); it execs the servers with their shipped
// default flags on loopback ports, drives them with a closed loop of two
// keep-alive clients, checks every served byte against the seeded source
// text, and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload hot_blocks --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics declared in BENCHMARK.json;
// --trace 1 runs the same window again with client spans, replays the
// operation sequence in process against romserver.Server's public calls,
// and reports the per-layer metrics, each layer's self time and the
// tracing overhead. Span files land in the -out directory.
//
// Workloads (see workloads.go for the exact geometry):
//
//	hot_blocks     codecompd, gcc SAMC/32 B, seeded fetch-trace block reads;
//	               its traced run also replays them through codecomprouter
//	               over two codecompd nodes
//	cold_blocks    codecompd, 18 SPEC95 SAMC/32 B images, uniform block reads
//	tiered_ranges  codecompd -tiering-interval 0 -cache-blocks 512, gcc
//	               raw/huffman/rans tiers at 128 B, byte and range reads
//	               plus a retrain+recompress write every 256 ops
//
// Every metric is measured from outside the servers: client timing, the
// servers' own /metrics scraped before and after the window, response
// headers, /proc/<pid>/stat and /proc/<pid>/status, and timed calls into
// the layers' public Go functions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// Run shape. Set-up is repeated so setup_s is a median, and each window
// is cut into one-second slices whose median figures are reported, so a
// few noisy seconds cannot move a result.
const (
	setups       = 3
	healthyAfter = 30 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload: hot_blocks, cold_blocks or tiered_ranges")
	seed := flag.Int64("seed", 1, "seed of the operation sequence")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	bin := flag.String("bin", "", "directory holding the codecompd and codecomprouter binaries")
	out := flag.String("out", ".", "directory the span files are written to")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need -bin, a known --workload, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	decl, err := readSpec("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	if err := pinToOneCPU(); err != nil {
		fail(err)
	}
	// A traced run reports no end-to-end metric, and runs several
	// windows and replays, so each of its windows is a third as long.
	window := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		window = max(window/3, time.Second)
	}
	r := &run{w: w, seed: *seed, window: window, traced: *trace == 1, bin: *bin, out: *out}
	res, err := r.execute()
	if err != nil {
		fail(err)
	}
	want := decl.EndToEnd
	if r.traced {
		want = decl.PerLayer
	}
	if err := res.emit(slices.Concat(decl.EndToEnd, decl.PerLayer), want); err != nil {
		fail(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// run is one invocation: a workload, a seed, a window length.
type run struct {
	w      *workload
	seed   int64
	window time.Duration
	traced bool
	bin    string
	out    string
}

// stack is one set-up: running servers with registered, warmed images.
type stack struct {
	procs []*proc // every server process, nodes first
	nodes []*proc // the codecompd processes
	entry *proc   // where the clients connect
	imgs  []*image
	next  int64 // first operation after the warm-up

	compress, register, warm, total time.Duration
}

func (s *stack) stop() {
	for i := len(s.procs) - 1; i >= 0; i-- {
		s.procs[i].stop()
	}
}

func (s *stack) target(ops []op) *target {
	return &target{addr: s.entry.addr, base: s.entry.url(), imgs: s.imgs, ops: ops}
}

// commandLines renders the server command lines of a stack.
func (s *stack) commandLines() string {
	var lines []string
	for _, p := range s.procs {
		lines = append(lines, filepath.Base(p.cmd.Path)+" "+strings.Join(p.cmd.Args[1:], " "))
	}
	return strings.Join(lines, " ; ")
}

// setUp execs the servers, builds and registers the images, prepares
// them and runs the warm-up. Its total is the setup_s sample: server
// exec to the first operation of the window. routed puts
// codecomprouter in front of two codecompd nodes.
func (r *run) setUp(ops []op, routed bool) (st *stack, err error) {
	t0 := time.Now()
	st = &stack{}
	defer func() {
		if err != nil {
			st.stop()
		}
	}()
	nodes, warmOps := 1, r.w.warmOps
	if routed {
		nodes, warmOps = 2, routerWarmOps
	}
	for i := 0; i < nodes; i++ {
		p, err := startProc(fmt.Sprintf("codecompd-%c", 'a'+i), filepath.Join(r.bin, "codecompd"), r.w.serverArgs()...)
		if err != nil {
			return st, err
		}
		st.procs = append(st.procs, p)
		st.nodes = append(st.nodes, p)
	}
	t := time.Now()
	if st.imgs, err = r.w.build(); err != nil {
		return st, err
	}
	st.compress = time.Since(t)
	for _, p := range st.nodes {
		if err := p.waitHealthy(control, healthyAfter); err != nil {
			return st, err
		}
	}
	st.entry = st.nodes[0]
	if routed {
		var members []string
		for i, p := range st.nodes {
			members = append(members, fmt.Sprintf("%c=%s", 'a'+i, p.url()))
		}
		p, err := startProc("codecomprouter", filepath.Join(r.bin, "codecomprouter"), "-nodes", strings.Join(members, ","))
		if err != nil {
			return st, err
		}
		st.procs = append(st.procs, p)
		st.entry = p
		if err := p.waitHealthy(control, healthyAfter); err != nil {
			return st, err
		}
	}
	t = time.Now()
	for _, im := range st.imgs {
		if err := call("POST", st.entry.url()+"/images?name="+im.name, im.payload, 201, nil); err != nil {
			return st, err
		}
	}
	if r.w.prepare != nil {
		if err := r.w.prepare(st.entry.url(), st.imgs, ops); err != nil {
			return st, err
		}
	}
	st.register = time.Since(t)
	t = time.Now()
	warm, next := runLoop(st.target(ops), loopSpec{count: int64(warmOps)}, t)
	if warm.failed > 0 {
		return st, fmt.Errorf("warm-up: %d of %d operations failed; first: %v", warm.failed, warm.ok+warm.failed, warm.firstErr)
	}
	st.next = next
	st.warm = time.Since(t)
	st.total = time.Since(t0)
	return st, nil
}

// result is what one invocation prints.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`

	values map[string]float64
	notes  []string
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *result) set(name string, v float64) { res.values[name] = v }

func (res *result) note(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// emit prints the notes, a "metric" line for every declared metric the
// run produced, and the JSON result line last, which carries exactly the
// metrics in want. A wanted metric the run did not produce is an error.
func (res *result) emit(declared, want []metricDecl) error {
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, m := range declared {
		if v, ok := res.values[m.Name]; ok {
			fmt.Printf("metric %-40s %16.6f %s\n", m.Name, v, m.Unit)
		}
	}
	res.Metrics = make(map[string]metricJSON, len(want))
	for _, m := range want {
		v, ok := res.values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json but not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricJSON{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// execute runs the whole invocation.
func (r *run) execute() (*result, error) {
	res := &result{values: map[string]float64{}, Correct: true}
	imgs, err := r.w.build()
	if err != nil {
		return nil, err
	}
	ops := r.w.ops(r.seed, imgs)
	var names []string
	for _, im := range imgs {
		names = append(names, im.name)
	}
	res.note("workload %s seed %d: images %s; %d blocks, %d source bytes; %d ops per cycle touching %d blocks; %d warm-up ops; cache %s",
		r.w.name, r.seed, strings.Join(names, ","), totalBlocks(imgs), totalBytes(imgs), len(ops), workingSet(imgs, ops), r.w.warmOps, cacheDesc(r.w))
	res.note("why: %s", r.w.why)

	var st *stack
	var samples [4][]float64 // total, compress, register, warm
	for i := 0; i < setups; i++ {
		if st != nil {
			st.stop()
		}
		if st, err = r.setUp(ops, false); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		for k, d := range []time.Duration{st.total, st.compress, st.register, st.warm} {
			samples[k] = append(samples[k], d.Seconds())
		}
	}
	defer st.stop()
	res.note("servers: %s", st.commandLines())
	for k, name := range []string{"setup_s", "setup.compress_s", "setup.register_s", "setup.warm_s"} {
		res.reportSpread(name, samples[k], setups)
	}
	res.set("setup_s", median(samples[0]))
	res.set("setup.compress_s", median(samples[1]))
	res.set("setup.register_s", median(samples[2]))
	res.set("setup.warm_s", median(samples[3]))

	tgt := st.target(ops)
	before, err := scrapeAll(st.procs)
	if err != nil {
		return nil, err
	}
	win, err := measure(tgt, st.procs, st.next, r.window, false)
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(st.procs)
	if err != nil {
		return nil, err
	}
	res.count(win.stats)
	e2e := res.endToEnd(win, "")

	rss, err := peakRSS(st.procs)
	if err != nil {
		return nil, err
	}
	res.set("server_rss_mib", rss)

	if r.traced {
		if err := r.perLayer(res, st, ops, win, e2e, scrapeDelta{before, after}); err != nil {
			return nil, err
		}
	}
	if err := res.checkServers(st.procs); err != nil {
		return nil, err
	}
	if r.traced && r.w.layerProbe != "" {
		st.stop()
		pw, ok := workloadByName(r.w.layerProbe)
		if !ok {
			return nil, fmt.Errorf("unknown probe workload %q", r.w.layerProbe)
		}
		probe := *r
		probe.w = pw
		pres, err := probe.execute()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", pw.name, err)
		}
		res.adopt(pres, pw.name)
	}
	return res, nil
}

// adopt takes from a probe run every metric this run left at zero, the
// layers this workload does not exercise, and books the probe's
// operations, correctness and notes.
func (res *result) adopt(p *result, label string) {
	for name, v := range p.values {
		if res.values[name] == 0 {
			res.values[name] = v
		}
	}
	res.Attempted += p.Attempted
	res.Failed += p.Failed
	res.Correct = res.Correct && p.Correct
	for _, n := range p.notes {
		res.note("%s: %s", label, n)
	}
}

// count books a window's operations against the result.
func (res *result) count(s *loopStats) {
	res.Attempted += s.ok + s.failed
	res.Failed += s.failed
	if s.mismatches > 0 {
		res.Correct = false
		res.note("CORRECTNESS: %d responses differed from the source text", s.mismatches)
	}
	if s.firstErr != nil {
		res.note("first failure: %v", s.firstErr)
	}
}

// e2eFigures are a window's slice medians.
type e2eFigures struct{ rps, p50, p90, cpu float64 }

// endToEnd sets the end-to-end metrics of a window (prefix "" for the
// gated window) and prints its steadiness report.
func (res *result) endToEnd(win *window, label string) e2eFigures {
	sl := win.slicesOf()
	col := func(f func(sliceStat) float64) []float64 {
		out := make([]float64, len(sl))
		for i, s := range sl {
			out[i] = f(s)
		}
		return out
	}
	rps := col(func(s sliceStat) float64 { return s.rps })
	p50 := col(func(s sliceStat) float64 { return s.p50us })
	p90 := col(func(s sliceStat) float64 { return s.p90us })
	cpu := col(func(s sliceStat) float64 { return s.cpuUsPerReq })
	n := 0
	for _, s := range sl {
		n += s.n
	}
	tag := func(m string) string {
		if label == "" {
			return m
		}
		return label + "." + m
	}
	res.reportSpread(tag("throughput_rps"), rps, n)
	res.reportSpread(tag("latency_p50_us"), p50, n)
	res.reportSpread(tag("latency_p90_us"), p90, n)
	res.reportSpread(tag("server_cpu_us_per_req"), cpu, n)
	res.reportSpread(tag("bytes_stored_ratio"), win.ratios, len(win.ratios))

	all := make([]int64, 0, len(win.stats.lat))
	for i, at := range win.stats.at {
		if at < win.dur.Nanoseconds() {
			all = append(all, win.stats.lat[i])
		}
	}
	sortInt64(all)
	if len(all) > 0 {
		res.note("steady %s: p99 %.3f us over %d samples (%d beyond it); not gated",
			tag("latency_p99_us"), float64(quantile(all, 0.99))/1e3, len(all), len(all)-int(0.99*float64(len(all))+0.5))
	}
	f := e2eFigures{rps: median(rps), p50: median(p50), p90: median(p90), cpu: median(cpu)}
	if label == "" {
		res.set("throughput_rps", f.rps)
		res.set("latency_p50_us", f.p50)
		res.set("server_cpu_us_per_req", f.cpu)
		res.set("bytes_stored_ratio", median(win.ratios))
	}
	return f
}

// reportSpread prints a metric's median and quartiles across the
// samples behind it (window slices, or set-ups for setup_s).
func (res *result) reportSpread(name string, xs []float64, samples int) {
	q1, q2, q3 := quartiles(xs)
	iqr := 0.0
	if q2 != 0 {
		iqr = (q3 - q1) / math.Abs(q2)
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	res.note("steady %s: median %.4f q1 %.4f q3 %.4f iqr/median %.4f over %d parts [%s], %d samples",
		name, q2, q1, q3, iqr, len(xs), strings.Join(parts, " "), samples)
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// "exclusive" method, so the report reads like the acceptance check.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := float64(n + 1)
		j := int(math.Floor(float64(i) * m / 4))
		delta := float64(i)*m/4 - float64(j)
		lo := s[max(min(j-1, n-1), 0)]
		hi := s[max(min(j, n-1), 0)]
		return lo + (hi-lo)*delta
	}
	return at(1), median(s), at(3)
}

// peakRSS sums the server processes' peak resident sets.
func peakRSS(procs []*proc) (float64, error) {
	rss := 0.0
	for _, p := range procs {
		v, err := p.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		rss += v
	}
	return rss, nil
}

// storedRatio is compressed over source bytes across GET /images.
func storedRatio(base string) (float64, error) {
	infos, err := listImages(base)
	if err != nil {
		return 0, err
	}
	var comp, orig float64
	for _, in := range infos {
		comp += float64(in.CompressedSize)
		orig += float64(in.OrigSize)
	}
	if orig == 0 {
		return 0, errors.New("GET /images listed no source bytes")
	}
	return comp / orig, nil
}

// checkServers asserts, on the servers' own counters, that nothing was
// corrupted, rolled back or refused during the run.
func (res *result) checkServers(procs []*proc) error {
	final, err := scrapeAll(procs)
	if err != nil {
		return err
	}
	for _, fam := range []string{
		"romserver_corrupt_blocks_total",
		"tiering_verify_failures_total",
		"overload_admission_rejects_total",
		"overload_brownout_shed_total",
	} {
		if v := final.total(fam, nil); v != 0 {
			res.Correct = false
			res.note("CORRECTNESS: %s = %v, want 0", fam, v)
		}
	}
	return nil
}

func totalBlocks(imgs []*image) int {
	n := 0
	for _, im := range imgs {
		n += im.blocks
	}
	return n
}

// workingSet counts the distinct blocks one cycle of ops touches.
func workingSet(imgs []*image, ops []op) int {
	seen := make(map[[2]int]bool)
	for _, o := range ops {
		first, last := imgs[o.img].opBlocks(o)
		for b := first; o.kind != opWrite && b <= last; b++ {
			seen[[2]int{int(o.img), b}] = true
		}
	}
	return len(seen)
}

func totalBytes(imgs []*image) int {
	n := 0
	for _, im := range imgs {
		n += len(im.text)
	}
	return n
}

func cacheDesc(w *workload) string {
	if w.cache == 0 {
		return "8192 blocks (shipped default)"
	}
	return fmt.Sprintf("%d blocks", w.cache)
}
