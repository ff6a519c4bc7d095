package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"codecomp"
	"codecomp/internal/romserver"
	"codecomp/internal/traceprof"
)

// opKind is what one closed-loop operation does.
type opKind uint8

const (
	opBlock opKind = iota // GET /images/{name}/blocks/{a}
	opRange               // GET /images/{name}/blocks?range={a}-{b}
	opBytes               // GET /images/{name}/bytes?off={a}&len={b}
	opWrite               // retrain on phase {a}'s hot region, then PUT /tiering?recompress=1
)

// op is one entry of a workload's seeded operation sequence.
type op struct {
	kind opKind
	img  uint8
	a, b int32
}

// image is one compressed program the benchmark registers: its source
// text is the oracle every served byte is compared against.
type image struct {
	name      string
	text      []byte
	payload   []byte
	blockSize int
	blocks    int
}

// want is the exact source text op o must return.
func (im *image) want(o op) []byte {
	switch o.kind {
	case opBlock:
		return im.span(int(o.a), int(o.a))
	case opRange:
		return im.span(int(o.a), int(o.b))
	case opBytes:
		return im.text[o.a : o.a+o.b]
	}
	return nil
}

// span is the text of blocks [first,last].
func (im *image) span(first, last int) []byte {
	return im.text[first*im.blockSize : min((last+1)*im.blockSize, len(im.text))]
}

// opBlocks is the first and last block op o touches.
func (im *image) opBlocks(o op) (first, last int) {
	switch o.kind {
	case opRange:
		return int(o.a), int(o.b)
	case opBytes:
		return int(o.a) / im.blockSize, int(o.a+o.b-1) / im.blockSize
	}
	return int(o.a), int(o.a)
}

// workload is one traffic mix: the images it registers, its seeded
// operation sequence, and the server flags it departs from the shipped
// defaults with (each departure is documented where it is set).
type workload struct {
	name string
	why  string
	// routerProbe makes the traced run also drive the operations
	// through codecomprouter fronting two codecompd nodes.
	routerProbe bool
	// layerProbe names a workload whose traced run this one's traced
	// run also makes, to measure the layers this one does not exercise.
	layerProbe string
	// cache is codecompd's -cache-blocks; 0 keeps the shipped 8192.
	cache int
	// warmOps is how many leading operations the warm-up pass runs.
	warmOps int
	// writeEvery makes every writeEvery-th operation a write (0: none).
	writeEvery int
	// build generates and compresses the images (timed as set-up).
	build func() ([]*image, error)
	// ops generates the seeded operation sequence.
	ops func(seed int64, imgs []*image) []op
	// prepare runs after registration: training and tier convergence.
	prepare func(base string, imgs []*image, ops []op) error
}

// Workload geometry. The gcc profile is the largest SPEC95 program
// (327,900 B of MIPS text).
const (
	pointBlock = 32      // SAMC block size of the per-block workloads
	traceFetch = 1000000 // instruction fetches in the hot trace
	hotWarmOps = 16384   // leading trace reads before the window
	// The routed path serves about a fifth of the direct rate, so its
	// warm-up is shorter; the trace's few hundred hot blocks are cached
	// long before either count is reached.
	routerWarmOps = 4096
	coldOps       = 1 << 18 // uniform reads in one cycle of the cold sequence
	coldWarmOps   = 8192    // about one cache's worth of misses

	tierBlock      = 128 // tiered container block size
	tierHot        = 256 // hot-region size, blocks (32 KiB)
	tierShift      = 64  // blocks the hot region moves at each write
	tierCache      = 512 // -cache-blocks: the hot region fits, the 2,562-block image does not
	tierOps        = 1 << 16
	tierWriteEvery = 256
	tierWarmOps    = 4096
	tierHotShare   = 0.9 // share of reads that start in the hot region
	tierMaxBytes   = 4096
	tierMaxBlocks  = 64
)

var workloads = []*workload{
	{
		name:        "hot_blocks",
		why:         "gcc MIPS fetch trace as per-block reads on a warm 8192-block cache: >99% hits, so HTTP, admission, pool handoff and cache hit path dominate",
		warmOps:     hotWarmOps,
		build:       buildGCC,
		ops:         traceOps,
		routerProbe: true,
	},
	{
		name:       "cold_blocks",
		why:        "uniform reads over all 18 SPEC95 SAMC images (39,964 blocks, 4.9x the cache): ~80% misses, so decode, CRC verify, queueing, eviction and prefetch dominate",
		warmOps:    coldWarmOps,
		build:      buildSuite,
		ops:        uniformOps,
		layerProbe: "tiered_ranges",
	},
	{
		name:       "tiered_ranges",
		why:        "hot-skewed byte windows and block ranges on a raw/huffman/rans tiered gcc image, 512-block cache, with a retrain+recompress write every 256 ops",
		cache:      tierCache,
		warmOps:    tierWarmOps,
		writeEvery: tierWriteEvery,
		build:      buildTiered,
		ops:        tieredOps,
		prepare: func(base string, imgs []*image, ops []op) error {
			return convergeTiers(func(phase int) (romserver.TieringPassStats, error) {
				return tierWrite(base, imgs[0], ops, phase)
			})
		},
	},
}

// serverArgs are the codecompd flags w departs from the defaults with.
// A workload with writes turns the timer-driven recompressor off, so
// migrations follow the op sequence; the tiered workload shrinks the
// cache so its hot region fits and its image does not.
func (w *workload) serverArgs() []string {
	var args []string
	if w.writeEvery > 0 {
		args = append(args, "-tiering-interval", "0")
	}
	if w.cache > 0 {
		args = append(args, "-cache-blocks", fmt.Sprint(w.cache))
	}
	return args
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// newImage generates profile's text and compresses it with compress.
func newImage(name string, p codecomp.Profile, blockSize int, compress func([]byte) ([]byte, int, error)) (*image, error) {
	text := codecomp.GenerateMIPS(p).Text()
	payload, blocks, err := compress(text)
	if err != nil {
		return nil, fmt.Errorf("compress %s: %w", name, err)
	}
	return &image{name: name, text: text, payload: payload, blockSize: blockSize, blocks: blocks}, nil
}

func samc(text []byte) ([]byte, int, error) {
	c, err := codecomp.CompressSAMC(text, codecomp.SAMCOptions{BlockSize: pointBlock, Connected: true})
	if err != nil {
		return nil, 0, err
	}
	return c.Marshal(), c.NumBlocks(), nil
}

func buildGCC() ([]*image, error) {
	im, err := newImage("gcc", codecomp.MustProfile("gcc"), pointBlock, samc)
	if err != nil {
		return nil, err
	}
	return []*image{im}, nil
}

func buildSuite() ([]*image, error) {
	var imgs []*image
	for _, p := range codecomp.SPEC95() {
		im, err := newImage(p.Name, p, pointBlock, samc)
		if err != nil {
			return nil, err
		}
		imgs = append(imgs, im)
	}
	return imgs, nil
}

// tierSpec is the tiered workload's container: every block starts in
// the densest tier and the heat policy promotes the hot region.
var tierSpec = codecomp.TierSpec{
	BlockSize:   tierBlock,
	Tiers:       []string{codecomp.TierRaw, codecomp.TierHuffman, codecomp.TierRANS},
	DefaultTier: 2,
}

func buildTiered() ([]*image, error) {
	im, err := newImage("gcc-tiered", codecomp.MustProfile("gcc"), tierBlock, func(text []byte) ([]byte, int, error) {
		c, err := codecomp.CompressTiered(text, tierSpec)
		if err != nil {
			return nil, 0, err
		}
		return c.Marshal(), c.NumBlocks(), nil
	})
	if err != nil {
		return nil, err
	}
	return []*image{im}, nil
}

// traceOps is the seeded gcc instruction-fetch trace reduced to its
// block-change stream, as the refill engine behind a one-line buffer
// would request it.
func traceOps(seed int64, imgs []*image) []op {
	im := imgs[0]
	fetches := codecomp.GenerateMIPS(codecomp.MustProfile("gcc")).Trace(seed, traceFetch)
	ops := make([]op, 0, len(fetches)/4)
	last := -1
	for _, a := range fetches {
		b := int(a-codecomp.TextBase) / im.blockSize
		if b != last && b < im.blocks {
			ops = append(ops, op{kind: opBlock, a: int32(b)})
			last = b
		}
	}
	return ops
}

// uniformOps picks blocks uniformly over every block of every image.
func uniformOps(seed int64, imgs []*image) []op {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, im := range imgs {
		total += im.blocks
	}
	ops := make([]op, coldOps)
	for i := range ops {
		g := rng.Intn(total)
		k := 0
		for g >= imgs[k].blocks {
			g -= imgs[k].blocks
			k++
		}
		ops[i] = op{kind: opBlock, img: uint8(k), a: int32(g)}
	}
	return ops
}

// tieredOps interleaves byte-window and block-range reads, 90% of them
// starting in the current phase's hot region; op k*writeEvery opens
// phase k with a write that retrains on that phase's region.
func tieredOps(seed int64, imgs []*image) []op {
	im := imgs[0]
	rng := rand.New(rand.NewSource(seed))
	logUniform := func(hi int) int {
		return int(math.Exp(rng.Float64() * math.Log(float64(hi)+1)))
	}
	ops := make([]op, tierOps)
	for i := range ops {
		phase := i / tierWriteEvery
		if i%tierWriteEvery == 0 {
			ops[i] = op{kind: opWrite, a: int32(phase)}
			continue
		}
		start := rng.Intn(im.blocks)
		if rng.Float64() < tierHotShare {
			start = (hotStart(phase, im.blocks) + rng.Intn(tierHot)) % im.blocks
		}
		if rng.Intn(2) == 0 {
			off := min(start*im.blockSize+rng.Intn(im.blockSize), len(im.text)-1)
			n := min(max(logUniform(tierMaxBytes), 1), len(im.text)-off)
			ops[i] = op{kind: opBytes, a: int32(off), b: int32(n)}
		} else {
			last := min(start+max(logUniform(tierMaxBlocks), 1)-1, im.blocks-1)
			ops[i] = op{kind: opRange, a: int32(start), b: int32(last)}
		}
	}
	return ops
}

// hotStart is the first block of phase's hot region.
func hotStart(phase, blocks int) int { return phase * tierShift % blocks }

// phaseAccesses is the block-access trace a write at phase trains on:
// the blocks the phase's reads touch, in order.
func phaseAccesses(im *image, ops []op, phase int) []int {
	var acc []int
	base := phase * tierWriteEvery
	for i := base + 1; i < base+tierWriteEvery; i++ {
		o := ops[i%len(ops)]
		first, last := im.opBlocks(o)
		for b := first; b <= last; b++ {
			acc = append(acc, b)
		}
	}
	return acc
}

// trainBody renders accesses as a codecomp-trace v1 upload.
func trainBody(im *image, accesses []int) []byte {
	var buf bytes.Buffer
	tr := &traceprof.Trace{Image: im.name, Blocks: im.blocks, Accesses: accesses}
	tr.WriteTo(&buf) //nolint:errcheck — writes to a bytes.Buffer do not fail
	return buf.Bytes()
}

// tierWrite trains im on phase's accesses and runs one synchronous
// recompression pass under the server's default tier policy.
func tierWrite(base string, im *image, ops []op, phase int) (romserver.TieringPassStats, error) {
	path := base + "/images/" + im.name
	if err := call(http.MethodPost, path+"/train", trainBody(im, phaseAccesses(im, ops, phase)), http.StatusOK, nil); err != nil {
		return romserver.TieringPassStats{}, err
	}
	var resp struct {
		Pass romserver.TieringPassStats `json:"pass"`
	}
	err := call(http.MethodPut, path+"/tiering?recompress=1", nil, http.StatusOK, &resp)
	return resp.Pass, err
}

// convergeTiers trains on phase 0 and recompresses, through write,
// until the tier map matches the policy, so measuring starts from a
// converged layout.
func convergeTiers(write func(phase int) (romserver.TieringPassStats, error)) error {
	for pass := 0; pass < 64; pass++ {
		st, err := write(0)
		if err != nil {
			return err
		}
		if st.VerifyFailures > 0 {
			return fmt.Errorf("tier convergence: %d verify failures", st.VerifyFailures)
		}
		if st.Planned == 0 {
			return nil
		}
	}
	return fmt.Errorf("tier map did not converge in 64 passes")
}
