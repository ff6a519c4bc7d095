// The -tiering drill: end-to-end proof that heat-tiered codec selection
// converges and never corrupts a served byte. It boots an in-process
// romserver with the background recompressor in synchronous mode,
// uploads a mixed-codec tiered image with every block parked in the
// densest tier, and replays a hot-skewed trace while concurrent readers
// verify every served block byte-for-byte against the original text —
// including while recompression passes migrate blocks under them. The
// drill fails unless the trained hot set converges into the fast tiers
// (raw/huffman), the cold set stays dense, zero verify failures and
// zero byte mismatches occur, and the offline memsys evaluator shows
// the converged tiered layout Pareto-dominating single-codec SAMC:
// compression ratio at least as good AND lower mean decode latency on
// the same trace. The Pareto table it prints is the source of the
// numbers in EXPERIMENTS.md.
package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"codecomp"
	"codecomp/internal/memsys"
	"codecomp/internal/romserver"
)

// tieringDrillConfig parameterizes one -tiering run.
type tieringDrillConfig struct {
	// profile is the synthetic SPEC95 program the image is built from.
	profile string
	// blockSize is the tier container's block size.
	blockSize int
	// accesses is the skewed-trace length used for training and for the
	// offline Pareto replay.
	accesses int
	// readers is how many concurrent verifying readers run during the
	// migration storm.
	readers int
	// simCache is the offline evaluator's cache capacity in blocks.
	simCache int
}

// tieringSkewedTrace builds a block-access trace where the first hot
// blocks carry ~90% of all accesses.
func tieringSkewedTrace(blocks, hot, accesses int) []int {
	trace := make([]int, 0, accesses)
	for i := 0; i < accesses; i++ {
		if i%10 != 0 {
			// i%hot (not a fixed stride) so every hot block gets mass
			// regardless of gcd(stride, hot).
			trace = append(trace, i%hot)
		} else {
			trace = append(trace, hot+i%(blocks-hot))
		}
	}
	return trace
}

// runTieringDrill executes the drill and returns the number of invariant
// violations (0 = PASS).
func runTieringDrill(cfg tieringDrillConfig) int {
	violations := 0
	fail := func(format string, args ...any) {
		violations++
		fmt.Printf("loadgen: tiering: FAIL: "+format+"\n", args...)
	}

	text := codecomp.GenerateMIPS(codecomp.MustProfile(cfg.profile)).Text()
	tiers := []string{codecomp.TierRaw, codecomp.TierHuffman, codecomp.TierRANS}
	img, err := codecomp.CompressTiered(text, codecomp.TierSpec{
		BlockSize:   cfg.blockSize,
		Tiers:       tiers,
		DefaultTier: 2, // everything starts dense; heat promotes
	})
	fatal(err)
	blocks := img.NumBlocks()
	fmt.Printf("loadgen: tiering: %s: %d B text, %d blocks of %d B, all starting in %s (ratio %.4f)\n",
		cfg.profile, len(text), blocks, cfg.blockSize, tiers[2], img.Ratio())

	// Small batches: each synchronous pass migrates at most BatchBlocks
	// blocks, and the drill interleaves verified reads between batches,
	// so readers provably observe the image mid-migration (a full-image
	// pass on a small image holds the container's write lock nearly
	// continuously and the readers would only ever see the end states).
	srv := romserver.New(romserver.Options{
		CacheBlocks: 64,
		Tiering:     &romserver.TieringOptions{Interval: -1, BatchBlocks: 16},
	})
	defer srv.Close()
	if _, err := srv.AddImage("prog", img.Marshal()); err != nil {
		fatal(err)
	}

	// Concurrent readers verify every served block against the original
	// text for the whole run — the bytes must stay exact while the
	// recompressor swaps tiers under them.
	var mismatches, readErrs, reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < cfg.readers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				b := (seed*31 + it*7) % blocks
				got, _, err := srv.Block("prog", b)
				if err != nil {
					readErrs.Add(1)
					return
				}
				end := (b + 1) * cfg.blockSize
				if end > len(text) {
					end = len(text)
				}
				if !bytes.Equal(got, text[b*cfg.blockSize:end]) {
					mismatches.Add(1)
					return
				}
				reads.Add(1)
			}
		}(g)
	}

	// Don't start migrating until every reader has verified at least one
	// block, so the storm genuinely overlaps the migration window.
	for reads.Load() < int64(cfg.readers) && mismatches.Load() == 0 && readErrs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	readsBefore := reads.Load()

	// Three training rounds — hot-skewed, flat (demotes everything),
	// hot-skewed again — so blocks migrate in both directions while the
	// readers storm; each round drains its recompression plan fully.
	hot := blocks / 10
	if hot < 1 {
		hot = 1
	}
	trace := tieringSkewedTrace(blocks, hot, cfg.accesses)
	flat := make([]int, blocks)
	for b := range flat {
		flat[b] = b
	}
	migrated, verifyFailures := 0, 0
	var last romserver.TieringPassStats
	for _, tr := range [][]int{trace, flat, trace} {
		if _, err := srv.TrainFrom("prog", tr); err != nil {
			fatal(err)
		}
		for i := 0; i <= blocks; i++ {
			st, err := srv.Recompress("prog")
			fatal(err)
			migrated += st.Migrated
			verifyFailures += st.VerifyFailures
			last = st
			if st.Planned == 0 {
				break
			}
			// The tier map is mid-migration here; insist the readers
			// verify bytes against it before the next batch lands.
			target := reads.Load() + 32
			for reads.Load() < target && mismatches.Load() == 0 && readErrs.Load() == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	readsDuring := reads.Load() - readsBefore
	close(stop)
	wg.Wait()

	ti, err := srv.Tiering("prog")
	fatal(err)
	fmt.Printf("loadgen: tiering: %d blocks migrated under %d verified live reads; tier map now ", migrated, readsDuring)
	for i, tc := range ti.Tiers {
		if i > 0 {
			fmt.Printf(", ")
		}
		fmt.Printf("%s=%d", tc.Format, tc.Blocks)
	}
	fmt.Printf(" (ratio %.4f)\n", ti.Ratio)

	// The robustness contract: exact bytes throughout, no failed
	// migrations, and the plan fully drained.
	if n := mismatches.Load(); n > 0 {
		fail("%d byte-mismatched reads during live migration", n)
	}
	if n := readErrs.Load(); n > 0 {
		fail("%d read errors during live migration", n)
	}
	if verifyFailures > 0 {
		fail("%d migration verify failures", verifyFailures)
	}
	if last.Planned != 0 {
		fail("recompression backlog never drained: %+v", last)
	}
	if migrated == 0 {
		fail("no blocks migrated from a trained hot-skewed profile")
	}
	if readsDuring == 0 {
		fail("no verified reads overlapped the migration storm")
	}

	// Convergence: >=90% of the hot set in the fast tiers, >=90% of the
	// cold set still dense.
	hotFast, coldDense := 0, 0
	for b := 0; b < blocks; b++ {
		if b < hot {
			if ti.Assignments[b] < 2 {
				hotFast++
			}
		} else if ti.Assignments[b] == 2 {
			coldDense++
		}
	}
	fmt.Printf("loadgen: tiering: hot set %d/%d in fast tiers, cold set %d/%d dense\n",
		hotFast, hot, coldDense, blocks-hot)
	if hotFast*10 < hot*9 {
		fail("only %d/%d hot blocks converged to fast tiers", hotFast, hot)
	}
	if coldDense*10 < (blocks-hot)*9 {
		fail("only %d/%d cold blocks stayed dense", coldDense, blocks-hot)
	}

	// Offline Pareto: score the converged tier map against every
	// single-codec layout on the same trace through the memsys
	// replay — ratio from real compression, latency from the cost model.
	simCache := cfg.simCache
	if simCache <= 0 {
		simCache = hot / 2
	}
	if simCache < 1 {
		simCache = 1
	}
	model := codecomp.DefaultTierCostModel
	blockLen := func(b int) float64 {
		end := (b + 1) * cfg.blockSize
		if end > len(text) {
			end = len(text)
		}
		return float64(end - b*cfg.blockSize)
	}
	costsFor := func(format string) []float64 {
		costs := make([]float64, blocks)
		for b := range costs {
			costs[b] = blockLen(b) * model[format]
		}
		return costs
	}
	type candidate struct {
		name  string
		ratio float64
		costs []float64
	}
	var cands []candidate
	for _, alg := range []struct{ flag, format string }{
		{"", codecomp.TierRaw}, {"huff", codecomp.TierHuffman},
		{"rans", codecomp.TierRANS}, {"samc", codecomp.TierSAMC},
	} {
		ratio := 1.0
		if alg.flag != "" {
			image, _, err := compress(text, alg.flag, cfg.blockSize)
			fatal(err)
			ratio = float64(len(image)) / float64(len(text))
		}
		cands = append(cands, candidate{alg.format, ratio, costsFor(alg.format)})
	}
	tieredCosts := make([]float64, blocks)
	for b := range tieredCosts {
		tieredCosts[b] = blockLen(b) * model[tiers[ti.Assignments[b]]]
	}
	cands = append(cands, candidate{"tiered", ti.Ratio, tieredCosts})

	fmt.Printf("loadgen: tiering: offline Pareto (%d accesses, %d-block cache):\n", len(trace), simCache)
	fmt.Printf("  %-10s %8s %16s %16s\n", "config", "ratio", "mean ns/access", "mean ns/miss")
	var samcStat, tieredStat memsys.TieringStats
	var samcRatio float64
	for _, c := range cands {
		st, err := memsys.EvaluateTiering(trace, blocks, memsys.TieringConfig{
			CacheBlocks: simCache, BlockCostNs: c.costs,
		})
		fatal(err)
		fmt.Printf("  %-10s %8.4f %16.1f %16.1f\n", c.name, c.ratio, st.MeanNsPerAccess, st.MeanNsPerMiss)
		switch c.name {
		case codecomp.TierSAMC:
			samcStat, samcRatio = st, c.ratio
		case "tiered":
			tieredStat = st
		}
	}
	if ti.Ratio > samcRatio {
		fail("tiered ratio %.4f worse than single-codec samc %.4f", ti.Ratio, samcRatio)
	}
	if tieredStat.MeanNsPerAccess >= samcStat.MeanNsPerAccess {
		fail("tiered mean %.1f ns/access does not beat samc %.1f", tieredStat.MeanNsPerAccess, samcStat.MeanNsPerAccess)
	}

	// The final state must still decode byte-exact end to end.
	var full bytes.Buffer
	_, err = srv.WriteText("prog", &full)
	fatal(err)
	if !bytes.Equal(full.Bytes(), text) {
		fail("full text mismatch after convergence")
	}
	return violations
}
