package oracle

import (
	"math/rand"
	"reflect"
	"testing"

	"mlpcache/internal/cache"
	"mlpcache/internal/sim"
	"mlpcache/internal/workload"
)

// figure1Stream rebuilds the paper's Figure 1 access loop (P1..P4
// forward, P4..P1 backward, then S1 S2 S3) — the stream the Figure 1
// experiment feeds cache.SimulateOPT.
func figure1Stream(iters int) []uint64 {
	var stream []uint64
	for i := 0; i < iters; i++ {
		stream = append(stream, 0, 1, 2, 3, 3, 2, 1, 0, 4, 5, 6)
	}
	return stream
}

// TestBeladyMatchesSimulateOPT is the golden test: the generalized
// per-set Belady must reproduce cache.SimulateOPT exactly — on the
// Figure 1 example and on random multi-set streams.
func TestBeladyMatchesSimulateOPT(t *testing.T) {
	stream := figure1Stream(100)
	ref := cache.SimulateOPT(stream, 1, 4)
	cmp := Compare(LogFromBlocks(stream), 1, 4)
	got := cmp.OPT
	if got.Misses != ref.Misses || got.Accesses != ref.Accesses {
		t.Fatalf("Figure 1 stream: oracle Belady %d/%d misses/accesses, cache.SimulateOPT %d/%d",
			got.Misses, got.Accesses, ref.Misses, ref.Accesses)
	}
	// Unit costs: the cost-weighted objective degenerates to miss count,
	// so the cost replay must tie OPT exactly.
	cost := cmp.CostOPT
	if cost.CostQSum != ref.Misses {
		t.Fatalf("unit-cost CostOPT summed cost %d, want OPT misses %d", cost.CostQSum, ref.Misses)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		sets := []int{1, 2, 8}[trial%3]
		assoc := 2 + trial%4
		n := 200 + rng.Intn(800)
		blocks := make([]uint64, n)
		for i := range blocks {
			blocks[i] = uint64(rng.Intn(6 * sets * assoc))
		}
		ref := cache.SimulateOPT(blocks, sets, assoc)
		got := Compare(LogFromBlocks(blocks), sets, assoc).OPT
		if got.Misses != ref.Misses {
			t.Fatalf("trial %d (%dx%d, %d accesses): oracle %d misses, SimulateOPT %d",
				trial, sets, assoc, n, got.Misses, ref.Misses)
		}
	}
}

// randomLog builds a log with random blocks and random quantized costs.
func randomLog(rng *rand.Rand, n, blockSpace int) *Log {
	log := &Log{Records: make([]Record, n)}
	for i := range log.Records {
		log.Records[i] = Record{
			Block: uint64(rng.Intn(blockSpace)),
			CostQ: uint8(rng.Intn(8)),
			Kind:  sim.AccessMiss,
		}
	}
	return log
}

// TestOracleBounds is the property test: on random traces, Belady's
// miss count lower-bounds every online policy and the EHC predictor,
// and cost-weighted Belady's summed cost never exceeds Belady's.
func TestOracleBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		sets := []int{1, 4, 16}[trial%3]
		assoc := 2 + trial%7
		log := randomLog(rng, 300+rng.Intn(1200), 4*sets*assoc+rng.Intn(8*sets*assoc))

		cmp := Compare(log, sets, assoc)
		opt, costOpt, ehc := cmp.OPT, cmp.CostOPT, cmp.EHC
		online := []Result{
			ReplayOnline(log, sets, assoc, cache.NewLRU()),
			ReplayOnline(log, sets, assoc, cache.NewFIFO()),
			ReplayOnline(log, sets, assoc, cache.NewRandom(uint64(trial))),
			ehc,
		}
		for _, res := range online {
			if res.Accesses != opt.Accesses {
				t.Fatalf("trial %d: %s replayed %d accesses, oracle %d",
					trial, res.Name, res.Accesses, opt.Accesses)
			}
			if opt.Misses > res.Misses {
				t.Fatalf("trial %d (%dx%d): Belady %d misses exceeds %s's %d",
					trial, sets, assoc, opt.Misses, res.Name, res.Misses)
			}
		}
		if costOpt.CostQSum > opt.CostQSum {
			t.Fatalf("trial %d (%dx%d): cost-weighted Belady cost %d exceeds Belady's %d",
				trial, sets, assoc, costOpt.CostQSum, opt.CostQSum)
		}
		if opt.Misses > costOpt.Misses {
			t.Fatalf("trial %d: Belady misses %d exceed cost-Belady's %d (OPT not minimal)",
				trial, opt.Misses, costOpt.Misses)
		}
	}
}

// captureRun runs one audited simulation with a capture sink attached
// and returns the result and the log.
func captureRun(t *testing.T, bench string, spec sim.PolicySpec, n uint64) (sim.Result, *Log) {
	t.Helper()
	w, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = n
	cfg.Policy = spec
	cfg.Audit = true
	cap := NewCapture()
	cfg.Capture = cap
	res, err := sim.Run(cfg, w.Build(42))
	if err != nil {
		t.Fatalf("captured run failed: %v", err)
	}
	return res, cap.Log()
}

// TestCapturePatchesEachBlocksRecords interleaves two blocks' misses
// and merges: each fill patches exactly its own block's records, with
// the cost clamped to 3 bits, and a later miss to a filled block opens
// a fresh chain on recycled links.
func TestCapturePatchesEachBlocksRecords(t *testing.T) {
	c := NewCapture()
	c.OnL2Access(1, sim.AccessMiss, 0)
	c.OnL2Access(2, sim.AccessMiss, 0)
	c.OnL2Access(1, sim.AccessMerge, 0)
	c.OnL2Access(3, sim.AccessHit, 5)
	c.OnMissCost(1, 4)
	c.OnL2Access(1, sim.AccessMiss, 0)
	c.OnL2Access(2, sim.AccessMerge, 0)
	c.OnL2Access(1, sim.AccessMerge, 0)
	c.OnMissCost(2, 9)
	c.OnMissCost(1, 6)
	c.OnL2Access(4, sim.AccessMiss, 0) // still in flight at the end
	log := c.Log()
	var got []uint8
	for _, rec := range log.Records {
		got = append(got, rec.CostQ)
	}
	if want := []uint8{4, 7, 4, 5, 6, 7, 6, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("record costs %v, want %v", got, want)
	}
	if log.LiveMisses != 4 || log.LiveCost != 4+7+6 {
		t.Errorf("live misses %d, cost %d; want 4, 17", log.LiveMisses, log.LiveCost)
	}
}

// TestCaptureMatchesLiveCounters asserts the capture sink's own
// accounting agrees with the simulator's, across an audited sweep of
// policies: captured primary misses equal MemStats.DemandMisses and
// the captured cost sum equals MemStats.CostQSum, for every kind of
// access path (hits, misses, merges).
func TestCaptureMatchesLiveCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, spec := range []sim.PolicySpec{
		{Kind: sim.PolicyLRU},
		{Kind: sim.PolicyLIN, Lambda: 4},
		{Kind: sim.PolicySBAR},
	} {
		for _, bench := range []string{"mcf", "ammp"} {
			res, log := captureRun(t, bench, spec, 150_000)
			if log.LiveMisses != res.Mem.DemandMisses {
				t.Errorf("%s/%s: captured %d misses, simulator counted %d",
					bench, spec, log.LiveMisses, res.Mem.DemandMisses)
			}
			if log.LiveCost != res.Mem.CostQSum {
				t.Errorf("%s/%s: captured cost %d, simulator counted %d",
					bench, spec, log.LiveCost, res.Mem.CostQSum)
			}
			var misses, merges uint64
			for _, rec := range log.Records {
				switch rec.Kind {
				case sim.AccessMiss:
					misses++
				case sim.AccessMerge:
					merges++
				}
			}
			if misses != res.Mem.DemandMisses || merges != res.Mem.MergedMisses {
				t.Errorf("%s/%s: record kinds %d miss / %d merge, simulator %d / %d",
					bench, spec, misses, merges, res.Mem.DemandMisses, res.Mem.MergedMisses)
			}
			if log.Accesses() == 0 {
				t.Errorf("%s/%s: empty capture", bench, spec)
			}
		}
	}
}

// TestComparisonOnCapturedRuns replays real captured logs at the live
// geometry and checks the acceptance invariants end to end: Belady
// lower-bounds the live miss count, cost-weighted Belady's cost
// lower-bounds both Belady's cost and the live cost.
func TestComparisonOnCapturedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	l2 := sim.DefaultConfig().L2
	sets, err := l2.SetCount()
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"mcf", "art", "parser", "ammp"} {
		_, log := captureRun(t, bench, sim.PolicySpec{Kind: sim.PolicyLRU}, 200_000)
		cmp := Compare(log, sets, l2.Assoc)
		if cmp.OPT.Misses > cmp.LiveMisses {
			t.Errorf("%s: Belady %d misses exceeds live %d", bench, cmp.OPT.Misses, cmp.LiveMisses)
		}
		if cmp.CostOPT.CostQSum > cmp.OPT.CostQSum {
			t.Errorf("%s: cost-Belady cost %d exceeds Belady's %d",
				bench, cmp.CostOPT.CostQSum, cmp.OPT.CostQSum)
		}
		if cmp.CostOPT.CostQSum > cmp.LiveCost {
			t.Errorf("%s: cost-Belady cost %d exceeds live %d",
				bench, cmp.CostOPT.CostQSum, cmp.LiveCost)
		}
		if cmp.MissHeadroomPct() < 0 || cmp.CostHeadroomPct() < 0 {
			t.Errorf("%s: negative headroom: miss %.1f%% cost %.1f%%",
				bench, cmp.MissHeadroomPct(), cmp.CostHeadroomPct())
		}
	}
}
