package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mlpcache/internal/bpred"
	"mlpcache/internal/metrics"
	"mlpcache/internal/simerr"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// bpredDefault is a shorthand for tests.
func bpredDefault() bpred.Config { return bpred.DefaultConfig() }

// microMix builds a small but representative workload: an isolated chase,
// a parallel stream, and a reusable hot set.
func microMix(seed uint64) trace.Source {
	return trace.NewMix(seed,
		trace.MixPart{
			Src:    trace.NewPointerChase(trace.ChaseConfig{Base: 1 << 33, Blocks: 600, Gap: 8, Seed: seed + 1}),
			Weight: 1, Chunk: 24 * 9,
		},
		trace.MixPart{
			Src:    trace.NewStream(trace.StreamConfig{Base: 2 << 33, Blocks: 3000, Gap: 6, Seed: seed + 2}),
			Weight: 2, Chunk: 16 * 7,
		},
		trace.MixPart{
			Src:    trace.NewStream(trace.StreamConfig{Base: 3 << 33, Blocks: 150, Gap: 4, Seed: seed + 3}),
			Weight: 1, Chunk: 16 * 5,
		},
	)
}

func smallConfig(n uint64) Config {
	cfg := DefaultConfig()
	cfg.MaxInstructions = n
	return cfg
}

func TestRunBasicSanity(t *testing.T) {
	cfg := smallConfig(200_000)
	res := MustRun(cfg, microMix(1))
	if res.Instructions != 200_000 {
		t.Fatalf("retired %d, want 200000", res.Instructions)
	}
	if res.IPC <= 0 || res.IPC > 8 {
		t.Fatalf("IPC %v out of range", res.IPC)
	}
	if res.Mem.DemandMisses == 0 {
		t.Fatal("workload produced no misses")
	}
	if res.Mem.CompulsoryMisses > res.Mem.DemandMisses {
		t.Fatal("compulsory misses exceed total misses")
	}
	if res.CostHist.Total() != res.Mem.DemandMisses {
		t.Fatalf("histogram has %d samples, want %d misses",
			res.CostHist.Total(), res.Mem.DemandMisses)
	}
	if res.L2.Misses < res.Mem.DemandMisses {
		t.Fatal("L2 probe misses fewer than serviced misses")
	}
}

func TestRunDeterminism(t *testing.T) {
	a := MustRun(smallConfig(150_000), microMix(7))
	b := MustRun(smallConfig(150_000), microMix(7))
	if a.Cycles != b.Cycles || a.Mem.DemandMisses != b.Mem.DemandMisses || a.IPC != b.IPC {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Summary(), b.Summary())
	}
}

// The fast-forward optimization must be exact: identical cycle counts,
// miss counts, and cost histograms with and without it.
func TestFastForwardEquivalence(t *testing.T) {
	base := smallConfig(120_000)
	fast := MustRun(base, microMix(3))
	slow := base
	slow.DisableFastForward = true
	ref := MustRun(slow, microMix(3))
	if fast.Cycles != ref.Cycles {
		t.Fatalf("cycles differ: fast %d vs exact %d", fast.Cycles, ref.Cycles)
	}
	if fast.Mem.DemandMisses != ref.Mem.DemandMisses {
		t.Fatalf("misses differ: %d vs %d", fast.Mem.DemandMisses, ref.Mem.DemandMisses)
	}
	if fast.AvgMLPCost() != ref.AvgMLPCost() {
		t.Fatalf("costs differ: %v vs %v", fast.AvgMLPCost(), ref.AvgMLPCost())
	}
	fb, rb := fast.CostHist.Bins(), ref.CostHist.Bins()
	for i := range fb {
		if fb[i] != rb[i] {
			t.Fatalf("histogram bin %d differs: %d vs %d", i, fb[i], rb[i])
		}
	}
	if fast.CPU.MemStallCycles != ref.CPU.MemStallCycles {
		t.Fatalf("stall accounting differs: %d vs %d",
			fast.CPU.MemStallCycles, ref.CPU.MemStallCycles)
	}
}

func TestIsolatedMissesLandInTopBin(t *testing.T) {
	// A pure pointer chase over an uncacheable working set: every miss
	// is isolated, so the 420+ bin must dominate.
	cfg := smallConfig(150_000)
	src := trace.NewPointerChase(trace.ChaseConfig{Blocks: 40_000, Gap: 8, Seed: 5})
	res := MustRun(cfg, src)
	pct := res.CostHist.Percent()
	if pct[7] < 90 {
		t.Fatalf("isolated chase: only %.1f%% of misses in the 420+ bin", pct[7])
	}
	if avg := res.AvgMLPCost(); avg < 420 {
		t.Fatalf("avg mlp-cost %v, want >= 420", avg)
	}
}

func TestParallelMissesAreCheap(t *testing.T) {
	cfg := smallConfig(150_000)
	src := trace.NewStream(trace.StreamConfig{Blocks: 40_000, Gap: 6, Seed: 5})
	res := MustRun(cfg, src)
	if avg := res.AvgMLPCost(); avg > 120 {
		t.Fatalf("streaming misses average %v cycles, want well under 120", avg)
	}
}

// TestPolicies runs every kind in AllPolicies to its instruction budget
// and checks that the Result carries hybrid selection counters exactly
// when buildL2 takes the kind's policy as the run's hybrid engine.
func TestPolicies(t *testing.T) {
	for _, kind := range AllPolicies {
		t.Run(string(kind), func(t *testing.T) {
			cfg := smallConfig(60_000)
			cfg.Policy = PolicySpec{Kind: kind}
			_, hybrid, err := buildL2(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			res := MustRun(cfg, microMix(2))
			if res.Instructions != 60_000 {
				t.Fatalf("retired %d", res.Instructions)
			}
			if (hybrid != nil) != (res.Hybrid != nil) {
				t.Fatalf("hybrid engine %v, hybrid stats %v", hybrid != nil, res.Hybrid != nil)
			}
		})
	}
}

// TestEveryPolicyKindEarnsItsRow runs every kind in AllPolicies on
// bzip2 at two L2 sizes and compares the Results with the policy label
// and learned-eviction accounting left out. Two kinds that agree on both
// rows behave as one, which spoils every comparison either appears in,
// so they must be declared equivalent here with the reason; a declared
// equivalence that does not hold fails too.
func TestEveryPolicyKindEarnsItsRow(t *testing.T) {
	equivalent := map[PolicyKind]PolicyKind{
		// An untrained model leaves every signature neutral, which the
		// predictor resolves to LRU (docs/LEARNED.md).
		PolicyLearned: PolicyLRU,
	}
	spec, _ := workload.ByName("bzip2")
	rows := make(map[PolicyKind][]Result)
	for _, size := range []uint64{128 << 10, 256 << 10} {
		for _, kind := range AllPolicies {
			cfg := smallConfig(200_000)
			cfg.L2.SizeBytes = size
			cfg.Policy = PolicySpec{Kind: kind, Seed: 7}
			res, err := Run(cfg, spec.Build(42))
			if err != nil {
				t.Fatalf("%s at %d KB: %v", kind, size>>10, err)
			}
			res.Policy, res.Learn = "", nil
			rows[kind] = append(rows[kind], res)
		}
	}
	for i, a := range AllPolicies {
		for _, b := range AllPolicies[i+1:] {
			same := reflect.DeepEqual(rows[a], rows[b])
			declared := equivalent[a] == b || equivalent[b] == a
			if same && !declared {
				t.Errorf("%s and %s give the same results on every row, and no equivalence is declared", a, b)
			}
			if declared && !same {
				t.Errorf("%s is declared equivalent to %s but their results differ", a, b)
			}
		}
	}
}

func TestUnknownPolicyReturnsTypedError(t *testing.T) {
	cfg := smallConfig(1000)
	cfg.Policy = PolicySpec{Kind: "belady"}
	_, err := Run(cfg, microMix(1))
	if !errors.Is(err, simerr.ErrBadConfig) {
		t.Fatalf("unknown policy: err = %v, want ErrBadConfig", err)
	}
}

// TestSeriesSampling samples the Figure 11 series on the default machine
// and on one-set L2s, where the hybrids' selector reads must stay inside
// the only set. Under cbs-local, where every set has its own counter,
// the lin-selected and psel-value series must describe the same set:
// each selection point is the MSB of its counter point.
func TestSeriesSampling(t *testing.T) {
	microMix4 := func() trace.Source { return microMix(4) }
	bzip2 := func() trace.Source {
		spec, _ := workload.ByName("bzip2")
		return spec.Build(42)
	}
	for name, c := range map[string]struct {
		n      uint64
		src    func() trace.Source
		policy PolicySpec
		sets   int // L2 sets (0: the default geometry)
		msb    int // the PSEL midpoint the selection must follow (0: unchecked)
	}{
		"default":           {100_000, microMix4, PolicySpec{Kind: PolicyLRU}, 0, 0},
		"one-set-cbs-local": {100_000, microMix4, PolicySpec{Kind: PolicyCBSLocal}, 1, 0},
		"one-set-rand-sbar": {100_000, microMix4, PolicySpec{Kind: PolicySBAR, RandDynamic: true, LeaderSets: 1}, 1, 0},
		"cbs-local":         {200_000, bzip2, PolicySpec{Kind: PolicyCBSLocal, PselBits: 6}, 0, 32},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(c.n)
			cfg.SampleInterval = 10_000
			cfg.Policy = c.policy
			if c.sets > 0 {
				cfg.L2.Sets = c.sets
			}
			res, err := Run(cfg, c.src())
			if err != nil {
				t.Fatal(err)
			}
			if res.Series == nil {
				t.Fatal("no series")
			}
			n := len(res.Series.IPC.Points)
			if want := int(c.n / cfg.SampleInterval); n < want-1 || n > want+1 {
				t.Fatalf("%d sample points, want ≈ %d", n, want)
			}
			if len(res.Series.MPKI.Points) != n || len(res.Series.AvgCostQ.Points) != n {
				t.Fatal("series lengths disagree")
			}
			if res.Hybrid != nil && (len(res.Series.UsingLIN.Points) != n || len(res.Series.PselValue.Points) != n) {
				t.Fatal("selector series lengths disagree")
			}
			for _, p := range res.Series.IPC.Points {
				if p.Value <= 0 || p.Value > 8 {
					t.Fatalf("interval IPC %v out of range", p.Value)
				}
			}
			if c.msb == 0 {
				return
			}
			for i, p := range res.Series.UsingLIN.Points {
				psel := res.Series.PselValue.Points[i].Value
				if want := psel >= float64(c.msb); (p.Value == 1) != want {
					t.Errorf("point %d (%d instructions): lin-selected %v, psel-value %v", i, p.Instructions, p.Value, psel)
				}
			}
		})
	}
}

// TestSnapshotAvgCostQIsAPerMissMean streams 1,000-instruction
// snapshots of a 1M-instruction ammp LIN run. Each snapshot.avg_cost_q
// gauge is the mean 3-bit cost_q of the misses serviced in its
// interval, so every one lies in [0, 7], even in an interval where
// fills of misses issued earlier outnumber the misses issued in it.
func TestSnapshotAvgCostQIsAPerMissMean(t *testing.T) {
	spec, _ := workload.ByName("ammp")
	cfg := smallConfig(1_000_000)
	cfg.Policy = PolicySpec{Kind: PolicyLIN, Lambda: 4}
	cfg.SnapshotInterval = 1000
	gauges := 0
	cfg.Trace = metrics.FuncTracer(func(ev metrics.Event) {
		if ev.Type == metrics.EventSnapshotAvgCostQ {
			if gauges++; !(ev.Gauge >= 0 && ev.Gauge <= 7) {
				t.Errorf("snapshot %d (cycle %d): avg_cost_q %v outside [0,7]", gauges, ev.Cycle, ev.Gauge)
			}
		}
	})
	if _, err := Run(cfg, spec.Build(42)); err != nil {
		t.Fatal(err)
	}
	if gauges != 1000 {
		t.Fatalf("%d avg_cost_q gauges, want 1000", gauges)
	}
}

// TestIntervalBelowRetireWidthRejected holds the series and the
// snapshots to the interval below which one cycle's retirement can cross
// two boundaries: RetireWidth × cores. Just below it a run fails with an
// ErrBadConfig naming the bound, on one core and on two; at it, each
// boundary closes one point, on a later cycle than the one before.
func TestIntervalBelowRetireWidthRejected(t *testing.T) {
	for _, cores := range []int{1, 2} {
		bound := uint64(DefaultConfig().CPU.RetireWidth * cores)
		for _, interval := range []uint64{bound - 1, bound} {
			for _, kind := range []string{"sample", "snapshot"} {
				t.Run(fmt.Sprintf("%s/cores%d/interval%d", kind, cores, interval), func(t *testing.T) {
					cfg := smallConfig(3_000)
					var at []uint64 // each point's instruction count or cycle
					if kind == "sample" {
						cfg.SampleInterval = interval
					} else {
						cfg.SnapshotInterval = interval
						cfg.Trace = metrics.FuncTracer(func(ev metrics.Event) {
							if ev.Type == metrics.EventSnapshotIPC {
								at = append(at, ev.Cycle)
							}
						})
					}
					srcs := make([]trace.Source, cores)
					for i := range srcs {
						srcs[i] = microMix(uint64(i) + 1)
					}
					res, err := RunMulti(cfg, srcs...)
					if interval < bound {
						if !errors.Is(err, simerr.ErrBadConfig) || !strings.Contains(err.Error(), fmt.Sprintf("cores = %d", bound)) {
							t.Fatalf("err = %v, want ErrBadConfig naming the bound %d", err, bound)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if kind == "sample" {
						for _, p := range res.Series.IPC.Points {
							at = append(at, p.Instructions)
						}
					}
					if want := res.Instructions() / interval; uint64(len(at)) != want {
						t.Fatalf("%d points, want %d", len(at), want)
					}
					for i := 1; i < len(at); i++ {
						if at[i] <= at[i-1] {
							t.Fatalf("point %d at %d, point %d at %d", i-1, at[i-1], i, at[i])
						}
					}
				})
			}
		}
	}
}

func TestLINPlumbingChangesBehaviour(t *testing.T) {
	// On a chase-vs-stream thrash mix, LIN(4) must retain the expensive
	// chase region and beat LRU — verifying the policy actually reaches
	// the L2 through the spec plumbing.
	mix := func(seed uint64) trace.Source {
		return trace.NewMix(seed,
			trace.MixPart{
				Src:    trace.NewPointerChase(trace.ChaseConfig{Base: 1 << 33, Blocks: 3000, Gap: 8, Seed: seed + 1}),
				Weight: 1, Chunk: 24 * 9,
			},
			trace.MixPart{
				Src:    trace.NewStream(trace.StreamConfig{Base: 2 << 33, Blocks: 30_000, Gap: 6, Seed: seed + 2}),
				Weight: 4, Chunk: 16 * 7,
			},
		)
	}
	lru := MustRun(smallConfig(400_000), mix(6))
	cfg := smallConfig(400_000)
	cfg.Policy = PolicySpec{Kind: PolicyLIN, Lambda: 4}
	lin := MustRun(cfg, mix(6))
	if lin.IPC <= lru.IPC {
		t.Fatalf("LIN (%.4f) should beat LRU (%.4f) on a retainable chase mix",
			lin.IPC, lru.IPC)
	}
	if lin.Mem.DemandMisses >= lru.Mem.DemandMisses {
		t.Fatalf("LIN misses %d should undercut LRU's %d",
			lin.Mem.DemandMisses, lru.Mem.DemandMisses)
	}
}

func TestMergedMissesCounted(t *testing.T) {
	// Two immediate loads to different words of the same block: the
	// second merges into the first's MSHR entry.
	ins := []trace.Instr{
		{Kind: trace.Load, Addr: 0},
		{Kind: trace.Load, Addr: 8},
	}
	cfg := DefaultConfig()
	res := MustRun(cfg, trace.NewSliceSource(ins))
	if res.Mem.DemandMisses != 1 || res.Mem.MergedMisses != 1 {
		t.Fatalf("misses=%d merged=%d, want 1/1", res.Mem.DemandMisses, res.Mem.MergedMisses)
	}
}

func TestDeltaTracking(t *testing.T) {
	// Deltas need blocks that miss more than once: a thrashing loop.
	cfg := smallConfig(300_000)
	res := MustRun(cfg, trace.NewStream(trace.StreamConfig{Blocks: 20_000, Gap: 4, Seed: 8}))
	if res.Delta.Samples() == 0 {
		t.Fatal("no delta samples despite block re-misses")
	}
	total := res.Delta.PercentLt60() + res.Delta.PercentGe60Lt120() + res.Delta.PercentGe120()
	if total < 99.9 || total > 100.1 {
		t.Fatalf("delta percentages sum to %v", total)
	}
}

func TestWritebacksReachDRAM(t *testing.T) {
	// Store-heavy thrash: dirty L2 evictions must generate DRAM writes.
	src := trace.NewStream(trace.StreamConfig{Blocks: 40_000, Gap: 4, Stores: 1.0, Seed: 3})
	cfg := smallConfig(150_000)
	res := MustRun(cfg, src)
	if res.DRAM.Writes == 0 {
		t.Fatal("no writebacks reached DRAM")
	}
}

func TestCAREPolicies(t *testing.T) {
	// BCL and DCL plug in as L2 policies; on the LIN-friendly mix they
	// must at least not catastrophically regress against LRU, and on a
	// dead-pollution mix DCL must track LRU much more closely than LIN.
	base := MustRun(smallConfig(150_000), microMix(11))
	for _, kind := range []PolicyKind{PolicyBCL, PolicyDCL} {
		cfg := smallConfig(150_000)
		cfg.Policy = PolicySpec{Kind: kind}
		res := MustRun(cfg, microMix(11))
		if res.IPC < base.IPC*0.8 {
			t.Errorf("%s IPC %.4f collapsed vs LRU %.4f", kind, res.IPC, base.IPC)
		}
	}
}

func TestLiveBranchPredictorMode(t *testing.T) {
	// With a live predictor the workloads' synthesized branch outcomes
	// produce a plausible misprediction rate, and the fast-forward
	// optimization stays exact.
	mk := func(disableFF bool) Result {
		cfg := smallConfig(150_000)
		bp := bpredDefault()
		cfg.CPU.BranchPredictor = &bp
		cfg.DisableFastForward = disableFF
		return MustRun(cfg, microMix(13))
	}
	fast, ref := mk(false), mk(true)
	if fast.Bpred.Lookups == 0 {
		t.Fatal("predictor never consulted")
	}
	rate := fast.Bpred.MispredictRate()
	if rate <= 0 || rate > 0.25 {
		t.Fatalf("mispredict rate %.3f implausible", rate)
	}
	if fast.Cycles != ref.Cycles || fast.CPU.Mispredicts != ref.CPU.Mispredicts {
		t.Fatalf("fast-forward diverges under live prediction: %d/%d vs %d/%d",
			fast.Cycles, fast.CPU.Mispredicts, ref.Cycles, ref.CPU.Mispredicts)
	}
	// The oracle-mode run (no mispredicts in these workloads) must be
	// at least as fast.
	oracle := MustRun(smallConfig(150_000), microMix(13))
	if oracle.IPC < fast.IPC {
		t.Fatalf("oracle IPC %.4f below live-predictor IPC %.4f", oracle.IPC, fast.IPC)
	}
}

func TestResultAccessors(t *testing.T) {
	res := MustRun(smallConfig(60_000), microMix(15))
	if res.MissesServiced() != res.Mem.DemandMisses {
		t.Fatal("MissesServiced mismatch")
	}
	if res.MPKI() <= 0 || res.AvgCostQ() < 0 || res.CompulsoryPercent() <= 0 {
		t.Fatalf("accessors: mpki=%v costq=%v comp=%v", res.MPKI(), res.AvgCostQ(), res.CompulsoryPercent())
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
	var zero Result
	if zero.MPKI() != 0 || zero.AvgCostQ() != 0 || zero.CompulsoryPercent() != 0 {
		t.Fatal("zero-value accessors must be 0")
	}
	if zero.IPCDeltaPercent(zero) != 0 || zero.MissDeltaPercent(zero) != 0 {
		t.Fatal("zero-baseline deltas must be 0")
	}
}

func TestL1WritebackDropPath(t *testing.T) {
	// With an L2 smaller than the L1, dirty L1 victims routinely find
	// their block already evicted from the L2 and are dropped (and
	// counted). A deliberately inverted hierarchy makes the path easy
	// to hit.
	src := trace.NewStream(trace.StreamConfig{Blocks: 60_000, Gap: 2, Stores: 1.0, Seed: 9})
	cfg := smallConfig(250_000)
	cfg.L2.SizeBytes = 8 * 1024
	res := MustRun(cfg, src)
	if res.Mem.L1WritebackDrops == 0 {
		t.Fatal("expected dropped L1 writebacks under heavy store thrash")
	}
}

func TestHybridInterfaceConformance(t *testing.T) {
	// Compile-time conformance is checked in core; here verify the
	// policy table builds each of the paper's hybrids as a core.Hybrid
	// and the sim surfaces hybrid stats for it. TestPolicies reads
	// hybrid-ness back from buildL2, so it cannot catch a hybrid that
	// the table stops building as one.
	for _, kind := range []PolicyKind{PolicySBAR, PolicyCBSLocal, PolicyCBSGlobal, PolicyDIP} {
		cfg := smallConfig(30_000)
		cfg.Policy = PolicySpec{Kind: kind}
		if _, hybrid, err := buildL2(cfg, 1); err != nil || hybrid == nil {
			t.Fatalf("%s: buildL2 gave no hybrid engine (err %v)", kind, err)
		}
		if res := MustRun(cfg, microMix(16)); res.Hybrid == nil {
			t.Fatalf("%s: no hybrid stats", kind)
		}
	}
}

func TestMispredictStatMatchesPredictor(t *testing.T) {
	// The retired-mispredict counter must agree with the predictor's
	// own accounting (modulo in-flight branches at run end).
	cfg := smallConfig(150_000)
	bp := bpredDefault()
	cfg.CPU.BranchPredictor = &bp
	res := MustRun(cfg, microMix(17))
	if res.CPU.Mispredicts == 0 {
		t.Fatal("live predictor produced no retired mispredicts")
	}
	diff := int64(res.Bpred.Mispredicts) - int64(res.CPU.Mispredicts)
	if diff < 0 {
		diff = -diff
	}
	if diff > 2 {
		t.Fatalf("predictor counted %d mispredicts, retirement %d",
			res.Bpred.Mispredicts, res.CPU.Mispredicts)
	}
}
