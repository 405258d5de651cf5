package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mlpcache/internal/faultinject"
	"mlpcache/internal/metrics"
	"mlpcache/internal/prefetch"
	"mlpcache/internal/workload"
)

// asResult reassembles a one-core MultiResult in the single-core
// Result's shape; every field a single-core run fills must match.
func asResult(multi MultiResult) Result {
	c0 := multi.Cores[0]
	return Result{
		Policy:       multi.Policy,
		Instructions: multi.Instructions(),
		Cycles:       multi.Cycles,
		IPC:          multi.IPC(),
		CPU:          c0.CPU,
		Bpred:        c0.Bpred,
		L1:           c0.L1,
		L2:           multi.L2,
		DRAM:         multi.DRAM,
		Mem:          multi.Mem,
		MSHR:         c0.MSHR,
		CostHist:     multi.CostHist,
		Delta:        multi.Delta,
		Hybrid:       multi.Hybrid,
		Learn:        multi.Learn,
		Series:       multi.Series,
		Audit:        multi.Audit,
	}
}

// TestMulticoreSingleCoreEquivalence is the multi-core engine's
// correctness anchor: a one-core RunMulti must reproduce the single-core
// engine's Result bit for bit — cycles, IPC, every counter block, the
// cost histogram, the Table 1 deltas and the audit report — across the
// audited policy sweep. Both entry points drive the one memory system
// and cycle loop; this test keeps their result assembly in step.
func TestMulticoreSingleCoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is a long test")
	}
	for _, bench := range []string{"mcf", "parser"} {
		spec, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("benchmark %q missing", bench)
		}
		for _, kind := range AllPolicies {
			kind := kind
			t.Run(bench+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				cfg.MaxInstructions = 60_000
				cfg.Policy = PolicySpec{Kind: kind, Seed: 7}
				if kind == PolicySBAR {
					cfg.Policy.RandDynamic = true
					cfg.EpochInstructions = 20_000
				}
				cfg.Audit = true
				cfg.AuditEvery = 2048
				legacy, err := Run(cfg, spec.Build(11))
				if err != nil {
					t.Fatalf("single-core run failed: %v", err)
				}
				multi, err := RunMulti(cfg, spec.Build(11))
				if err != nil {
					t.Fatalf("one-core multi run failed: %v", err)
				}
				if legacy.Audit == nil || !legacy.Audit.Ok() {
					t.Fatalf("single-core run did not audit clean: %+v", legacy.Audit)
				}
				if multi.Audit == nil || !multi.Audit.Ok() {
					t.Fatalf("multi-core run did not audit clean: %+v", multi.Audit)
				}
				if len(multi.Cores) != 1 {
					t.Fatalf("one-core run reported %d cores", len(multi.Cores))
				}
				if got := asResult(multi); !reflect.DeepEqual(got, legacy) {
					t.Fatalf("one-core multi result diverges from single-core engine:\nmulti:  %+v\nlegacy: %+v", got, legacy)
				}
				if !reflect.DeepEqual(multi.Cores[0].CostHist, multi.CostHist) {
					t.Fatalf("one-core per-core histogram diverges from aggregate")
				}
				if multi.CrossCoreMerges != 0 {
					t.Fatalf("one-core run counted %d cross-core merges", multi.CrossCoreMerges)
				}
			})
		}
	}
}

// TestMulticoreDeterminism asserts that a contended two-core run is a
// pure function of its inputs: the same configuration and sources give
// byte-identical results run to run, including under rand-dynamic SBAR
// and auditing. The experiment tables depend on this.
func TestMulticoreDeterminism(t *testing.T) {
	mcf, _ := workload.ByName("mcf")
	art, _ := workload.ByName("art")
	cfg := DefaultConfig()
	cfg.MaxInstructions = 40_000
	cfg.Policy = PolicySpec{Kind: PolicySBAR, Seed: 7, RandDynamic: true}
	cfg.EpochInstructions = 20_000
	cfg.Audit = true
	cfg.AuditEvery = 4096
	run := func() MultiResult {
		t.Helper()
		res, err := RunMulti(cfg, mcf.Build(11), art.Build(13))
		if err != nil {
			t.Fatalf("two-core run failed: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two-core run is not deterministic:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	if len(a.PselValues) != 2 {
		t.Fatalf("partitioned SBAR reported %d per-thread selectors, want 2", len(a.PselValues))
	}
	for i, c := range a.Cores {
		if c.Instructions != cfg.MaxInstructions {
			t.Fatalf("core %d retired %d instructions, want %d", i, c.Instructions, cfg.MaxInstructions)
		}
	}
}

// liftedFeatures are the instruments whose N-core meaning
// docs/MULTICORE.md defines. enable turns one on and returns a reader
// of its side output, called after the run: the capture log, the
// snapshot stream's v2 bytes, or nil. check, when set, tests that
// meaning on a finished multi-core run and its side output.
var liftedFeatures = []struct {
	name   string
	enable func(cfg *Config) (side func() any)
	check  func(t *testing.T, res MultiResult, side any)
}{
	{"prefetch", func(cfg *Config) func() any {
		p := prefetch.DefaultConfig()
		cfg.Prefetch = &p
		return func() any { return nil }
	}, func(t *testing.T, res MultiResult, _ any) {
		if res.Mem.PrefetchIssued == 0 || res.Mem.PrefetchLate+res.Mem.PrefetchUseful == 0 {
			t.Errorf("prefetchers idle or never used: %+v", res.Mem)
		}
	}},
	{"faults", func(cfg *Config) func() any {
		cfg.Faults = &faultinject.Plan{Seed: 3, DRAMJitterMax: 97, MSHRCapacity: 2, MSHRThrottleAfter: 20_000}
		return func() any { return nil }
	}, nil},
	{"capture", func(cfg *Config) func() any {
		rec := &accessRecorder{}
		cfg.Capture = rec
		return func() any { return rec.log }
	}, func(t *testing.T, res MultiResult, side any) {
		// The log is the shared L2's demand stream: one record per
		// access of every core, one cost per serviced demand miss.
		var kinds [3]uint64
		var costs uint64
		for _, a := range side.([]capturedAccess) {
			if a.Cost {
				costs++
			} else {
				kinds[a.Kind]++
			}
		}
		if kinds[AccessMiss] != res.Mem.DemandMisses || kinds[AccessMerge] != res.Mem.MergedMisses || costs != res.Mem.DemandMisses {
			t.Errorf("capture logged %d misses, %d merges, %d costs; the run had %d misses, %d merges",
				kinds[AccessMiss], kinds[AccessMerge], costs, res.Mem.DemandMisses, res.Mem.MergedMisses)
		}
		if kinds[AccessHit] != res.L2.Hits {
			t.Errorf("capture logged %d hits, the L2 %d", kinds[AccessHit], res.L2.Hits)
		}
	}},
	{"snapshot", func(cfg *Config) func() any {
		var buf bytes.Buffer
		tr := metrics.NewBinaryTracer(&buf, metrics.RunHeader{Policy: cfg.Policy.String()})
		cfg.Trace = tr
		cfg.SnapshotInterval = 10_000
		return func() any {
			if err := tr.Flush(); err != nil {
				return err
			}
			return buf.Bytes()
		}
	}, func(t *testing.T, res MultiResult, side any) {
		// Chip-wide gauges: one group of 12 per 10,000 instructions
		// retired over all cores, each stamped tid 0.
		b, ok := side.([]byte)
		if !ok {
			t.Fatalf("snapshot stream: %v", side)
		}
		r, err := metrics.NewEventsReader(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		snaps := 0
		for ev, ok := r.Next(); ok; ev, ok = r.Next() {
			if strings.HasPrefix(string(ev.Type), "snapshot.") {
				snaps++
				if ev.Tid != 0 {
					t.Fatalf("chip-wide %s gauge at cycle %d carries tid %d", ev.Type, ev.Cycle, ev.Tid)
				}
			}
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if want := int(res.Instructions()/10_000) * 12; snaps != want {
			t.Errorf("%d snapshot gauges, want %d", snaps, want)
		}
	}},
	{"series", func(cfg *Config) func() any {
		cfg.SampleInterval = 10_000
		return func() any { return nil }
	}, func(t *testing.T, res MultiResult, _ any) {
		// Chip-wide points: one per 10,000 instructions retired over
		// all cores. Under per-thread SBAR both selector series read
		// thread 0's counter, so each lin-selected point is the MSB of
		// its psel-value point (32 for SBAR's default 6-bit PSEL).
		s := res.Series
		if s == nil {
			t.Fatal("no series")
		}
		n := int(res.Instructions() / 10_000)
		if len(s.IPC.Points) != n || len(s.MPKI.Points) != n || len(s.AvgCostQ.Points) != n || len(s.MSHROccupancy.Points) != n {
			t.Fatalf("%d IPC points, want %d in every series", len(s.IPC.Points), n)
		}
		if res.PselValues == nil {
			return
		}
		if len(s.UsingLIN.Points) != n || len(s.PselValue.Points) != n {
			t.Fatalf("%d lin-selected and %d psel-value points, want %d", len(s.UsingLIN.Points), len(s.PselValue.Points), n)
		}
		for i, p := range s.UsingLIN.Points {
			if psel := s.PselValue.Points[i].Value; (p.Value == 1) != (psel >= 32) {
				t.Errorf("point %d (%d instructions): lin-selected %v, psel-value %v", i, p.Instructions, p.Value, psel)
			}
		}
	}},
}

// featureConfig is the audited machine the lifted-feature tests run:
// a 128 KB L2, small enough that prefetches evict and contend.
func featureConfig(p PolicySpec, n uint64) Config {
	cfg := DefaultConfig()
	cfg.MaxInstructions = n
	cfg.L2.SizeBytes = 128 * 1024
	cfg.Policy = p
	cfg.Audit = true
	cfg.AuditEvery = 4096
	return cfg
}

// TestMulticoreSingleCoreFeatureEquivalence runs each lifted feature
// through Run and through a one-core RunMulti: the results, audit
// reports and series included, and the side outputs — the capture log,
// the snapshot event bytes — must match bit for bit.
func TestMulticoreSingleCoreFeatureEquivalence(t *testing.T) {
	for _, f := range liftedFeatures {
		for _, bench := range []string{"twolf", "mcf"} {
			t.Run(f.name+"/"+bench, func(t *testing.T) {
				t.Parallel()
				spec, _ := workload.ByName(bench)
				cfg := featureConfig(PolicySpec{Kind: PolicyLIN, Lambda: 4}, 60_000)
				side := f.enable(&cfg)
				single, err := Run(cfg, spec.Build(42))
				if err != nil {
					t.Fatalf("single-core run: %v", err)
				}
				singleSide := side()
				cfg = featureConfig(cfg.Policy, cfg.MaxInstructions)
				side = f.enable(&cfg)
				multi, err := RunMulti(cfg, spec.Build(42))
				if err != nil {
					t.Fatalf("one-core multi run: %v", err)
				}
				if got := asResult(multi); !reflect.DeepEqual(got, single) {
					t.Fatalf("one-core multi result diverges:\nmulti:  %+v\nsingle: %+v", got, single)
				}
				if got := side(); !reflect.DeepEqual(got, singleSide) {
					t.Fatalf("one-core multi side output diverges from the single-core run's")
				}
			})
		}
	}
}

// TestMulticoreFeaturesAuditClean runs each lifted feature audited on
// two and four cores, among them the two prefetch mixes where another
// core's in-flight block and a prefetch's demand upgrade arise: twolf
// against itself and the four-model SBAR mix, both on the 128 KB L2.
// Every run must finish without error or violation, each core's cost
// histogram must hold exactly its own demand misses, and each feature's
// check must hold.
func TestMulticoreFeaturesAuditClean(t *testing.T) {
	mixes := []struct {
		names  []string
		policy PolicySpec
	}{
		{[]string{"twolf", "twolf"}, PolicySpec{Kind: PolicyLIN, Lambda: 4}},
		{[]string{"mcf", "art", "parser", "equake"}, PolicySpec{Kind: PolicySBAR, Lambda: 4, LeaderSets: 32}},
	}
	for _, f := range liftedFeatures {
		for _, mix := range mixes {
			t.Run(f.name+"/"+strings.Join(mix.names, "+"), func(t *testing.T) {
				t.Parallel()
				cfg := featureConfig(mix.policy, 60_000)
				side := f.enable(&cfg)
				res, err := RunMulti(cfg, sources(mix.names...)...)
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				if !res.Audit.Ok() || res.Audit.Checks == 0 {
					t.Fatalf("audit: %+v", res.Audit)
				}
				for i, c := range res.Cores {
					if c.CostHist.Total() != c.Mem.DemandMisses {
						t.Errorf("core %d: %d costed fills, %d demand misses", i, c.CostHist.Total(), c.Mem.DemandMisses)
					}
				}
				if f.check != nil {
					f.check(t, res, side())
				}
			})
		}
	}
}
