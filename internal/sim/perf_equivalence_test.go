package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mlpcache/internal/audit"
	"mlpcache/internal/cache"
	"mlpcache/internal/faultinject"
	"mlpcache/internal/prefetch"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// TestRanksAgreeWithReferenceAcrossPolicies is the hot-path rewrite's
// property test: SetView.Ranks (the one-pass ranking the optimized
// victim functions are built on) and SetView.LRUWay must agree with the
// per-way RecencyRank reference under every replacement policy in the
// registry, across randomized fill/touch/demote/invalidate sequences.
// The policies themselves run live (hybrids included), so the sequences
// exercise exactly the metadata states real victim decisions see. Two
// small geometries maximize set pressure and eviction churn: 16 sets,
// and 12, a set count that is not a power of two.
func TestRanksAgreeWithReferenceAcrossPolicies(t *testing.T) {
	for _, geom := range []cache.Config{
		{Sets: 16, Assoc: 8, BlockBytes: 64},
		{Sets: 12, Assoc: 8, BlockBytes: 64},
	} {
		for _, kind := range AllPolicies {
			name := string(kind)
			if geom.Sets != 16 {
				name = fmt.Sprintf("%s/%dsets", kind, geom.Sets)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				ranksAgreeUnder(t, kind, geom)
			})
		}
	}
}

// ranksAgreeUnder drives one policy on one L2 geometry through 20,000
// random operations, checking every set against the reference after
// each.
func ranksAgreeUnder(t *testing.T, kind PolicyKind, geom cache.Config) {
	cfg := DefaultConfig()
	cfg.L2 = geom
	cfg.Policy = PolicySpec{Kind: kind, Seed: 11, LeaderSets: 4}
	l2, hybrid, err := buildL2(cfg, 1)
	if err != nil {
		t.Fatalf("buildL2(%s): %v", kind, err)
	}
	rng := rand.New(rand.NewSource(int64(len(kind)) + 17))
	// Addresses over 4× the cache's block capacity force misses.
	universe := uint64(4 * geom.Sets * geom.Assoc)
	for op := 0; op < 20_000; op++ {
		addr := (rng.Uint64() % universe) * 64
		write := rng.Intn(4) == 0
		switch rng.Intn(10) {
		case 0: // invalidate
			l2.Invalidate(addr)
		case 1: // demote a random valid way, as BIP's fill path does
			set := rng.Intn(geom.Sets)
			view := l2.ViewSet(set)
			w := rng.Intn(view.Ways())
			if view.Line(w).Valid {
				view.Demote(w)
			}
		default: // probe, then fill on miss — the memsys access shape
			hit := l2.Probe(addr, write)
			if hybrid != nil {
				hybrid.OnAccess(addr, write, hit, !hit)
			}
			if !hit {
				costQ := uint8(rng.Intn(8))
				l2.Fill(addr, costQ, write)
				if hybrid != nil {
					hybrid.OnFill(addr, costQ)
				}
			}
		}
		checkRanksAgainstReference(t, l2, geom.Sets, op)
		if t.Failed() {
			return
		}
	}
}

// checkRanksAgainstReference compares the optimized ranking primitives
// with the RecencyRank reference on every set.
func checkRanksAgainstReference(t *testing.T, c *cache.Cache, sets, op int) {
	t.Helper()
	var buf []int
	for s := 0; s < sets; s++ {
		view := c.ViewSet(s)
		buf = view.Ranks(buf)
		firstInvalid := -1
		for w := 0; w < view.Ways(); w++ {
			if !view.Line(w).Valid {
				if firstInvalid < 0 {
					firstInvalid = w
				}
				continue
			}
			if want := view.RecencyRank(w); buf[w] != want {
				t.Errorf("op %d set %d way %d: Ranks=%d, RecencyRank=%d", op, s, w, buf[w], want)
				return
			}
		}
		lru := view.LRUWay()
		switch {
		case firstInvalid >= 0:
			if lru != firstInvalid {
				t.Errorf("op %d set %d: LRUWay=%d, want first invalid way %d", op, s, lru, firstInvalid)
				return
			}
		default:
			if view.RecencyRank(lru) != 0 {
				t.Errorf("op %d set %d: LRUWay=%d has rank %d, want 0", op, s, lru, view.RecencyRank(lru))
				return
			}
		}
	}
}

// TestFastForwardEquivalenceSweep is the stall fast-forward's
// equivalence proof over the audited robustness sweep: for every policy
// in the registry, a run with fast-forward enabled must produce a result
// bit-identical to the cycle-by-cycle reference, and both runs must
// audit clean. The single-core leg runs two benchmark models and also
// compares the Figure 11 interval series; the multi-core leg runs two
// and four cores, four cores with one core's source ending after 5,000
// instructions, so a finished core idles while the others run, and two
// and four cores with a prefetcher per core and the fault plan (DRAM
// jitter, then the MSHR throttle) on.
func TestFastForwardEquivalenceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is a long test")
	}
	config := func(kind PolicyKind, n uint64) Config {
		cfg := DefaultConfig()
		cfg.MaxInstructions = n
		cfg.Policy = PolicySpec{Kind: kind, Seed: 7}
		if kind == PolicySBAR {
			cfg.Policy.RandDynamic = true
			cfg.EpochInstructions = 20_000
		}
		cfg.Audit = true
		cfg.AuditEvery = 2048
		return cfg
	}
	// equal runs cfg with and without fast-forward and compares the
	// results with their audit reports cleared: the auditor fires per
	// run-loop iteration, so the fast-forwarded run legitimately
	// completes fewer passes.
	equal := func(t *testing.T, cfg Config, run func(Config) (any, *audit.Report, error)) {
		fast, fastAudit, err := run(cfg)
		if err != nil {
			t.Fatalf("fast-forward run failed: %v", err)
		}
		slow := cfg
		slow.DisableFastForward = true
		ref, refAudit, err := run(slow)
		if err != nil {
			t.Fatalf("reference run failed: %v", err)
		}
		for name, a := range map[string]*audit.Report{"fast": fastAudit, "exact": refAudit} {
			if a == nil || !a.Ok() {
				t.Fatalf("%s run did not audit clean: %+v", name, a)
			}
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("fast-forward result diverges from exact:\nfast: %+v\nexact: %+v", fast, ref)
		}
	}
	for _, bench := range []string{"mcf", "parser"} {
		spec, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("benchmark %q missing", bench)
		}
		for _, kind := range AllPolicies {
			t.Run(bench+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				cfg := config(kind, 60_000)
				cfg.SampleInterval = 10_000
				equal(t, cfg, func(cfg Config) (any, *audit.Report, error) {
					res, err := Run(cfg, spec.Build(11))
					rep := res.Audit
					res.Audit = nil
					return res, rep, err
				})
			})
		}
	}
	for _, shape := range []struct {
		name     string
		cores    int
		short    bool // core 1's source ends after 5,000 instructions
		features bool // prefetching and fault injection
	}{
		{"2core", 2, false, false}, {"4core", 4, false, false}, {"4core-short", 4, true, false},
		{"2core-prefetch-faults", 2, false, true}, {"4core-prefetch-faults", 4, false, true},
	} {
		for _, kind := range AllPolicies {
			t.Run(shape.name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				cfg := config(kind, 25_000)
				if shape.features {
					p := prefetch.DefaultConfig()
					cfg.Prefetch = &p
					cfg.Faults = &faultinject.Plan{Seed: 3, DRAMJitterMax: 97, MSHRCapacity: 2, MSHRThrottleAfter: 20_000}
				}
				equal(t, cfg, func(cfg Config) (any, *audit.Report, error) {
					srcs := mixSources([]string{"mcf", "parser"}, shape.cores)
					if shape.short {
						srcs[1] = trace.NewLimit(srcs[1], 5000)
					}
					res, err := RunMulti(cfg, srcs...)
					rep := res.Audit
					res.Audit = nil
					return res, rep, err
				})
			})
		}
	}
}
