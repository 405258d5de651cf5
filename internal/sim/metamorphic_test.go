package sim

import (
	"testing"

	"mlpcache/internal/metrics"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// Metamorphic tests: each changes one input of a run and states the
// answer the paper's definitions then force, independent of any
// recorded figure.

// fillCosts runs src under cfg and returns the mlp-cost Algorithm 1
// charged each serviced miss, read from the miss.fill events.
func fillCosts(t *testing.T, cfg Config, src trace.Source) []float64 {
	t.Helper()
	var costs []float64
	cfg.Trace = metrics.FuncTracer(func(ev metrics.Event) {
		if ev.Type == metrics.EventMissFill {
			costs = append(costs, ev.Cost)
		}
	})
	if _, err := Run(cfg, src); err != nil {
		t.Fatal(err)
	}
	return costs
}

// loneChase is a pointer chase over more blocks than the L2 holds: each
// load's address depends on the previous load, so its misses never
// overlap.
func loneChase() trace.Source {
	return trace.NewPointerChase(trace.ChaseConfig{
		Base: 1 << 33, Blocks: 100_000, Gap: 8, Touches: 2, Seed: 1,
	})
}

// TestOneEntryMSHRChargesEveryMissAlone is Algorithm 1's known answer:
// with one MSHR entry no two demand misses are ever outstanding together,
// so each is charged every cycle it waits, undivided, and costs exactly
// what an isolated miss costs. The isolated cost is measured, not
// written down: a lone pointer chase under the default MSHR serializes
// its own misses, and each of them must cost the same.
func TestOneEntryMSHRChargesEveryMissAlone(t *testing.T) {
	lone := fillCosts(t, smallConfig(50_000), loneChase())
	if len(lone) == 0 {
		t.Fatal("the lone chase serviced no misses")
	}
	isolated := lone[0]
	t.Logf("an isolated miss costs %v cycles (%d lone-chase misses)", isolated, len(lone))
	for i, c := range lone {
		if c != isolated {
			t.Fatalf("lone chase: miss %d costs %v, miss 0 %v", i, c, isolated)
		}
	}

	policies := []PolicySpec{
		{Kind: PolicyLRU},
		{Kind: PolicyLIN, Lambda: 4},
		{Kind: PolicySBAR, Lambda: 4, LeaderSets: 32},
	}
	for _, bench := range []string{"mcf", "art", "parser", "equake", "twolf"} {
		spec, _ := workload.ByName(bench)
		for _, p := range policies {
			t.Run(bench+"/"+p.String(), func(t *testing.T) {
				t.Parallel()
				cfg := smallConfig(100_000)
				cfg.Policy = p
				cfg.MSHR.Entries = 1
				costs := fillCosts(t, cfg, spec.Build(42))
				if len(costs) == 0 {
					t.Fatal("no miss was serviced")
				}
				for i, c := range costs {
					if c != isolated {
						t.Fatalf("miss %d of %d costs %v; an isolated miss costs %v", i, len(costs), c, isolated)
					}
				}
			})
		}
	}
}

// TestIsolatedMissCostsTheDRAMLatency scales the DRAM's latency under a
// lone pointer chase. Each of its misses is isolated, so Algorithm 1
// charges it every cycle from issue to fill: the L1 and L2 lookups, the
// bank access and the bus transfer, whatever those latencies are.
func TestIsolatedMissCostsTheDRAMLatency(t *testing.T) {
	for _, bus := range []uint64{44, 88} {
		for _, access := range []uint64{100, 400, 800, 1600} {
			cfg := smallConfig(20_000)
			cfg.DRAM.AccessCycles, cfg.DRAM.BusCycles = access, bus
			want := float64(access + bus + cfg.L1Lat + cfg.L2Lat)
			costs := fillCosts(t, cfg, loneChase())
			if len(costs) == 0 {
				t.Fatalf("access %d, bus %d: the chase serviced no misses", access, bus)
			}
			for i, c := range costs {
				if c != want {
					t.Fatalf("access %d, bus %d: miss %d of %d costs %v, want %v", access, bus, i, len(costs), c, want)
				}
			}
		}
	}
}
