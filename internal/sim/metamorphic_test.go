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

// TestKParallelChasesCostLatencyOverK runs k interleaved pointer chases
// per core on 1, 2 and 4 cores, each core on its own address range. A
// lone chase (k=1) never overlaps its own misses, so Algorithm 1
// charges each the full memory latency (the 420+ bin); k=2 chases keep
// two misses outstanding, so each costs about half (the 180-239 bin,
// the paper's mcf peak). The cost clock is per thread: other cores'
// misses queue at the shared DRAM, which raises a miss's latency, but
// never share the issuing core's MSHR, so they never discount its cost
// and no core's mean cost falls below the one-core mean.
func TestKParallelChasesCostLatencyOverK(t *testing.T) {
	chases := func(k, core int) trace.Source {
		parts := make([]trace.MixPart, k)
		for i := range parts {
			n := uint64(core*k + i)
			parts[i] = trace.MixPart{
				Src:    trace.NewPointerChase(trace.ChaseConfig{Base: n << 33, Blocks: 20_000, Gap: 8, Seed: n + 1}),
				Weight: 1, Chunk: 1,
			}
		}
		return trace.NewMix(9, parts...)
	}
	for _, k := range []int{1, 2} {
		var oneCore float64
		for _, cores := range []int{1, 2, 4} {
			srcs := make([]trace.Source, cores)
			for c := range srcs {
				srcs[c] = chases(k, c)
			}
			res, err := RunMulti(smallConfig(150_000), srcs...)
			if err != nil {
				t.Fatalf("k=%d on %d cores: %v", k, cores, err)
			}
			if cores == 1 {
				oneCore = res.Cores[0].AvgMLPCost()
			}
			for i, c := range res.Cores {
				bins, pct := c.CostHist.Bins(), c.CostHist.Percent()
				top := 0
				for b := range bins {
					if bins[b] > bins[top] {
						top = b
					}
				}
				switch {
				case c.Mem.DemandMisses == 0:
					t.Fatalf("k=%d, %d cores: core %d serviced no misses", k, cores, i)
				case k == 1 && bins[7] != c.CostHist.Total():
					t.Errorf("lone chase, %d cores: core %d has %.1f%% of its misses outside the 420+ bin (hist %v)", cores, i, 100-pct[7], pct)
				case k == 2 && top != 3:
					t.Errorf("k=2 chase, %d cores: core %d's most populated bin is %s, not 180-239 (hist %v)", cores, i, c.CostHist.BinLabel(top), pct)
				case k == 2 && cores == 1 && pct[3] < 50:
					t.Errorf("k=2 chase: only %.1f%% of misses in the 180-239 bin (hist %v)", pct[3], pct)
				}
				if cost := c.AvgMLPCost(); cost < oneCore {
					t.Errorf("k=%d, %d cores: core %d's mean cost %.1f is below the one-core mean %.1f", k, cores, i, cost, oneCore)
				}
				t.Logf("k=%d, %d cores: core %d mean cost %.1f, hist %v", k, cores, i, c.AvgMLPCost(), pct)
			}
		}
	}
}
