package sim

import (
	"fmt"

	"mlpcache/internal/metrics"
)

// Metrics exports a multi-core result as a metrics registry under the
// names catalogued in docs/OBSERVABILITY.md: the aggregate families the
// single-core engine also emits (run.*, cache.l2.*, cost_q.*, delta.*,
// dram.*, hybrid/psel, audit.*), the multicore.* run shape, and one
// core.<i>.* group per core. Per-core L1, CPU and branch-predictor
// detail stays in the CoreResult structs; the registry carries each
// core's headline counters so dashboards can see who is suffering under
// contention.
func (r MultiResult) Metrics() *metrics.Registry {
	reg := metrics.NewRegistry()

	// Run totals (aggregate across cores, one shared clock).
	reg.Counter("run.instructions", "instructions", "instructions retired").Add(r.Instructions())
	reg.Counter("run.cycles", "cycles", "cycles simulated").Add(r.Cycles)
	reg.Gauge("run.ipc", "ipc", "retired instructions per cycle").Set(r.IPC())

	// Run shape.
	reg.Gauge("multicore.cores", "cores", "cores sharing the contended L2").Set(float64(len(r.Cores)))
	reg.Counter("multicore.cross_core_merges", "misses", "demand misses that joined another core's in-flight miss").Add(r.CrossCoreMerges)

	// Shared tag store and memory-side aggregates.
	r.L2.Observe(reg, "cache.l2")
	reg.Counter("cache.l2.demand_miss", "misses", "primary L2 demand misses serviced by DRAM").Add(r.Mem.DemandMisses)
	reg.Counter("cache.l2.merged_miss", "misses", "L2 misses merged into an in-flight entry").Add(r.Mem.MergedMisses)
	reg.Counter("cache.l2.compulsory_miss", "misses", "first-ever-reference demand misses").Add(r.Mem.CompulsoryMisses)
	reg.Gauge("sim.mem.tracked_blocks", "blocks", "distinct blocks in the memory system's footprint store").Set(float64(r.Mem.TrackedBlocks))

	// MLP-based cost accounting (Figure 2, Figure 3b), chip-wide.
	reg.Counter("cost_q.sum", "cost_q", "summed quantized cost over serviced misses").Add(r.Mem.CostQSum)
	reg.Gauge("cost_q.avg", "cost_q", "mean quantized cost per serviced miss").Set(r.AvgCostQ())
	reg.Gauge("mlp_cost.avg", "cycles", "mean mlp-based cost per serviced miss").Set(r.AvgMLPCost())
	reg.AttachHistogram("cost_q.hist", "cycles", "mlp-cost distribution, 60-cycle bins, final bin 420+", r.CostHist)

	// Table 1 successive-miss cost deltas over the shared block store.
	reg.Counter("delta.lt60", "misses", "successive-miss cost deltas below 60 cycles").Add(r.Delta.Lt60)
	reg.Counter("delta.ge60_lt120", "misses", "deltas in [60,120) cycles").Add(r.Delta.Ge60Lt120)
	reg.Counter("delta.ge120", "misses", "deltas of 120+ cycles").Add(r.Delta.Ge120)
	reg.Gauge("delta.mean", "cycles", "mean successive-miss cost delta").Set(r.Delta.Mean())

	// Shared DRAM.
	reg.Counter("dram.reads", "requests", "DRAM read requests").Add(r.DRAM.Reads)
	reg.Counter("dram.writes", "requests", "DRAM write requests").Add(r.DRAM.Writes)
	reg.Counter("dram.bank_wait_cycles", "cycles", "cycles queued behind busy banks").Add(r.DRAM.BankWaitCycles)
	reg.Counter("dram.bus_wait_cycles", "cycles", "cycles queued for the shared bus").Add(r.DRAM.BusWaitCycles)

	// Per-core slices.
	for i, c := range r.Cores {
		p := fmt.Sprintf("core.%d.", i)
		reg.Counter(p+"instructions", "instructions", "instructions retired by this core").Add(c.Instructions)
		reg.Gauge(p+"ipc", "ipc", "this core's retired instructions per cycle").Set(c.IPC)
		reg.Counter(p+"demand_miss", "misses", "primary L2 demand misses this core issued").Add(c.Mem.DemandMisses)
		reg.Counter(p+"merged_miss", "misses", "misses this core merged into in-flight entries").Add(c.Mem.MergedMisses)
		reg.Counter(p+"compulsory_miss", "misses", "first-ever block references this core issued").Add(c.Mem.CompulsoryMisses)
		reg.Gauge(p+"mpki", "mpki", "this core's L2 demand misses per thousand of its instructions").Set(c.MPKI())
		reg.Gauge(p+"avg_cost_q", "cost_q", "mean quantized cost of this core's misses").Set(c.AvgCostQ())
		reg.Gauge(p+"avg_mlp_cost", "cycles", "mean mlp-based cost of this core's misses").Set(c.AvgMLPCost())
		reg.Counter(p+"mem_stall_cycles", "cycles", "cycles this core's retirement blocked on memory").Add(c.CPU.MemStallCycles)
		reg.Counter(p+"mshr_rejects", "events", "accesses this core's MSHR file refused").Add(c.CPU.MSHRRejects)
		reg.Gauge(p+"mshr_peak", "entries", "this core's maximum simultaneous MSHR occupancy").Set(float64(c.MSHR.Peak))
		if r.PselValues != nil {
			reg.Gauge(p+"psel_value", "counter", "this thread's final partitioned selector value").Set(float64(r.PselValues[i]))
		}
	}

	// Hybrid selection machinery (SBAR/CBS/DIP runs only).
	if r.Hybrid != nil {
		h := r.Hybrid
		reg.Counter("psel.increments", "updates", "PSEL movements toward LIN").Add(h.PselIncrements)
		reg.Counter("psel.decrements", "updates", "PSEL movements toward LRU").Add(h.PselDecrements)
		reg.Counter("hybrid.lin_victims", "victims", "victim decisions made by LIN").Add(h.LinVictims)
		reg.Counter("hybrid.lru_victims", "victims", "victim decisions made by the baseline policy").Add(h.LruVictims)
		reg.Counter("hybrid.epoch_reselects", "epochs", "leader re-draws that changed the map").Add(h.EpochReselects)
		reg.Counter("hybrid.leader_accesses", "accesses", "accesses observed by the contest machinery").Add(h.LeaderAccesses)
		reg.Counter("hybrid.tie_both_hit", "contests", "contests both policies hit").Add(h.TieBothHit)
		reg.Counter("hybrid.tie_both_miss", "contests", "contests both policies missed").Add(h.TieBothMiss)
	}

	// Learned eviction machinery (bandit/learned runs only).
	observeLearn(reg, r.Learn)

	// Invariant auditor (audited runs only).
	if r.Audit != nil {
		reg.Counter("audit.checks", "passes", "completed auditor passes").Add(r.Audit.Checks)
		reg.Counter("audit.violations", "violations", "invariant breaches retained").Add(uint64(len(r.Audit.Violations)))
		reg.Counter("audit.dropped", "violations", "breaches beyond the retention cap").Add(uint64(r.Audit.Dropped))
	}

	return reg
}

// Header builds the JSONL run header identifying this result. bench and
// seed come from the caller; instruction and IPC totals are aggregates
// over the cores.
func (r MultiResult) Header(bench string, seed uint64) metrics.RunHeader {
	return metrics.RunHeader{
		Bench:        bench,
		Policy:       r.Policy,
		Seed:         seed,
		Instructions: r.Instructions(),
		Cycles:       r.Cycles,
		IPC:          r.IPC(),
	}
}
