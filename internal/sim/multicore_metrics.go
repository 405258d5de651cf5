package sim

import (
	"fmt"

	"mlpcache/internal/metrics"
)

// Metrics exports a multi-core result as a metrics registry under the
// names catalogued in docs/OBSERVABILITY.md: the chip-wide families a
// single-core Result exports too (chip.observe: run.*, cache.l2.*,
// cost_q.*, delta.*, dram.*, prefetch.*, hybrid/psel, learn.*,
// interval.*, audit.*), the multicore.* run shape, and one core.<i>.*
// group per core. Per-core L1, CPU and branch-predictor detail stays in
// the CoreResult structs; the registry carries each core's headline
// counters so dashboards can see who is suffering under contention.
func (r MultiResult) Metrics() *metrics.Registry {
	reg := metrics.NewRegistry()
	r.chip().observe(reg)

	// Run shape.
	reg.Gauge("multicore.cores", "cores", "cores sharing the contended L2").Set(float64(len(r.Cores)))
	reg.Counter("multicore.cross_core_merges", "misses", "demand misses that joined another core's in-flight miss").Add(r.CrossCoreMerges)

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
	return reg
}

// Header builds the JSONL run header identifying this result. bench and
// seed come from the caller; instruction and IPC totals are aggregates
// over the cores.
func (r MultiResult) Header(bench string, seed uint64) metrics.RunHeader {
	return r.chip().header(bench, seed)
}

func (r MultiResult) chip() chip {
	return chip{
		policy: r.Policy, instructions: r.Instructions(), cycles: r.Cycles, ipc: r.IPC(),
		l2: r.L2, dram: r.DRAM, mem: r.Mem, avgCostQ: r.AvgCostQ(), costHist: r.CostHist, delta: r.Delta,
		hybrid: r.Hybrid, learn: r.Learn, series: r.Series, audit: r.Audit,
	}
}
