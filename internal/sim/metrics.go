package sim

import (
	"mlpcache/internal/audit"
	"mlpcache/internal/cache"
	"mlpcache/internal/core"
	"mlpcache/internal/dram"
	"mlpcache/internal/learn"
	"mlpcache/internal/metrics"
	"mlpcache/internal/stats"
)

// Metrics exports the result as a metrics registry: every counter the run
// accumulated under the stable dotted names catalogued in
// docs/OBSERVABILITY.md. Conditional families (hybrid.*, psel.*,
// interval.*, audit.*) appear only when the run produced them; everything
// else is always present, zero-valued if idle.
func (r Result) Metrics() *metrics.Registry {
	reg := metrics.NewRegistry()
	r.chip().observe(reg)

	// Core.
	reg.Counter("cpu.retired", "instructions", "instructions retired by the core").Add(r.CPU.Retired)
	reg.Counter("cpu.loads", "instructions", "load instructions retired").Add(r.CPU.Loads)
	reg.Counter("cpu.stores", "instructions", "store instructions retired").Add(r.CPU.Stores)
	reg.Counter("cpu.branches", "instructions", "branch instructions retired").Add(r.CPU.Branches)
	reg.Counter("cpu.mispredicts", "branches", "mispredicted branches").Add(r.CPU.Mispredicts)
	reg.Counter("cpu.mem_stall_cycles", "cycles", "cycles retirement blocked on memory").Add(r.CPU.MemStallCycles)
	reg.Counter("cpu.mem_stall_episodes", "episodes", "maximal memory-stall runs").Add(r.CPU.MemStallEpisodes)
	reg.Counter("cpu.full_window_cycles", "cycles", "cycles fetch blocked by a full window").Add(r.CPU.FullWindowCycles)
	reg.Counter("cpu.fetch_mispredict_cycles", "cycles", "cycles fetch blocked on a mispredict").Add(r.CPU.FetchMispredictCycles)
	reg.Counter("cpu.store_buffer_full", "events", "issues rejected by a full store buffer").Add(r.CPU.StoreBufferFullEvents)
	reg.Counter("cpu.mshr_rejects", "events", "accesses the memory system refused").Add(r.CPU.MSHRRejects)

	// Branch predictor (zero when the oracle front end is in use).
	reg.Counter("bpred.lookups", "branches", "live predictor lookups").Add(r.Bpred.Lookups)
	reg.Counter("bpred.mispredicts", "branches", "live predictor mispredicts").Add(r.Bpred.Mispredicts)
	reg.Counter("bpred.gshare_used", "branches", "lookups routed to gshare").Add(r.Bpred.GshareUsed)
	reg.Gauge("bpred.mispredict_rate", "ratio", "mispredicts over lookups").Set(r.Bpred.MispredictRate())

	// The core's private tag store and MSHR file (Algorithm 1's home).
	r.L1.Observe(reg, "cache.l1")
	reg.Counter("cache.l1.writeback_drop", "evictions", "dirty L1 evictions whose block was absent from L2").Add(r.Mem.L1WritebackDrops)
	r.MSHR.Observe(reg)
	return reg
}

// Header builds the JSONL run header identifying this result. bench and
// seed come from the caller (the Result does not record them).
func (r Result) Header(bench string, seed uint64) metrics.RunHeader {
	return r.chip().header(bench, seed)
}

func (r Result) chip() chip {
	return chip{
		policy: r.Policy, instructions: r.Instructions, cycles: r.Cycles, ipc: r.IPC,
		l2: r.L2, dram: r.DRAM, mem: r.Mem, avgCostQ: r.AvgCostQ(), costHist: r.CostHist, delta: r.Delta,
		hybrid: r.Hybrid, learn: r.Learn, series: r.Series, audit: r.Audit,
	}
}

// chip is the chip-wide part of a finished run: what a single-core
// Result and a MultiResult both export, under the same names. In a
// multi-core run the totals are aggregates over the cores and the
// memory side is the shared L2 and DRAM.
type chip struct {
	policy       string
	instructions uint64
	cycles       uint64
	ipc          float64
	l2           cache.Stats
	dram         dram.Stats
	mem          MemStats
	avgCostQ     float64
	costHist     *stats.Histogram
	delta        DeltaStats
	hybrid       *core.HybridStats
	learn        *learn.Stats
	series       *SeriesSet
	audit        *audit.Report
}

// header builds the JSONL run header; bench and seed come from the
// caller, as neither result type records them.
func (c chip) header(bench string, seed uint64) metrics.RunHeader {
	return metrics.RunHeader{
		Bench:        bench,
		Policy:       c.policy,
		Seed:         seed,
		Instructions: c.instructions,
		Cycles:       c.cycles,
		IPC:          c.ipc,
	}
}

// observe registers the chip-wide families: run totals, the L2 and
// memory-side aggregates, cost and delta accounting, DRAM, the
// prefetch counters, and the hybrid, learned, interval and audit
// families when the run produced them.
func (c chip) observe(reg *metrics.Registry) {
	// Run totals.
	reg.Counter("run.instructions", "instructions", "instructions retired").Add(c.instructions)
	reg.Counter("run.cycles", "cycles", "cycles simulated").Add(c.cycles)
	reg.Gauge("run.ipc", "ipc", "retired instructions per cycle").Set(c.ipc)

	// The L2 tag store and memory-side aggregates.
	c.l2.Observe(reg, "cache.l2")
	reg.Counter("cache.l2.demand_miss", "misses", "primary L2 demand misses serviced by DRAM").Add(c.mem.DemandMisses)
	reg.Counter("cache.l2.merged_miss", "misses", "L2 misses merged into an in-flight entry").Add(c.mem.MergedMisses)
	reg.Counter("cache.l2.compulsory_miss", "misses", "first-ever-reference demand misses").Add(c.mem.CompulsoryMisses)
	reg.Gauge("sim.mem.tracked_blocks", "blocks", "distinct blocks in the memory system's footprint store").Set(float64(c.mem.TrackedBlocks))

	// MLP-based cost accounting (Figure 2, Figure 3b).
	reg.Counter("cost_q.sum", "cost_q", "summed quantized cost over serviced misses").Add(c.mem.CostQSum)
	reg.Gauge("cost_q.avg", "cost_q", "mean quantized cost per serviced miss").Set(c.avgCostQ)
	reg.Gauge("mlp_cost.avg", "cycles", "mean mlp-based cost per serviced miss").Set(c.costHist.Mean())
	reg.AttachHistogram("cost_q.hist", "cycles", "mlp-cost distribution, 60-cycle bins, final bin 420+", c.costHist)

	// Table 1 successive-miss cost deltas.
	reg.Counter("delta.lt60", "misses", "successive-miss cost deltas below 60 cycles").Add(c.delta.Lt60)
	reg.Counter("delta.ge60_lt120", "misses", "deltas in [60,120) cycles").Add(c.delta.Ge60Lt120)
	reg.Counter("delta.ge120", "misses", "deltas of 120+ cycles").Add(c.delta.Ge120)
	reg.Gauge("delta.mean", "cycles", "mean successive-miss cost delta").Set(c.delta.Mean())

	// DRAM.
	reg.Counter("dram.reads", "requests", "DRAM read requests").Add(c.dram.Reads)
	reg.Counter("dram.writes", "requests", "DRAM write requests").Add(c.dram.Writes)
	reg.Counter("dram.bank_wait_cycles", "cycles", "cycles queued behind busy banks").Add(c.dram.BankWaitCycles)
	reg.Counter("dram.bus_wait_cycles", "cycles", "cycles queued for the shared bus").Add(c.dram.BusWaitCycles)

	// Prefetchers, summed over the cores (all zero when disabled).
	reg.Counter("prefetch.issued", "requests", "prefetches issued").Add(c.mem.PrefetchIssued)
	reg.Counter("prefetch.dropped", "requests", "prefetches dropped for lack of an MSHR entry").Add(c.mem.PrefetchDropped)
	reg.Counter("prefetch.useful", "fills", "prefetched blocks later hit by demand").Add(c.mem.PrefetchUseful)
	reg.Counter("prefetch.unused", "fills", "prefetched blocks evicted untouched").Add(c.mem.PrefetchUnused)
	reg.Counter("prefetch.late", "requests", "in-flight prefetches a demand access merged into").Add(c.mem.PrefetchLate)

	// Hybrid selection machinery (SBAR/CBS/DIP runs only).
	if h := c.hybrid; h != nil {
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
	if s := c.learn; s != nil {
		reg.Counter("learn.victims", "victims", "victim decisions made by the learned policy").Add(s.Victims)
		reg.Counter("learn.ghost_hits", "misses", "sampled misses an arm's shadow would have hit (bandit regret signal)").Add(s.GhostHits)
		reg.Counter("learn.confirmed", "misses", "sampled misses no arm's shadow held (eviction confirmed harmless)").Add(s.Confirmed)
		reg.Counter("learn.arm.recency", "victims", "bandit victims chosen by the evict-LRU arm").Add(s.ArmRecency)
		reg.Counter("learn.arm.protect", "victims", "bandit victims chosen by the evict-MRU arm").Add(s.ArmProtect)
		reg.Counter("learn.arm.frequency", "victims", "bandit victims chosen by the fewest-hits arm").Add(s.ArmFrequency)
		reg.Counter("learn.arm.cost", "victims", "bandit victims chosen by the cheapest-cost arm").Add(s.ArmCost)
		reg.Counter("learn.arm.scatter", "victims", "bandit victims chosen by the random-LRU-half arm").Add(s.ArmScatter)
		reg.Gauge("learn.weight.recency", "weight", "final evict-LRU arm weight").Set(s.WeightRecency)
		reg.Gauge("learn.weight.protect", "weight", "final evict-MRU arm weight").Set(s.WeightProtect)
		reg.Gauge("learn.weight.frequency", "weight", "final fewest-hits arm weight").Set(s.WeightFrequency)
		reg.Gauge("learn.weight.cost", "weight", "final cheapest-cost arm weight").Set(s.WeightCost)
		reg.Gauge("learn.weight.scatter", "weight", "final random-LRU-half arm weight").Set(s.WeightScatter)
		reg.Counter("learn.fills.trained", "fills", "fills whose signature the model had trained").Add(s.TrainedFills)
		reg.Counter("learn.fills.untrained", "fills", "fills whose signature the model had never seen").Add(s.UntrainedFills)
	}

	// Interval time series (SampleInterval runs only).
	if s := c.series; s != nil {
		reg.AttachSeries("interval.ipc", "ipc", "per-interval IPC (Figure 11)", &s.IPC)
		reg.AttachSeries("interval.mpki", "mpki", "per-interval L2 demand MPKI", &s.MPKI)
		reg.AttachSeries("interval.avg_cost_q", "cost_q", "per-interval mean quantized cost", &s.AvgCostQ)
		reg.AttachSeries("interval.using_lin", "boolean", "1 when LIN was selected at the boundary", &s.UsingLIN)
		reg.AttachSeries("psel.value", "counter", "selector counter at interval boundaries", &s.PselValue)
		reg.AttachSeries("mshr.occupancy", "entries", "miss-file occupancy at interval boundaries", &s.MSHROccupancy)
	}

	// Invariant auditor (audited runs only).
	if c.audit != nil {
		reg.Counter("audit.checks", "passes", "completed auditor passes").Add(c.audit.Checks)
		reg.Counter("audit.violations", "violations", "invariant breaches retained").Add(uint64(len(c.audit.Violations)))
		reg.Counter("audit.dropped", "violations", "breaches beyond the retention cap").Add(uint64(c.audit.Dropped))
	}
}
