package sim

import (
	"context"
	"fmt"

	"mlpcache/internal/audit"
	"mlpcache/internal/bpred"
	"mlpcache/internal/cache"
	"mlpcache/internal/core"
	"mlpcache/internal/cpu"
	"mlpcache/internal/dram"
	"mlpcache/internal/learn"
	"mlpcache/internal/mshr"
	"mlpcache/internal/simerr"
	"mlpcache/internal/stats"
	"mlpcache/internal/trace"
)

// MaxCores bounds a multi-core run. Sharer sets are a single uint64
// bitmask, so the limit is architectural, not a tuning knob.
const MaxCores = 64

// CoreResult is one core's slice of a multi-core run.
type CoreResult struct {
	// Instructions and IPC are this core's retirement totals over the
	// run's shared cycle count.
	Instructions uint64
	IPC          float64

	CPU   cpu.Stats
	Bpred bpred.Stats
	L1    cache.Stats
	MSHR  mshr.Stats
	// Mem holds this core's share of the memory-side counters: misses it
	// issued, merges it joined, compulsory misses it touched first, the
	// quantized cost its own misses accrued, and its prefetcher's
	// accounting (hits and evictions of prefetched blocks are charged to
	// the core that hit or evicted them). TrackedBlocks stays zero (the
	// footprint store is chip-wide).
	Mem MemStats
	// CostHist is this core's Figure 2 mlp-cost distribution; CostSum its
	// raw summed cost.
	CostHist *stats.Histogram
	CostSum  float64
}

// MPKI returns this core's L2 demand misses per thousand of its own
// retired instructions.
func (c CoreResult) MPKI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return 1000 * float64(c.Mem.DemandMisses) / float64(c.Instructions)
}

// AvgCostQ returns this core's mean quantized cost per serviced miss.
func (c CoreResult) AvgCostQ() float64 {
	if c.Mem.DemandMisses == 0 {
		return 0
	}
	return float64(c.Mem.CostQSum) / float64(c.Mem.DemandMisses)
}

// AvgMLPCost returns this core's mean mlp-based cost per serviced miss.
func (c CoreResult) AvgMLPCost() float64 {
	if c.Mem.DemandMisses == 0 {
		return 0
	}
	return c.CostSum / float64(c.Mem.DemandMisses)
}

// MultiResult bundles everything a multi-core run measured: per-core
// slices plus the shared-L2 aggregates.
type MultiResult struct {
	// Policy is the replacement configuration's label.
	Policy string
	// Cycles is the shared clock's final value.
	Cycles uint64

	// Cores holds one entry per core, in core order.
	Cores []CoreResult

	L2   cache.Stats
	DRAM dram.Stats
	// Mem is the chip-wide aggregate: per-core counters summed, with
	// TrackedBlocks stamped from the shared footprint store.
	Mem MemStats
	// CrossCoreMerges counts demand misses that joined another core's
	// in-flight miss for the same block.
	CrossCoreMerges uint64

	// CostHist is the aggregate Figure 2 distribution; Delta the Table 1
	// successive-miss deltas over the shared block store.
	CostHist *stats.Histogram
	Delta    DeltaStats

	// Hybrid carries the selection counters when a hybrid policy ran.
	Hybrid *core.HybridStats
	// Learn carries the learned-eviction accounting when the bandit or
	// the learned predictor drove the shared L2 (docs/LEARNED.md).
	Learn *learn.Stats
	// PselValues holds each thread's final selector value when the
	// policy partitions its PSEL per thread (SBAR); nil otherwise.
	PselValues []int
	// Series is non-nil when Config.SampleInterval was set: the
	// chip-wide Figure 11 series, like the snapshots.
	Series *SeriesSet
	// Audit is non-nil when Config.Audit was set.
	Audit *audit.Report
	// Parallel is always nil. The goroutine engine that filled it is
	// gone; the field stays until callers that still read it drop it.
	Parallel *ParallelStats
}

// ParallelStats is empty: it remains only as MultiResult.Parallel's
// type, which no run sets.
type ParallelStats struct{}

// Instructions returns total retired instructions across cores.
func (r MultiResult) Instructions() uint64 {
	var n uint64
	for _, c := range r.Cores {
		n += c.Instructions
	}
	return n
}

// IPC returns aggregate throughput: total retired instructions per
// shared-clock cycle.
func (r MultiResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions()) / float64(r.Cycles)
}

// MissesServiced returns aggregate primary L2 demand misses.
func (r MultiResult) MissesServiced() uint64 { return r.Mem.DemandMisses }

// MPKI returns aggregate L2 demand misses per thousand instructions.
func (r MultiResult) MPKI() float64 {
	instr := r.Instructions()
	if instr == 0 {
		return 0
	}
	return 1000 * float64(r.Mem.DemandMisses) / float64(instr)
}

// AvgCostQ returns the aggregate mean quantized cost per serviced miss.
func (r MultiResult) AvgCostQ() float64 {
	if r.Mem.DemandMisses == 0 {
		return 0
	}
	return float64(r.Mem.CostQSum) / float64(r.Mem.DemandMisses)
}

// AvgMLPCost returns the aggregate mean mlp-based cost per miss.
func (r MultiResult) AvgMLPCost() float64 { return r.CostHist.Mean() }

// Summary renders a one-paragraph textual report.
func (r MultiResult) Summary() string {
	return fmt.Sprintf(
		"policy=%s cores=%d instr=%d cycles=%d IPC=%.4f L2miss=%d (merged %d, cross-core %d) "+
			"MPKI=%.2f avg-mlp-cost=%.1f",
		r.Policy, len(r.Cores), r.Instructions(), r.Cycles, r.IPC(),
		r.Mem.DemandMisses, r.Mem.MergedMisses, r.CrossCoreMerges,
		r.MPKI(), r.AvgMLPCost())
}

// RunMulti executes one instruction source per core on N cores sharing
// the contended L2; it is RunMultiContext under a background context.
func RunMulti(cfg Config, srcs ...trace.Source) (MultiResult, error) {
	return RunMultiContext(context.Background(), cfg, srcs...)
}

// RunMultiContext runs N cores, each with a private L1 and MSHR file,
// sharing one L2, one DRAM and one replacement engine. It drives the
// same memory system and cycle loop as RunContext — a one-core run
// reproduces the single-core Result bit for bit (asserted by
// TestMulticoreSingleCoreEquivalence) — and assembles the per-core and
// shared-L2 result. Each core retires up to MaxInstructions from its own
// source; errors are typed exactly as RunContext's, and a core count
// outside 1..MaxCores is an ErrBadConfig.
//
// Every feature carries over at every core count — a prefetcher per
// core, chip-wide capture, fault injection, snapshots and the Figure 11
// series, tracing, auditing, epochs (docs/MULTICORE.md).
func RunMultiContext(ctx context.Context, cfg Config, srcs ...trace.Source) (res MultiResult, err error) {
	if err := cfg.Validate(); err != nil {
		return MultiResult{}, err
	}
	if n := len(srcs); n < 1 || n > MaxCores {
		return MultiResult{}, simerr.New(simerr.ErrBadConfig, "sim: multicore run needs 1..%d sources, got %d", MaxCores, n)
	}
	defer recoverRun(&res, &err)
	m, now, err := simulate(ctx, cfg, srcs)
	if err != nil {
		return MultiResult{}, err
	}
	res = MultiResult{
		Policy:          cfg.Policy.String(),
		Cycles:          now,
		Cores:           make([]CoreResult, len(m.ports)),
		L2:              m.l2.Stats(),
		DRAM:            m.dram.Stats(),
		Mem:             m.memStats(),
		CrossCoreMerges: m.crossMerges,
		CostHist:        m.costHist,
		Delta:           m.delta,
		Series:          m.series,
	}
	for i := range m.ports {
		p := &m.ports[i]
		cr := CoreResult{
			Instructions: p.retired,
			CPU:          p.cpu.Stats(),
			Bpred:        p.cpu.PredictorStats(),
			L1:           p.l1.Stats(),
			MSHR:         p.mshr.Stats(),
			Mem:          p.mstats,
			CostHist:     p.costHist,
			CostSum:      p.costSum,
		}
		if now > 0 {
			cr.IPC = float64(cr.Instructions) / float64(now)
		}
		res.Cores[i] = cr
	}
	if m.hybrid != nil {
		hs := m.hybrid.Stats()
		res.Hybrid = &hs
		if m.sbar != nil {
			for t := 0; t < m.sbar.Threads(); t++ {
				res.PselValues = append(res.PselValues, m.sbar.PselFor(t).Value())
			}
		}
	}
	res.Learn = learnStatsOf(m.l2.Policy())
	res.Audit, err = m.finish(now)
	return res, err
}
