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

// SeriesSet is the Figure 11 time-series bundle: each point covers one
// SampleInterval of instructions retired over all cores.
type SeriesSet struct {
	// AvgCostQ is the average quantized MLP-based cost per serviced
	// miss in the interval.
	AvgCostQ stats.Series
	// MPKI is L2 demand misses per thousand retired instructions.
	MPKI stats.Series
	// IPC is retired instructions per cycle over the interval.
	IPC stats.Series
	// UsingLIN samples whether a hybrid policy had LIN selected for
	// follower sets at each interval boundary (1.0) or LRU (0.0);
	// empty for fixed policies.
	UsingLIN stats.Series
	// PselValue samples the selector counter UsingLIN reads at each
	// interval boundary (SBAR's thread-0 PSEL, CBS's counter for the
	// sampled set); empty for fixed policies.
	PselValue stats.Series
	// MSHROccupancy samples the MSHR entries in use, summed over the
	// cores, at each interval boundary.
	MSHROccupancy stats.Series
}

// Result bundles everything a run measured.
type Result struct {
	// Policy is the replacement configuration's label.
	Policy string
	// Instructions and Cycles are the run totals; IPC their ratio.
	Instructions uint64
	Cycles       uint64
	IPC          float64

	CPU   cpu.Stats
	Bpred bpred.Stats
	L1    cache.Stats
	L2    cache.Stats
	DRAM  dram.Stats
	Mem   MemStats
	MSHR  mshr.Stats

	// CostHist is the Figure 2 mlp-cost distribution (60-cycle bins,
	// final bin 420+) over serviced demand misses.
	CostHist *stats.Histogram
	// Delta is the Table 1 successive-miss cost-delta distribution.
	Delta DeltaStats
	// Hybrid carries the selection counters when a hybrid policy ran.
	Hybrid *core.HybridStats
	// Learn carries the learned-eviction accounting when the bandit or
	// the learned predictor ran (docs/LEARNED.md).
	Learn *learn.Stats
	// Series is non-nil when Config.SampleInterval was set.
	Series *SeriesSet
	// Audit is non-nil when Config.Audit was set: the invariant
	// auditor's report. A run with violations also returns a wrapped
	// simerr.ErrInvariant.
	Audit *audit.Report
}

// MissesServiced returns the number of primary L2 demand misses.
func (r Result) MissesServiced() uint64 { return r.Mem.DemandMisses }

// AvgMLPCost returns the mean MLP-based cost per serviced miss in cycles.
func (r Result) AvgMLPCost() float64 { return r.CostHist.Mean() }

// AvgCostQ returns the mean quantized cost per serviced miss.
func (r Result) AvgCostQ() float64 {
	if r.Mem.DemandMisses == 0 {
		return 0
	}
	return float64(r.Mem.CostQSum) / float64(r.Mem.DemandMisses)
}

// MPKI returns L2 demand misses per thousand instructions.
func (r Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return 1000 * float64(r.Mem.DemandMisses) / float64(r.Instructions)
}

// CompulsoryPercent returns the compulsory share of demand misses.
func (r Result) CompulsoryPercent() float64 {
	if r.Mem.DemandMisses == 0 {
		return 0
	}
	return 100 * float64(r.Mem.CompulsoryMisses) / float64(r.Mem.DemandMisses)
}

// IPCDeltaPercent returns this run's IPC improvement over a baseline run
// in percent.
func (r Result) IPCDeltaPercent(baseline Result) float64 {
	if baseline.IPC == 0 {
		return 0
	}
	return 100 * (r.IPC - baseline.IPC) / baseline.IPC
}

// MissDeltaPercent returns the change in serviced misses relative to a
// baseline run in percent (negative means fewer misses).
func (r Result) MissDeltaPercent(baseline Result) float64 {
	if baseline.Mem.DemandMisses == 0 {
		return 0
	}
	return 100 * (float64(r.Mem.DemandMisses) - float64(baseline.Mem.DemandMisses)) /
		float64(baseline.Mem.DemandMisses)
}

// MustRun is Run for known-good configurations and sources: it panics on
// any error. Tests, benchmarks and the experiment registry — whose
// inputs are all compiled in — use it to keep call sites terse.
func MustRun(cfg Config, src trace.Source) Result {
	res, err := Run(cfg, src)
	if err != nil {
		panic(err)
	}
	return res
}

// cancelCheckCycles is how many simulated cycles elapse between polls of
// the run context. At the simulator's measured throughput this bounds
// cancellation latency to a few milliseconds of wall time while keeping
// the hot loop's cost to one parked-threshold compare per cycle — the
// same trick the snapshot path uses (see nextSnap below). Fast-forward
// jumps only shorten the interval, never lengthen it.
const cancelCheckCycles = 1 << 16

// Run executes the instruction source with no cancellation; it is
// RunContext under a background context.
func Run(cfg Config, src trace.Source) (Result, error) {
	return RunContext(context.Background(), cfg, src)
}

// RunContext executes the instruction source on the configured machine
// until MaxInstructions retire, the source drains, the cycle guard
// trips, or ctx is done. Cancellation is cooperative: the run loop polls
// ctx.Done every cancelCheckCycles simulated cycles and returns a
// wrapped simerr.ErrCancelled (which also matches the context's cause
// under errors.Is) with an empty Result. A background context costs one
// parked-threshold compare per cycle.
//
// Errors are typed (see the simerr package): an invalid configuration
// returns a wrapped simerr.ErrBadConfig before anything is built, a
// source whose Err method reports a decode failure yields that error
// (wrapped simerr.ErrCorruptTrace for the trace reader), an MSHR
// protocol violation yields simerr.ErrMSHRLeak, and audit violations
// yield simerr.ErrInvariant alongside the partial Result. Any panic
// escaping the machine's internals is converted to a wrapped
// simerr.ErrInternal rather than unwinding into the caller.
//
// The run is the one-core case of RunMultiContext: the same memory
// system and cycle loop, with the single-core result assembled from its
// only port.
func RunContext(ctx context.Context, cfg Config, src trace.Source) (res Result, err error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	defer recoverRun(&res, &err)
	m, now, err := simulate(ctx, cfg, []trace.Source{src})
	if err != nil {
		return Result{}, err
	}
	p := &m.ports[0]
	res = Result{
		Policy:       cfg.Policy.String(),
		Instructions: p.retired,
		Cycles:       now,
		CPU:          p.cpu.Stats(),
		Bpred:        p.cpu.PredictorStats(),
		L1:           p.l1.Stats(),
		L2:           m.l2.Stats(),
		DRAM:         m.dram.Stats(),
		Mem:          m.memStats(),
		MSHR:         p.mshr.Stats(),
		CostHist:     m.costHist,
		Delta:        m.delta,
		Series:       m.series,
	}
	if now > 0 {
		res.IPC = float64(p.retired) / float64(now)
	}
	if m.hybrid != nil {
		hs := m.hybrid.Stats()
		res.Hybrid = &hs
	}
	res.Learn = learnStatsOf(m.l2.Policy())
	res.Audit, err = m.finish(now)
	return res, err
}

// recoverRun converts a panic escaping the machine's internals into a
// wrapped simerr.ErrInternal with a zero result. Both run entry points
// defer it.
func recoverRun[R any](res *R, err *error) {
	if r := recover(); r != nil {
		var zero R
		*res = zero
		if e, ok := r.(error); ok {
			*err = simerr.Wrap(simerr.ErrInternal, e, "sim: panic during run")
		} else {
			*err = simerr.New(simerr.ErrInternal, "sim: panic during run: %v", r)
		}
	}
}

// simulate builds the machine for one source per core under a validated
// cfg and drives the cycle loop to completion. It returns the machine and
// the final cycle for the caller to assemble its result from.
func simulate(ctx context.Context, cfg Config, srcs []trace.Source) (*memSystem, uint64, error) {
	// The loop closes at most one series point and one snapshot a cycle,
	// and a cycle retires up to RetireWidth instructions on each core, so
	// an interval below that falls behind retirement; at or above it, a
	// cycle crosses at most one boundary.
	minInterval := uint64(cfg.CPU.RetireWidth) * uint64(len(srcs))
	if cfg.SampleInterval > 0 && cfg.SampleInterval < minInterval {
		return nil, 0, simerr.New(simerr.ErrBadConfig,
			"sim: SampleInterval %d is below RetireWidth × cores = %d", cfg.SampleInterval, minInterval)
	}
	if cfg.SnapshotInterval > 0 && cfg.Trace != nil && cfg.SnapshotInterval < minInterval {
		return nil, 0, simerr.New(simerr.ErrBadConfig,
			"sim: SnapshotInterval %d is below RetireWidth × cores = %d", cfg.SnapshotInterval, minInterval)
	}
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return nil, 0, simerr.Wrap(simerr.ErrCancelled, ctx.Err(), "sim: run cancelled before start")
		default:
		}
	}
	// Deadlock guard. Generous: even a pure chain of isolated misses
	// retires one instruction per ~460 cycles, and contention can
	// serialize the cores' miss chains, so each core gets the full
	// allowance.
	maxCycles := uint64(1 << 40)
	if cfg.MaxInstructions > 0 {
		maxCycles = uint64(len(srcs))*cfg.MaxInstructions*2048 + 1_000_000
	}
	m, err := newMemSystem(cfg, srcs)
	if err != nil {
		return nil, 0, err
	}

	var (
		now        uint64
		retired    uint64 // total across cores
		nextSample = cfg.SampleInterval
		nextEpoch  = cfg.EpochInstructions
		// Snapshot emission is disabled by parking the threshold at the
		// top of the range, keeping the hot loop's check to one compare.
		nextSnap = ^uint64(0)
		// The chip-wide totals at the previous series and snapshot
		// boundaries.
		lastSample, lastSnap mark
		// Cancellation polls are parked the same way when the context
		// cannot be cancelled (context.Background().Done() is nil).
		nextCancel = ^uint64(0)
	)
	if cfg.SnapshotInterval > 0 && m.tr != nil {
		nextSnap = cfg.SnapshotInterval
	}
	if done != nil {
		nextCancel = cancelCheckCycles
	}
	// Each cycle: the memory side ticks, then every core whose wake has
	// come runs in index order, then the run-level instruments (fault
	// throttle, auditor, series, snapshots, epochs) observe the cycle's
	// retirement. A core that worked runs again next cycle; one that did
	// not sleeps until its NextEvent, since nothing can change its state
	// before then, and the cycles it sleeps are credited to its stall
	// counters when it next runs or the loop ends. When no core worked,
	// the loop jumps to the earliest wake or DRAM fill, so it visits the
	// same cycles, and Tick runs on the same cycles, as a loop that
	// stepped every core.
	for now = 1; now <= maxCycles; now++ {
		if now >= nextCancel {
			select {
			case <-done:
				return nil, 0, simerr.Wrap(simerr.ErrCancelled, ctx.Err(),
					fmt.Sprintf("sim: run cancelled at cycle %d", now))
			default:
			}
			nextCancel = now + cancelCheckCycles
		}
		if err := m.Tick(now); err != nil {
			return nil, 0, err
		}
		anyWork := false
		for i := range m.ports {
			p := &m.ports[i]
			if p.wake > now {
				continue
			}
			p.credit(now - 1)
			n := uint64(p.cpu.Cycle(now))
			p.ran = now
			p.retired += n
			retired += n
			p.wake = now + 1
			if p.cpu.DidWork() {
				anyWork = true
			} else if !cfg.DisableFastForward {
				p.wake = p.cpu.NextEvent(now)
			}
		}
		if capacity, due := m.inj.ThrottleDue(retired); due {
			for i := range m.ports {
				if err := m.ports[i].mshr.SetCapacity(capacity); err != nil {
					return nil, 0, err
				}
			}
		}
		if m.auditor != nil {
			m.auditor.MaybeCheck(now)
		}
		if m.series != nil && retired >= nextSample {
			m.sample(&lastSample, m.mark(now, retired))
			nextSample += cfg.SampleInterval
		}
		if retired >= nextSnap {
			m.emitSnapshot(&lastSnap, m.mark(now, retired))
			nextSnap += cfg.SnapshotInterval
		}
		if m.hybrid != nil && cfg.EpochInstructions > 0 && retired >= nextEpoch {
			m.hybrid.AdvanceEpoch()
			nextEpoch += cfg.EpochInstructions
		}
		allDone := true
		for i := range m.ports {
			if !m.ports[i].cpu.Finished() {
				allDone = false
				break
			}
		}
		if allDone && !m.drainInflight() {
			break
		}
		// Fast-forward: when no core worked this cycle, nothing can
		// change before the earliest core wake or DRAM fill.
		if !anyWork && !cfg.DisableFastForward {
			wake := m.nextFill()
			for i := range m.ports {
				wake = min(wake, m.ports[i].wake)
			}
			if wake == ^uint64(0) {
				break // wedged: nothing in flight, nothing to do
			}
			now = wake - 1
		}
	}
	// Credit every sleeping core through the last cycle the loop
	// covered: now after a finish or a wedge, now-1 when the cycle guard
	// ended the loop (now is then one past that cycle).
	through := now
	if now > maxCycles {
		through = now - 1
	}
	for i := range m.ports {
		m.ports[i].credit(through)
	}
	return m, now, nil
}

// learnStatsOf extracts the learned-eviction accounting when the L2's
// policy is one of internal/learn's (nil otherwise).
func learnStatsOf(p cache.Policy) *learn.Stats {
	switch v := p.(type) {
	case *learn.Bandit:
		s := v.Stats()
		return &s
	case *learn.Predictor:
		s := v.Stats()
		return &s
	default:
		return nil
	}
}

// Summary renders a one-paragraph textual report of a result.
func (r Result) Summary() string {
	return fmt.Sprintf(
		"policy=%s instr=%d cycles=%d IPC=%.4f L2miss=%d (merged %d, compulsory %.1f%%) "+
			"MPKI=%.2f avg-mlp-cost=%.1f mem-stall=%d cycles",
		r.Policy, r.Instructions, r.Cycles, r.IPC,
		r.Mem.DemandMisses, r.Mem.MergedMisses, r.CompulsoryPercent(),
		r.MPKI(), r.AvgMLPCost(), r.CPU.MemStallCycles)
}
