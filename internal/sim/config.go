// Package sim wires the substrates — out-of-order core, two-level cache
// hierarchy, MSHR cost-calculation logic, and DRAM — into the full
// baseline machine of the paper's Table 2, runs instruction streams
// through it, and gathers the statistics every experiment in the paper is
// built from: IPC, miss counts, compulsory-miss fractions, the mlp-cost
// histogram of Figure 2, the per-block cost deltas of Table 1, and the
// Figure 11 time series.
package sim

import (
	"fmt"

	"mlpcache/internal/cache"
	"mlpcache/internal/core"
	"mlpcache/internal/cpu"
	"mlpcache/internal/dram"
	"mlpcache/internal/faultinject"
	"mlpcache/internal/learn"
	"mlpcache/internal/metrics"
	"mlpcache/internal/mshr"
	"mlpcache/internal/prefetch"
	"mlpcache/internal/simerr"
)

// PolicyKind names an L2 replacement configuration.
type PolicyKind string

// Supported replacement configurations.
const (
	PolicyLRU       PolicyKind = "lru"
	PolicyFIFO      PolicyKind = "fifo"
	PolicyRandom    PolicyKind = "random"
	PolicyNMRU      PolicyKind = "nmru"
	PolicyLIN       PolicyKind = "lin"
	PolicyBCL       PolicyKind = "bcl"
	PolicyDCL       PolicyKind = "dcl"
	PolicyDIP       PolicyKind = "dip"
	PolicySBAR      PolicyKind = "sbar"
	PolicyCBSLocal  PolicyKind = "cbs-local"
	PolicyCBSGlobal PolicyKind = "cbs-global"
	PolicyBandit    PolicyKind = "bandit"
	PolicyLearned   PolicyKind = "learned"
)

// AllPolicies lists every supported replacement configuration; the
// robustness sweep and CLIs iterate it.
var AllPolicies = []PolicyKind{
	PolicyLRU, PolicyFIFO, PolicyRandom, PolicyNMRU, PolicyLIN,
	PolicyBCL, PolicyDCL, PolicyDIP, PolicySBAR, PolicyCBSLocal, PolicyCBSGlobal,
	PolicyBandit, PolicyLearned,
}

// Known reports whether the kind names a supported policy ("" selects
// the LRU default).
func (k PolicyKind) Known() bool {
	if k == "" {
		return true
	}
	for _, p := range AllPolicies {
		if k == p {
			return true
		}
	}
	return false
}

// PolicySpec selects and parameterizes the L2 replacement policy.
type PolicySpec struct {
	Kind PolicyKind
	// Lambda is LIN's λ (default 4); used by LIN, SBAR and CBS.
	Lambda int
	// LeaderSets is SBAR's K (default 32).
	LeaderSets int
	// PselBits sizes the selector counter (default 6; CBS-global 7).
	PselBits int
	// RandDynamic selects SBAR's rand-dynamic leader selection instead
	// of simple-static.
	RandDynamic bool
	// Seed seeds stochastic policies (random replacement, rand-dynamic,
	// the bandit's arm-sampling stream, the untrained default model's
	// signature salt).
	Seed uint64
	// ModelPath names a trained learn.Model file for the learned
	// policy; empty selects an untrained default model (which behaves
	// exactly like LRU). Only valid with Kind == PolicyLearned.
	ModelPath string
}

// String renders a short label ("lin4", "sbar/32").
func (p PolicySpec) String() string {
	switch p.Kind {
	case PolicyLIN:
		return fmt.Sprintf("lin%d", p.lambda())
	case PolicySBAR:
		sel := "static"
		if p.RandDynamic {
			sel = "rand"
		}
		return fmt.Sprintf("sbar/%d/%s", p.leaderSets(), sel)
	default:
		return string(p.Kind)
	}
}

func (p PolicySpec) lambda() int {
	if p.Lambda == 0 {
		return 4
	}
	return p.Lambda
}

func (p PolicySpec) leaderSets() int {
	if p.LeaderSets == 0 {
		return 32
	}
	return p.LeaderSets
}

// AccessKind classifies one captured L2 demand access (see
// Config.Capture). The three kinds mirror the memory system's own
// accounting: a Hit found the block resident, a Miss is a primary demand
// miss or the demand upgrade of a late prefetch (exactly the accesses
// counted in MemStats.DemandMisses), and a Merge joined an in-flight
// demand miss (MemStats.MergedMisses).
type AccessKind uint8

// The captured access kinds.
const (
	AccessHit AccessKind = iota
	AccessMiss
	AccessMerge
)

// String names the kind.
func (k AccessKind) String() string {
	switch k {
	case AccessHit:
		return "hit"
	case AccessMiss:
		return "miss"
	case AccessMerge:
		return "merge"
	}
	return "unknown"
}

// AccessObserver receives the L2 demand-access stream as the simulation
// runs — the capture sink behind internal/oracle's offline replays.
// OnL2Access is called once per demand access in program order; hits
// carry the resident line's stored quantized cost (the cost the block's
// miss accrued), misses and merges carry 0 and are completed by a later
// OnMissCost call when the miss's fill computes the accrued cost
// (Algorithm 1). Pure-prefetch traffic is never reported.
type AccessObserver interface {
	OnL2Access(block uint64, kind AccessKind, costQ uint8)
	OnMissCost(block uint64, costQ uint8)
}

// Config is the full machine and run configuration.
type Config struct {
	CPU  cpu.Config
	L1   cache.Config
	L2   cache.Config
	MSHR mshr.Config
	DRAM dram.Config

	// L1Lat and L2Lat are hit latencies in cycles (2 and 15).
	L1Lat uint64
	L2Lat uint64

	Policy PolicySpec

	// MaxInstructions bounds the run (0: until the source drains).
	MaxInstructions uint64
	// SampleInterval, when non-zero, records the Figure 11 time series
	// every that many retired instructions.
	SampleInterval uint64
	// SnapshotInterval, when non-zero and Trace is set, emits the
	// snapshot.* gauge family through the tracer every that many
	// retired instructions: interval IPC, MPKI and mean cost_q, the
	// MSHR occupancy at the boundary, and the cumulative Figure 2
	// cost-histogram bins — time-resolved curves in the event stream
	// instead of end-of-run aggregates (docs/OBSERVABILITY.md). Its
	// accounting is independent of SampleInterval; with a nil Trace it
	// is a no-op.
	SnapshotInterval uint64
	// EpochInstructions is the rand-dynamic leader reselection period
	// (the paper uses 25M; scaled runs use less). 0 disables epochs.
	EpochInstructions uint64
	// Capture, when non-nil, receives every L2 demand access (hit,
	// primary miss, merge) with its quantized mlp-cost — the stream
	// internal/oracle replays offline under Belady-style policies. A nil
	// observer costs one predictable branch per L2 access.
	Capture AccessObserver
	// Trace, when non-nil, receives the event stream documented in
	// docs/OBSERVABILITY.md: miss issue/merge/fill with accrued
	// mlp-cost, victim selections with the LIN operands, PSEL updates,
	// and SBAR leader contests. Events are stamped with the current
	// cycle before delivery. A nil tracer costs one predictable branch
	// per potential emit site.
	Trace metrics.Tracer
	// DisableFastForward forces strict cycle-by-cycle simulation. The
	// fast-forward optimization is exact (tests assert equivalence), so
	// this exists only for those tests and for debugging.
	DisableFastForward bool
	// Prefetch enables an L2 stride prefetcher (nil: off, the paper's
	// baseline). Prefetch requests occupy MSHR entries as non-demand
	// misses: Algorithm 1 charges them no cost unless a demand access
	// merges into them, at which point the cost clock starts — the
	// paper's definition of a demand miss, kept intact.
	Prefetch *prefetch.Config
	// Audit enables the invariant auditor: a full checker pass over the
	// cache recency stacks, MSHR bookkeeping, quantized costs and
	// selector counters every AuditEvery cycles. Violations make Run
	// return a wrapped simerr.ErrInvariant alongside the Result.
	Audit bool
	// AuditEvery is the audit period in cycles (audit.DefaultEvery when
	// zero).
	AuditEvery uint64
	// Faults, when non-nil and active, injects the described faults
	// (deterministic, seeded) into the run. See faultinject.Plan.
	Faults *faultinject.Plan
	// Arena, when non-nil, recycles the run's bulk allocations — cache
	// line arrays, blockmap tables, MSHR files, fill heaps and
	// freelists — across runs. An Arena is not goroutine-safe: give
	// each worker its own (docs/PERFORMANCE.md "Simulation arenas").
	Arena *Arena
}

// Validate checks the whole machine configuration, wrapping every
// failure in simerr.ErrBadConfig. Run calls it before constructing
// anything, so a bad configuration surfaces as one typed error instead
// of a panic mid-build.
func (c Config) Validate() error {
	if err := c.CPU.Validate(); err != nil {
		return fmt.Errorf("sim: cpu: %w", err)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("sim: l1: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("sim: l2: %w", err)
	}
	if err := c.MSHR.Validate(); err != nil {
		return fmt.Errorf("sim: mshr: %w", err)
	}
	if err := c.DRAM.Validate(); err != nil {
		return fmt.Errorf("sim: dram: %w", err)
	}
	if c.Prefetch != nil {
		if err := c.Prefetch.Validate(); err != nil {
			return fmt.Errorf("sim: prefetch: %w", err)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("sim: faults: %w", err)
		}
	}
	spec := c.Policy
	if !spec.Kind.Known() {
		return simerr.New(simerr.ErrBadConfig, "sim: unknown policy %q", spec.Kind)
	}
	if spec.Lambda < 0 {
		return simerr.New(simerr.ErrBadConfig, "sim: policy lambda must be non-negative, got %d", spec.Lambda)
	}
	if spec.PselBits < 0 || spec.PselBits > 30 {
		return simerr.New(simerr.ErrBadConfig, "sim: policy PselBits must be in [0,30], got %d", spec.PselBits)
	}
	if spec.LeaderSets < 0 {
		return simerr.New(simerr.ErrBadConfig, "sim: policy LeaderSets must be non-negative, got %d", spec.LeaderSets)
	}
	if spec.ModelPath != "" && spec.Kind != PolicyLearned {
		return simerr.New(simerr.ErrBadConfig, "sim: a learned model only drives -policy learned, not %q", spec.Kind)
	}
	switch spec.Kind {
	case PolicySBAR, PolicyDIP:
		sets, err := c.L2.SetCount()
		if err != nil {
			return fmt.Errorf("sim: l2: %w", err)
		}
		if err := core.ValidateLeaderGeometry(sets, spec.leaderSets()); err != nil {
			return fmt.Errorf("sim: policy %s: %w", spec.Kind, err)
		}
	}
	return nil
}

// DefaultConfig returns the paper's baseline machine (Table 2) with LRU
// replacement and no run bound.
func DefaultConfig() Config {
	return Config{
		CPU: cpu.DefaultConfig(),
		L1: cache.Config{
			SizeBytes:  16 * 1024,
			Assoc:      4,
			BlockBytes: 64,
		},
		L2: cache.Config{
			SizeBytes:  1024 * 1024,
			Assoc:      16,
			BlockBytes: 64,
		},
		MSHR:   mshr.Config{Entries: 32},
		DRAM:   dram.Default(),
		L1Lat:  2,
		L2Lat:  15,
		Policy: PolicySpec{Kind: PolicyLRU},
	}
}

// buildL2 constructs the L2 cache with the configured replacement policy,
// returning the hybrid engine when one is in use. An unknown policy kind
// yields a wrapped simerr.ErrBadConfig. threads is the number of cores
// sharing the cache: SBAR partitions its selector counter per thread
// (Section 6's set dueling, one PSEL per core); 1 is the single-core
// machine and every other policy ignores it.
func buildL2(cfg Config, threads int) (*cache.Cache, core.Hybrid, error) {
	l2 := cfg.Arena.getCache(cfg.L2, nil)
	spec := cfg.Policy
	switch spec.Kind {
	case PolicyLRU, "":
		l2.SetPolicy(cache.NewLRU())
	case PolicyFIFO:
		l2.SetPolicy(cache.NewFIFO())
	case PolicyRandom:
		l2.SetPolicy(cache.NewRandom(spec.Seed + 1))
	case PolicyNMRU:
		l2.SetPolicy(cache.NewNMRU(spec.Seed + 1))
	case PolicyLIN:
		l2.SetPolicy(core.NewLIN(spec.lambda()))
	case PolicyBCL:
		l2.SetPolicy(core.NewBCL(4, l2.Config().Assoc/2))
	case PolicyDCL:
		l2.SetPolicy(core.NewDCL(4, l2.Config().Assoc/2))
	case PolicyDIP:
		// Inside the full simulator the duel is driven by real
		// quantized costs rather than DIP's miss counting — an
		// "MLP-weighted DIP": expensive misses push the duel harder.
		return l2, core.NewDIP(l2, spec.leaderSets(), spec.Seed+3), nil
	case PolicySBAR:
		sets := l2.Config().Sets
		var sel core.LeaderSelector
		if spec.RandDynamic {
			sel = core.NewRandDynamic(sets, spec.leaderSets(), spec.Seed+2)
		} else {
			sel = core.NewSimpleStatic(sets, spec.leaderSets())
		}
		return l2, core.NewSBAR(l2, core.SBARConfig{
			LeaderSets: spec.leaderSets(),
			PselBits:   spec.PselBits,
			Lambda:     spec.lambda(),
			Selector:   sel,
			Threads:    threads,
		}), nil
	case PolicyCBSLocal:
		return l2, core.NewCBS(l2, core.CBSConfig{
			Scope: core.CBSLocal, PselBits: spec.PselBits, Lambda: spec.lambda(),
		}), nil
	case PolicyCBSGlobal:
		return l2, core.NewCBS(l2, core.CBSConfig{
			Scope: core.CBSGlobal, PselBits: spec.PselBits, Lambda: spec.lambda(),
		}), nil
	case PolicyBandit:
		geo := l2.Config()
		l2.SetPolicy(learn.NewBandit(geo.Sets, geo.Assoc, spec.Seed+5))
	case PolicyLearned:
		geo := l2.Config()
		var model *learn.Model
		if spec.ModelPath != "" {
			m, err := learn.ReadModelFile(spec.ModelPath)
			if err != nil {
				return nil, nil, err
			}
			model = m
		} else {
			// Untrained default: every signature neutral, which the
			// predictor resolves to exact LRU behavior.
			model = learn.NewModel(geo.Sets, geo.Assoc, learn.DefaultTableBits, spec.Seed+7)
		}
		p, err := learn.NewPredictor(model, geo.Sets, geo.Assoc)
		if err != nil {
			return nil, nil, err
		}
		l2.SetPolicy(p)
	default:
		return nil, nil, simerr.New(simerr.ErrBadConfig, "sim: unknown policy %q", spec.Kind)
	}
	return l2, nil, nil
}
