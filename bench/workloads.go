package main

import (
	"fmt"
	"hash/fnv"

	"mlpcache/internal/metrics"
	"mlpcache/internal/oracle"
	"mlpcache/internal/sim"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// workloadDef is one named input set. build returns a fresh pass: every
// source, tracer and capture the pass's simulation calls use.
// Generators are stateful, so each pass builds its own; the arena is the
// run's, shared by all its passes as a sweep worker shares one.
type workloadDef struct {
	name string
	// observed marks a workload whose untraced pass itself runs the v2
	// event tracer and the oracle replays, so the ledger charges the
	// metrics and oracle layers to it.
	observed bool
	// canary is the op every run also replays at seed 42 and scale
	// canaryScale, checked against digests.json whatever the run's own
	// seed. The scale keeps it to a few hundred thousand instructions per
	// core, still enough to fill the L2.
	canary      int
	canaryScale float64
	build       func(seed uint64, scale float64, arena *sim.Arena) []*op
}

// workloads is the catalog, in the order -workload all runs it.
// README.md and BENCHMARK.json say why each one is here.
var workloads = []*workloadDef{
	{
		name:        "paper-sweep",
		canary:      5, // mcf/sbar: LRU, LIN and SBAR victims in one run
		canaryScale: 1,
		build:       buildPaperSweep,
	},
	{
		name:        "l1-resident",
		canaryScale: 0.1,
		build:       buildL1Resident,
	},
	{
		name:        "shared-l2-4core",
		canaryScale: 0.2,
		build:       buildSharedL2,
	},
	{
		name:        "traced-oracle",
		observed:    true,
		canaryScale: 0.25,
		build:       buildTracedOracle,
	},
}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// Per-run instruction budgets at scale 1. Every run but l1-resident's
// misses enough to fill the 1 MB L2, so victim selection runs. A pass
// takes 4.5 to 7 seconds on the 2-vCPU reference host.
const (
	sweepInstructions    = 400_000
	residentInstructions = 6_000_000
	sharedInstructions   = 2_500_000 // per core
	oracleInstructions   = 4_000_000
	snapshotInterval     = 100_000
)

func scaled(n uint64, scale float64) uint64 {
	return max(1, uint64(float64(n)*scale))
}

// op is one simulation call: sim.Run, or sim.RunMulti when srcs holds
// more than one source, plus the observability traced-oracle finishes
// after the run.
type op struct {
	label  string
	cfg    sim.Config
	srcs   []trace.Source
	budget uint64 // instructions each source must retire

	events  *metrics.BinaryTracer
	sink    *byteCounter
	capture *oracle.Capture
}

func (o *op) multi() bool { return len(o.srcs) > 1 }

// outcome is what one op produced.
type outcome struct {
	single     *sim.Result
	multi      *sim.MultiResult
	cmp        *oracle.Comparison
	eventBytes uint64
}

func (o *op) run() (outcome, error) {
	var out outcome
	if o.multi() {
		r, err := sim.RunMulti(o.cfg, o.srcs...)
		if err != nil {
			return out, err
		}
		out.multi = &r
	} else {
		r, err := sim.Run(o.cfg, o.srcs[0])
		if err != nil {
			return out, err
		}
		out.single = &r
	}
	if o.events != nil {
		if err := o.events.Flush(); err != nil {
			return out, fmt.Errorf("%s: flush events: %w", o.label, err)
		}
		out.eventBytes = o.sink.n
	}
	if o.capture != nil {
		sets, err := o.cfg.L2.SetCount()
		if err != nil {
			return out, err
		}
		c := oracle.Compare(o.capture.Log(), sets, o.cfg.L2.Assoc)
		out.cmp = &c
	}
	return out, nil
}

// check reports why an outcome is wrong regardless of its seed: a
// short run, or a broken identity between the memory system's counters.
func (o *op) check(out outcome) error {
	if out.single != nil {
		r := out.single
		switch {
		case r.Instructions != o.budget:
			return fmt.Errorf("%s: retired %d of %d instructions", o.label, r.Instructions, o.budget)
		case r.Mem.DemandMisses != r.MSHR.Allocations:
			return fmt.Errorf("%s: %d demand misses but %d MSHR allocations", o.label, r.Mem.DemandMisses, r.MSHR.Allocations)
		case r.CostHist.Total() != r.Mem.DemandMisses:
			return fmt.Errorf("%s: %d costed fills for %d demand misses", o.label, r.CostHist.Total(), r.Mem.DemandMisses)
		}
		return nil
	}
	r := out.multi
	for i, c := range r.Cores {
		if c.Instructions != o.budget {
			return fmt.Errorf("%s: core %d retired %d of %d instructions", o.label, i, c.Instructions, o.budget)
		}
	}
	if r.CostHist.Total() != r.Mem.DemandMisses {
		return fmt.Errorf("%s: %d costed fills for %d demand misses", o.label, r.CostHist.Total(), r.Mem.DemandMisses)
	}
	return nil
}

func (out outcome) instructions() uint64 {
	if out.single != nil {
		return out.single.Instructions
	}
	return out.multi.Instructions()
}

func (out outcome) cycles() uint64 {
	if out.single != nil {
		return out.single.Cycles
	}
	return out.multi.Cycles
}

func (out outcome) mem() sim.MemStats {
	if out.single != nil {
		return out.single.Mem
	}
	return out.multi.Mem
}

// digest is FNV-1a over every simulated statistic the op produced.
// Host-side values (timings, the engine choice) stay out, so a digest
// changes only when the simulation does.
func (out outcome) digest() uint64 {
	h := fnv.New64a()
	if r := out.single; r != nil {
		fmt.Fprintf(h, "%d %d %+v %+v %+v %+v %+v %+v %+v %v %+v",
			r.Instructions, r.Cycles, r.CPU, r.Bpred, r.L1, r.L2, r.DRAM, r.Mem, r.MSHR, r.CostHist.Bins(), r.Delta)
		if r.Hybrid != nil {
			fmt.Fprintf(h, " %+v", *r.Hybrid)
		}
	} else {
		r := out.multi
		fmt.Fprintf(h, "%d %+v %+v %+v %d %v %+v %v",
			r.Cycles, r.L2, r.DRAM, r.Mem, r.CrossCoreMerges, r.CostHist.Bins(), r.Delta, r.PselValues)
		if r.Hybrid != nil {
			fmt.Fprintf(h, " %+v", *r.Hybrid)
		}
		for _, c := range r.Cores {
			fmt.Fprintf(h, " | %d %+v %+v %+v %+v %v %v",
				c.Instructions, c.CPU, c.L1, c.MSHR, c.Mem, c.CostHist.Bins(), c.CostSum)
		}
	}
	if out.cmp != nil {
		fmt.Fprintf(h, " %+v", *out.cmp)
	}
	fmt.Fprintf(h, " %d", out.eventBytes)
	return h.Sum64()
}

var (
	lru  = sim.PolicySpec{Kind: sim.PolicyLRU}
	lin  = sim.PolicySpec{Kind: sim.PolicyLIN, Lambda: 4}
	sbar = sim.PolicySpec{Kind: sim.PolicySBAR, Lambda: 4, LeaderSets: 32}
)

func baseConfig(spec sim.PolicySpec, budget uint64, arena *sim.Arena) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Policy = spec
	cfg.MaxInstructions = budget
	cfg.Arena = arena
	return cfg
}

func buildPaperSweep(seed uint64, scale float64, arena *sim.Arena) []*op {
	n := scaled(sweepInstructions, scale)
	var ops []*op
	for _, name := range workload.Names() {
		spec, _ := workload.ByName(name)
		for _, p := range []sim.PolicySpec{lru, lin, sbar} {
			ops = append(ops, &op{
				label:  name + "/" + p.String(),
				cfg:    baseConfig(p, n, arena),
				srcs:   []trace.Source{spec.Build(seed)},
				budget: n,
			})
		}
	}
	return ops
}

func buildL1Resident(seed uint64, scale float64, arena *sim.Arena) []*op {
	n := scaled(residentInstructions, scale)
	ops := make([]*op, 4)
	for i := range ops {
		ops[i] = &op{
			label: fmt.Sprintf("stream%d/lru", i),
			cfg:   baseConfig(lru, n, arena),
			srcs: []trace.Source{trace.NewStream(trace.StreamConfig{
				Blocks: 128, Gap: 6, Touches: 2, FPFrac: 0.3, Mispredict: 0.02, Stores: 0.3,
				Seed: seed + uint64(i),
			})},
			budget: n,
		}
	}
	return ops
}

func buildSharedL2(seed uint64, scale float64, arena *sim.Arena) []*op {
	n := scaled(sharedInstructions, scale)
	names := []string{"mcf", "art", "parser", "equake"}
	srcs := make([]trace.Source, len(names))
	for i, name := range names {
		spec, _ := workload.ByName(name)
		srcs[i] = spec.Build(seed + uint64(i))
	}
	return []*op{{
		label:  "mcf+art+parser+equake/" + sbar.String(),
		cfg:    baseConfig(sbar, n, arena),
		srcs:   srcs,
		budget: n,
	}}
}

func buildTracedOracle(seed uint64, scale float64, arena *sim.Arena) []*op {
	n := scaled(oracleInstructions, scale)
	var ops []*op
	for _, name := range []string{"mcf", "parser", "art"} {
		spec, _ := workload.ByName(name)
		o := &op{
			label:   name + "/" + lin.String(),
			cfg:     baseConfig(lin, n, arena),
			srcs:    []trace.Source{spec.Build(seed)},
			budget:  n,
			sink:    &byteCounter{},
			capture: oracle.NewCapture(),
		}
		o.events = metrics.NewBinaryTracer(o.sink, metrics.RunHeader{Bench: name, Policy: lin.String(), Seed: seed})
		o.cfg.Trace = o.events
		o.cfg.Capture = o.capture
		o.cfg.SnapshotInterval = scaled(snapshotInterval, scale)
		ops = append(ops, o)
	}
	return ops
}

// byteCounter is an io.Writer that keeps only the byte count.
type byteCounter struct{ n uint64 }

func (c *byteCounter) Write(p []byte) (int, error) {
	c.n += uint64(len(p))
	return len(p), nil
}
