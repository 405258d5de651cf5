package sim

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mlpcache/internal/faultinject"
	"mlpcache/internal/metrics"
	"mlpcache/internal/simerr"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// TestAuditedSweepAllPolicies is the PR's acceptance criterion for the
// invariant auditor: every replacement configuration, run on two
// benchmark models with every checker enabled, must finish with zero
// violations.
func TestAuditedSweepAllPolicies(t *testing.T) {
	for _, bench := range []string{"mcf", "parser"} {
		spec, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("benchmark %q missing", bench)
		}
		for _, kind := range AllPolicies {
			kind := kind
			t.Run(bench+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				cfg.MaxInstructions = 60_000
				cfg.Policy = PolicySpec{Kind: kind, Seed: 7}
				if kind == PolicySBAR {
					cfg.Policy.RandDynamic = true
					cfg.EpochInstructions = 20_000
				}
				cfg.Audit = true
				cfg.AuditEvery = 2048
				res, err := Run(cfg, spec.Build(11))
				if err != nil {
					t.Fatalf("audited run failed: %v", err)
				}
				if res.Audit == nil {
					t.Fatal("audited run returned no report")
				}
				if res.Audit.Checks == 0 {
					t.Fatal("auditor never ran a pass")
				}
				if !res.Audit.Ok() {
					t.Fatalf("%d violations; first: %s",
						len(res.Audit.Violations), res.Audit.Violations[0])
				}
			})
		}
	}
}

// Regression test: DIP's BIP contestant demotes nearly every fill to the
// LRU position, which used to walk lastUse down to zero and clamp there,
// giving two lines the same recency rank — the first real bug the
// l2-recency checker caught. A long demote-heavy run must stay a strict
// total order.
func TestDemoteHeavyRunKeepsRecencyPermutation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstructions = 150_000
	cfg.Policy = PolicySpec{Kind: PolicyDIP}
	cfg.Audit = true
	cfg.AuditEvery = 512
	res, err := Run(cfg, microMix(3))
	if err != nil {
		t.Fatalf("demote-heavy audited run failed: %v", err)
	}
	if res.Audit == nil || !res.Audit.Ok() {
		t.Fatalf("recency invariant violated: %+v", res.Audit)
	}
}

// Fault injection: every plan must end in a clean Result or a wrapped
// typed error — never a panic, deadlock, or silent miscount.
func TestFaultInjectionGracefulDegradation(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.MaxInstructions = 80_000
		cfg.Policy = PolicySpec{Kind: PolicySBAR}
		cfg.Audit = true
		cfg.AuditEvery = 4096
		return cfg
	}
	plans := []faultinject.Plan{
		{Seed: 1, DRAMJitterMax: 200},
		{Seed: 2, MSHRCapacity: 1, MSHRThrottleAfter: 10_000},
		{Seed: 3, DRAMJitterMax: 97, MSHRCapacity: 2, MSHRThrottleAfter: 5_000},
	}
	spec, _ := workload.ByName("mcf")
	for i, plan := range plans {
		plan := plan
		t.Run(fmt.Sprintf("plan%d", i), func(t *testing.T) {
			t.Parallel()
			cfg := base()
			cfg.Faults = &plan
			res, err := Run(cfg, spec.Build(5))
			if err != nil {
				t.Fatalf("faulted run must degrade gracefully, got %v", err)
			}
			if res.Instructions == 0 {
				t.Fatal("faulted run retired nothing")
			}
			if !res.Audit.Ok() {
				t.Fatalf("fault injection broke an invariant: %s", res.Audit.Violations[0])
			}
		})
	}
}

// A throttled MSHR must slow the machine down, not just survive.
func TestMSHRThrottleReducesParallelism(t *testing.T) {
	run := func(plan *faultinject.Plan) Result {
		cfg := DefaultConfig()
		cfg.MaxInstructions = 60_000
		cfg.Faults = plan
		// A parallel stream benefits from MSHR capacity, so throttling
		// to one entry must serialize the misses.
		src := trace.NewStream(trace.StreamConfig{Base: 1 << 30, Blocks: 4096, Gap: 2})
		res, err := Run(cfg, src)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return res
	}
	free := run(nil)
	throttled := run(&faultinject.Plan{MSHRCapacity: 1})
	if throttled.Cycles <= free.Cycles {
		t.Fatalf("throttled run (%d cycles) not slower than free run (%d cycles)",
			throttled.Cycles, free.Cycles)
	}
}

// Deterministic jitter: same plan, same result.
func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() Result {
		cfg := DefaultConfig()
		cfg.MaxInstructions = 40_000
		cfg.Faults = &faultinject.Plan{Seed: 9, DRAMJitterMax: 150}
		spec, _ := workload.ByName("ammp")
		res, err := Run(cfg, spec.Build(3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions ||
		a.Mem.DemandMisses != b.Mem.DemandMisses {
		t.Fatalf("same fault plan diverged: %d/%d/%d vs %d/%d/%d",
			a.Cycles, a.Instructions, a.Mem.DemandMisses,
			b.Cycles, b.Instructions, b.Mem.DemandMisses)
	}
}

// Corrupt and truncated trace streams must surface as wrapped
// ErrCorruptTrace from Run — never a panic or a silent short run.
func TestCorruptTraceSurfacesTypedError(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	src := workloadStream(4096)
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	check := func(t *testing.T, data []byte) {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			// Header-level corruption is a legitimate clean rejection.
			if !errors.Is(err, simerr.ErrCorruptTrace) {
				t.Fatalf("reader error not typed: %v", err)
			}
			return
		}
		cfg := DefaultConfig()
		cfg.MaxInstructions = 100_000
		_, err = Run(cfg, r)
		if err != nil && !errors.Is(err, simerr.ErrCorruptTrace) {
			t.Fatalf("corrupt trace produced a foreign error: %v", err)
		}
		// err == nil is acceptable: the corruption may decode as valid
		// records. The property under test is "typed error or clean
		// result, never a panic".
	}
	t.Run("bitflips", func(t *testing.T) {
		for seed := uint64(0); seed < 20; seed++ {
			check(t, faultinject.FlipBits(clean, seed, 8, 5))
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, keep := range []int{5, 6, 7, len(clean) / 2, len(clean) - 1} {
			check(t, faultinject.Truncate(clean, keep))
		}
	})
}

// workloadStream yields a bounded instruction stream for encoding.
func workloadStream(n int) trace.Source {
	spec, _ := workload.ByName("mcf")
	return trace.NewLimit(spec.Build(2), n)
}

// The MSHR-leak path: a memory system that double-frees must surface
// ErrMSHRLeak through Run, not panic. We can't reach that from config,
// so exercise the boundary directly: a Source whose Err reports after
// drain behaves like a corrupt reader.
type errSource struct {
	n   int
	err error
}

func (s *errSource) Next() (trace.Instr, bool) {
	if s.n == 0 {
		return trace.Instr{}, false
	}
	s.n--
	return trace.Instr{Kind: trace.Load, Addr: uint64(s.n) * 64}, true
}

func (s *errSource) Err() error { return s.err }

func TestSourceErrPropagates(t *testing.T) {
	cfg := smallConfig(10_000)
	src := &errSource{n: 500, err: simerr.New(simerr.ErrCorruptTrace, "trace: synthetic decode failure")}
	res, err := Run(cfg, src)
	if !errors.Is(err, simerr.ErrCorruptTrace) {
		t.Fatalf("source error not propagated: %v", err)
	}
	if res.Instructions == 0 {
		t.Fatal("partial result discarded; want stats up to the failure")
	}
}

// The recover boundary: a tracer panicking on the first serviced miss
// inside the machine must come back as a wrapped ErrInternal, not
// unwind into the caller.
func TestPanicConvertsToErrInternal(t *testing.T) {
	cfg := smallConfig(10_000)
	cfg.Trace = metrics.FuncTracer(func(ev metrics.Event) {
		if ev.Type == metrics.EventMissFill {
			panic("tracer exploded")
		}
	})
	_, err := Run(cfg, microMix(2))
	if !errors.Is(err, simerr.ErrInternal) {
		t.Fatalf("panic not converted: %v", err)
	}
}

// Validation must reject bad configs with ErrBadConfig before anything
// is built: Validate itself fails, and so does Run, without the
// ErrInternal a panic mid-build would wrap around the ErrBadConfig.
func TestConfigValidationRejects(t *testing.T) {
	cases := map[string]func(*Config){
		"zero-assoc-l2":   func(c *Config) { c.L2.Assoc = 0 },
		"zero-mshr":       func(c *Config) { c.MSHR.Entries = 0 },
		"bad-policy":      func(c *Config) { c.Policy.Kind = "plru" },
		"bad-leader-geom": func(c *Config) { c.Policy = PolicySpec{Kind: PolicySBAR, LeaderSets: 999} },
		"neg-lambda":      func(c *Config) { c.Policy.Lambda = -1 },
		"bad-psel":        func(c *Config) { c.Policy.PselBits = 40 },
		"bad-faults":      func(c *Config) { c.Faults = &faultinject.Plan{MSHRCapacity: -2} },
		"one-way-bcl":     func(c *Config) { c.Policy.Kind, c.L2.Assoc = PolicyBCL, 1 },
		"one-way-dcl":     func(c *Config) { c.Policy.Kind, c.L2.Assoc = PolicyDCL, 1 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxInstructions = 1000
			mutate(&cfg)
			if err := cfg.Validate(); !errors.Is(err, simerr.ErrBadConfig) {
				t.Fatalf("Validate() = %v, want ErrBadConfig", err)
			}
			_, err := Run(cfg, microMix(1))
			if !errors.Is(err, simerr.ErrBadConfig) || errors.Is(err, simerr.ErrInternal) {
				t.Fatalf("err = %v, want ErrBadConfig alone", err)
			}
		})
	}
}
