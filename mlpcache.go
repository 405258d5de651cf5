// Package mlpcache is a Go reproduction of "A Case for MLP-Aware Cache
// Replacement" (Qureshi, Lynch, Mutlu, Patt — ISCA 2006): a cycle-level
// out-of-order memory-system simulator with the paper's MLP-based cost
// computation (Algorithm 1), the LIN cost-aware replacement policy, and
// the CBS and SBAR hybrid replacement mechanisms, together with synthetic
// models of the paper's 14 SPEC CPU2000 benchmarks and a harness that
// regenerates every table and figure of the evaluation.
//
// This package is the public surface; it re-exports the stable pieces of
// the internal packages. Quick start:
//
//	cfg := mlpcache.DefaultConfig()              // the paper's Table 2 machine
//	cfg.MaxInstructions = 2_000_000
//	cfg.Policy = mlpcache.PolicySpec{Kind: mlpcache.PolicySBAR}
//	bench, _ := mlpcache.Benchmark("mcf")
//	res, err := mlpcache.Run(cfg, bench.Build(42))
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(res.Summary())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package mlpcache

import (
	"context"
	"io"

	"mlpcache/internal/analytic"
	"mlpcache/internal/audit"
	"mlpcache/internal/bpred"
	"mlpcache/internal/cache"
	"mlpcache/internal/core"
	"mlpcache/internal/faultinject"
	"mlpcache/internal/metrics"
	"mlpcache/internal/oracle"
	"mlpcache/internal/prefetch"
	"mlpcache/internal/sim"
	"mlpcache/internal/simerr"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// Simulation types.
type (
	// Config is the full machine and run configuration (Table 2).
	Config = sim.Config
	// Result bundles a run's measurements: IPC, miss counts, the
	// Figure 2 cost histogram, Table 1 deltas, and time series.
	Result = sim.Result
	// PolicySpec selects the L2 replacement policy.
	PolicySpec = sim.PolicySpec
	// PolicyKind names a replacement configuration.
	PolicyKind = sim.PolicyKind
)

// Replacement policy kinds.
const (
	PolicyLRU       = sim.PolicyLRU
	PolicyFIFO      = sim.PolicyFIFO
	PolicyRandom    = sim.PolicyRandom
	PolicyLIN       = sim.PolicyLIN
	PolicyBCL       = sim.PolicyBCL
	PolicyDCL       = sim.PolicyDCL
	PolicyDIP       = sim.PolicyDIP
	PolicySBAR      = sim.PolicySBAR
	PolicyCBSLocal  = sim.PolicyCBSLocal
	PolicyCBSGlobal = sim.PolicyCBSGlobal
)

// DefaultConfig returns the paper's baseline machine: 8-wide 128-entry
// out-of-order core, 16KB L1, 1MB 16-way L2, 32-entry MSHR, 32-bank DRAM
// with a 444-cycle isolated miss.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Run simulates the instruction source on the configured machine. All
// errors are typed: errors.Is against the exported sentinels
// (ErrBadConfig, ErrCorruptTrace, ErrMSHRLeak, ErrInvariant,
// ErrInternal) classifies them. See docs/ROBUSTNESS.md.
func Run(cfg Config, src Source) (Result, error) { return sim.Run(cfg, src) }

// RunContext is Run with cooperative cancellation: the run loop polls
// ctx every ~65k simulated cycles and stops with a wrapped ErrCancelled
// (also matching the context's cause under errors.Is). The mlpsim and
// mlpexp -timeout flags and the mlpserve job deadlines ride on this.
func RunContext(ctx context.Context, cfg Config, src Source) (Result, error) {
	return sim.RunContext(ctx, cfg, src)
}

// MustRun is Run for known-good configurations: it panics on error.
func MustRun(cfg Config, src Source) Result { return sim.MustRun(cfg, src) }

// Error sentinels, re-exported from the internal error taxonomy. Every
// error the simulator returns wraps exactly one of these.
var (
	// ErrBadConfig marks an invalid configuration or parameter.
	ErrBadConfig = simerr.ErrBadConfig
	// ErrCorruptTrace marks an undecodable or truncated trace stream.
	ErrCorruptTrace = simerr.ErrCorruptTrace
	// ErrMSHRLeak marks an MSHR allocate/free protocol violation.
	ErrMSHRLeak = simerr.ErrMSHRLeak
	// ErrInvariant marks an invariant-auditor violation.
	ErrInvariant = simerr.ErrInvariant
	// ErrUnknownBenchmark marks a benchmark-name lookup failure.
	ErrUnknownBenchmark = simerr.ErrUnknownBenchmark
	// ErrInternal marks a simulator bug caught at the Run boundary.
	ErrInternal = simerr.ErrInternal
	// ErrCancelled marks a run stopped by its context (deadline or
	// cancellation); returned by RunContext and the sweep service.
	ErrCancelled = simerr.ErrCancelled
)

// Observability: the metrics registry a Result exports (Result.Metrics)
// and the event-tracing hook (Config.Trace). docs/OBSERVABILITY.md is
// the catalog and schema contract.
type (
	// MetricsRegistry holds a run's named metric set.
	MetricsRegistry = metrics.Registry
	// MetricSample is one metric's exported state (a JSONL line).
	MetricSample = metrics.Sample
	// RunHeader identifies the run a telemetry document belongs to.
	RunHeader = metrics.RunHeader
	// TraceEvent is one traced simulator event.
	TraceEvent = metrics.Event
	// Tracer receives simulator events (set Config.Trace).
	Tracer = metrics.Tracer
	// RunReport is the single-object run document mlpsim -json prints
	// (schema "mlpcache.run/v1"): a RunHeader plus every metric sample.
	RunReport = metrics.Report
)

// The JSONL/JSON document schema identifiers (each document's "schema"
// field; see docs/OBSERVABILITY.md).
const (
	MetricsSchema  = metrics.MetricsSchema
	EventsSchema   = metrics.EventsSchema
	EventsSchemaV2 = metrics.EventsSchemaV2
	ReportSchema   = metrics.ReportSchema
)

// NewJSONLTracer streams events as JSONL (schema "mlpcache.events/v1").
func NewJSONLTracer(w io.Writer, hdr RunHeader) *metrics.JSONLTracer {
	return metrics.NewJSONLTracer(w, hdr)
}

// NewBinaryTracer streams events in the compact binary encoding (schema
// "mlpcache.events/v2"): delta/varint fields, interned strings, zero
// heap allocations per event at steady state. Decode with EventsReader
// or `mlptrace -events`.
func NewBinaryTracer(w io.Writer, hdr RunHeader) *metrics.BinaryTracer {
	return metrics.NewBinaryTracer(w, hdr)
}

// EventsReader streams an mlpcache.events/v2 file back as TraceEvents.
type EventsReader = metrics.EventsReader

// NewEventsReader opens a v2 binary event stream for decoding.
func NewEventsReader(r io.Reader) (*EventsReader, error) {
	return metrics.NewEventsReader(r)
}

// Offline oracle subsystem (docs/ORACLE.md): set Config.Capture to a
// NewOracleCapture sink, run, then CompareOracles replays the captured
// stream under Belady, cost-weighted Belady, and EHC.
type (
	// OracleCapture records the live L2 demand stream (Config.Capture).
	OracleCapture = oracle.Capture
	// OracleLog is a captured access stream plus the live accounting.
	OracleLog = oracle.Log
	// OracleComparison bundles the live score with all three replays.
	OracleComparison = oracle.Comparison
)

// NewOracleCapture returns an empty capture sink for Config.Capture.
func NewOracleCapture() *oracle.Capture { return oracle.NewCapture() }

// CompareOracles replays a captured log at the given geometry under all
// three offline oracles.
func CompareOracles(log *OracleLog, sets, assoc int) OracleComparison {
	return oracle.Compare(log, sets, assoc)
}

// Robustness tooling: the invariant auditor's report (Result.Audit when
// Config.Audit is set) and the fault-injection plan (Config.Faults).
type (
	// AuditReport is the invariant auditor's accumulated outcome.
	AuditReport = audit.Report
	// AuditViolation records one invariant breach.
	AuditViolation = audit.Violation
	// FaultPlan describes deterministic faults to inject into a run.
	FaultPlan = faultinject.Plan
)

// Instruction-stream types and generators.
type (
	// Source produces instructions; workloads are Sources.
	Source = trace.Source
	// Instr is one dynamic instruction.
	Instr = trace.Instr
	// ChaseConfig parameterizes a pointer chase (isolated misses).
	ChaseConfig = trace.ChaseConfig
	// StreamConfig parameterizes an independent stream (parallel misses).
	StreamConfig = trace.StreamConfig
	// AlternatingConfig parameterizes the unstable-cost generator.
	AlternatingConfig = trace.AlternatingConfig
	// TwoPassConfig parameterizes the visit-twice generator.
	TwoPassConfig = trace.TwoPassConfig
	// MixPart and Phase compose generators.
	MixPart = trace.MixPart
	Phase   = trace.Phase
)

// Generator constructors.
var (
	NewPointerChase = trace.NewPointerChase
	NewStream       = trace.NewStream
	NewAlternating  = trace.NewAlternating
	NewTwoPass      = trace.NewTwoPass
	NewMix          = trace.NewMix
	NewPhases       = trace.NewPhases
	NewLimit        = trace.NewLimit
	NewSliceSource  = trace.NewSliceSource
)

// Workload models of the paper's benchmarks.
type BenchmarkSpec = workload.Spec

// Benchmark looks up one of the 14 benchmark models by SPEC name.
func Benchmark(name string) (BenchmarkSpec, bool) { return workload.ByName(name) }

// Benchmarks returns all 14 models in the paper's Table 3 order.
func Benchmarks() []BenchmarkSpec { return workload.All() }

// BenchmarkNames returns the models' names in Table 3 order.
func BenchmarkNames() []string { return workload.Names() }

// Core mechanism pieces, for building custom caches and policies.
type (
	// Cache is the set-associative tag-store model.
	Cache = cache.Cache
	// CacheConfig describes a cache's geometry.
	CacheConfig = cache.Config
	// Policy selects replacement victims.
	Policy = cache.Policy
	// SBARConfig and CBSConfig parameterize the hybrids.
	SBARConfig = core.SBARConfig
	CBSConfig  = core.CBSConfig
)

// Policy and mechanism constructors.
var (
	NewCache     = cache.New
	NewLRUPolicy = cache.NewLRU
	NewLIN       = core.NewLIN
	NewBCL       = core.NewBCL
	NewDCL       = core.NewDCL
	NewBIP       = core.NewBIP
	NewDIP       = core.NewDIP
	NewCostAware = core.NewCostAware
	NewSBAR      = core.NewSBAR
	NewCBS       = core.NewCBS
)

// BranchPredictorConfig parameterizes the optional live branch predictor
// (set Config.CPU.BranchPredictor; the default front end uses the
// trace's oracle misprediction flags).
type BranchPredictorConfig = bpred.Config

// DefaultBranchPredictorConfig returns the Table 2 style gshare/PAs
// hybrid at a table size suited to the synthetic workloads.
func DefaultBranchPredictorConfig() BranchPredictorConfig { return bpred.DefaultConfig() }

// PrefetchConfig parameterizes the optional L2 stride prefetcher (set
// Config.Prefetch to enable it; the paper's baseline runs without one).
type PrefetchConfig = prefetch.Config

// DefaultPrefetchConfig returns a 16-stream, degree-4, distance-12
// stride prefetcher.
func DefaultPrefetchConfig() PrefetchConfig { return prefetch.DefaultConfig() }

// Quantize converts an MLP-based cost in cycles to the paper's 3-bit
// cost_q (Figure 3b).
func Quantize(mlpCost float64) uint8 { return core.Quantize(mlpCost) }

// PBest evaluates the Section 6.3 sampling model: the probability that k
// random leader sets select the best policy when a fraction p of sets
// favours it (Figure 8).
func PBest(k int, p float64) float64 { return analytic.PBest(k, p) }

// Offline replacement analysis (Belady's OPT and friends).
type (
	// OfflineResult summarizes an offline replacement simulation.
	OfflineResult = cache.OfflineResult
	// AccessResult records one access's outcome in an offline run.
	AccessResult = cache.AccessResult
)

// SimulateOPT runs Belady's optimal replacement offline over a block
// stream (the Figure 1 comparison point); SimulateOffline does the same
// for any online policy.
var (
	SimulateOPT     = cache.SimulateOPT
	SimulateOffline = cache.SimulateOffline
)
