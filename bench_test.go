// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the ablation benches DESIGN.md calls out. Each
// bench regenerates its artifact at a reduced instruction budget (the
// full-scale regeneration is `mlpexp -run all -n 3000000`) and reports
// the headline quantity as a custom metric, so `go test -bench=.`
// produces a compact paper-versus-measured record alongside the usual
// ns/op.
package mlpcache

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlpcache/internal/analytic"
	"mlpcache/internal/core"
	"mlpcache/internal/experiments"
	"mlpcache/internal/metrics"
	"mlpcache/internal/mshr"
	"mlpcache/internal/oracle"
	"mlpcache/internal/prefetch"
	"mlpcache/internal/service"
	"mlpcache/internal/sim"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// benchInstructions is the per-run budget for simulation benches: large
// enough for the qualitative shapes, small enough to keep the whole
// harness in minutes.
const benchInstructions = 1_500_000

// benchRunner builds a fresh memoizing runner per bench iteration set.
func benchRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	return experiments.NewRunner(benchInstructions, 42)
}

// renderTable renders experiment id's text table from r's memoized
// runs, the last step of what mlpexp does per experiment.
func renderTable(b *testing.B, r *experiments.Runner, id string) {
	b.Helper()
	if err := experiments.RunByID(r, id, "text", io.Discard); err != nil {
		b.Fatal(err)
	}
}

// The throughput benchmarks run on shared virtual machines whose speed
// drifts within seconds as neighbours come and go, so a lone instr/s
// figure says as much about the host as about the code. Each one
// therefore also times a fixed reference loop just before and just
// after its timed region and reports the rate as ref/s; bench-compare
// gates instr/s divided by ref/s (tools/benchjson). The loop lives here,
// not in the simulator, so no change to the code under test moves it.

// refSteps is one reference sample: about 35 ms on a 2-vCPU Xeon VM.
const refSteps = 6_000_000

// refRing is a random cyclic permutation small enough (8 KiB) to stay
// in the L1, so the loop's speed tracks how fast the core runs rather
// than where its data lands in memory.
var refRing = func() []uint32 {
	const n = 1 << 11
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	ring := make([]uint32, n)
	for i := range perm {
		ring[perm[i]] = perm[(i+1)%n]
	}
	return ring
}()

// refSink keeps the reference loop's result live.
var refSink uint64

// refRate runs the reference loop, a pointer chase with data-dependent
// branches, and returns its rate in steps per second.
func refRate() float64 {
	start := time.Now()
	var p uint32
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < refSteps; i++ {
		p = refRing[p]
		h ^= uint64(p)
		h *= 0x100000001b3
		switch {
		case h&7 == 3:
			h += uint64(i)
		case h&5 == 1:
			h ^= h >> 13
		}
	}
	refSink += h
	return refSteps / time.Since(start).Seconds()
}

// startThroughput samples the reference loop, then restarts b's timer;
// it returns the sample for reportThroughput.
func startThroughput(b *testing.B) float64 {
	before := refRate()
	b.ResetTimer()
	return before
}

// reportThroughput reports instr simulated over b's timed region as
// instr/s and, with the timer stopped, the geometric mean of the
// reference loop's rate before and after that region as ref/s.
func reportThroughput(b *testing.B, instr, before float64) {
	elapsed := b.Elapsed().Seconds()
	b.StopTimer()
	after := refRate()
	b.ReportMetric(instr/elapsed, "instr/s")
	b.ReportMetric(math.Sqrt(before*after), "ref/s")
}

func BenchmarkFig1_WorkedExample(b *testing.B) {
	var last experiments.Figure1Result
	for i := 0; i < b.N; i++ {
		last = experiments.Figure1()
	}
	// The reproduction is exact; report the stall ratio OPT/MLP-aware.
	b.ReportMetric(last.Rows[0].StallsPerIter/last.Rows[2].StallsPerIter, "opt-vs-mlp-stall-ratio")
}

func BenchmarkFig2_MLPCostDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		r.Benchmarks = []string{"art", "mcf", "facerec"}
		res := experiments.Figure2(r)
		renderTable(b, r, "fig2")
		// art is the parallel extreme, facerec carries the isolated
		// peak: report both means.
		b.ReportMetric(res.Rows[0].Mean, "art-mean-cost-cycles")
		b.ReportMetric(res.Rows[2].Mean, "facerec-mean-cost-cycles")
	}
}

func BenchmarkTab1_DeltaDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		r.Benchmarks = []string{"mcf", "parser"}
		res := experiments.Table1(r)
		renderTable(b, r, "tab1")
		b.ReportMetric(res.Rows[0].Lt60, "mcf-delta-lt60-pct")
		b.ReportMetric(res.Rows[1].Ge120, "parser-delta-ge120-pct")
	}
}

func BenchmarkTab3_BenchmarkSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		r.Benchmarks = []string{"art", "lucas"}
		res := experiments.Table3(r)
		renderTable(b, r, "tab3")
		// The paper's ordering: lucas's compulsory share far exceeds art's.
		b.ReportMetric(res.Rows[1].CompulsoryPct-res.Rows[0].CompulsoryPct, "lucas-minus-art-compulsory-pct")
	}
}

func BenchmarkFig3b_Quantizer(b *testing.B) {
	var q uint8
	for i := 0; i < b.N; i++ {
		for c := 0.0; c < 500; c++ {
			q += core.Quantize(c)
		}
	}
	_ = q
}

func BenchmarkFig4_LINLambdaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		r.Benchmarks = []string{"mcf"}
		res := experiments.Figure4(r)
		renderTable(b, r, "fig4")
		// The paper: the effect grows with λ.
		b.ReportMetric(res.Rows[0].IPCDelta[3], "mcf-lin4-ipc-delta-pct")
		b.ReportMetric(res.Rows[0].IPCDelta[0], "mcf-lin1-ipc-delta-pct")
	}
}

func BenchmarkFig5_LINvsBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		r.Benchmarks = []string{"mcf", "parser"}
		res := experiments.Figure5(r)
		renderTable(b, r, "fig5")
		b.ReportMetric(res.Rows[0].IPCDeltaPct, "mcf-lin-ipc-pct")
		b.ReportMetric(res.Rows[1].IPCDeltaPct, "parser-lin-ipc-pct")
	}
}

func BenchmarkFig8_SamplingModel(b *testing.B) {
	var sum float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure8()
		sum += res.Curves[2][5] // p=0.7, k=32
	}
	b.ReportMetric(analytic.PBest(32, 0.7), "pbest-k32-p0.7")
	_ = sum
}

func BenchmarkFig9_SBARvsLIN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		r.Benchmarks = []string{"parser"}
		res := experiments.Figure9(r)
		renderTable(b, r, "fig9")
		b.ReportMetric(res.Rows[0].LINDeltaPct, "parser-lin-ipc-pct")
		b.ReportMetric(res.Rows[0].SBARDeltaPct, "parser-sbar-ipc-pct")
	}
}

func BenchmarkFig10_LeaderSetSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		r.Benchmarks = []string{"mcf"}
		res := experiments.Figure10(r)
		renderTable(b, r, "fig10")
		// static/32 is the default configuration.
		b.ReportMetric(res.Rows[0].DeltaPct[4], "mcf-sbar-static32-ipc-pct")
	}
}

func BenchmarkFig11_AmmpTimeSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(1_000_000, 42)
		res := experiments.Figure11(r)
		renderTable(b, r, "fig11")
		lru, sbar := res.Results["lru"], res.Results["sbar"]
		b.ReportMetric(sbar.IPCDeltaPercent(lru), "ammp-sbar-ipc-pct")
	}
}

func BenchmarkOverheadModel(b *testing.B) {
	var bytes int
	for i := 0; i < b.N; i++ {
		o := core.ComputeOverhead(core.DefaultOverheadParams())
		bytes = o.SBARBytes()
	}
	b.ReportMetric(float64(bytes), "sbar-bytes")
}

// BenchmarkAblationAdders compares the exact per-entry cost computation
// against the paper's 4 time-shared adders (Section 3.1 footnote: the
// difference is negligible).
func BenchmarkAblationAdders(b *testing.B) {
	run := func(adders int) sim.Result {
		spec, _ := workload.ByName("mcf")
		cfg := sim.DefaultConfig()
		cfg.MaxInstructions = benchInstructions
		cfg.MSHR = mshr.Config{Entries: 32, Adders: adders}
		return sim.MustRun(cfg, spec.Build(42))
	}
	var exact, shared sim.Result
	for i := 0; i < b.N; i++ {
		exact = run(0)
		shared = run(4)
	}
	b.ReportMetric(exact.AvgMLPCost(), "avg-cost-exact")
	b.ReportMetric(shared.AvgMLPCost(), "avg-cost-4adders")
}

// BenchmarkAblationPSEL sweeps the selector counter width (Section 6.1
// uses 6 bits; CBS-global prefers 7).
func BenchmarkAblationPSEL(b *testing.B) {
	for _, bits := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				spec, _ := workload.ByName("parser")
				cfg := sim.DefaultConfig()
				cfg.MaxInstructions = benchInstructions
				cfg.Policy = sim.PolicySpec{Kind: sim.PolicySBAR, PselBits: bits}
				res = sim.MustRun(cfg, spec.Build(42))
			}
			b.ReportMetric(res.IPC, "ipc")
		})
	}
}

// BenchmarkAblationCBS compares SBAR against the full-overhead CBS
// variants it approximates (Section 6.6).
func BenchmarkAblationCBS(b *testing.B) {
	for _, kind := range []sim.PolicyKind{sim.PolicySBAR, sim.PolicyCBSGlobal, sim.PolicyCBSLocal} {
		b.Run(string(kind), func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				spec, _ := workload.ByName("ammp")
				cfg := sim.DefaultConfig()
				cfg.MaxInstructions = benchInstructions
				cfg.Policy = sim.PolicySpec{Kind: kind}
				res = sim.MustRun(cfg, spec.Build(42))
			}
			b.ReportMetric(res.IPC, "ipc")
		})
	}
}

// BenchmarkAblationQuant sweeps the cost-quantization width (the design
// choice behind Figure 3b's 3 bits).
func BenchmarkAblationQuant(b *testing.B) {
	for _, bits := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			var q uint8
			for i := 0; i < b.N; i++ {
				for c := 0.0; c < 500; c += 0.5 {
					q += core.QuantizeWith(c, bits)
				}
			}
			_ = q
		})
	}
}

// BenchmarkAblationCARE compares the cost-aware replacement engines that
// can sit behind the paper's CARE box (Section 2 cites Jeong & Dubois'
// cost-sensitive LRU family as alternatives to LIN): all consume the same
// stored cost_q; only the victim function differs.
func BenchmarkAblationCARE(b *testing.B) {
	for _, kind := range []sim.PolicyKind{sim.PolicyLRU, sim.PolicyLIN, sim.PolicyBCL, sim.PolicyDCL} {
		b.Run(string(kind), func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				spec, _ := workload.ByName("mcf")
				cfg := sim.DefaultConfig()
				cfg.MaxInstructions = benchInstructions
				cfg.Policy = sim.PolicySpec{Kind: kind}
				res = sim.MustRun(cfg, spec.Build(42))
			}
			b.ReportMetric(res.IPC, "ipc")
			b.ReportMetric(float64(res.Mem.DemandMisses), "misses")
		})
	}
}

// BenchmarkAblationPrefetch measures how an L2 stride prefetcher shifts
// the mlp-cost distribution (Section 2: prefetching is an MLP technique;
// it converts isolated misses into parallel ones, which shrinks the very
// non-uniformity LIN exploits).
func BenchmarkAblationPrefetch(b *testing.B) {
	for _, pf := range []bool{false, true} {
		name := "off"
		if pf {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				spec, _ := workload.ByName("mcf")
				cfg := sim.DefaultConfig()
				cfg.MaxInstructions = benchInstructions
				if pf {
					p := prefetch.DefaultConfig()
					cfg.Prefetch = &p
				}
				res = sim.MustRun(cfg, spec.Build(42))
			}
			b.ReportMetric(res.IPC, "ipc")
			b.ReportMetric(res.AvgMLPCost(), "avg-cost-cycles")
		})
	}
}

// BenchmarkExtensionDIP exercises the set-dueling configuration of the
// generic SBAR engine (BIP vs LRU — the mechanism's ISCA 2007 sequel) on
// the thrash-heavy art model.
func BenchmarkExtensionDIP(b *testing.B) {
	var lruIPC, dipIPC float64
	for i := 0; i < b.N; i++ {
		spec, _ := workload.ByName("art")
		cfg := sim.DefaultConfig()
		cfg.MaxInstructions = benchInstructions
		lruIPC = sim.MustRun(cfg, spec.Build(42)).IPC

		dipCfg := sim.DefaultConfig()
		dipCfg.MaxInstructions = benchInstructions
		dipCfg.Policy = sim.PolicySpec{Kind: sim.PolicyDIP}
		dipIPC = sim.MustRun(dipCfg, spec.Build(42)).IPC
	}
	b.ReportMetric(lruIPC, "lru-ipc")
	b.ReportMetric(dipIPC, "dip-ipc")
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (instructions simulated per wall-clock second).
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, _ := workload.ByName("equake")
	ref := startThroughput(b)
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.MaxInstructions = benchInstructions
		sim.MustRun(cfg, spec.Build(42))
	}
	reportThroughput(b, float64(benchInstructions)*float64(b.N), ref)
}

// BenchmarkMulticoreThroughput drives the contended two-core engine —
// mcf and art sharing the L2, each retiring the full per-core budget —
// and reports aggregate instructions simulated per wall-clock second.
// Compare against BenchmarkSimulatorThroughput to price the sharer
// bookkeeping (per-core MSHR files, the sharer bitmask, the shared
// fill heap); bench-compare gates it like every other instr/s figure.
func BenchmarkMulticoreThroughput(b *testing.B) {
	mcf, _ := workload.ByName("mcf")
	art, _ := workload.ByName("art")
	var total uint64
	ref := startThroughput(b)
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.MaxInstructions = benchInstructions
		res, err := sim.RunMulti(cfg, mcf.Build(42), art.Build(43))
		if err != nil {
			b.Fatal(err)
		}
		total += res.Instructions()
	}
	reportThroughput(b, float64(total), ref)
}

// BenchmarkArenaReuse prices zero-rebuild simulation arenas on the
// two-core engine: cold builds every cache, MSHR file, blockmap table
// and fill heap per run; reused draws them from a warmed arena and only
// pays for reset-in-place. bench-compare's relational gate requires the
// reused leg's allocs/op to stay at or below half the cold leg's.
func BenchmarkArenaReuse(b *testing.B) {
	mcf, _ := workload.ByName("mcf")
	art, _ := workload.ByName("art")
	run := func(b *testing.B, arena *sim.Arena) {
		cfg := sim.DefaultConfig()
		cfg.MaxInstructions = 200_000
		cfg.Arena = arena
		runOnce := func() {
			if _, err := sim.RunMulti(cfg, mcf.Build(42), art.Build(43)); err != nil {
				b.Fatal(err)
			}
		}
		if arena != nil {
			runOnce() // warm the pools before the timer starts
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOnce()
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, nil) })
	b.Run("reused", func(b *testing.B) { run(b, sim.NewArena()) })
}

// BenchmarkObservability quantifies the cost of the observability
// layer (docs/OBSERVABILITY.md's "disabled observability is free"
// contract): "off" is the plain simulation, "traced" streams every
// event to an in-memory JSONL tracer, and "metrics" additionally
// builds the full registry afterwards. Compare off against
// BenchmarkSimulatorThroughput-era baselines — with Trace nil every
// emit site costs one predictable branch, so off and the pre-layer
// simulator should be indistinguishable.
func BenchmarkObservability(b *testing.B) {
	run := func(b *testing.B, tr metrics.Tracer, export bool) {
		spec, _ := workload.ByName("equake")
		ref := startThroughput(b)
		for i := 0; i < b.N; i++ {
			cfg := sim.DefaultConfig()
			cfg.MaxInstructions = benchInstructions
			cfg.Trace = tr
			res := sim.MustRun(cfg, spec.Build(42))
			if export {
				if err := res.Metrics().WriteJSONL(io.Discard, res.Header("equake", 42)); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportThroughput(b, float64(benchInstructions)*float64(b.N), ref)
	}
	b.Run("off", func(b *testing.B) { run(b, nil, false) })
	b.Run("traced", func(b *testing.B) {
		run(b, metrics.NewJSONLTracer(io.Discard, metrics.RunHeader{Bench: "equake"}), false)
	})
	b.Run("metrics", func(b *testing.B) { run(b, nil, true) })
}

// BenchmarkTracingV2 compares the cost of full event tracing across the
// two encodings against an untraced run: "off" is the plain simulation,
// "jsonl" streams every event through the v1 JSONL tracer, and "v2"
// through the binary mlpcache.events/v2 tracer. The acceptance contract
// (enforced by `make bench-compare`) is that v2's allocs/op stay within
// 2x of off — the binary encoder's steady-state Emit path allocates
// nothing, so traced and untraced runs allocate alike. A fresh tracer is
// built per iteration; its setup (header, string table, scratch buffer)
// is part of the measured cost, as it is in real runs.
func BenchmarkTracingV2(b *testing.B) {
	run := func(b *testing.B, mk func() metrics.Tracer) {
		spec, _ := workload.ByName("equake")
		b.ReportAllocs()
		ref := startThroughput(b)
		for i := 0; i < b.N; i++ {
			cfg := sim.DefaultConfig()
			cfg.MaxInstructions = benchInstructions
			if mk != nil {
				cfg.Trace = mk()
			}
			sim.MustRun(cfg, spec.Build(42))
		}
		reportThroughput(b, float64(benchInstructions)*float64(b.N), ref)
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("jsonl", func(b *testing.B) {
		run(b, func() metrics.Tracer {
			return metrics.NewJSONLTracer(io.Discard, metrics.RunHeader{Bench: "equake"})
		})
	})
	b.Run("v2", func(b *testing.B) {
		run(b, func() metrics.Tracer {
			return metrics.NewBinaryTracer(io.Discard, metrics.RunHeader{Bench: "equake"})
		})
	})
}

// BenchmarkLearnedEviction prices the learned victim paths against
// LRU's on identical runs: "lru" is the baseline, "bandit" the
// five-arm shadow-directory bandit, and "learned" the hit-count
// predictor running its untrained default (the full fill/victim path
// without a model file). The acceptance contract (enforced by `make
// bench-compare`) is relational: the learned policies' allocs/op stay
// within 1.5x of LRU's — both victim paths rank on the shared scratch,
// so beyond one-time construction the runs allocate alike.
func BenchmarkLearnedEviction(b *testing.B) {
	run := func(b *testing.B, spec sim.PolicySpec) {
		w, _ := workload.ByName("mcf")
		b.ReportAllocs()
		ref := startThroughput(b)
		for i := 0; i < b.N; i++ {
			cfg := sim.DefaultConfig()
			cfg.MaxInstructions = benchInstructions
			cfg.Policy = spec
			sim.MustRun(cfg, w.Build(42))
		}
		reportThroughput(b, float64(benchInstructions)*float64(b.N), ref)
	}
	b.Run("lru", func(b *testing.B) { run(b, sim.PolicySpec{Kind: sim.PolicyLRU}) })
	b.Run("bandit", func(b *testing.B) { run(b, sim.PolicySpec{Kind: sim.PolicyBandit, Seed: 42}) })
	b.Run("learned", func(b *testing.B) { run(b, sim.PolicySpec{Kind: sim.PolicyLearned}) })
}

// BenchmarkOracleHeadroom measures the offline oracle pipeline end to
// end — capture a live LRU run's L2 stream, then replay it under
// Belady, cost-weighted Belady and EHC at the live geometry — and
// reports the two headroom percentages (docs/ORACLE.md).
func BenchmarkOracleHeadroom(b *testing.B) {
	spec, _ := workload.ByName("art")
	l2 := sim.DefaultConfig().L2
	sets, err := l2.SetCount()
	if err != nil {
		b.Fatal(err)
	}
	var cmp oracle.Comparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.MaxInstructions = 400_000
		cap := oracle.NewCapture()
		cfg.Capture = cap
		sim.MustRun(cfg, spec.Build(42))
		cmp = oracle.Compare(cap.Log(), sets, l2.Assoc)
	}
	b.ReportMetric(cmp.MissHeadroomPct(), "miss-headroom-%")
	b.ReportMetric(cmp.CostHeadroomPct(), "cost-headroom-%")
}

// BenchmarkGeneratorThroughput measures trace generation speed alone,
// through the path the simulator's fetch stage uses: trace.ReadBatch in
// batches the size of the core's fetch buffer. Each op draws a fixed
// 100k instructions from one mcf generator, so a -benchtime 1x sample
// times a whole op rather than a single call.
func BenchmarkGeneratorThroughput(b *testing.B) {
	const (
		perOp      = 100_000
		fetchBatch = 256 // internal/cpu's fetch buffer
	)
	spec, _ := workload.ByName("mcf")
	src := spec.Build(1)
	buf := make([]trace.Instr, fetchBatch)
	ref := startThroughput(b)
	for i := 0; i < b.N; i++ {
		for left := perOp; left > 0; left -= len(buf) {
			trace.ReadBatch(src, buf[:min(left, len(buf))])
		}
	}
	reportThroughput(b, float64(perOp)*float64(b.N), ref)
}

// BenchmarkTraceEncode measures the binary trace encoder.
func BenchmarkTraceEncode(b *testing.B) {
	spec, _ := workload.ByName("mcf")
	ins := trace.Collect(spec.Build(1), 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := trace.NewWriter(io.Discard)
		for _, in := range ins {
			if err := w.Write(in); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(ins)))
}

// BenchmarkServiceThroughput measures the sweep service end to end:
// jobs flow through admission, the worker pool, per-job deadlines and
// the result cache before the simulation runs. Distinct seeds defeat
// the cache, so the figure prices the service layer plus fresh
// simulations — compare its instr/s against BenchmarkSimulatorThroughput
// to see the daemon's overhead, which should be noise.
func BenchmarkServiceThroughput(b *testing.B) {
	const jobInstructions = 400_000
	s, err := service.New(service.Config{
		PerClientCap:    -1,
		MaxInstructions: jobInstructions,
		DefaultDeadline: 10 * time.Minute,
		MaxDeadline:     10 * time.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// Bound concurrent submitters below the queue depth so admission
	// control never rejects: this measures throughput, not shedding.
	sem := make(chan struct{}, 16)
	var wg sync.WaitGroup
	var failed atomic.Uint64
	ref := startThroughput(b)
	for i := 0; i < b.N; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out := s.Submit(context.Background(), service.Job{
				Bench:        "equake",
				Instructions: jobInstructions,
				Seed:         uint64(i) + 1,
			})
			if out.Err != nil {
				failed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		b.Fatalf("%d of %d jobs failed", n, b.N)
	}
	reportThroughput(b, float64(jobInstructions)*float64(b.N), ref)
}
