// Command mlpsim runs one benchmark model on the simulated baseline
// machine under a chosen L2 replacement policy and prints the full
// statistics the paper's experiments are built from. With -cores N it
// runs N cores — each with its own L1, MSHR file and workload from the
// comma-separated -bench mix — sharing the contended L2, and reports
// per-core plus aggregate statistics (see docs/MULTICORE.md). A -cores 1
// run and a plain run are the same simulation: both execute on the one
// N-core memory system and cycle loop.
//
// Reports go to stdout; telemetry goes to files: -json swaps the text
// report for a machine-readable one (schema "mlpcache.run/v1"), -metrics
// streams a JSONL document, -trace-events streams the event trace in the
// encoding -trace-events-format selects (v1 JSONL, or the compact v2
// binary that mlptrace -events decodes), -snapshot-interval adds
// periodic snapshot.* gauges to that stream, and
// -cpuprofile/-memprofile write pprof profiles. docs/OBSERVABILITY.md
// documents every metric name, event type, schema and record layout.
//
// Examples:
//
//	mlpsim -bench mcf -policy lru -n 2000000
//	mlpsim -bench mcf -policy lin -lambda 4 -n 2000000
//	mlpsim -bench ammp -policy sbar -leaders 32 -n 4000000 -series
//	mlpsim -bench mcf -json -metrics out.jsonl -trace-events ev.jsonl
//	mlpsim -bench mcf -trace-events ev.bin -trace-events-format v2 -snapshot-interval 250000
//	mlpsim -bench mcf,art -cores 2 -policy sbar -n 2000000
//	mlpsim -bench mcf,art,parser,equake -cores 4 -audit -n 2000000
//	mlpsim -bench mcf -policy lru -oracle
//	mlpsim -bench mcf -policy bandit
//	mlpsim -bench mcf -policy learned -model mcf.model
//	mlpsim -bench mcf -n 100000000 -timeout 30s
//	mlpsim -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mlpcache/internal/audit"
	"mlpcache/internal/bpred"
	"mlpcache/internal/core"
	"mlpcache/internal/learn"
	"mlpcache/internal/metrics"
	"mlpcache/internal/oracle"
	"mlpcache/internal/prefetch"
	"mlpcache/internal/prof"
	"mlpcache/internal/sim"
	"mlpcache/internal/stats"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

func main() {
	var (
		bench       = flag.String("bench", "mcf", "benchmark model to run (see -list); with -cores N, a comma-separated mix (last entry repeats)")
		cores       = flag.Int("cores", 1, "cores sharing the contended L2 (multi-core mode when >1; core i seeds its model with seed+i)")
		policy      = flag.String("policy", "lru", "replacement policy: "+policyKinds())
		modelPath   = flag.String("model", "", "trained model file for -policy learned (mlptrain output; empty: untrained default, behaves like LRU)")
		lambda      = flag.Int("lambda", 4, "LIN λ (also used inside SBAR/CBS)")
		leaders     = flag.Int("leaders", 32, "SBAR leader sets")
		pselBits    = flag.Int("psel", 0, "PSEL bits (0: policy default)")
		randDyn     = flag.Bool("rand-dynamic", false, "use rand-dynamic leader selection for SBAR")
		n           = flag.Uint64("n", 2_000_000, "instructions to simulate")
		timeout     = flag.Duration("timeout", 0, "abort the run after this wall-clock budget (0: none); exits 1")
		seed        = flag.Uint64("seed", 42, "workload seed")
		series      = flag.Bool("series", false, "print the Figure 11 time series")
		interval    = flag.Uint64("interval", 100_000, "time-series sample interval (instructions)")
		epoch       = flag.Uint64("epoch", 250_000, "rand-dynamic reselection epoch (instructions)")
		hist        = flag.Bool("hist", true, "print the mlp-cost histogram")
		list        = flag.Bool("list", false, "list benchmark models and exit")
		traceFile   = flag.String("trace", "", "replay a binary trace file instead of a benchmark model")
		pf          = flag.Bool("prefetch", false, "enable the L2 stride prefetcher")
		auditFlag   = flag.Bool("audit", false, "run the invariant auditor alongside the simulation")
		bp          = flag.Bool("bpred", false, "use a live gshare/per-address hybrid branch predictor instead of oracle flags")
		jsonOut     = flag.Bool("json", false, "print a machine-readable run report (mlpcache.run/v1) instead of text")
		metricsPath = flag.String("metrics", "", "write the run's metric set as JSONL (mlpcache.metrics/v1) to this file")
		eventsPath  = flag.String("trace-events", "", "stream simulator events to this file (see -trace-events-format)")
		evFormat    = flag.String("trace-events-format", "v1", "event-trace encoding: v1 (mlpcache.events/v1 JSONL) or v2 (compact binary; decode with mlptrace -events)")
		snapEvery   = flag.Uint64("snapshot-interval", 0, "emit snapshot.* gauge events into -trace-events every N retired instructions (0: off)")
		evSample    = flag.Uint64("trace-events-sample", 0, "keep every Nth traced event (0 or 1: all; run.start and snapshot.* always kept)")
		evFilter    = flag.String("trace-events-filter", "", "comma-separated event types to trace, e.g. miss,victim (empty: all; run.start always kept)")
		oracleFlag  = flag.Bool("oracle", false, "capture the L2 access stream and report offline oracle headroom (Belady, cost-weighted Belady, EHC)")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	if *list {
		for _, s := range workload.All() {
			fmt.Printf("%-9s %-3s paper LIN: %+.0f%% misses, %+.1f%% IPC\n",
				s.Name, s.Class, s.PaperLINMissPct, s.PaperLINIPCPct)
		}
		return
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlpsim: %v\n", err)
		os.Exit(1)
	}
	// os.Exit skips defers, so every exit path below funnels through
	// fatal or reaches the explicit stopProf at the end.
	fatal := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mlpsim: "+format+"\n", args...)
		stopProf()
		os.Exit(code)
	}

	var (
		src  trace.Source
		srcs []trace.Source // multi-core mode: one source per core
	)
	benchLabel := *bench
	if *cores > 1 {
		switch {
		case *cores > sim.MaxCores:
			fatal(2, "-cores must be at most %d", sim.MaxCores)
		case *traceFile != "":
			fatal(2, "-cores does not support -trace replay")
		case *oracleFlag:
			fatal(2, "-cores does not support -oracle")
		case *series:
			fatal(2, "-cores does not support -series")
		case *pf:
			fatal(2, "-cores does not support -prefetch")
		case *snapEvery > 0:
			fatal(2, "-cores does not support -snapshot-interval")
		}
		names := strings.Split(*bench, ",")
		var labels []string
		for i := 0; i < *cores; i++ {
			name := names[len(names)-1]
			if i < len(names) {
				name = names[i]
			}
			spec, ok := workload.ByName(strings.TrimSpace(name))
			if !ok {
				fatal(2, "unknown benchmark %q (try -list)", name)
			}
			srcs = append(srcs, spec.Build(*seed+uint64(i)))
			labels = append(labels, spec.Name)
		}
		benchLabel = strings.Join(labels, "+")
	} else if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal(1, "%v", err)
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			fatal(1, "%v", err)
		}
		src = r
		benchLabel = *traceFile + " (trace replay)"
	} else {
		spec, ok := workload.ByName(*bench)
		if !ok {
			fatal(2, "unknown benchmark %q (try -list)", *bench)
		}
		src = spec.Build(*seed)
		benchLabel = fmt.Sprintf("%s (%s)", spec.Name, spec.Class)
	}

	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = *n
	cfg.Policy = sim.PolicySpec{
		Kind:        sim.PolicyKind(*policy),
		Lambda:      *lambda,
		LeaderSets:  *leaders,
		PselBits:    *pselBits,
		RandDynamic: *randDyn,
		Seed:        *seed,
		ModelPath:   *modelPath,
	}
	if *series {
		cfg.SampleInterval = *interval
	}
	if *randDyn {
		cfg.EpochInstructions = *epoch
	}
	if *pf {
		pcfg := prefetch.DefaultConfig()
		cfg.Prefetch = &pcfg
	}
	if *bp {
		bcfg := bpred.DefaultConfig()
		cfg.CPU.BranchPredictor = &bcfg
	}
	cfg.Audit = *auditFlag

	var (
		eventsFile *os.File
		tracer     metrics.FileTracer
	)
	if *snapEvery > 0 && *eventsPath == "" {
		fatal(2, "snapshot-interval needs -trace-events (snapshots are emitted into the event stream)")
	}
	if *eventsPath != "" {
		eventsFile, err = os.Create(*eventsPath)
		if err != nil {
			fatal(1, "%v", err)
		}
		tracer, err = metrics.NewFileTracer(eventsFile, *evFormat, metrics.RunHeader{
			Bench: *bench, Policy: cfg.Policy.String(), Seed: *seed,
		})
		if err != nil {
			fatal(2, "trace-events-format: %v", err)
		}
		cfg.Trace = tracer
		cfg.SnapshotInterval = *snapEvery
		if *evSample > 1 || *evFilter != "" {
			types, err := metrics.ParseEventFilter(*evFilter)
			if err != nil {
				fatal(2, "trace-events-filter: %v", err)
			}
			cfg.Trace = metrics.NewFilterTracer(tracer, *evSample, types)
		}
	}

	var capture *oracle.Capture
	if *oracleFlag {
		capture = oracle.NewCapture()
		cfg.Capture = capture
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Either run yields one registry that serves the -metrics file and
	// the -json report, a header naming the run, and its text report.
	// The single-core oracle comparison injects its families into the
	// same registry.
	var (
		reg    *metrics.Registry
		header metrics.RunHeader
		report func()
	)
	if *cores > 1 {
		mres, err := sim.RunMultiContext(ctx, cfg, srcs...)
		if err != nil {
			fatal(1, "%v", err)
		}
		reg, header = mres.Metrics(), mres.Header(benchLabel, *seed)
		report = func() { printMultiReport(mres, benchLabel, *hist) }
	} else {
		res, err := sim.RunContext(ctx, cfg, src)
		if err != nil {
			fatal(1, "%v", err)
		}
		reg, header = res.Metrics(), res.Header(*bench, *seed)
		var cmp oracle.Comparison
		if capture != nil {
			sets, err := cfg.L2.SetCount()
			if err != nil {
				fatal(1, "%v", err)
			}
			cmp = oracle.Compare(capture.Log(), sets, cfg.L2.Assoc)
			cmp.Observe(reg)
		}
		report = func() {
			printReport(res, benchLabel, *hist)
			if capture != nil {
				printOracle(cmp)
			}
		}
	}

	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			fatal(1, "trace-events: %v", err)
		}
		if err := eventsFile.Close(); err != nil {
			fatal(1, "trace-events: %v", err)
		}
	}
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fatal(1, "%v", err)
		}
		if err := reg.WriteJSONL(f, header); err != nil {
			f.Close()
			fatal(1, "metrics: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal(1, "metrics: %v", err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reg.BuildReport(header)); err != nil {
			fatal(1, "json: %v", err)
		}
	} else {
		report()
	}

	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "mlpsim: %v\n", err)
		os.Exit(1)
	}
}

// printTail renders the lines both reports share: the hybrid selection
// counters with each thread's final selector (hybrid runs only; psel is
// empty for one core), the learned-eviction accounting, the mlp-cost
// histogram when hist is set, and the audit summary.
func printTail(h *core.HybridStats, psel []int, l *learn.Stats, hist bool, costs *stats.Histogram, a *audit.Report) {
	if h != nil {
		fmt.Printf("hybrid: PSEL +%d/-%d updates, victims %d LIN / %d LRU\n",
			h.PselIncrements, h.PselDecrements, h.LinVictims, h.LruVictims)
		for i, v := range psel {
			fmt.Printf("  thread %d selector %d\n", i, v)
		}
	}
	printLearn(l)
	if hist {
		fmt.Printf("mlp-cost distribution (%% of misses):\n")
		var labels, vals []string
		for i, p := range costs.Percent() {
			labels = append(labels, fmt.Sprintf("%8s", costs.BinLabel(i)))
			vals = append(vals, fmt.Sprintf("%7.1f%%", p))
		}
		fmt.Printf("  %s\n  %s\n", strings.Join(labels, " "), strings.Join(vals, " "))
	}
	if a != nil {
		fmt.Printf("audit: %d passes, %d violations\n", a.Checks, len(a.Violations))
	}
}

// printLearn renders the learned-eviction accounting (bandit or
// predictor runs; nil otherwise).
func printLearn(s *learn.Stats) {
	if s == nil {
		return
	}
	fmt.Printf("learned: %d victims; %d would-have-hit / %d confirmed sampled misses\n",
		s.Victims, s.GhostHits, s.Confirmed)
	if pulls := s.ArmRecency + s.ArmProtect + s.ArmFrequency + s.ArmCost + s.ArmScatter; pulls > 0 {
		fmt.Printf("  bandit arms: recency %d, protect %d, frequency %d, cost %d, scatter %d\n",
			s.ArmRecency, s.ArmProtect, s.ArmFrequency, s.ArmCost, s.ArmScatter)
		fmt.Printf("  arm values: recency %+.4f, protect %+.4f, frequency %+.4f, cost %+.4f, scatter %+.4f\n",
			s.WeightRecency, s.WeightProtect, s.WeightFrequency, s.WeightCost, s.WeightScatter)
	}
	if s.TrainedFills+s.UntrainedFills > 0 {
		fmt.Printf("  model fills: %d trained, %d untrained\n", s.TrainedFills, s.UntrainedFills)
	}
}

// printOracle renders the offline oracle comparison to stdout.
func printOracle(cmp oracle.Comparison) {
	fmt.Printf("oracle: %d captured accesses replayed at %dx%d\n",
		cmp.Accesses, cmp.Sets, cmp.Assoc)
	fmt.Printf("  %-12s %10s %12s\n", "", "misses", "cost_q sum")
	fmt.Printf("  %-12s %10d %12d\n", "live", cmp.LiveMisses, cmp.LiveCost)
	for _, r := range []oracle.Result{cmp.EHC, cmp.OPT, cmp.CostOPT} {
		fmt.Printf("  %-12s %10d %12d\n", r.Name, r.Misses, r.CostQSum)
	}
	fmt.Printf("  headroom: %.1f%% of misses (vs belady), %.1f%% of cost (vs cost-belady)\n",
		cmp.MissHeadroomPct(), cmp.CostHeadroomPct())
}

// printMultiReport renders the human-readable multi-core run report:
// chip-wide aggregates over the shared clock, then one line per core.
func printMultiReport(res sim.MultiResult, benchLabel string, hist bool) {
	fmt.Printf("benchmark   %s\n", benchLabel)
	fmt.Printf("policy      %s   cores %d\n", res.Policy, len(res.Cores))
	fmt.Printf("instructions %d   cycles %d   aggregate IPC %.4f\n",
		res.Instructions(), res.Cycles, res.IPC())
	fmt.Printf("L2: %d hits / %d misses (%.2f%% miss); %d serviced, %d merged (%d cross-core)\n",
		res.L2.Hits, res.L2.Misses, 100*res.L2.MissRate(),
		res.Mem.DemandMisses, res.Mem.MergedMisses, res.CrossCoreMerges)
	fmt.Printf("MPKI %.3f   avg mlp-cost %.1f cycles   avg cost_q %.2f\n",
		res.MPKI(), res.AvgMLPCost(), res.AvgCostQ())
	fmt.Printf("DRAM: %d reads, %d writes; bank wait %d, bus wait %d cycles\n",
		res.DRAM.Reads, res.DRAM.Writes, res.DRAM.BankWaitCycles, res.DRAM.BusWaitCycles)
	fmt.Printf("%-6s %12s %8s %10s %10s %8s %10s %10s\n",
		"core", "instr", "IPC", "misses", "merged", "MPKI", "mlp-cost", "stalls")
	for i, c := range res.Cores {
		fmt.Printf("%-6d %12d %8.4f %10d %10d %8.3f %10.1f %10d\n",
			i, c.Instructions, c.IPC, c.Mem.DemandMisses, c.Mem.MergedMisses,
			c.MPKI(), c.AvgMLPCost(), c.CPU.MemStallCycles)
	}
	printTail(res.Hybrid, res.PselValues, res.Learn, hist, res.CostHist, res.Audit)
}

// printReport renders the human-readable run report to stdout.
func printReport(res sim.Result, benchLabel string, hist bool) {
	fmt.Printf("benchmark   %s\n", benchLabel)
	fmt.Printf("policy      %s\n", res.Policy)
	fmt.Printf("instructions %d   cycles %d   IPC %.4f\n", res.Instructions, res.Cycles, res.IPC)
	fmt.Printf("L1: %d hits / %d misses (%.2f%% miss)\n",
		res.L1.Hits, res.L1.Misses, 100*res.L1.MissRate())
	fmt.Printf("L2: %d hits / %d misses (%.2f%% miss); %d serviced, %d merged, %.1f%% compulsory\n",
		res.L2.Hits, res.L2.Misses, 100*res.L2.MissRate(),
		res.Mem.DemandMisses, res.Mem.MergedMisses, res.CompulsoryPercent())
	fmt.Printf("MPKI %.3f   avg mlp-cost %.1f cycles   avg cost_q %.2f\n",
		res.MPKI(), res.AvgMLPCost(), res.AvgCostQ())
	fmt.Printf("mem stalls: %d cycles in %d episodes; full-window %d cycles\n",
		res.CPU.MemStallCycles, res.CPU.MemStallEpisodes, res.CPU.FullWindowCycles)
	fmt.Printf("DRAM: %d reads, %d writes; bank wait %d, bus wait %d cycles\n",
		res.DRAM.Reads, res.DRAM.Writes, res.DRAM.BankWaitCycles, res.DRAM.BusWaitCycles)
	fmt.Printf("MSHR: %d allocations, %d merges, %d rejects; peak occupancy %d\n",
		res.MSHR.Allocations, res.MSHR.Merges, res.MSHR.Rejects, res.MSHR.Peak)
	if d := res.Delta; d.Samples() > 0 {
		fmt.Printf("delta: <60 %.0f%%, 60-119 %.0f%%, >=120 %.0f%%, mean %.0f cycles (%d samples)\n",
			d.PercentLt60(), d.PercentGe60Lt120(), d.PercentGe120(), d.Mean(), d.Samples())
	}
	if res.Bpred.Lookups > 0 {
		fmt.Printf("bpred: %d lookups, %d mispredicts (%.2f%%), gshare used %.0f%%\n",
			res.Bpred.Lookups, res.Bpred.Mispredicts, 100*res.Bpred.MispredictRate(),
			100*float64(res.Bpred.GshareUsed)/float64(res.Bpred.Lookups))
	}
	if res.Mem.PrefetchIssued > 0 {
		fmt.Printf("prefetch: %d issued, %d useful, %d late, %d unused, %d dropped\n",
			res.Mem.PrefetchIssued, res.Mem.PrefetchUseful, res.Mem.PrefetchLate,
			res.Mem.PrefetchUnused, res.Mem.PrefetchDropped)
	}
	printTail(res.Hybrid, nil, res.Learn, hist, res.CostHist, res.Audit)
	if res.Series != nil {
		fmt.Println("time series (instructions, IPC, MPKI, avg cost_q):")
		for i, p := range res.Series.IPC.Points {
			fmt.Printf("  %10d  %.4f  %8.3f  %.2f\n",
				p.Instructions, p.Value,
				res.Series.MPKI.Points[i].Value,
				res.Series.AvgCostQ.Points[i].Value)
		}
	}
}

// policyKinds lists every -policy value, sim.AllPolicies in order,
// separated by "|".
func policyKinds() string {
	kinds := make([]string, len(sim.AllPolicies))
	for i, k := range sim.AllPolicies {
		kinds[i] = string(k)
	}
	return strings.Join(kinds, "|")
}
