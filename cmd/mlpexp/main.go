// Command mlpexp regenerates the paper's tables and figures. Each
// experiment prints a paper-style table to stdout in the chosen -format
// (text, csv, or json); telemetry goes to files: -metrics appends one
// metrics document per fresh simulation, -trace-events streams the event
// trace with run.start boundaries between runs in the encoding
// -trace-events-format selects (v1 JSONL or the compact v2 binary that
// mlptrace -events decodes), -snapshot-interval adds periodic snapshot.*
// gauges per run, and -cpuprofile/-memprofile write pprof profiles. See
// DESIGN.md §4 for the experiment index and docs/OBSERVABILITY.md for
// the telemetry schemas and record layouts.
//
// -timeout bounds the whole invocation with the simulator's cooperative
// cancellation (exit 1 on expiry). The sweep-service daemon is its own
// command, cmd/mlpserve.
//
// Examples:
//
//	mlpexp -run fig5 -n 3000000
//	mlpexp -run fig2,tab1
//	mlpexp -run all -timeout 10m
//	mlpexp -run fig9 -format json -metrics runs.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"mlpcache/internal/experiments"
	"mlpcache/internal/metrics"
	"mlpcache/internal/prof"
)

func main() {
	var (
		run         = flag.String("run", "all", "comma-separated experiment ids ("+strings.Join(append(experiments.AllIDs(), experiments.SensitivityIDs()...), ", ")+"), all, or sens")
		n           = flag.Uint64("n", 3_000_000, "instructions per simulation run")
		seed        = flag.Uint64("seed", 42, "workload seed")
		bench       = flag.String("bench", "", "comma-separated benchmark subset (default: all 14)")
		workers     = flag.Int("workers", 0, "concurrent simulations per experiment (0: GOMAXPROCS, 1: serial)")
		format      = flag.String("format", "text", "output format: text, csv or json")
		metricsPath = flag.String("metrics", "", "append each fresh run's metric set as JSONL (mlpcache.metrics/v1) to this file")
		eventsPath  = flag.String("trace-events", "", "stream simulator events to this file (see -trace-events-format)")
		evFormat    = flag.String("trace-events-format", "v1", "event-trace encoding: v1 (mlpcache.events/v1 JSONL) or v2 (compact binary; decode with mlptrace -events)")
		snapEvery   = flag.Uint64("snapshot-interval", 0, "emit snapshot.* gauge events into -trace-events every N retired instructions per run (0: off)")
		evSample    = flag.Uint64("trace-events-sample", 0, "keep every Nth traced event (0 or 1: all; run.start and snapshot.* always kept)")
		evFilter    = flag.String("trace-events-filter", "", "comma-separated event types to trace, e.g. miss,victim (empty: all; run.start always kept)")
		timeout     = flag.Duration("timeout", 0, "abort the whole invocation after this wall-clock budget (0: none); exits 1")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlpexp: %v\n", err)
		os.Exit(1)
	}
	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mlpexp: "+format+"\n", args...)
		stopProf()
		os.Exit(1)
	}

	r := experiments.NewRunner(*n, *seed)
	if *bench != "" {
		r.Benchmarks = strings.Split(*bench, ",")
	}
	r.Workers = *workers
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		r.Context = ctx
	}

	var metricsFile *os.File
	if *metricsPath != "" {
		metricsFile, err = os.Create(*metricsPath)
		if err != nil {
			fatal("%v", err)
		}
		r.OnResult = func(hdr metrics.RunHeader, reg *metrics.Registry) {
			if err := reg.WriteJSONL(metricsFile, hdr); err != nil {
				fatal("metrics: %v", err)
			}
		}
	}
	var (
		eventsFile *os.File
		tracer     metrics.FileTracer
	)
	if *snapEvery > 0 && *eventsPath == "" {
		fatal("snapshot-interval needs -trace-events (snapshots are emitted into the event stream)")
	}
	if *eventsPath != "" {
		eventsFile, err = os.Create(*eventsPath)
		if err != nil {
			fatal("%v", err)
		}
		tracer, err = metrics.NewFileTracer(eventsFile, *evFormat, metrics.RunHeader{Seed: *seed})
		if err != nil {
			fatal("trace-events-format: %v", err)
		}
		r.Trace = tracer
		r.SnapshotInterval = *snapEvery
		if *evSample > 1 || *evFilter != "" {
			types, err := metrics.ParseEventFilter(*evFilter)
			if err != nil {
				fatal("trace-events-filter: %v", err)
			}
			r.Trace = metrics.NewFilterTracer(tracer, *evSample, types)
		}
	}

	ids := strings.Split(*run, ",")
	switch *run {
	case "all":
		ids = experiments.AllIDs()
	case "sens":
		ids = experiments.SensitivityIDs()
	}
	for _, id := range ids {
		if err := experiments.RunByID(r, strings.TrimSpace(id), *format, os.Stdout); err != nil {
			fatal("%v", err)
		}
	}

	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			fatal("trace-events: %v", err)
		}
		if err := eventsFile.Close(); err != nil {
			fatal("trace-events: %v", err)
		}
	}
	if metricsFile != nil {
		if err := metricsFile.Close(); err != nil {
			fatal("metrics: %v", err)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "mlpexp: %v\n", err)
		os.Exit(1)
	}
}
