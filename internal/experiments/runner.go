// Package experiments regenerates every table and figure of the paper's
// evaluation: the Figure 1 worked example, the Figure 2 mlp-cost
// distributions, the Table 1 delta statistics, the Table 3 benchmark
// summary, the LIN sweeps of Figures 4 and 5, the sampling analysis of
// Figure 8, the SBAR results of Figures 9 and 10, the ammp case study of
// Figure 11, the storage-overhead accounting, and the oracle-headroom
// comparison against offline Belady replays. Each experiment returns
// structured data and renders a paper-style text table.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"mlpcache/internal/metrics"
	"mlpcache/internal/oracle"
	"mlpcache/internal/rescache"
	"mlpcache/internal/sim"
	"mlpcache/internal/simerr"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// Runner executes every simulation of every experiment with
// memoization, since the experiments share many configurations (every
// figure needs the LRU baseline, and a sensitivity sweep's Table 2 point
// is that baseline too). Per-benchmark work fans out over a worker pool
// (see Workers); the memo table is safe for concurrent use and duplicate
// in-flight configurations are coalesced into one simulation.
type Runner struct {
	// Instructions is the per-run instruction budget. The paper uses
	// 250M-instruction SimPoint slices; the synthetic workloads reach
	// steady state within a few million, which keeps the full suite
	// runnable in minutes. Figures report relative changes, which are
	// stable at this scale.
	Instructions uint64
	// Seed drives workload generation; a fixed seed makes every
	// experiment reproducible.
	Seed uint64
	// Benchmarks restricts the benchmark set (nil: all 14).
	Benchmarks []string

	// Workers caps how many simulations run concurrently when an
	// experiment fans out across benchmarks: 0 means GOMAXPROCS, 1
	// forces serial execution. Results are identical at any setting —
	// simulations are independent and memoized under a lock — and
	// telemetry framing is preserved (see below).
	Workers int

	// Capacity bounds the memo table: at most this many results stay
	// cached, evicted LRU (0: unbounded, the CLI default). Long-running
	// callers — the sweep service in particular — set it so sustained
	// traffic cannot grow the table without bound. Set before the first
	// Run; eviction never breaks singleflight dedup (internal/rescache).
	Capacity int

	// Context, when non-nil, cancels in-flight and future simulations:
	// each run polls it via sim.RunContext or sim.RunMultiContext. The
	// first cancellation is recorded and reported by Err, and the
	// experiment builder unwinds immediately (RunByID returns the error
	// instead of a partial table). The mlpexp -timeout flag wires a
	// deadline here.
	Context context.Context

	// Trace, when non-nil, is installed as every fresh simulation's
	// event tracer; a "run.start" boundary event (Label=the run's label,
	// Policy=spec) precedes each run's stream. A label is the benchmark,
	// or a multi-core mix's benchmarks joined by "+", followed by the
	// run's departures from the runner's Seed and the Table 2 machine
	// ("mcf [seed=143]", "parser [L2 size=512KB]"); a run on the
	// runner's Seed and Table 2 keeps the bare name. When runs execute
	// concurrently each run's events are buffered and replayed as one
	// contiguous block behind its run.start, so the framing downstream
	// consumers split on survives parallelism. Memoized replays emit
	// nothing — their events were already streamed.
	Trace metrics.Tracer
	// SnapshotInterval, when non-zero and Trace is set, makes every
	// fresh simulation, single- or multi-core, emit the snapshot.* gauge
	// family through the tracer every that many retired instructions
	// (the mlpexp -snapshot-interval flag; see
	// sim.Config.SnapshotInterval). It does not alter results, so
	// memoization keys ignore it.
	SnapshotInterval uint64
	// OnResult, when non-nil, observes every fresh (non-memoized)
	// simulation, single- or multi-core: its metrics header, whose Bench
	// is the run's label (see Trace) and Seed the run's seed, and its
	// metric registry. mlpexp uses it to append per-run metrics
	// documents to a JSONL file. Calls are serialized.
	OnResult func(hdr metrics.RunHeader, reg *metrics.Registry)

	memoOnce sync.Once
	memo     *rescache.Cache[runEntry]
	errMu    sync.Mutex
	firstErr error
	// outMu serializes Trace/OnResult emission across worker goroutines.
	outMu sync.Mutex
	// arenaMu guards arenas, the free list of simulation arenas. An
	// arena is not safe for concurrent use, so each simulate call checks
	// one out exclusively and returns it when the run finishes; the list
	// therefore never grows past the worker-pool width, and every run
	// after the first warm-up draws its caches, MSHR files and blockmap
	// tables from recycled storage instead of the heap.
	arenaMu sync.Mutex
	arenas  []*sim.Arena
}

// runSpec describes one simulation. It is comparable, and its printed
// form once resolved is the memo key, so experiments that describe the
// same run share one simulation.
type runSpec struct {
	// Mix is a benchmark name, or per-core benchmark names joined by
	// "+" for a multi-core run sharing the L2.
	Mix string
	// Seed drives workload generation; core i builds its workload with
	// Seed+i, matching mlpsim -cores.
	Seed   uint64
	Policy sim.PolicySpec
	// Machine holds the run's departures from the Table 2 machine.
	Machine machine
	// Instructions is the run's budget, the runner's Instructions.
	Instructions uint64
	// Interval samples the Figure 11 time series and Epoch reselects
	// rand-dynamic SBAR's leaders, every that many instructions (0: off).
	Interval, Epoch uint64
}

// runEntry is one memoized simulation: the single- or multi-core
// result, plus the captured oracle access log when RunCaptured has
// recorded one.
type runEntry struct {
	res   sim.Result
	multi sim.MultiResult
	log   *oracle.Log
}

// report is what a Result and a MultiResult both hand to OnResult.
type report interface {
	Header(bench string, seed uint64) metrics.RunHeader
	Metrics() *metrics.Registry
}

// NewRunner returns a Runner with the given per-run instruction budget.
func NewRunner(instructions, seed uint64) *Runner {
	return &Runner{Instructions: instructions, Seed: seed}
}

// table returns the memo cache, building it on first use with the
// configured Capacity.
func (r *Runner) table() *rescache.Cache[runEntry] {
	r.memoOnce.Do(func() {
		r.memo = rescache.New[runEntry](r.Capacity)
	})
	return r.memo
}

// Validate checks that every benchmark the runner is restricted to
// exists in the workload registry and that the run parameters are sane,
// wrapping failures in simerr.ErrUnknownBenchmark / simerr.ErrBadConfig.
// RunByID calls it before running anything, so a typo'd -bench flag
// surfaces as one typed error instead of a panic mid-suite.
func (r *Runner) Validate() error {
	for _, b := range r.Benchmarks {
		if _, ok := workload.ByName(b); !ok {
			return simerr.New(simerr.ErrUnknownBenchmark,
				"experiments: unknown benchmark %q (known: %v)", b, workload.Names())
		}
	}
	if r.Instructions == 0 {
		return simerr.New(simerr.ErrBadConfig, "experiments: instruction budget must be positive")
	}
	if r.Workers < 0 {
		return simerr.New(simerr.ErrBadConfig, "experiments: workers must be >= 0, got %d", r.Workers)
	}
	if r.Capacity < 0 {
		return simerr.New(simerr.ErrBadConfig, "experiments: capacity must be >= 0, got %d", r.Capacity)
	}
	return nil
}

// Names returns the benchmark list this runner covers.
func (r *Runner) Names() []string {
	if len(r.Benchmarks) > 0 {
		return r.Benchmarks
	}
	return workload.Names()
}

// context resolves the runner's cancellation context.
func (r *Runner) context() context.Context {
	if r.Context != nil {
		return r.Context
	}
	return context.Background()
}

// Err reports the first cancellation (or other run failure) the runner
// observed; experiments render nothing useful after one, so RunByID
// checks it before emitting output.
func (r *Runner) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr
}

// noteErr records the first failure.
func (r *Runner) noteErr(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

// workers resolves the effective pool size; below 2 runs are serial.
func (r *Runner) workers() int {
	if r.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// forBenches maps fn over the benchmarks, or over any per-benchmark
// work items, on the runner's worker pool, preserving input order in the
// result slice. With one worker it degenerates to a plain loop. (A
// package function rather than a method because methods cannot take
// type parameters.)
func forBenches[B, T any](r *Runner, benches []B, fn func(bench B) T) []T {
	out := make([]T, len(benches))
	n := r.workers()
	if n > len(benches) {
		n = len(benches)
	}
	if n <= 1 {
		for i, b := range benches {
			out[i] = fn(b)
		}
		return out
	}
	sem := make(chan struct{}, n)
	var (
		wg         sync.WaitGroup
		firstPanic sync.Once
		panicVal   any
	)
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b B) {
			defer wg.Done()
			// A panic in a worker goroutine (cancelAbort, or a genuine
			// simulator bug) would kill the process before RunByID's
			// recover could see it; capture the first one and re-throw
			// it from the caller's goroutine after the pool settles.
			defer func() {
				if p := recover(); p != nil {
					firstPanic.Do(func() { panicVal = p })
				}
			}()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = fn(b)
		}(i, b)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return out
}

// Run simulates one benchmark under one policy on the runner's seed and
// the Table 2 machine, memoized.
func (r *Runner) Run(bench string, spec sim.PolicySpec) sim.Result {
	return r.run(runSpec{Mix: bench, Seed: r.Seed, Policy: spec}, false).res
}

// run returns the memoized outcome of one simulation, simulating it on
// first request: every simulation of every experiment goes through here.
// With capture set the entry also carries the run's oracle access log;
// if the result is already cached without one, the simulation re-runs
// silently (no Trace events, no OnResult call) purely to record the
// stream — the run is deterministic, so the result is identical and its
// telemetry must not be emitted twice.
func (r *Runner) run(d runSpec, capture bool) runEntry {
	d.Instructions = r.Instructions
	d.Machine = d.Machine.resolve()
	var done func(runEntry) bool
	if capture {
		done = func(e runEntry) bool { return e.log != nil }
	}
	e, err := r.table().DoIf(r.context(), fmt.Sprintf("%+v", d), done,
		func(_ runEntry, cached bool) (runEntry, error) {
			return r.simulate(d, capture, cached)
		})
	if err != nil {
		r.fail(err)
	}
	return e
}

// label names a run in its run.start event and metrics header: the
// benchmark or mix, then its departures from the runner's seed and the
// Table 2 machine ("mcf [seed=143]", "parser [L2 size=512KB]").
func (r *Runner) label(d runSpec) string {
	var departs []string
	if d.Seed != r.Seed {
		departs = append(departs, fmt.Sprintf("seed=%d", d.Seed))
	}
	for i, v := range d.Machine {
		if v != 0 {
			departs = append(departs, knobs[i].name+"="+knobs[i].value(v))
		}
	}
	if len(departs) == 0 {
		return d.Mix
	}
	return d.Mix + " [" + strings.Join(departs, ", ") + "]"
}

// cancelAbort is the panic value fail throws on cancellation. Builders
// dereference result internals (histograms, series), so a cancelled run
// cannot hand back a zero Result and let the table loop continue — the
// builder unwinds instead, and RunByID converts the abort back into the
// runner's recorded Err.
type cancelAbort struct{}

// fail routes a run error: cancellations are recorded for Err and abort
// the experiment builder via a cancelAbort panic that RunByID recovers;
// anything else is a simulator bug on compiled-in inputs, and panics
// into the run boundary for real.
func (r *Runner) fail(err error) {
	if errors.Is(err, simerr.ErrCancelled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		if !errors.Is(err, simerr.ErrCancelled) {
			err = simerr.Wrap(simerr.ErrCancelled, err, "experiments: sweep cancelled")
		}
		r.noteErr(err)
		panic(cancelAbort{})
	}
	panic(err)
}

// getArena checks an arena out of the free list, building one when the
// list is empty (cold start, or more workers than past peak).
func (r *Runner) getArena() *sim.Arena {
	r.arenaMu.Lock()
	defer r.arenaMu.Unlock()
	if n := len(r.arenas); n > 0 {
		a := r.arenas[n-1]
		r.arenas = r.arenas[:n-1]
		return a
	}
	return sim.NewArena()
}

// putArena returns an arena for the next run to reuse.
func (r *Runner) putArena(a *sim.Arena) {
	r.arenaMu.Lock()
	r.arenas = append(r.arenas, a)
	r.arenaMu.Unlock()
}

// simulate executes one fresh simulation: one benchmark through
// sim.RunContext, a mix through sim.RunMultiContext. capture attaches an
// oracle capture sink; silent suppresses Trace and OnResult — used when
// a memoized result is re-run only to capture its access stream, whose
// telemetry was already emitted the first time.
func (r *Runner) simulate(d runSpec, capture, silent bool) (runEntry, error) {
	names := strings.Split(d.Mix, "+")
	srcs := make([]trace.Source, len(names))
	for i, b := range names {
		w, ok := workload.ByName(b)
		if !ok {
			// Validate catches external requests; reaching this is a bug.
			panic(simerr.New(simerr.ErrUnknownBenchmark, "experiments: unknown benchmark %q", b))
		}
		srcs[i] = w.Build(d.Seed + uint64(i))
	}
	cfg := sim.DefaultConfig()
	for i, k := range knobs {
		if d.Machine[i] != 0 {
			k.set(&cfg, d.Machine[i])
		}
	}
	cfg.MaxInstructions = d.Instructions
	cfg.Policy = d.Policy
	cfg.SampleInterval = d.Interval
	cfg.EpochInstructions = d.Epoch
	var sink *oracle.Capture
	if capture {
		sink = oracle.NewCapture()
		cfg.Capture = sink
	}

	// Recycle bulk simulator state across the suite's many runs. The
	// arena is held exclusively for the duration of this run, so the
	// worker pool never shares one concurrently.
	arena := r.getArena()
	defer r.putArena(arena)
	cfg.Arena = arena

	tracer := r.Trace
	onResult := r.OnResult
	if silent {
		tracer, onResult = nil, nil
	}
	label := r.label(d)
	start := metrics.Event{Type: metrics.EventRunStart, Label: label, Policy: d.Policy.String()}
	buffered := tracer != nil && r.workers() > 1
	var events []metrics.Event
	if tracer != nil {
		cfg.SnapshotInterval = r.SnapshotInterval
		if buffered {
			// Buffer events so concurrent runs' streams don't
			// interleave; they are replayed contiguously behind
			// run.start under the output lock below.
			cfg.Trace = metrics.FuncTracer(func(ev metrics.Event) { events = append(events, ev) })
		} else {
			tracer.Emit(start)
			cfg.Trace = tracer
		}
	}

	var (
		e   runEntry
		out report
		err error
	)
	if len(srcs) == 1 {
		e.res, err = sim.RunContext(r.context(), cfg, srcs[0])
		out = e.res
	} else {
		e.multi, err = sim.RunMultiContext(r.context(), cfg, srcs...)
		out = e.multi
	}
	if err != nil {
		return runEntry{}, err
	}
	if sink != nil {
		e.log = sink.Log()
	}

	if buffered || onResult != nil {
		r.outMu.Lock()
		defer r.outMu.Unlock()
		if buffered {
			tracer.Emit(start)
			for _, ev := range events {
				tracer.Emit(ev)
			}
		}
		if onResult != nil {
			onResult(out.Header(label, d.Seed), out.Metrics())
		}
	}
	return e, nil
}

// RunCaptured is Run with an oracle capture sink attached: it returns
// the result plus the captured access log, both memoized.
func (r *Runner) RunCaptured(bench string, spec sim.PolicySpec) (sim.Result, *oracle.Log) {
	e := r.run(runSpec{Mix: bench, Seed: r.Seed, Policy: spec}, true)
	return e.res, e.log
}

// Baseline returns the benchmark's LRU result.
func (r *Runner) Baseline(bench string) sim.Result {
	return r.Run(bench, sim.PolicySpec{Kind: sim.PolicyLRU})
}

// CachedKeys lists memoized run keys (for tests).
func (r *Runner) CachedKeys() []string {
	keys := r.table().Keys()
	sort.Strings(keys)
	return keys
}
