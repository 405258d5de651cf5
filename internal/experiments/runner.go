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
	"sync"

	"mlpcache/internal/metrics"
	"mlpcache/internal/oracle"
	"mlpcache/internal/rescache"
	"mlpcache/internal/sim"
	"mlpcache/internal/simerr"
	"mlpcache/internal/workload"
)

// Runner executes benchmark×policy simulations with memoization, since
// the experiments share many configurations (every figure needs the LRU
// baseline, for instance). Per-benchmark work fans out over a worker
// pool (see Workers); the memo table is safe for concurrent use and
// duplicate in-flight configurations are coalesced into one simulation.
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
	// each run polls it via sim.RunContext. The first cancellation is
	// recorded and reported by Err, and the experiment builder unwinds
	// immediately (RunByID and friends return the error instead of a
	// partial table). The mlpexp -timeout flag wires a deadline here.
	Context context.Context

	// Trace, when non-nil, is installed as every fresh simulation's
	// event tracer; a "run.start" boundary event (Label=benchmark,
	// Policy=spec) precedes each run's stream. When runs execute
	// concurrently each run's events are buffered and replayed as one
	// contiguous block behind its run.start, so the framing downstream
	// consumers split on survives parallelism. Memoized replays emit
	// nothing — their events were already streamed.
	Trace metrics.Tracer
	// SnapshotInterval, when non-zero and Trace is set, makes every
	// fresh simulation emit the snapshot.* gauge family through the
	// tracer every that many retired instructions (the mlpexp
	// -snapshot-interval flag; see sim.Config.SnapshotInterval). It
	// does not alter results, so memoization keys ignore it.
	SnapshotInterval uint64
	// OnResult, when non-nil, observes every fresh (non-memoized)
	// simulation's result; mlpexp uses it to append per-run metrics
	// documents to a JSONL file. Calls are serialized.
	OnResult func(bench string, spec sim.PolicySpec, res sim.Result)

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

// runEntry is one memoized simulation: the result, plus the captured
// oracle access log when RunCaptured has recorded one.
type runEntry struct {
	res sim.Result
	log *oracle.Log
}

// NewRunner returns a Runner with the given per-run instruction budget.
func NewRunner(instructions, seed uint64) *Runner {
	return &Runner{Instructions: instructions, Seed: seed}
}

// table returns the memo cache, building it on first use with the
// configured Capacity.
func (r *Runner) table() *rescache.Cache[runEntry] {
	r.memoOnce.Do(func() {
		capacity := r.Capacity
		if capacity < 0 {
			capacity = 0
		}
		r.memo = rescache.New[runEntry](capacity)
	})
	return r.memo
}

// Validate checks that every benchmark the runner is restricted to
// exists in the workload registry and that the run parameters are sane,
// wrapping failures in simerr.ErrUnknownBenchmark / simerr.ErrBadConfig.
// RunByID and RunByIDCSV call it before running anything, so a typo'd
// -bench flag surfaces as one typed error instead of a panic mid-suite.
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
// observed; experiments render nothing useful after one, so RunByID and
// friends check it before emitting output.
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

// workers resolves the effective pool size.
func (r *Runner) workers() int {
	if r.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if r.Workers < 1 {
		return 1
	}
	return r.Workers
}

// forBenches maps fn over the benchmarks on the runner's worker pool,
// preserving input order in the result slice. With one worker it
// degenerates to a plain loop. (A package function rather than a method
// because methods cannot take type parameters.)
func forBenches[T any](r *Runner, benches []string, fn func(bench string) T) []T {
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
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
	)
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			// A panic in a worker goroutine (cancelAbort, or a genuine
			// simulator bug) would kill the process before resolve's
			// recover could see it; capture the first one and re-throw
			// it from the caller's goroutine after the pool settles.
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = p
					}
					panicMu.Unlock()
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

// Run simulates one benchmark under one policy, memoized.
func (r *Runner) Run(bench string, spec sim.PolicySpec) sim.Result {
	return r.run(bench, spec, 0, 0)
}

// RunSeries is Run with Figure 11 time-series sampling enabled.
func (r *Runner) RunSeries(bench string, spec sim.PolicySpec, interval uint64) sim.Result {
	return r.run(bench, spec, interval, 0)
}

// RunEpoch is Run with periodic leader reselection (rand-dynamic SBAR).
func (r *Runner) RunEpoch(bench string, spec sim.PolicySpec, epoch uint64) sim.Result {
	return r.run(bench, spec, 0, epoch)
}

func (r *Runner) key(bench string, spec sim.PolicySpec, interval, epoch uint64) string {
	return fmt.Sprintf("%s|%+v|%d|%d|%d|%d", bench, spec, r.Instructions, r.Seed, interval, epoch)
}

func (r *Runner) run(bench string, spec sim.PolicySpec, interval, epoch uint64) sim.Result {
	e, err := r.table().DoIf(r.context(), r.key(bench, spec, interval, epoch), nil,
		func(runEntry, bool) (runEntry, error) {
			res, err := r.simulate(bench, spec, interval, epoch, nil, false)
			return runEntry{res: res}, err
		})
	if err != nil {
		r.fail(err)
		return sim.Result{}
	}
	return e.res
}

// cancelAbort is the panic value fail throws on cancellation. Builders
// dereference result internals (histograms, series), so a cancelled run
// cannot hand back a zero Result and let the table loop continue — the
// builder unwinds instead, and resolve converts the abort back into the
// runner's recorded Err.
type cancelAbort struct{}

// fail routes a run error: cancellations are recorded for Err and abort
// the experiment builder via a cancelAbort panic that resolve recovers;
// anything else is the old MustRun contract, a simulator bug on
// compiled-in inputs, and panics into the run boundary for real.
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

// bufTracer collects one concurrent run's events for contiguous replay.
type bufTracer struct{ events []metrics.Event }

func (b *bufTracer) Emit(ev metrics.Event) { b.events = append(b.events, ev) }

// simulate executes one fresh simulation. silent suppresses Trace and
// OnResult — used when a memoized result is re-run only to capture its
// access stream, whose telemetry was already emitted the first time.
func (r *Runner) simulate(bench string, spec sim.PolicySpec, interval, epoch uint64,
	capture sim.AccessObserver, silent bool) (sim.Result, error) {

	w, ok := workload.ByName(bench)
	if !ok {
		// Validate catches external requests; reaching this is a bug.
		panic(simerr.New(simerr.ErrUnknownBenchmark, "experiments: unknown benchmark %q", bench))
	}
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = r.Instructions
	cfg.Policy = spec
	cfg.SampleInterval = interval
	cfg.EpochInstructions = epoch
	cfg.Capture = capture

	// Recycle bulk simulator state across the suite's many runs. The
	// arena is held exclusively for the duration of this run, so the
	// worker pool never shares one concurrently.
	arena := r.getArena()
	defer r.putArena(arena)
	cfg.Arena = arena

	trace := r.Trace
	onResult := r.OnResult
	if silent {
		trace, onResult = nil, nil
	}
	if trace != nil {
		cfg.SnapshotInterval = r.SnapshotInterval
	}
	start := metrics.Event{Type: metrics.EventRunStart, Label: bench, Policy: spec.String()}

	if r.workers() > 1 {
		// Buffer events so concurrent runs' streams don't interleave;
		// replay them contiguously behind run.start under the output
		// lock, and serialize OnResult with them.
		var buf *bufTracer
		if trace != nil {
			buf = &bufTracer{}
			cfg.Trace = buf
		}
		res, err := sim.RunContext(r.context(), cfg, w.Build(r.Seed))
		if err != nil {
			return sim.Result{}, err
		}
		if trace != nil || onResult != nil {
			r.outMu.Lock()
			defer r.outMu.Unlock()
			if trace != nil {
				trace.Emit(start)
				for _, ev := range buf.events {
					trace.Emit(ev)
				}
			}
			if onResult != nil {
				onResult(bench, spec, res)
			}
		}
		return res, nil
	}

	if trace != nil {
		trace.Emit(start)
		cfg.Trace = trace
	}
	res, err := sim.RunContext(r.context(), cfg, w.Build(r.Seed))
	if err != nil {
		return sim.Result{}, err
	}
	if onResult != nil {
		onResult(bench, spec, res)
	}
	return res, nil
}

// RunCaptured is Run with an oracle capture sink attached: it returns
// the result plus the captured access log, both memoized. If the plain
// result is already cached but no log exists yet, the simulation re-runs
// silently (no Trace events, no OnResult call) purely to record the
// stream — the run is deterministic, so the result is identical and its
// telemetry must not be emitted twice.
func (r *Runner) RunCaptured(bench string, spec sim.PolicySpec) (sim.Result, *oracle.Log) {
	e, err := r.table().DoIf(r.context(), r.key(bench, spec, 0, 0),
		func(e runEntry) bool { return e.log != nil },
		func(prev runEntry, cached bool) (runEntry, error) {
			cap := oracle.NewCapture()
			res, err := r.simulate(bench, spec, 0, 0, cap, cached)
			if err != nil {
				return runEntry{}, err
			}
			return runEntry{res: res, log: cap.Log()}, nil
		})
	if err != nil {
		r.fail(err)
		return sim.Result{}, oracle.NewCapture().Log()
	}
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
