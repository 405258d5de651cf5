package experiments

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"mlpcache/internal/metrics"
	"mlpcache/internal/sim"
)

// TestParallelRunnerMatchesSerial runs the same experiments serially and
// on a worker pool and requires identical results, identical memo
// tables, and intact per-run telemetry framing: every run.start boundary
// present exactly once, each fresh run's metrics document observed once,
// and one of each per distinct simulation — Stability's runs off the
// runner's seed included.
func TestParallelRunnerMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	build := func(workers int) (*Runner, *[]metrics.Event, *[]string) {
		r := NewRunner(150_000, 42)
		r.Benchmarks = []string{"mcf", "parser", "ammp"}
		r.Workers = workers
		var (
			mu     sync.Mutex
			events []metrics.Event
			seen   []string
		)
		r.Trace = metrics.FuncTracer(func(ev metrics.Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		})
		r.OnResult = func(hdr metrics.RunHeader, reg *metrics.Registry) {
			mu.Lock()
			seen = append(seen, hdr.Bench+"|"+hdr.Policy)
			mu.Unlock()
		}
		return r, &events, &seen
	}

	for _, tc := range []struct {
		name string
		run  func(*Runner) any
		runs int // distinct simulations
	}{
		{"Figure9", func(r *Runner) any { return Figure9(r) }, 9},      // 3 benchmarks × 3 policies
		{"Stability", func(r *Runner) any { return Stability(r) }, 27}, // × 3 seeds
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, _, serialSeen := build(1)
			parallel, parEvents, parSeen := build(4)
			want := tc.run(serial)
			got := tc.run(parallel)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("parallel %s diverged:\nserial   %+v\nparallel %+v", tc.name, want, got)
			}
			if sk, pk := serial.CachedKeys(), parallel.CachedKeys(); !reflect.DeepEqual(sk, pk) {
				t.Fatalf("memo tables diverged:\nserial   %v\nparallel %v", sk, pk)
			}

			sort.Strings(*serialSeen)
			sort.Strings(*parSeen)
			if !reflect.DeepEqual(*serialSeen, *parSeen) {
				t.Fatalf("OnResult runs diverged:\nserial   %v\nparallel %v", *serialSeen, *parSeen)
			}
			distinct := map[string]bool{}
			for _, key := range *parSeen {
				distinct[key] = true
			}
			if len(*parSeen) != tc.runs || len(distinct) != tc.runs {
				t.Fatalf("OnResult saw %d runs, %d distinct, want %d: %v", len(*parSeen), len(distinct), tc.runs, *parSeen)
			}

			// Framing: the event stream must decompose into one contiguous
			// block per fresh run, each opened by exactly one run.start.
			starts := map[string]int{}
			for _, ev := range *parEvents {
				if ev.Type == metrics.EventRunStart {
					starts[ev.Label+"|"+ev.Policy]++
				}
			}
			if len(starts) != tc.runs {
				t.Fatalf("saw %d distinct run.start boundaries, want %d", len(starts), tc.runs)
			}
			for key, n := range starts {
				if n != 1 {
					t.Fatalf("run.start for %s emitted %d times", key, n)
				}
			}
		})
	}
}

// TestForBenchesOrder checks result ordering is input ordering at any
// worker count.
func TestForBenchesOrder(t *testing.T) {
	benches := []string{"b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7"}
	for _, workers := range []int{1, 3, 8} {
		r := &Runner{Workers: workers}
		out := forBenches(r, benches, func(b string) string { return b + "!" })
		for i, b := range benches {
			if out[i] != b+"!" {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, out[i], b+"!")
			}
		}
	}
}

// TestRunCapturedMemoizes checks that RunCaptured reuses both the
// result and the log, and that a plain Run first does not duplicate
// telemetry when the log is captured afterwards.
func TestRunCapturedMemoizes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(120_000, 42)
	r.Workers = 1
	var starts int
	r.Trace = metrics.FuncTracer(func(ev metrics.Event) {
		if ev.Type == metrics.EventRunStart {
			starts++
		}
	})
	spec := sim.PolicySpec{Kind: sim.PolicyLRU}

	res1 := r.Run("mcf", spec) // fresh: emits run.start
	res2, log := r.RunCaptured("mcf", spec)
	if starts != 1 {
		t.Fatalf("silent capture re-run emitted telemetry: %d run.start events", starts)
	}
	if res1.IPC != res2.IPC || res1.Mem.DemandMisses != res2.Mem.DemandMisses {
		t.Fatalf("captured re-run diverged from memoized result")
	}
	if log.LiveMisses != res1.Mem.DemandMisses {
		t.Fatalf("captured log %d misses, result %d", log.LiveMisses, res1.Mem.DemandMisses)
	}
	_, log2 := r.RunCaptured("mcf", spec)
	if log2 != log {
		t.Fatal("second RunCaptured did not reuse the memoized log")
	}
	if starts != 1 {
		t.Fatalf("memoized RunCaptured emitted telemetry: %d run.start events", starts)
	}
}
