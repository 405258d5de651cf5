package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"mlpcache/internal/metrics"
	"mlpcache/internal/simerr"
)

// TestRunContextPreCancelled checks an already-dead context stops the
// run before any cycle executes.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, smallConfig(100_000), microMix(7))
	if !errors.Is(err, simerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if res.Instructions != 0 {
		t.Fatalf("cancelled run still retired %d instructions", res.Instructions)
	}
}

// TestRunContextDeadlineMidRun checks the cooperative in-loop poll: a
// deadline far shorter than the run's wall time stops it with the
// typed sentinel, and the deadline cause survives the wrap.
func TestRunContextDeadlineMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, smallConfig(50_000_000), microMix(7))
	if !errors.Is(err, simerr.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.DeadlineExceeded", err)
	}
	// 50M instructions takes tens of seconds; cancellation must bite
	// within the poll granularity, not at run completion.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, cooperative check is not firing", elapsed)
	}
}

// TestRunMatchesRunContextBackground checks the default path is
// unchanged: Run is RunContext under a background context, bit-identical
// results included.
func TestRunMatchesRunContextBackground(t *testing.T) {
	a, err := Run(smallConfig(40_000), microMix(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), smallConfig(40_000), microMix(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.IPC != b.IPC || a.Mem.DemandMisses != b.Mem.DemandMisses {
		t.Fatal("RunContext(Background) diverged from Run")
	}
}

// TestRunMultiCancellation cancels a four-core run before it starts and
// again on a deadline mid-run: both must return ErrCancelled.
func TestRunMultiCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig()
	cfg.MaxInstructions = 5_000_000 // far more work than the deadline allows
	_, err := RunMultiContext(ctx, cfg, mixSources([]string{"mcf", "art"}, 4)...)
	if !errors.Is(err, simerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCancelled wrapping context.Canceled, got %v", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = RunMultiContext(ctx, cfg, mixSources([]string{"mcf", "art"}, 4)...)
	if !errors.Is(err, simerr.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCancelled wrapping context.DeadlineExceeded, got %v", err)
	}
}

// TestRunMultiPanicIsInternalError injects a panic into the miss path of
// a four-core run (via a tracer's miss.fill event, emitted as a fill is
// serviced) and requires the run to surface ErrInternal instead of
// unwinding into the caller.
func TestRunMultiPanicIsInternalError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstructions = 200_000
	fills := 0
	cfg.Trace = metrics.FuncTracer(func(ev metrics.Event) {
		if ev.Type != metrics.EventMissFill {
			return
		}
		fills++
		if fills == 100 {
			panic("injected fault")
		}
	})
	res, err := RunMulti(cfg, mixSources([]string{"mcf", "art"}, 4)...)
	if !errors.Is(err, simerr.ErrInternal) {
		t.Fatalf("want ErrInternal, got %v", err)
	}
	if res.Cores != nil {
		t.Fatalf("a panicked run returned a partial result: %+v", res)
	}
}
