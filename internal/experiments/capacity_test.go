package experiments

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"mlpcache/internal/sim"
	"mlpcache/internal/simerr"
)

// TestRunnerCapacityEvicts checks the memo-table bound: with Capacity
// set, old entries are evicted LRU and re-running an evicted
// configuration still works (it just re-simulates).
func TestRunnerCapacityEvicts(t *testing.T) {
	r := NewRunner(20_000, 1)
	r.Benchmarks = []string{"mcf"}
	r.Capacity = 1
	lru := sim.PolicySpec{Kind: sim.PolicyLRU}
	fifo := sim.PolicySpec{Kind: sim.PolicyFIFO}

	a := r.Run("mcf", lru)
	r.Run("mcf", fifo)
	if n := len(r.CachedKeys()); n != 1 {
		t.Fatalf("capacity-1 memo table holds %d keys, want 1", n)
	}
	b := r.Run("mcf", lru) // evicted: re-simulates, deterministic
	if a.Cycles != b.Cycles || a.IPC != b.IPC {
		t.Fatal("re-run after eviction diverged from original result")
	}
}

// TestRunnerUnboundedDefault checks Capacity=0 keeps every key (the
// CLI's historical behavior).
func TestRunnerUnboundedDefault(t *testing.T) {
	r := NewRunner(20_000, 1)
	r.Benchmarks = []string{"mcf"}
	for _, k := range []sim.PolicyKind{sim.PolicyLRU, sim.PolicyFIFO, sim.PolicyRandom} {
		r.Run("mcf", sim.PolicySpec{Kind: k})
	}
	if n := len(r.CachedKeys()); n != 3 {
		t.Fatalf("unbounded memo table holds %d keys, want 3", n)
	}
}

// TestRunnerContextCancelled checks a cancelled runner context surfaces
// as a typed error from the experiment entry points instead of a
// rendered partial table, for single-core figures, the sensitivity and
// seed sweeps, and multi-core runs alike.
func TestRunnerContextCancelled(t *testing.T) {
	for _, id := range []string{"tab3", "sens-mem", "stab", "multicore-contention"} {
		t.Run(id, func(t *testing.T) {
			r := NewRunner(5_000_000, 1)
			r.Benchmarks = []string{"mcf"}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			r.Context = ctx

			var buf bytes.Buffer
			err := RunByID(r, id, "text", &buf)
			if !errors.Is(err, simerr.ErrCancelled) {
				t.Fatalf("RunByID under cancelled context = %v, want ErrCancelled", err)
			}
			if buf.Len() != 0 {
				t.Fatalf("cancelled experiment still rendered %d bytes", buf.Len())
			}
			if err := r.Err(); !errors.Is(err, simerr.ErrCancelled) {
				t.Fatalf("runner.Err = %v, want ErrCancelled", err)
			}
			if n := len(r.CachedKeys()); n != 0 {
				t.Fatalf("cancelled runs were memoized: %d keys", n)
			}
		})
	}
}
