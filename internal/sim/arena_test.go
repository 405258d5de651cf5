package sim

import (
	"reflect"
	"runtime/debug"
	"testing"

	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// TestArenaRunsBitIdentical is the arena's correctness anchor: a run
// drawing every bulk component from a warm arena must reproduce a cold
// run bit for bit, single- and multi-core. The arena's whole contract is
// reset-to-just-built state on reuse; any counter a Reset misses shows
// up here as a DeepEqual diff.
func TestArenaRunsBitIdentical(t *testing.T) {
	mcf, _ := workload.ByName("mcf")
	art, _ := workload.ByName("art")

	t.Run("single-core", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.MaxInstructions = 40_000
		cfg.Policy = PolicySpec{Kind: PolicySBAR, Seed: 7}
		cold, err := Run(cfg, mcf.Build(11))
		if err != nil {
			t.Fatalf("cold run failed: %v", err)
		}
		cfg.Arena = NewArena()
		if _, err := Run(cfg, art.Build(3)); err != nil { // populate the pools
			t.Fatalf("warm-up run failed: %v", err)
		}
		warm, err := Run(cfg, mcf.Build(11))
		if err != nil {
			t.Fatalf("arena run failed: %v", err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("arena-backed run diverges from cold run:\nwarm: %+v\ncold: %+v", warm, cold)
		}
	})

	t.Run("multi-serial", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.MaxInstructions = 30_000
		cfg.Policy = PolicySpec{Kind: PolicyLIN}
		cold, err := RunMulti(cfg, mcf.Build(11), art.Build(12))
		if err != nil {
			t.Fatalf("cold run failed: %v", err)
		}
		cfg.Arena = NewArena()
		if _, err := RunMulti(cfg, art.Build(5), mcf.Build(6)); err != nil {
			t.Fatalf("warm-up run failed: %v", err)
		}
		warm, err := RunMulti(cfg, mcf.Build(11), art.Build(12))
		if err != nil {
			t.Fatalf("arena run failed: %v", err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("arena-backed run diverges from cold run:\nwarm: %+v\ncold: %+v", warm, cold)
		}
	})
}

// TestArenaSharedAcrossConfigs exercises geometry matching: runs with a
// different L2 shape must not reuse the mismatched cache, a pooled core
// must resize its window (ROB ring, ready bitmap and completion wheel)
// for a run with another window size, and the arena must keep runs
// correct when configurations interleave.
func TestArenaSharedAcrossConfigs(t *testing.T) {
	mcf, _ := workload.ByName("mcf")
	arena := NewArena()

	small := DefaultConfig()
	small.MaxInstructions = 10_000
	small.Arena = arena

	big := small
	big.L2.SizeBytes = small.L2.SizeBytes * 2

	rob16, rob200 := small, small
	rob16.CPU.ROBEntries = 16
	rob200.CPU.ROBEntries = 200

	checked := []Config{small, rob16, rob200}
	want := make([]Result, len(checked))
	for i, cfg := range checked {
		cfg.Arena = nil
		r, err := Run(cfg, mcf.Build(11))
		if err != nil {
			t.Fatalf("cold run (ROB %d) failed: %v", cfg.CPU.ROBEntries, err)
		}
		want[i] = r
	}
	for i := 0; i < 3; i++ {
		if _, err := Run(big, mcf.Build(uint64(20+i))); err != nil {
			t.Fatalf("big run failed: %v", err)
		}
		for j, cfg := range checked {
			got, err := Run(cfg, mcf.Build(11))
			if err != nil {
				t.Fatalf("run (ROB %d) failed: %v", cfg.CPU.ROBEntries, err)
			}
			if !reflect.DeepEqual(got, want[j]) {
				t.Fatalf("interleaved arena runs (ROB %d) diverge on iteration %d", cfg.CPU.ROBEntries, i)
			}
		}
	}
}

// TestWarmRunAllocations pins what a warm-arena run allocates, source
// builds included. The single-core input is a 200k-instruction LRU run
// over a 128-block stream that never leaves the L1 (the bench
// l1-resident shape): everything the core needs per run, its fetch
// buffer among them, must come back with the arena-pooled core rather
// than be built again. The two-core input (mcf+art, 40k instructions
// per core) draws two of every per-core component and the shared L2 and
// tables. A pool that stops recycling raises a pin: a cold two-core run
// allocates 187 times. The collector is off while counting: a GC
// cycle that starts mid-run allocates on its own account, which moved
// the two-core count by one or two under -race.
func TestWarmRunAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mcf, _ := workload.ByName("mcf")
	art, _ := workload.ByName("art")
	inputs := []struct {
		name string
		want float64
		run  func(cfg Config) error
	}{
		{"single-core", 14, func(cfg Config) error {
			cfg.MaxInstructions = 200_000
			src := trace.NewStream(trace.StreamConfig{
				Blocks: 128, Gap: 6, Touches: 2, FPFrac: 0.3, Mispredict: 0.02, Stores: 0.3, Seed: 42,
			})
			_, err := Run(cfg, src)
			return err
		}},
		{"two-core", 91, func(cfg Config) error {
			cfg.MaxInstructions = 40_000
			_, err := RunMulti(cfg, mcf.Build(11), art.Build(12))
			return err
		}},
	}
	for _, in := range inputs {
		cfg := DefaultConfig()
		cfg.Policy = PolicySpec{Kind: PolicyLRU}
		cfg.Arena = NewArena()
		run := func() {
			if err := in.run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools
		if got := testing.AllocsPerRun(3, run); got != in.want {
			t.Errorf("%s: warm-arena run allocates %v times, want %v", in.name, got, in.want)
		}
	}
}
