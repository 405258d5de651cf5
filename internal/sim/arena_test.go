package sim

import (
	"reflect"
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
		s := cfg.Arena.Stats()
		if s.CacheReuses == 0 || s.MSHRReuses == 0 || s.CPUReuses == 0 || s.TableReuses == 0 {
			t.Fatalf("arena reported no reuse after a warm run: %+v", s)
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
// different L2 shape must not reuse the mismatched cache, and the arena
// must keep runs correct when configurations interleave.
func TestArenaSharedAcrossConfigs(t *testing.T) {
	mcf, _ := workload.ByName("mcf")
	arena := NewArena()

	small := DefaultConfig()
	small.MaxInstructions = 10_000
	small.Arena = arena

	big := small
	big.L2.SizeBytes = small.L2.SizeBytes * 2

	cold := small
	cold.Arena = nil

	want, err := Run(cold, mcf.Build(11))
	if err != nil {
		t.Fatalf("cold run failed: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := Run(big, mcf.Build(uint64(20+i))); err != nil {
			t.Fatalf("big run failed: %v", err)
		}
		got, err := Run(small, mcf.Build(11))
		if err != nil {
			t.Fatalf("small run failed: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interleaved arena runs diverge on iteration %d", i)
		}
	}
}

// TestWarmRunAllocations pins what a warm-arena single-core run
// allocates, source build included: a 200k-instruction LRU run over a
// 128-block stream that never leaves the L1 (the bench l1-resident
// shape). Everything the core needs per run, its fetch buffer among
// them, must come back with the arena-pooled core rather than be built
// again.
func TestWarmRunAllocations(t *testing.T) {
	const want = 14
	cfg := DefaultConfig()
	cfg.MaxInstructions = 200_000
	cfg.Policy = PolicySpec{Kind: PolicyLRU}
	cfg.Arena = NewArena()
	run := func() {
		src := trace.NewStream(trace.StreamConfig{
			Blocks: 128, Gap: 6, Touches: 2, FPFrac: 0.3, Mispredict: 0.02, Stores: 0.3, Seed: 42,
		})
		if _, err := Run(cfg, src); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools
	if got := testing.AllocsPerRun(3, run); got != want {
		t.Fatalf("warm-arena run allocates %v times, want %d", got, want)
	}
}
