package cpu

import (
	"math/bits"
	"testing"

	"mlpcache/internal/trace"
)

// fakeMem services loads with a fixed latency and optional rejection
// schedule.
type fakeMem struct {
	latency   uint64
	rejects   int // reject the first N accesses
	accesses  int
	writeSeen int
}

func (m *fakeMem) Access(addr uint64, write bool, now uint64) (uint64, bool) {
	if m.rejects > 0 {
		m.rejects--
		return 0, false
	}
	m.accesses++
	if write {
		m.writeSeen++
	}
	return now + m.latency, true
}

// run drives the core to completion and returns total cycles.
func run(t testing.TB, c *CPU, limit uint64) uint64 {
	t.Helper()
	var now uint64
	for now = 1; now < limit; now++ {
		c.Cycle(now)
		if c.Finished() {
			return now
		}
		if !c.DidWork() {
			if wake := c.NextEvent(now); wake != ^uint64(0) && wake > now+1 {
				c.NoteSkipped(wake - now - 1)
				now = wake - 1
			}
		}
	}
	t.Fatalf("core did not finish within %d cycles", limit)
	return 0
}

func repeat(in trace.Instr, n int) []trace.Instr {
	out := make([]trace.Instr, n)
	for i := range out {
		out[i] = in
	}
	return out
}

func TestIndependentALUIPCIsRetireWidth(t *testing.T) {
	const n = 8000
	c := New(DefaultConfig(), &fakeMem{latency: 2}, trace.NewSliceSource(repeat(trace.Instr{Kind: trace.Int}, n)))
	cycles := run(t, c, 100_000)
	ipc := float64(n) / float64(cycles)
	if ipc < 7 || ipc > 8 {
		t.Fatalf("independent ALU IPC = %.2f, want ≈ 8", ipc)
	}
	if c.Stats().Retired != n {
		t.Fatalf("retired %d, want %d", c.Stats().Retired, n)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	const n = 2000
	ins := repeat(trace.Instr{Kind: trace.Int, Dep: 1}, n)
	c := New(DefaultConfig(), &fakeMem{latency: 2}, trace.NewSliceSource(ins))
	cycles := run(t, c, 100_000)
	// A 1-cycle chain retires ~1 instruction per cycle.
	if ipc := float64(n) / float64(cycles); ipc > 1.2 {
		t.Fatalf("dependent-chain IPC = %.2f, want ≈ 1", ipc)
	}
}

func TestFunctionalUnitLatencies(t *testing.T) {
	// A chain of dependent divides (16 cycles each) is 16x slower than a
	// chain of dependent INTs.
	mk := func(k trace.Kind) uint64 {
		ins := repeat(trace.Instr{Kind: k, Dep: 1}, 500)
		c := New(DefaultConfig(), &fakeMem{latency: 2}, trace.NewSliceSource(ins))
		return run(t, c, 1_000_000)
	}
	intCycles, divCycles := mk(trace.Int), mk(trace.Div)
	ratio := float64(divCycles) / float64(intCycles)
	if ratio < 12 || ratio > 20 {
		t.Fatalf("div/int cycle ratio = %.1f, want ≈ 16", ratio)
	}
}

func TestLoadChainPaysMemoryLatency(t *testing.T) {
	const n = 100
	ins := repeat(trace.Instr{Kind: trace.Load, Addr: 64, Dep: 1}, n)
	mem := &fakeMem{latency: 100}
	c := New(DefaultConfig(), mem, trace.NewSliceSource(ins))
	cycles := run(t, c, 1_000_000)
	if cycles < 100*uint64(n-1) {
		t.Fatalf("dependent loads finished in %d cycles, want >= %d", cycles, 100*(n-1))
	}
	if mem.accesses != n {
		t.Fatalf("memory saw %d accesses, want %d", mem.accesses, n)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	const n = 100
	ins := repeat(trace.Instr{Kind: trace.Load, Addr: 64}, n)
	c := New(DefaultConfig(), &fakeMem{latency: 100}, trace.NewSliceSource(ins))
	cycles := run(t, c, 1_000_000)
	// With 2 memory ports and 100-cycle latency, 100 loads overlap
	// heavily: far faster than serial (100·100).
	if cycles > 2000 {
		t.Fatalf("independent loads took %d cycles — no overlap?", cycles)
	}
}

func TestWindowLimitsParallelism(t *testing.T) {
	// Loads spaced by window-filling filler: only window/(gap+1) loads
	// can be outstanding. With gap 127 (window 128), loads serialize.
	var ins []trace.Instr
	for i := 0; i < 50; i++ {
		ins = append(ins, trace.Instr{Kind: trace.Load, Addr: 64})
		ins = append(ins, repeat(trace.Instr{Kind: trace.Int, Dep: 1}, 127)...)
	}
	c := New(DefaultConfig(), &fakeMem{latency: 300}, trace.NewSliceSource(ins))
	cycles := run(t, c, 1_000_000)
	if cycles < 50*150 {
		t.Fatalf("window should have limited overlap; took only %d cycles", cycles)
	}
}

func TestStoresRetireWithoutWaiting(t *testing.T) {
	const n = 200
	ins := repeat(trace.Instr{Kind: trace.Store, Addr: 64}, n)
	mem := &fakeMem{latency: 400}
	c := New(DefaultConfig(), mem, trace.NewSliceSource(ins))
	cycles := run(t, c, 1_000_000)
	// 200 stores at 2 ports/cycle with a 128-entry store buffer: the
	// buffer fills (128), then drains at the 400-cycle latency.
	if cycles > 5000 {
		t.Fatalf("stores blocked the window: %d cycles", cycles)
	}
	if mem.writeSeen != n {
		t.Fatalf("memory saw %d writes, want %d", mem.writeSeen, n)
	}
	if c.Stats().Stores != n {
		t.Fatalf("retired %d stores, want %d", c.Stats().Stores, n)
	}
}

func TestStoreBufferFullBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StoreBufferEntries = 2
	ins := repeat(trace.Instr{Kind: trace.Store, Addr: 64}, 50)
	c := New(cfg, &fakeMem{latency: 100}, trace.NewSliceSource(ins))
	cycles := run(t, c, 1_000_000)
	if c.Stats().StoreBufferFullEvents == 0 {
		t.Fatal("expected store-buffer-full events")
	}
	// 50 stores through a 2-entry buffer at 100-cycle drain ≈ 2 per 100.
	if cycles < 2000 {
		t.Fatalf("tiny store buffer should throttle: %d cycles", cycles)
	}
}

func TestMispredictStallsFetch(t *testing.T) {
	mk := func(mispredict bool) uint64 {
		var ins []trace.Instr
		for i := 0; i < 200; i++ {
			ins = append(ins, trace.Instr{Kind: trace.Branch, Mispredict: mispredict})
			ins = append(ins, repeat(trace.Instr{Kind: trace.Int}, 7)...)
		}
		c := New(DefaultConfig(), &fakeMem{latency: 2}, trace.NewSliceSource(ins))
		cycles := run(t, c, 1_000_000)
		if mispredict && c.Stats().Mispredicts != 200 {
			t.Fatalf("mispredicts = %d, want 200", c.Stats().Mispredicts)
		}
		return cycles
	}
	good, bad := mk(false), mk(true)
	// Each mispredict costs >= the 15-cycle minimum penalty.
	if bad < good+200*15 {
		t.Fatalf("mispredicted run %d vs clean %d: penalty missing", bad, good)
	}
}

func TestMSHRRejectionRetries(t *testing.T) {
	ins := repeat(trace.Instr{Kind: trace.Load, Addr: 64}, 5)
	mem := &fakeMem{latency: 10, rejects: 7}
	c := New(DefaultConfig(), mem, trace.NewSliceSource(ins))
	run(t, c, 100_000)
	if c.Stats().MSHRRejects != 7 {
		t.Fatalf("rejects = %d, want 7", c.Stats().MSHRRejects)
	}
	if mem.accesses != 5 {
		t.Fatalf("accesses = %d, want 5 (all retried)", mem.accesses)
	}
}

func TestMemStallAccounting(t *testing.T) {
	// One isolated long load between filler: the window drains, then
	// stalls on the load.
	var ins []trace.Instr
	ins = append(ins, trace.Instr{Kind: trace.Load, Addr: 64})
	ins = append(ins, repeat(trace.Instr{Kind: trace.Int, Dep: 1}, 4)...)
	c := New(DefaultConfig(), &fakeMem{latency: 500}, trace.NewSliceSource(ins))
	run(t, c, 100_000)
	st := c.Stats()
	if st.MemStallCycles < 400 {
		t.Fatalf("mem stall cycles = %d, want most of the 500-cycle load", st.MemStallCycles)
	}
	if st.MemStallEpisodes != 1 {
		t.Fatalf("episodes = %d, want 1", st.MemStallEpisodes)
	}
}

func TestFinishedAndEmptyRun(t *testing.T) {
	c := New(DefaultConfig(), &fakeMem{latency: 2}, trace.NewSliceSource(nil))
	c.Cycle(1)
	if !c.Finished() {
		t.Fatal("empty source should finish immediately")
	}
}

func TestDepBeyondWindowTreatedAsRetired(t *testing.T) {
	// Dep distance far larger than anything in flight: ready at once.
	ins := []trace.Instr{
		{Kind: trace.Int},
		{Kind: trace.Int, Dep: 2000},
	}
	c := New(DefaultConfig(), &fakeMem{latency: 2}, trace.NewSliceSource(ins))
	cycles := run(t, c, 1000)
	if cycles > 10 {
		t.Fatalf("distant dep stalled the core: %d cycles", cycles)
	}
}

// inFlight counts the completions the core holds: the wheel's set bits
// plus the far heap's entries.
func inFlight(c *CPU) int {
	n := len(c.far)
	for _, w := range c.wheel {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestCompletionHeapBounded runs a long L1-resident stream, which stalls
// rarely, through the core: the completion wheel and far heap must hold
// only in-flight results, never more than the window and store buffer
// can hold, however long the core goes without idling.
func TestCompletionHeapBounded(t *testing.T) {
	const n = 2_000_000
	cfg := DefaultConfig()
	src := trace.NewLimit(trace.NewStream(trace.StreamConfig{
		Blocks: 128, Gap: 6, Touches: 2, Stores: 0.3, Mispredict: 0.02, Seed: 1,
	}), n)
	c := New(cfg, &fakeMem{latency: 3}, src)
	bound, peak := cfg.ROBEntries+cfg.StoreBufferEntries, 0
	for now := uint64(1); !c.Finished(); now++ {
		c.Cycle(now)
		peak = max(peak, inFlight(c))
		if !c.DidWork() {
			if wake := c.NextEvent(now); wake != ^uint64(0) && wake > now+1 {
				c.NoteSkipped(wake - now - 1)
				now = wake - 1
			}
		}
	}
	if peak > bound {
		t.Fatalf("%d completions in flight at peak, bound %d", peak, bound)
	}
	if c.Stats().Retired != n {
		t.Fatalf("retired %d, want %d", c.Stats().Retired, n)
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	cases := []func(){
		func() { New(Config{}, &fakeMem{}, trace.NewSliceSource(nil)) },
		func() { New(DefaultConfig(), nil, trace.NewSliceSource(nil)) },
		func() { New(DefaultConfig(), &fakeMem{}, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}
