package cpu

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"mlpcache/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_cycles.json from the current code")

const goldenCyclesFile = "testdata/golden_cycles.json"

// randMem is a memory system with random latencies (zero included) and
// bursts of MSHR rejections, deterministic in its seed and the order of
// the core's accesses. Each accepted access draws its latency uniformly
// from lats.
type randMem struct {
	rng      *trace.RNG
	lats     []uint64
	burst    int // rejections left in the current burst
	accesses uint64
	// ports is the core's MemPorts. portBound counts the cycles whose
	// access attempts, rejected ones included, took every port.
	ports     int
	now       uint64
	inCycle   int
	portBound uint64
}

var randLatencies = []uint64{0, 0, 1, 2, 3, 5, 12, 40, 150, 400}

// edgeLatencies sit on both sides of 64 and 128 cycles, where any
// scheduling structure keyed on a cycle number modulo a power of two
// wraps, with zero, one and a far-off 500 around them.
var edgeLatencies = []uint64{0, 1, 62, 63, 64, 65, 66, 127, 128, 129, 130, 500}

func (m *randMem) Access(addr uint64, write bool, now uint64) (uint64, bool) {
	if now != m.now {
		m.now, m.inCycle = now, 0
	}
	if m.inCycle++; m.inCycle == m.ports {
		m.portBound++
	}
	if m.burst == 0 && m.rng.Bool(0.04) {
		m.burst = 1 + m.rng.Intn(6)
	}
	if m.burst > 0 {
		m.burst--
		return 0, false
	}
	m.accesses++
	return now + m.lats[m.rng.Intn(len(m.lats))], true
}

// randProgram returns n instructions of all seven kinds with dependence
// distances of 0–200: a third short (chains inside the window), the rest
// uniform (mostly producers that retired or precede the stream).
func randProgram(seed uint64, n int) []trace.Instr {
	rng := trace.NewRNG(seed)
	ins := make([]trace.Instr, n)
	for i := range ins {
		in := trace.Instr{Kind: trace.Kind(rng.Intn(int(trace.Branch) + 1))}
		if rng.Intn(3) == 0 {
			in.Dep = int32(rng.Intn(9))
		} else {
			in.Dep = int32(rng.Intn(201))
		}
		ins[i] = withOperands(rng, in)
	}
	return ins
}

// memProgram returns n instructions, four in five of them loads and
// stores and the rest of any kind, with dependence distances of 0–4, so
// several memory instructions are ready when the ports run out.
func memProgram(seed uint64, n int) []trace.Instr {
	rng := trace.NewRNG(seed)
	ins := make([]trace.Instr, n)
	for i := range ins {
		var in trace.Instr
		switch r := rng.Intn(10); {
		case r < 5:
			in.Kind = trace.Load
		case r < 8:
			in.Kind = trace.Store
		default:
			in.Kind = trace.Kind(rng.Intn(int(trace.Branch) + 1))
		}
		in.Dep = int32(rng.Intn(5))
		ins[i] = withOperands(rng, in)
	}
	return ins
}

// withOperands draws the address of a load or store and the id and
// outcome of a branch.
func withOperands(rng *trace.RNG, in trace.Instr) trace.Instr {
	switch in.Kind {
	case trace.Load, trace.Store:
		in.Addr = uint64(rng.Intn(1<<12)) * 64
	case trace.Branch:
		in.Addr = uint64(rng.Intn(64))
		in.Taken = rng.Bool(0.6)
		in.Mispredict = rng.Bool(0.05)
	}
	return in
}

// goldenConfigs are the corner configurations the cycle table covers
// against a memory drawing from randLatencies.
func goldenConfigs() map[string]Config {
	cfgs := map[string]Config{"default": DefaultConfig()}
	small := DefaultConfig()
	small.ROBEntries = 16
	cfgs["rob16"] = small
	onePort := DefaultConfig()
	onePort.MemPorts = 1
	cfgs["memports1"] = onePort
	sb := DefaultConfig()
	sb.StoreBufferEntries = 2
	cfgs["storebuffer2"] = sb
	zero := DefaultConfig()
	zero.IntLat = 0
	cfgs["intlat0"] = zero
	corner := DefaultConfig()
	corner.ROBEntries = 16
	corner.MemPorts = 1
	corner.StoreBufferEntries = 2
	corner.IntLat = 0
	corner.IssueWidth = 3
	cfgs["corner"] = corner
	return cfgs
}

// portConfigs are the configurations the cycle table runs memProgram
// on: one, two and three memory ports behind a one-entry store buffer
// and a three-wide issue stage, so a cycle's scan often takes every port
// with memory instructions still ready behind them.
func portConfigs() map[string]Config {
	cfgs := map[string]Config{}
	for ports := 1; ports <= 3; ports++ {
		cfg := DefaultConfig()
		cfg.MemPorts = ports
		cfg.StoreBufferEntries = 1
		cfg.IssueWidth = 3
		cfgs[fmt.Sprintf("portbound-memports%d", ports)] = cfg
	}
	return cfgs
}

// edgeConfigs are the configurations the cycle table covers against a
// memory drawing from edgeLatencies: functional-unit latencies on both
// sides of 64 and 128 cycles, zero-latency integer ops, and windows of
// one bitmap word and of four words with the last one partly used.
func edgeConfigs() map[string]Config {
	cfgs := map[string]Config{"edge-default": DefaultConfig()}
	for _, lat := range []uint64{63, 64, 65, 127, 128} {
		cfg := DefaultConfig()
		cfg.IntLat, cfg.MulLat, cfg.FPLat, cfg.DivLat = lat, lat, lat, lat
		cfgs[fmt.Sprintf("edge-lat%d", lat)] = cfg
	}
	zero := DefaultConfig()
	zero.IntLat = 0
	cfgs["edge-intlat0"] = zero
	for _, rob := range []int{64, 200} {
		cfg := DefaultConfig()
		cfg.ROBEntries = rob
		cfgs[fmt.Sprintf("edge-rob%d", rob)] = cfg
	}
	mixed := DefaultConfig()
	mixed.ROBEntries = 200
	mixed.IntLat, mixed.MulLat, mixed.FPLat, mixed.DivLat = 0, 63, 64, 65
	cfgs["edge-mixed"] = mixed
	return cfgs
}

// traceCycles drives a core over prog cycle by cycle and digests every
// cycle's (cycle, retired, DidWork, NextEvent) and the final Stats. With
// skip set it fast-forwards idle cycles the way the run loops do. The
// core is c after a Reset, or a new one when c is nil. It also returns
// the memory's count of cycles that took every port.
func traceCycles(t *testing.T, c *CPU, cfg Config, prog []trace.Instr, lats []uint64, memSeed uint64, skip bool) (string, Stats, uint64) {
	t.Helper()
	mem := &randMem{rng: trace.NewRNG(memSeed), lats: lats, ports: cfg.MemPorts}
	if c == nil {
		c = New(cfg, mem, trace.NewSliceSource(prog))
	} else {
		c.Reset(cfg, mem, trace.NewSliceSource(prog))
	}
	h := fnv.New64a()
	for now := uint64(1); ; now++ {
		if now > 50*uint64(len(prog))+10_000 {
			t.Fatalf("core did not finish by cycle %d", now)
		}
		retired := c.Cycle(now)
		work := c.DidWork()
		next := c.NextEvent(now)
		fmt.Fprintf(h, "%d %d %t %d\n", now, retired, work, next)
		if c.Finished() {
			break
		}
		if skip && !work && next != ^uint64(0) && next > now+1 {
			c.NoteSkipped(next - now - 1)
			now = next - 1
		}
	}
	fmt.Fprintf(h, "%+v %d", c.Stats(), mem.accesses)
	return fmt.Sprintf("%016x", h.Sum64()), c.Stats(), mem.portBound
}

// TestGoldenCycles pins the core's cycle-level behaviour on seeded random
// programs across the corner, edge and port-bound configurations: what
// retires each cycle, whether the cycle counts as work, the next event
// it reports, and the final counters. Any change to the issue logic that
// is not a pure speed-up shows here. Regenerate after a deliberate
// behaviour change with
//
//	go test ./internal/cpu -run TestGoldenCycles -update-golden
func TestGoldenCycles(t *testing.T) {
	got := map[string]string{}
	var total Stats
	portBound := map[string]uint64{}
	record := func(name string, cfg Config, program func(uint64, int) []trace.Instr, lats []uint64, seeds uint64) {
		for seed := uint64(1); seed <= seeds; seed++ {
			prog := program(seed, 20_000)
			for _, skip := range []bool{false, true} {
				key := fmt.Sprintf("%s/seed%d/skip=%t", name, seed, skip)
				var st Stats
				var bound uint64
				got[key], st, bound = traceCycles(t, nil, cfg, prog, lats, seed*977, skip)
				portBound[name] += bound
				total.MSHRRejects += st.MSHRRejects
				total.StoreBufferFullEvents += st.StoreBufferFullEvents
				total.Mispredicts += st.Mispredicts
				total.MemStallEpisodes += st.MemStallEpisodes
				total.FullWindowCycles += st.FullWindowCycles
			}
		}
	}
	for name, cfg := range goldenConfigs() {
		record(name, cfg, randProgram, randLatencies, 3)
	}
	for name, cfg := range edgeConfigs() {
		record(name, cfg, randProgram, edgeLatencies, 2)
	}
	for name, cfg := range portConfigs() {
		record(name, cfg, memProgram, randLatencies, 3)
	}
	// The table is only as good as the paths it reaches.
	if total.MSHRRejects == 0 || total.StoreBufferFullEvents == 0 || total.Mispredicts == 0 ||
		total.MemStallEpisodes == 0 || total.FullWindowCycles == 0 {
		t.Fatalf("random programs missed a path: %+v", total)
	}
	for name := range portConfigs() {
		if portBound[name] == 0 {
			t.Fatalf("%s: no cycle took every memory port", name)
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenCyclesFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCyclesFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenCyclesFile)
	if err != nil {
		t.Fatalf("read golden table: %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("parse golden table: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden table has %d cases, the test runs %d", len(want), len(got))
	}
	for key, d := range got {
		if want[key] != d {
			t.Errorf("%s: digest %s, golden %s", key, d, want[key])
		}
	}
}

// TestResetMidRun stops a core with completions in flight on the wheel
// and on the far heap, resets it for a window of the same or another
// size, and checks that the rerun matches a new core cycle for cycle.
func TestResetMidRun(t *testing.T) {
	prog := randProgram(4, 5_000)
	for _, rob := range []int{16, 128, 200} {
		cfg := DefaultConfig()
		cfg.ROBEntries = rob
		want, _, _ := traceCycles(t, nil, cfg, prog, edgeLatencies, 5, true)
		for _, stop := range []uint64{100, 500, 1_000, 2_000, 3_000, 5_000} {
			mem := &randMem{rng: trace.NewRNG(stop), lats: edgeLatencies}
			c := New(DefaultConfig(), mem, trace.NewSliceSource(randProgram(stop, 20_000)))
			for now := uint64(1); now < stop || inFlight(c)-len(c.far) < 8 || len(c.far) == 0; now++ {
				if c.Finished() {
					t.Fatal("the core finished before holding 8 wheel and 1 far completions at once")
				}
				c.Cycle(now)
			}
			if got, _, _ := traceCycles(t, c, cfg, prog, edgeLatencies, 5, true); got != want {
				t.Errorf("ROB %d, stopped after cycle %d: reset core digests %s, new core %s", rob, stop, got, want)
			}
		}
	}
}
