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
// the core's accesses.
type randMem struct {
	rng      *trace.RNG
	burst    int // rejections left in the current burst
	accesses uint64
}

var randLatencies = []uint64{0, 0, 1, 2, 3, 5, 12, 40, 150, 400}

func (m *randMem) Access(addr uint64, write bool, now uint64) (uint64, bool) {
	if m.burst == 0 && m.rng.Bool(0.04) {
		m.burst = 1 + m.rng.Intn(6)
	}
	if m.burst > 0 {
		m.burst--
		return 0, false
	}
	m.accesses++
	return now + randLatencies[m.rng.Intn(len(randLatencies))], true
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
		switch in.Kind {
		case trace.Load, trace.Store:
			in.Addr = uint64(rng.Intn(1<<12)) * 64
		case trace.Branch:
			in.Addr = uint64(rng.Intn(64))
			in.Taken = rng.Bool(0.6)
			in.Mispredict = rng.Bool(0.05)
		}
		ins[i] = in
	}
	return ins
}

// goldenConfigs are the corner configurations the cycle table covers.
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

// traceCycles drives a core over prog cycle by cycle and digests every
// cycle's (cycle, retired, DidWork, NextEvent) and the final Stats. With
// skip set it fast-forwards idle cycles the way the run loops do.
func traceCycles(t *testing.T, cfg Config, prog []trace.Instr, memSeed uint64, skip bool) (string, Stats) {
	t.Helper()
	mem := &randMem{rng: trace.NewRNG(memSeed)}
	c := New(cfg, mem, trace.NewSliceSource(prog))
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
	return fmt.Sprintf("%016x", h.Sum64()), c.Stats()
}

// TestGoldenCycles pins the core's cycle-level behaviour on seeded random
// programs across the corner configurations: what retires each cycle,
// whether the cycle counts as work, the next event it reports, and the
// final counters. Any change to the issue logic that is not a pure
// speed-up shows here. Regenerate after a deliberate behaviour change with
//
//	go test ./internal/cpu -run TestGoldenCycles -update-golden
func TestGoldenCycles(t *testing.T) {
	got := map[string]string{}
	var total Stats
	for name, cfg := range goldenConfigs() {
		for seed := uint64(1); seed <= 3; seed++ {
			prog := randProgram(seed, 20_000)
			for _, skip := range []bool{false, true} {
				key := fmt.Sprintf("%s/seed%d/skip=%t", name, seed, skip)
				var st Stats
				got[key], st = traceCycles(t, cfg, prog, seed*977, skip)
				total.MSHRRejects += st.MSHRRejects
				total.StoreBufferFullEvents += st.StoreBufferFullEvents
				total.Mispredicts += st.Mispredicts
				total.MemStallEpisodes += st.MemStallEpisodes
				total.FullWindowCycles += st.FullWindowCycles
			}
		}
	}
	// The table is only as good as the paths it reaches.
	if total.MSHRRejects == 0 || total.StoreBufferFullEvents == 0 || total.Mispredicts == 0 ||
		total.MemStallEpisodes == 0 || total.FullWindowCycles == 0 {
		t.Fatalf("random programs missed a path: %+v", total)
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
