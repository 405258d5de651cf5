package trace

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"mlpcache/internal/simerr"
)

// loadsOf filters a collected stream down to its primary memory accesses
// (dropping the same-block touch loads, identified by non-64-aligned
// addresses when BlockBytes is 64).
func loadsOf(ins []Instr) []Instr {
	var out []Instr
	for _, in := range ins {
		if in.Kind.IsMem() && in.Addr%64 == 0 {
			out = append(out, in)
		}
	}
	return out
}

func TestPointerChaseVisitsEachBlockOncePerLap(t *testing.T) {
	const blocks = 50
	src := NewPointerChase(ChaseConfig{Blocks: blocks, Gap: 3, Seed: 1})
	ins := Collect(src, blocks*2*4) // two laps of (1 load + 3 filler)
	loads := loadsOf(ins)
	if len(loads) < 2*blocks {
		t.Fatalf("collected only %d loads", len(loads))
	}
	lap1 := map[uint64]int{}
	for _, l := range loads[:blocks] {
		lap1[l.Addr]++
	}
	if len(lap1) != blocks {
		t.Fatalf("first lap visited %d distinct blocks, want %d", len(lap1), blocks)
	}
	// Without Reshuffle, lap 2 visits the same blocks in the same order.
	for i := 0; i < blocks; i++ {
		if loads[i].Addr != loads[blocks+i].Addr {
			t.Fatalf("lap order changed at %d without Reshuffle", i)
		}
	}
}

func TestPointerChaseDependenceChain(t *testing.T) {
	src := NewPointerChase(ChaseConfig{Blocks: 10, Gap: 4, Touches: 2, Seed: 2})
	ins := Collect(src, 100)
	var loadIdx []int
	for i, in := range ins {
		if in.Kind == Load && in.Addr%64 == 0 {
			loadIdx = append(loadIdx, i)
		}
	}
	for j := 1; j < len(loadIdx); j++ {
		i := loadIdx[j]
		prod := i - int(ins[i].Dep)
		if prod != loadIdx[j-1] {
			t.Fatalf("load at %d: Dep=%d points to %d, want previous load at %d",
				i, ins[i].Dep, prod, loadIdx[j-1])
		}
	}
}

func TestPointerChaseReshuffle(t *testing.T) {
	const blocks = 64
	src := NewPointerChase(ChaseConfig{Blocks: blocks, Seed: 3, Reshuffle: true})
	loads := loadsOf(Collect(src, blocks*2))
	same := true
	for i := 0; i < blocks; i++ {
		if loads[i].Addr != loads[blocks+i].Addr {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Reshuffle did not change lap order")
	}
}

func TestColdChaseNeverRepeats(t *testing.T) {
	src := NewPointerChase(ChaseConfig{Blocks: 1, Cold: true, Seed: 4})
	loads := loadsOf(Collect(src, 500))
	seen := map[uint64]bool{}
	for _, l := range loads {
		if seen[l.Addr] {
			t.Fatalf("cold chase repeated block %#x", l.Addr)
		}
		seen[l.Addr] = true
	}
}

func TestColdChaseRunSkipSpan(t *testing.T) {
	const run, skip = 8, 24 // sets 0-7 of a 32-set "cache"
	src := NewPointerChase(ChaseConfig{Blocks: 1, Cold: true, RunLen: run, SkipLen: skip, Seed: 5})
	loads := loadsOf(Collect(src, 400))
	for _, l := range loads {
		set := (l.Addr / 64) % (run + skip)
		if set >= run {
			t.Fatalf("block %#x maps to set %d, outside span [0,%d)", l.Addr, set, run)
		}
	}
}

func TestStreamWrapsAndIsIndependent(t *testing.T) {
	src := NewStream(StreamConfig{Blocks: 5, Gap: 1, Seed: 6})
	loads := loadsOf(Collect(src, 60))
	if len(loads) < 12 {
		t.Fatalf("too few loads: %d", len(loads))
	}
	for i, l := range loads[:10] {
		if want := uint64(i%5) * 64; l.Addr != want {
			t.Fatalf("load %d addr %#x, want %#x", i, l.Addr, want)
		}
		if l.Dep != 0 {
			t.Fatalf("stream load %d carries Dep=%d, want 0", i, l.Dep)
		}
	}
}

func TestStreamCold(t *testing.T) {
	src := NewStream(StreamConfig{Blocks: 1, Cold: true, Seed: 7})
	loads := loadsOf(Collect(src, 100))
	for i := 1; i < len(loads); i++ {
		if loads[i].Addr <= loads[i-1].Addr {
			t.Fatal("cold stream addresses must be strictly increasing")
		}
	}
}

func TestAlternatingFlipsDependenceEachLap(t *testing.T) {
	const blocks = 20
	src := NewAlternating(AlternatingConfig{Blocks: blocks, ChaseGap: 2, BurstGap: 2, Seed: 8})
	ins := Collect(src, blocks*3*4)
	var loads []Instr
	for _, in := range ins {
		if in.Kind == Load && in.Addr%64 == 0 {
			loads = append(loads, in)
		}
	}
	// Lap 1 (chase): deps set; lap 2 (burst): deps clear.
	for i := 1; i < blocks; i++ {
		if loads[i].Dep == 0 {
			t.Fatalf("chase-lap load %d has no dependence", i)
		}
	}
	for i := blocks; i < 2*blocks; i++ {
		if loads[i].Dep != 0 {
			t.Fatalf("burst-lap load %d has Dep=%d", i, loads[i].Dep)
		}
	}
}

func TestSameBlockTouchesHitSameBlock(t *testing.T) {
	src := NewStream(StreamConfig{Blocks: 3, Touches: 2, Seed: 9})
	ins := Collect(src, 30)
	for i := 0; i < len(ins)-2; i++ {
		if ins[i].Kind == Load && ins[i].Addr%64 == 0 {
			for j := 1; j <= 2; j++ {
				tch := ins[i+j]
				if tch.Kind != Load || tch.Addr/64 != ins[i].Addr/64 || tch.Dep != 1 {
					t.Fatalf("touch %d after load %d malformed: %+v", j, i, tch)
				}
			}
		}
	}
}

// Property: Mix-rewritten dependences always point backward at an
// instruction from the same sub-stream (identified by address region).
func TestMixDependenceRewriting(t *testing.T) {
	mk := func(seed uint64, chunkA, chunkB int) []Instr {
		a := NewPointerChase(ChaseConfig{Base: 1 << 30, Blocks: 40, Gap: 2, Seed: seed})
		b := NewPointerChase(ChaseConfig{Base: 1 << 40, Blocks: 40, Gap: 2, Seed: seed + 1})
		m := NewMix(seed, MixPart{Src: a, Chunk: chunkA, Weight: 1}, MixPart{Src: b, Chunk: chunkB, Weight: 1})
		return Collect(m, 2000)
	}
	f := func(seedRaw uint16, ca, cb uint8) bool {
		ins := mk(uint64(seedRaw)+1, int(ca%30)+1, int(cb%30)+1)
		for i, in := range ins {
			if in.Kind != Load || in.Dep == 0 {
				continue
			}
			prod := i - int(in.Dep)
			if prod < 0 {
				return false
			}
			// The producer must be a load from the same region.
			p := ins[prod]
			if p.Kind != Load {
				return false
			}
			if (p.Addr >= 1<<40) != (in.Addr >= 1<<40) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMixChunksAreContiguous(t *testing.T) {
	a := NewStream(StreamConfig{Base: 0, Blocks: 100, Seed: 1})
	b := NewStream(StreamConfig{Base: 1 << 40, Blocks: 100, Seed: 2})
	m := NewMix(3, MixPart{Src: a, Chunk: 5, Weight: 1}, MixPart{Src: b, Chunk: 5, Weight: 1})
	ins := Collect(m, 500)
	// Runs of same-part instructions must have length ≥ 5 (exactly the
	// chunk, since both parts are infinite).
	runLen := 1
	for i := 1; i < len(ins); i++ {
		same := (ins[i].Addr >= 1<<40) == (ins[i-1].Addr >= 1<<40)
		if same {
			runLen++
			continue
		}
		if runLen%5 != 0 {
			t.Fatalf("chunk run of length %d, want multiple of 5", runLen)
		}
		runLen = 1
	}
}

func TestMixDrainsFiniteParts(t *testing.T) {
	a := NewSliceSource([]Instr{{Kind: Int}, {Kind: Int}})
	b := NewSliceSource([]Instr{{Kind: FP}})
	m := NewMix(1, MixPart{Src: a, Weight: 1}, MixPart{Src: b, Weight: 1})
	got := Collect(m, 100)
	if len(got) != 3 {
		t.Fatalf("Mix yielded %d instructions from finite parts, want 3", len(got))
	}
}

func TestPhasesSchedule(t *testing.T) {
	a := NewStream(StreamConfig{Base: 0, Blocks: 10, Seed: 1})
	b := NewStream(StreamConfig{Base: 1 << 40, Blocks: 10, Seed: 2})
	p := NewPhases(Phase{Src: a, Len: 20}, Phase{Src: b, Len: 10})
	ins := Collect(p, 90)
	for i, in := range ins {
		inB := in.Addr >= 1<<40
		phase := (i / 10) % 3 // 20 of a, 10 of b → pattern a a b
		wantB := phase == 2
		if in.Kind == Load && inB != wantB {
			t.Fatalf("instruction %d from wrong phase", i)
		}
	}
}

func TestTwoPassVisitsEachBlockExactlyTwice(t *testing.T) {
	cfg := TwoPassConfig{SegBlocks: 8, LagSegs: 3, ChaseGap: 1, BurstGap: 1, Seed: 1}
	src := NewTwoPass(cfg)
	ins := Collect(src, 4000)
	counts := map[uint64]int{}
	order := map[uint64][]int{}
	for i, in := range ins {
		if in.Kind == Load && in.Addr%64 == 0 {
			counts[in.Addr]++
			order[in.Addr] = append(order[in.Addr], i)
		}
	}
	twice := 0
	for addr, c := range counts {
		if c > 2 {
			t.Fatalf("block %#x visited %d times, want at most 2", addr, c)
		}
		if c == 2 {
			twice++
			gap := order[addr][1] - order[addr][0]
			// The revisit must be at least LagSegs segments away.
			if gap < cfg.SegBlocks*cfg.LagSegs {
				t.Fatalf("block %#x revisited after %d instructions, want >= %d",
					addr, gap, cfg.SegBlocks*cfg.LagSegs)
			}
		}
	}
	if twice == 0 {
		t.Fatal("no block received its second pass")
	}
}

func TestTwoPassPassStructure(t *testing.T) {
	src := NewTwoPass(TwoPassConfig{SegBlocks: 8, LagSegs: 2, ChaseGap: 2, BurstGap: 2, Seed: 3})
	ins := Collect(src, 3000)
	first := map[uint64]bool{}
	for _, in := range ins {
		if in.Kind != Load || in.Addr%64 != 0 {
			continue
		}
		if !first[in.Addr] {
			first[in.Addr] = true
			if in.Dep == 0 {
				t.Fatalf("first pass of %#x is not dependence-chained", in.Addr)
			}
		} else if in.Dep != 0 {
			t.Fatalf("second pass of %#x carries Dep=%d, want 0 (parallel burst)", in.Addr, in.Dep)
		}
	}
}

func TestTwoPassBatchLen(t *testing.T) {
	cfg := TwoPassConfig{SegBlocks: 64, ChaseGap: 10, BurstGap: 5, Touches: 2}
	want := 64 * (10 + 2 + 1 + 5 + 2 + 1)
	if got := cfg.BatchLen(); got != want {
		t.Fatalf("BatchLen = %d, want %d", got, want)
	}
}

// Each generator must yield the same stream through NextBatch, with
// Next calls interleaved, as through Next alone.
func TestGeneratorsBatchLikeNext(t *testing.T) {
	gens := map[string]func() Source{
		"chase": func() Source {
			return NewPointerChase(ChaseConfig{Blocks: 300, Gap: 5, Touches: 2, Stores: 0.2, Mispredict: 0.05, Reshuffle: true, Seed: 1})
		},
		"stream": func() Source {
			return NewStream(StreamConfig{Blocks: 128, Gap: 6, Touches: 2, FPFrac: 0.3, Mispredict: 0.02, Stores: 0.3, Seed: 2})
		},
		"alternating": func() Source {
			return NewAlternating(AlternatingConfig{Blocks: 100, ChaseGap: 4, BurstGap: 2, Touches: 1, Seed: 3})
		},
		"two-pass": func() Source {
			return NewTwoPass(TwoPassConfig{SegBlocks: 16, LagSegs: 4, ChaseGap: 3, BurstGap: 1, Touches: 2, Seed: 4})
		},
	}
	for name, build := range gens {
		want := Collect(build(), 50_000)
		src := build()
		b := src.(Batcher)
		rng := NewRNG(5)
		buf := make([]Instr, 700)
		var got []Instr
		for len(got) < len(want) {
			if rng.Bool(0.3) {
				in, _ := src.Next()
				got = append(got, in)
				continue
			}
			n := b.NextBatch(buf[:min(rng.Intn(len(buf)+1), len(want)-len(got))])
			got = append(got, buf[:n]...)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: NextBatch stream differs from the Next stream", name)
		}
	}
}

func TestPhasesDrainFiniteSources(t *testing.T) {
	a := NewSliceSource([]Instr{{Kind: Int}, {Kind: Int}, {Kind: Int}})
	b := NewSliceSource([]Instr{{Kind: FP}})
	p := NewPhases(Phase{Src: a, Len: 2}, Phase{Src: b, Len: 2})
	got := Collect(p, 100)
	if len(got) != 4 {
		t.Fatalf("Phases yielded %d instructions from finite sources, want 4", len(got))
	}
}

func TestPhasesPanicsOnBadConfig(t *testing.T) {
	for _, fn := range []func(){
		func() { NewPhases() },
		func() { NewPhases(Phase{Src: NewSliceSource(nil), Len: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMixPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMix(1)
}

// TestMixRejectsNonFiniteWeightSum gives NewMix weights whose sum is
// NaN, +Inf, or overflows from finite values: each must panic with
// ErrBadConfig rather than send every draw to the last part.
func TestMixRejectsNonFiniteWeightSum(t *testing.T) {
	for name, weights := range map[string][]float64{
		"nan-weight":          {1, math.NaN(), 2},
		"inf-weight":          {1, math.Inf(1), 2},
		"overflowing-weights": {math.MaxFloat64, math.MaxFloat64, 1},
	} {
		t.Run(name, func(t *testing.T) {
			parts := make([]MixPart, len(weights))
			for i, w := range weights {
				parts[i] = MixPart{Src: NewSliceSource(nil), Weight: w}
			}
			defer func() {
				r := recover()
				if err, _ := r.(error); !errors.Is(err, simerr.ErrBadConfig) {
					t.Fatalf("NewMix recovered %v, want a panic with ErrBadConfig", r)
				}
			}()
			NewMix(1, parts...)
		})
	}
}

func TestGeneratorPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewPointerChase(ChaseConfig{Blocks: 0}) },
		func() { NewStream(StreamConfig{Blocks: 0}) },
		func() { NewAlternating(AlternatingConfig{Blocks: 0}) },
	} {
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

func TestTwoPassSpan(t *testing.T) {
	src := NewTwoPass(TwoPassConfig{
		SegBlocks: 16, LagSegs: 2, ChaseGap: 1, BurstGap: 1,
		RunLen: 8, SkipLen: 24, Seed: 2,
	})
	for _, in := range Collect(src, 2000) {
		if in.Kind == Load && in.Addr%64 == 0 {
			set := (in.Addr / 64) % 32
			if set >= 8 {
				t.Fatalf("two-pass block %#x outside span (set %d)", in.Addr, set)
			}
		}
	}
}

func TestBranchOutcomesSynthesized(t *testing.T) {
	src := NewStream(StreamConfig{Blocks: 100, Gap: 8, Seed: 4})
	taken, branches := 0, 0
	for _, in := range Collect(src, 50_000) {
		if in.Kind == Branch {
			branches++
			if in.Taken {
				taken++
			}
		}
	}
	if branches == 0 {
		t.Fatal("filler produced no branches")
	}
	frac := float64(taken) / float64(branches)
	// Mostly loop branches (98% taken) with a noisy minority.
	if frac < 0.85 || frac > 0.99 {
		t.Fatalf("taken fraction %.2f implausible", frac)
	}
}

// The per-instruction interleavers that the batch path replaced, kept
// as the reference FuzzReadBatch holds the production Mix and Phases to.
// Each instruction is pulled with one Next call and its dependence
// rewritten on its own.

type refPart struct {
	src   Source
	ring  [depWindow]uint64
	count uint64
	done  bool
}

func (p *refPart) emit(absIndex uint64) (Instr, bool) {
	in, ok := p.src.Next()
	if !ok {
		p.done = true
		return Instr{}, false
	}
	if in.Dep > 0 {
		d := uint64(in.Dep)
		switch {
		case p.count == 0:
			in.Dep = 0 // no producer exists yet
		case d > p.count:
			d = p.count
			fallthrough
		default:
			if d > depWindow {
				d = depWindow
			}
			producer := p.ring[(p.count-d)%depWindow]
			in.Dep = int32(absIndex - producer)
		}
	}
	p.ring[p.count%depWindow] = absIndex
	p.count++
	return in, true
}

type refMix struct {
	parts  []refPart
	meta   []MixPart
	rng    *RNG
	abs    uint64
	cur    int
	remain int
}

func newRefMix(seed uint64, parts ...MixPart) *refMix {
	m := &refMix{rng: NewRNG(seed), meta: parts}
	m.parts = make([]refPart, len(parts))
	for i := range parts {
		if parts[i].Chunk <= 0 {
			parts[i].Chunk = 1
		}
		if parts[i].Weight <= 0 {
			parts[i].Weight = 1
		}
		m.meta[i] = parts[i]
		m.parts[i] = refPart{src: parts[i].Src}
	}
	return m
}

func (m *refMix) Next() (Instr, bool) {
	for tries := 0; tries < len(m.parts)+1; tries++ {
		if m.remain == 0 {
			m.pick()
			if m.remain == 0 {
				return Instr{}, false // all parts exhausted
			}
		}
		in, ok := m.parts[m.cur].emit(m.abs)
		if ok {
			m.remain--
			m.abs++
			return in, true
		}
		m.remain = 0
	}
	return Instr{}, false
}

func (m *refMix) pick() {
	live := 0.0
	for i := range m.parts {
		if !m.parts[i].done {
			live += m.meta[i].Weight
		}
	}
	if live == 0 {
		return
	}
	x := m.rng.Float64() * live
	for i := range m.parts {
		if m.parts[i].done {
			continue
		}
		x -= m.meta[i].Weight
		if x < 0 {
			m.cur = i
			m.remain = m.meta[i].Chunk
			return
		}
	}
	// Floating-point slack: take the last live part.
	for i := len(m.parts) - 1; i >= 0; i-- {
		if !m.parts[i].done {
			m.cur = i
			m.remain = m.meta[i].Chunk
			return
		}
	}
}

type refPhases struct {
	parts  []refPart
	lens   []int
	cur    int
	remain int
	abs    uint64
}

func newRefPhases(ps ...Phase) *refPhases {
	g := &refPhases{}
	for _, p := range ps {
		g.parts = append(g.parts, refPart{src: p.Src})
		g.lens = append(g.lens, p.Len)
	}
	g.remain = g.lens[0]
	return g
}

func (g *refPhases) Next() (Instr, bool) {
	for tries := 0; tries <= len(g.parts); tries++ {
		if g.remain == 0 {
			g.cur = (g.cur + 1) % len(g.parts)
			g.remain = g.lens[g.cur]
		}
		if g.parts[g.cur].done {
			g.remain = 0
			continue
		}
		in, ok := g.parts[g.cur].emit(g.abs)
		if !ok {
			g.remain = 0
			continue
		}
		g.remain--
		g.abs++
		return in, true
	}
	return Instr{}, false
}
