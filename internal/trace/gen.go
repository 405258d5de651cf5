package trace

import (
	"math"

	"mlpcache/internal/simerr"
)

// This file implements the workload generator combinators. Each generator
// produces an unbounded instruction stream; internal/workload composes them
// into models of the paper's SPEC CPU2000 benchmarks.
//
// Dependence semantics: a generator emits Dep distances relative to its own
// output stream. The interleaving combinators (Mix, Phases) rewrite those
// distances so they remain correct in the merged stream; see part.emit.

// queued serves Next and NextBatch from a buffer that refill appends to.
// Generators produce a natural unit per refill (one block visit, one
// TwoPass segment); an interleaver's refill reads a short run ahead. A
// refill that appends nothing ends the stream.
type queued struct {
	buf    []Instr
	pos    int
	refill func(buf []Instr) []Instr
}

func (q *queued) Next() (Instr, bool) {
	if q.pos >= len(q.buf) {
		q.buf = q.refill(q.buf[:0])
		q.pos = 0
		if len(q.buf) == 0 {
			return Instr{}, false
		}
	}
	in := q.buf[q.pos]
	q.pos++
	return in, true
}

func (q *queued) NextBatch(buf []Instr) int {
	n := q.drain(buf)
	for n < len(buf) {
		q.buf = q.refill(q.buf[:0])
		q.pos = 0
		if len(q.buf) == 0 {
			break
		}
		n += q.drain(buf[n:])
	}
	return n
}

// drain copies what the buffer holds into buf and returns the count.
func (q *queued) drain(buf []Instr) int {
	n := copy(buf, q.buf[q.pos:])
	q.pos += n
	return n
}

// sameBlockTouches appends n loads to further words of the just-accessed
// block, each depending on the previous access. Real programs touch a
// fetched block several times (spatial locality); these extra loads hit
// the L1 and give the models realistic L1 hit rates and compute density
// without changing L2 behaviour.
func sameBlockTouches(buf []Instr, addr uint64, n int) []Instr {
	for i := 0; i < n; i++ {
		buf = append(buf, Instr{Kind: Load, Addr: addr + uint64(8*(i+1)), Dep: 1})
	}
	return buf
}

// fillerRun appends gap filler instructions using rng: mostly single-cycle
// integer ops with an occasional branch so the stream exercises the front
// end. mispredict gives the per-branch misprediction probability used in
// oracle mode; for predictor mode every branch also carries a static id
// (in Addr) and an actual outcome (Taken): most dynamic branches come
// from well-behaved "loop" branches that are almost always taken, the
// rest from noisier data-dependent ones.
func fillerRun(buf []Instr, gap int, rng *RNG, fpFrac, mispredict float64) []Instr {
	for i := 0; i < gap; i++ {
		switch {
		case rng.Bool(1.0/16) && gap > 1:
			id := uint64(rng.Intn(16))
			taken := rng.Bool(0.98)
			if id >= 14 { // data-dependent branches
				taken = rng.Bool(0.65)
			}
			buf = append(buf, Instr{
				Kind:       Branch,
				Addr:       id,
				Taken:      taken,
				Mispredict: rng.Bool(mispredict),
			})
		case rng.Bool(fpFrac):
			buf = append(buf, Instr{Kind: FP})
		default:
			buf = append(buf, Instr{Kind: Int})
		}
	}
	return buf
}

// ChaseConfig parameterizes a pointer-chasing load stream: every load
// depends on the value returned by the previous load, so misses to
// uncached blocks serialize and surface as the paper's "isolated misses".
type ChaseConfig struct {
	Base       uint64  // first byte of the region
	Blocks     int     // number of distinct blocks in the chase ring
	BlockBytes uint64  // cache block size (64 in the baseline)
	Gap        int     // filler instructions between consecutive loads
	Touches    int     // extra dependent same-block loads per visit (L1 hits)
	Stores     float64 // probability a visit also writes the block
	FPFrac     float64 // fraction of filler that is FP
	Mispredict float64 // branch misprediction probability in filler
	Reshuffle  bool    // re-randomize visit order every lap
	// Cold makes the chase walk ever-fresh blocks instead of a ring:
	// every miss is isolated AND compulsory, and the block is never
	// touched again. Under MLP-aware replacement such blocks become
	// dead high-cost residue — the pollution that makes LIN lose on
	// the paper's high-delta benchmarks.
	Cold bool
	// RunLen/SkipLen shape a cold walk's footprint: RunLen consecutive
	// blocks are visited, then SkipLen are skipped. Because a cache set
	// is selected by block number modulo the set count, a run/skip
	// pattern confines the pollution to a fraction of the sets, which
	// tunes how much of a co-resident working set the dead residue
	// starves. Zero values mean a plain sequential walk.
	RunLen  int
	SkipLen int
	Seed    uint64
}

// Validate checks the parameters, wrapping failures in
// simerr.ErrBadConfig.
func (c ChaseConfig) Validate() error {
	if c.Blocks <= 0 && !c.Cold {
		return simerr.New(simerr.ErrBadConfig, "trace: PointerChase needs at least one block, got %d", c.Blocks)
	}
	if c.Gap < 0 || c.Touches < 0 || c.RunLen < 0 || c.SkipLen < 0 {
		return simerr.New(simerr.ErrBadConfig, "trace: PointerChase counts must be non-negative")
	}
	if c.Stores < 0 || c.Stores > 1 || c.FPFrac < 0 || c.FPFrac > 1 || c.Mispredict < 0 || c.Mispredict > 1 {
		return simerr.New(simerr.ErrBadConfig, "trace: PointerChase probabilities must be in [0,1]")
	}
	return nil
}

type chase struct {
	queued
	cfg   ChaseConfig
	rng   *RNG
	order []int
	pos   int
}

// NewPointerChase returns a generator that walks a randomized ring of
// cfg.Blocks blocks. Each load's Dep points at the previous load in the
// chain (distance Gap+1), modelling a linked-list traversal.
// It panics (with a typed simerr.ErrBadConfig error) on invalid
// parameters; validate externally-sourced configs with Validate first.
func NewPointerChase(cfg ChaseConfig) Source {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 1 // Cold walks ignore the ring size
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 64
	}
	c := &chase{cfg: cfg, rng: NewRNG(cfg.Seed)}
	c.order = c.rng.Perm(cfg.Blocks)
	c.refill = c.fill
	return c
}

func (c *chase) fill(buf []Instr) []Instr {
	var blk int
	if c.cfg.Cold {
		blk = c.pos
		if c.cfg.RunLen > 0 {
			blk = (c.pos/c.cfg.RunLen)*(c.cfg.RunLen+c.cfg.SkipLen) + c.pos%c.cfg.RunLen
		}
		c.pos++
	} else {
		if c.pos >= len(c.order) {
			c.pos = 0
			if c.cfg.Reshuffle {
				c.order = c.rng.Perm(c.cfg.Blocks)
			}
		}
		blk = c.order[c.pos]
		c.pos++
	}
	addr := c.cfg.Base + uint64(blk)*c.cfg.BlockBytes
	// The load depends on the previous load, which sits Gap+1
	// instructions back once the filler is emitted after it.
	buf = append(buf, Instr{Kind: Load, Addr: addr, Dep: int32(c.cfg.Gap+c.cfg.Touches) + 1})
	buf = sameBlockTouches(buf, addr, c.cfg.Touches)
	if c.rng.Bool(c.cfg.Stores) {
		buf = append(buf, Instr{Kind: Store, Addr: addr, Dep: 1})
	}
	return fillerRun(buf, c.cfg.Gap, c.rng, c.cfg.FPFrac, c.cfg.Mispredict)
}

// StreamConfig parameterizes an independent strided load stream: loads
// carry no dependences, so misses overlap inside the instruction window
// and surface as the paper's "parallel misses".
type StreamConfig struct {
	Base        uint64
	Blocks      int // working-set size in blocks; the sweep wraps
	StrideBlks  int // stride between consecutive accesses, in blocks
	BlockBytes  uint64
	Gap         int     // filler instructions between loads
	Touches     int     // extra dependent same-block loads per access (L1 hits)
	Stores      float64 // probability an access is a store instead of a load
	FPFrac      float64
	Mispredict  float64
	RandomOrder bool // visit blocks in a per-lap random order instead of strided
	// Cold makes the sweep monotonic instead of wrapping: every access
	// touches a never-seen block, so every miss is compulsory. Used to
	// model benchmarks with large compulsory fractions (Table 3).
	Cold bool
	Seed uint64
}

// Validate checks the parameters, wrapping failures in
// simerr.ErrBadConfig.
func (c StreamConfig) Validate() error {
	if c.Blocks <= 0 && !c.Cold {
		return simerr.New(simerr.ErrBadConfig, "trace: Stream needs at least one block, got %d", c.Blocks)
	}
	if c.Gap < 0 || c.Touches < 0 {
		return simerr.New(simerr.ErrBadConfig, "trace: Stream counts must be non-negative")
	}
	if c.Stores < 0 || c.Stores > 1 || c.FPFrac < 0 || c.FPFrac > 1 || c.Mispredict < 0 || c.Mispredict > 1 {
		return simerr.New(simerr.ErrBadConfig, "trace: Stream probabilities must be in [0,1]")
	}
	return nil
}

type stream struct {
	queued
	cfg   StreamConfig
	rng   *RNG
	next  int
	order []int
	pos   int
}

// NewStream returns a generator that sweeps a region of cfg.Blocks blocks
// with independent loads, wrapping around for ever. With RandomOrder the
// sweep order is re-randomized each lap.
// It panics (with a typed simerr.ErrBadConfig error) on invalid
// parameters; validate externally-sourced configs with Validate first.
func NewStream(cfg StreamConfig) Source {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 1 // Cold sweeps ignore the wrap size
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 64
	}
	if cfg.StrideBlks == 0 {
		cfg.StrideBlks = 1
	}
	s := &stream{cfg: cfg, rng: NewRNG(cfg.Seed)}
	s.refill = s.fill
	return s
}

func (s *stream) fill(buf []Instr) []Instr {
	var blk int
	switch {
	case s.cfg.Cold:
		blk = s.next
		s.next += s.cfg.StrideBlks
	case s.cfg.RandomOrder:
		if s.pos >= len(s.order) {
			s.order = s.rng.Perm(s.cfg.Blocks)
			s.pos = 0
		}
		blk = s.order[s.pos]
		s.pos++
	default:
		blk = s.next
		s.next = (s.next + s.cfg.StrideBlks) % s.cfg.Blocks
	}
	addr := s.cfg.Base + uint64(blk)*s.cfg.BlockBytes
	kind := Load
	if s.rng.Bool(s.cfg.Stores) {
		kind = Store
	}
	buf = append(buf, Instr{Kind: kind, Addr: addr})
	buf = sameBlockTouches(buf, addr, s.cfg.Touches)
	return fillerRun(buf, s.cfg.Gap, s.rng, s.cfg.FPFrac, s.cfg.Mispredict)
}

// AlternatingConfig parameterizes a stream whose blocks flip between
// pointer-chase laps (isolated misses, mlp-cost near the full memory
// latency) and burst laps (parallel misses, low mlp-cost). Successive
// misses to the same block therefore see wildly different mlp-cost — the
// high-delta behaviour of bzip2, parser and mgrid in Table 1 that defeats
// last-cost prediction.
type AlternatingConfig struct {
	Base       uint64
	Blocks     int
	BlockBytes uint64
	ChaseGap   int // filler between loads on chase laps
	BurstGap   int // filler between loads on burst laps
	Touches    int // extra dependent same-block loads per visit (L1 hits)
	FPFrac     float64
	Mispredict float64
	// RunLen/SkipLen lay the region out in runs of consecutive blocks
	// separated by gaps, confining it to a fraction of the cache sets
	// (see ChaseConfig).
	RunLen  int
	SkipLen int
	Seed    uint64
}

// Validate checks the parameters, wrapping failures in
// simerr.ErrBadConfig.
func (c AlternatingConfig) Validate() error {
	if c.Blocks <= 0 {
		return simerr.New(simerr.ErrBadConfig, "trace: Alternating needs at least one block, got %d", c.Blocks)
	}
	if c.ChaseGap < 0 || c.BurstGap < 0 || c.Touches < 0 || c.RunLen < 0 || c.SkipLen < 0 {
		return simerr.New(simerr.ErrBadConfig, "trace: Alternating counts must be non-negative")
	}
	if c.FPFrac < 0 || c.FPFrac > 1 || c.Mispredict < 0 || c.Mispredict > 1 {
		return simerr.New(simerr.ErrBadConfig, "trace: Alternating probabilities must be in [0,1]")
	}
	return nil
}

type alternating struct {
	queued
	cfg   AlternatingConfig
	rng   *RNG
	order []int
	pos   int
	burst bool
}

// NewAlternating returns the high-delta generator described above.
// It panics (with a typed simerr.ErrBadConfig error) on invalid
// parameters; validate externally-sourced configs with Validate first.
func NewAlternating(cfg AlternatingConfig) Source {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 64
	}
	a := &alternating{cfg: cfg, rng: NewRNG(cfg.Seed)}
	a.order = a.rng.Perm(cfg.Blocks)
	a.refill = a.fill
	return a
}

func (a *alternating) fill(buf []Instr) []Instr {
	if a.pos >= len(a.order) {
		a.pos = 0
		a.burst = !a.burst
	}
	blk := a.order[a.pos]
	a.pos++
	if a.cfg.RunLen > 0 {
		blk = (blk/a.cfg.RunLen)*(a.cfg.RunLen+a.cfg.SkipLen) + blk%a.cfg.RunLen
	}
	addr := a.cfg.Base + uint64(blk)*a.cfg.BlockBytes
	if a.burst {
		buf = append(buf, Instr{Kind: Load, Addr: addr})
		buf = sameBlockTouches(buf, addr, a.cfg.Touches)
		return fillerRun(buf, a.cfg.BurstGap, a.rng, a.cfg.FPFrac, a.cfg.Mispredict)
	}
	buf = append(buf, Instr{Kind: Load, Addr: addr, Dep: int32(a.cfg.ChaseGap+a.cfg.Touches) + 1})
	buf = sameBlockTouches(buf, addr, a.cfg.Touches)
	return fillerRun(buf, a.cfg.ChaseGap, a.rng, a.cfg.FPFrac, a.cfg.Mispredict)
}

// depWindow is how many of a part's recent instructions an interleaver
// remembers for dependence rewriting. Dependences reaching further back
// are clamped to the oldest remembered instruction, which by then has
// almost certainly retired anyway.
const depWindow = 256

// stageLen is how many instructions a part reads from its source at a
// time to serve chunks shorter than that, so a one-instruction chunk is a
// copy out of the part and not a call down its source's batch path.
const stageLen = 32

// part tracks one sub-stream inside an interleaver.
type part struct {
	src Source
	// chunk is how many instructions the part supplies per turn (a Mix
	// chunk, a Phase length); weight is its Mix selection weight, 0 once
	// the part is done.
	chunk  int
	weight float64
	// stage[head:tail] holds what was read from src and not yet emitted.
	// dry records that src has ended: the stage holds all that is left.
	stage      [stageLen]Instr
	head, tail int
	dry, done  bool
	// ring[i%depWindow] is the low 32 bits of the output index of this
	// part's i-th emitted instruction: a rewritten Dep is an int32, so
	// the low bits of the two indices are all its difference needs.
	ring  [depWindow]uint32
	count uint64
}

// emit fills buf from the part, whose first instruction lands at output
// index abs, and returns how many it wrote, fewer than len(buf) once the
// part has run out. What the stage holds goes first; the rest comes
// through the stage when it is shorter than the stage, and straight from
// src otherwise.
func (p *part) emit(buf []Instr, abs uint64) int {
	n := copy(buf, p.stage[p.head:p.tail])
	p.head += n
	if rest := buf[n:]; len(rest) > 0 && !p.dry {
		if len(rest) >= stageLen {
			m := ReadBatch(p.src, rest)
			p.dry = m < len(rest)
			n += m
		} else {
			p.tail = ReadBatch(p.src, p.stage[:])
			p.dry = p.tail < stageLen
			p.head = copy(rest, p.stage[:p.tail])
			n += p.head
		}
	}
	p.place(buf[:n], abs)
	return n
}

// place rewrites each dependence distance of a run the part emitted at
// output index abs into the merged stream's coordinates and records the
// run's positions, in one pass. A distance of at most i at the run's
// i-th instruction points into the run, where the part's order is the
// merged stream's, so it only needs the clamp to the window; only a
// longer one reads the ring, before the instruction's own position is
// recorded: a producer is at most depWindow instructions back, so until
// then its slot is intact.
func (p *part) place(run []Instr, abs uint64) {
	c, at := p.count, uint32(abs)
	for i := range run {
		switch dep := run[i].Dep; {
		case dep <= int32(i):
			run[i].Dep = min(dep, depWindow)
		case c == 0:
			run[i].Dep = 0 // no producer exists yet
		default:
			d := min(uint64(dep), c, depWindow)
			run[i].Dep = int32(at - p.ring[(c-d)%depWindow])
		}
		p.ring[c%depWindow] = at
		c++
		at++
	}
	p.count = c
}

// interleaver merges parts into one stream a chunk at a time. A Mix
// draws each chunk's part at random by weight with rng; a Phases (rng
// nil) gives the parts turns in order. Parts that have run out are
// passed over. Next reads a short run ahead through the same fill that
// NextBatch uses.
type interleaver struct {
	queued
	parts  []part
	rng    *RNG
	cur    int
	remain int    // instructions left in the current chunk
	abs    uint64 // output index of the next instruction
	// live is the sum of the parts' weights in part order and last the
	// index of the last part not done, both kept from one part's end to
	// the next.
	live float64
	last int
}

// readAheadLen is how many instructions Next reads ahead on an
// interleaver.
const readAheadLen = 64

func (v *interleaver) NextBatch(buf []Instr) int {
	n := v.drain(buf) // what Next has read ahead comes first
	return n + v.fill(buf[n:])
}

func (v *interleaver) readAhead(buf []Instr) []Instr {
	if cap(buf) < readAheadLen {
		buf = make([]Instr, readAheadLen)
	}
	return buf[:v.fill(buf[:readAheadLen])]
}

// fill writes the merged stream into buf and returns how many it wrote,
// fewer than len(buf) only once every part is done.
func (v *interleaver) fill(buf []Instr) int {
	n := 0
	for n < len(buf) {
		if v.remain == 0 {
			if v.rng == nil || v.live == 0 {
				// A Phases takes turns; a Mix whose live sum is 0 has
				// no part left, and advance finds none either.
				if !v.advance() {
					break
				}
			} else {
				v.cur = v.draw()
				v.remain = v.parts[v.cur].chunk
			}
		}
		p := &v.parts[v.cur]
		want := min(v.remain, len(buf)-n)
		var got int
		if want == 1 && p.head < p.tail { // a copy out of the stage
			buf[n] = p.stage[p.head]
			p.head++
			p.place(buf[n:n+1], v.abs)
			got = 1
		} else {
			got = p.emit(buf[n:n+want], v.abs)
		}
		n += got
		v.abs += uint64(got)
		v.remain -= got
		if got < want {
			v.remain = 0 // the part ran out mid-chunk
			v.finish(v.cur)
		}
	}
	return n
}

// finish marks part i done and zeroes its weight. Adding the weights in
// part order then gives the live sum bit for bit: a done part adds 0.
func (v *interleaver) finish(i int) {
	v.parts[i].done = true
	v.parts[i].weight = 0
	v.resum()
}

// resum recomputes live and last from the parts.
func (v *interleaver) resum() {
	v.live = 0
	for i := range v.parts {
		v.live += v.parts[i].weight
		if !v.parts[i].done {
			v.last = i
		}
	}
}

// draw picks the next chunk's part among those not done, by weight: one
// Float64 per chunk, scaled by the live sum, with the weights subtracted
// in part order. A done part subtracts 0, and the running value never
// rises, so the parts after which it is not below 0 form a prefix; the
// part after them is the one drawn. When the value passes every part
// (floating-point slack), the last live part is taken.
func (v *interleaver) draw() int {
	x := v.rng.Float64() * v.live
	i := 0
	for j := range v.parts {
		x -= v.parts[j].weight
		passed := 0 // a set-on-compare, not a branch: the draw is random
		if !(x < 0) {
			passed = 1
		}
		i += passed
	}
	return min(i, v.last) // a drawn part is live, so at most last
}

// advance moves to the next part in turn that is not done.
func (v *interleaver) advance() bool {
	for range v.parts {
		v.cur = (v.cur + 1) % len(v.parts)
		if !v.parts[v.cur].done {
			v.remain = v.parts[v.cur].chunk
			return true
		}
	}
	return false
}

// MixPart is one weighted component of a Mix.
type MixPart struct {
	Src Source
	// Weight is the relative probability of selecting this part for the
	// next chunk.
	Weight float64
	// Chunk is how many instructions to draw per selection (default 1).
	// Larger chunks keep a part's misses adjacent, preserving their
	// intra-part memory-level parallelism.
	Chunk int
}

// NewMix interleaves the parts, selecting a part for each chunk with
// probability proportional to its weight; a weight of 0 or less counts
// as 1. Dependences inside each part are preserved across the
// interleave. Weights whose sum is not finite (a NaN or +Inf weight, or
// finite weights that overflow) panic with simerr.ErrBadConfig: every
// draw would fall to the last part.
func NewMix(seed uint64, parts ...MixPart) Source {
	if len(parts) == 0 {
		panic(simerr.New(simerr.ErrBadConfig, "trace: Mix needs at least one part"))
	}
	v := &interleaver{rng: NewRNG(seed), parts: make([]part, len(parts))}
	for i, p := range parts {
		v.parts[i] = part{src: p.Src, chunk: max(p.Chunk, 1), weight: p.Weight}
		if p.Weight <= 0 {
			v.parts[i].weight = 1
		}
	}
	v.resum()
	if math.IsNaN(v.live) || math.IsInf(v.live, 0) {
		panic(simerr.New(simerr.ErrBadConfig, "trace: Mix weights must sum to a finite value, got %v", v.live))
	}
	v.refill = v.readAhead
	return v
}

// Phase is one leg of a Phases schedule.
type Phase struct {
	Src Source
	// Len is how many instructions this phase contributes before the
	// schedule advances.
	Len int
}

// NewPhases cycles through the given phases for ever: Len instructions
// from phase 0, then Len from phase 1, and so on, wrapping around. It is
// how the ammp model expresses its alternating LIN-friendly and
// LRU-friendly program phases. A phase whose source has run out is
// skipped, and one that runs out mid-phase ends early.
func NewPhases(ps ...Phase) Source {
	if len(ps) == 0 {
		panic(simerr.New(simerr.ErrBadConfig, "trace: Phases needs at least one phase"))
	}
	v := &interleaver{parts: make([]part, len(ps))}
	for i, p := range ps {
		if p.Len <= 0 {
			panic(simerr.New(simerr.ErrBadConfig, "trace: Phase.Len must be positive, got %d", p.Len))
		}
		v.parts[i] = part{src: p.Src, chunk: p.Len}
	}
	v.remain = v.parts[0].chunk
	v.refill = v.readAhead
	return v
}
