package trace

// TwoPassConfig parameterizes the generator behind the paper's high-delta
// benchmarks (bzip2, parser, mgrid). Each block is visited exactly twice:
//
//  1. a pointer-chase pass over fresh blocks — an isolated miss, so the
//     block's recorded mlp-cost is the full memory latency (cost_q = 7);
//  2. one revisit, LagSegs segments later, inside an independent burst —
//     under LRU the block has long been evicted, so it re-misses with
//     high parallelism and a tiny mlp-cost.
//
// The per-block cost delta is therefore ~400 cycles (Table 1's ≥120
// class), and the last-cost prediction is maximally wrong: an MLP-aware
// policy retains the block expecting another expensive miss, saves only a
// cheap parallel one, and is then stuck with a dead cost_q=7 line that
// outranks every live low-cost block — the pollution that makes LIN lose.
type TwoPassConfig struct {
	Base       uint64
	BlockBytes uint64
	// SegBlocks is the number of blocks per segment (one chase pass or
	// one burst pass).
	SegBlocks int
	// LagSegs is how many segments later the revisit happens. It must
	// exceed the LRU eviction horizon so the baseline re-misses.
	LagSegs int
	// ChaseGap and BurstGap are the filler counts for the two passes.
	ChaseGap int
	BurstGap int
	// Touches is the same-block spatial-locality factor.
	Touches int
	// RunLen/SkipLen confine the region to a fraction of the cache sets
	// (see ChaseConfig).
	RunLen  int
	SkipLen int
	FPFrac  float64
	Seed    uint64
}

type twoPass struct {
	queued
	cfg TwoPassConfig
	rng *RNG
	// segs counts the chase segments emitted. Segment k covers blocks
	// [k·SegBlocks, (k+1)·SegBlocks), so the segment due for its revisit
	// follows from the count alone.
	segs  int
	order []int // the revisit burst's visit order, reused every refill
}

// NewTwoPass returns the visit-twice generator described above.
func NewTwoPass(cfg TwoPassConfig) Source {
	if cfg.SegBlocks <= 0 {
		cfg.SegBlocks = 64
	}
	if cfg.LagSegs <= 0 {
		cfg.LagSegs = 64
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 64
	}
	t := &twoPass{cfg: cfg, rng: NewRNG(cfg.Seed)}
	t.refill = t.fill
	return t
}

func (t *twoPass) addr(blk int) uint64 {
	if t.cfg.RunLen > 0 {
		blk = (blk/t.cfg.RunLen)*(t.cfg.RunLen+t.cfg.SkipLen) + blk%t.cfg.RunLen
	}
	return t.cfg.Base + uint64(blk)*t.cfg.BlockBytes
}

// fill emits one chase segment and, once the lag has filled, the matching
// burst segment in the same batch, so a Mix chunk sized to BatchLen keeps
// both passes contiguous (chase misses stay isolated).
func (t *twoPass) fill(buf []Instr) []Instr {
	// First pass: a dependent chase over fresh blocks.
	first := t.segs * t.cfg.SegBlocks
	for blk := first; blk < first+t.cfg.SegBlocks; blk++ {
		a := t.addr(blk)
		buf = append(buf, Instr{Kind: Load, Addr: a, Dep: int32(t.cfg.ChaseGap+t.cfg.Touches) + 1})
		buf = sameBlockTouches(buf, a, t.cfg.Touches)
		buf = fillerRun(buf, t.cfg.ChaseGap, t.rng, t.cfg.FPFrac, 0)
	}
	t.segs++
	if t.segs <= t.cfg.LagSegs {
		return buf
	}
	// Second pass over the segment LagSegs back: independent loads,
	// shuffled so the revisit is not a recognizable stride.
	old := (t.segs - 1 - t.cfg.LagSegs) * t.cfg.SegBlocks
	t.order = t.rng.PermInto(t.order, t.cfg.SegBlocks)
	for _, i := range t.order {
		a := t.addr(old + i)
		buf = append(buf, Instr{Kind: Load, Addr: a})
		buf = sameBlockTouches(buf, a, t.cfg.Touches)
		buf = fillerRun(buf, t.cfg.BurstGap, t.rng, t.cfg.FPFrac, 0)
	}
	return buf
}

// BatchLen returns the steady-state instruction count of one fill batch
// (one chase segment plus one burst segment); interleavers should chunk
// at this granularity to keep the chase pass isolated.
func (c TwoPassConfig) BatchLen() int {
	seg := c.SegBlocks
	if seg <= 0 {
		seg = 64
	}
	return seg * (c.ChaseGap + c.Touches + 1 + c.BurstGap + c.Touches + 1)
}
