package core

import (
	"fmt"

	"mlpcache/internal/cache"

	"mlpcache/internal/simerr"
)

// Alternative cost-aware replacement engines, after Jeong & Dubois'
// cost-sensitive LRU family, which the paper cites as drop-in CARE
// engines ("In general, any cost-sensitive replacement scheme, including
// the ones proposed in [8], can be used for implementing an MLP-aware
// replacement policy", Section 2). Both consume the same stored cost_q
// the MSHR cost-calculation logic produces; only the victim function
// differs from LIN's linear score.

// BCL is the basic cost-sensitive LRU: walk up the LRU stack from the
// bottom, at most Depth positions, and evict the first block whose cost_q
// is below Threshold; if every inspected block is expensive, fall back to
// plain LRU. Unlike LIN, BCL never lets cost override recency beyond its
// exploration depth, so a flood of expensive blocks degrades gracefully
// to LRU instead of starving the working set.
type BCL struct {
	cache.Base
	threshold uint8
	depth     int
	scratch   bclScratch
}

// bclScratch holds the reusable rank buffers of the BCL victim walk so
// the eviction path stays allocation-free.
type bclScratch struct {
	ranks  []int
	byRank []int
}

// NewBCL returns the basic cost-sensitive LRU engine. threshold is the
// cost_q at or above which a block is "expensive" (the paper's
// quantization makes 4 a natural split: λ·cost_q ≥ recency range); depth
// is how far up the LRU stack to search for a cheap victim.
func NewBCL(threshold uint8, depth int) *BCL {
	if depth < 1 {
		panic(simerr.New(simerr.ErrBadConfig, "core: BCL depth must be at least 1, got %d", depth))
	}
	return &BCL{threshold: threshold, depth: depth}
}

// Name implements cache.Policy.
func (p *BCL) Name() string { return fmt.Sprintf("bcl(t=%d,d=%d)", p.threshold, p.depth) }

// Victim implements cache.Policy.
func (p *BCL) Victim(set cache.SetView) int {
	return bclVictim(set, p.threshold, p.depth, &p.scratch)
}

// bclVictim is the shared BCL victim walk: cheapest-first within depth,
// LRU fallback. One Ranks pass orders the ways by stack position; the
// inverse map byRank[r] then drives the bottom-up cost probe in O(A).
func bclVictim(set cache.SetView, threshold uint8, depth int, sc *bclScratch) int {
	if w := set.FreeWay(); w >= 0 {
		return w
	}
	ways := set.Ways()
	sc.ranks = set.Ranks(sc.ranks)
	if cap(sc.byRank) < ways {
		sc.byRank = make([]int, ways)
	}
	byRank := sc.byRank[:ways]
	for w, r := range sc.ranks {
		byRank[r] = w
	}
	if depth > ways {
		depth = ways
	}
	for r := 0; r < depth; r++ {
		w := byRank[r]
		if set.CostQ(w) < threshold {
			return w
		}
	}
	return byRank[0]
}

// DCL is the dynamic variant: BCL plus a feedback loop that measures
// whether protecting expensive blocks is paying off. Whenever BCL skips
// the LRU block to evict a cheaper, more recent one, the skipped block is
// remembered; if it is re-referenced before leaving the set the
// protection "won" (the saved block's cost would have been paid again),
// otherwise it "lost" (a useless block squatted in the set). A saturating
// counter of wins and losses gates the cost-sensitivity: when losses
// dominate, DCL decays to plain LRU until wins recover — the same
// self-correcting character SBAR provides between whole policies, applied
// inside a single engine.
type DCL struct {
	threshold uint8
	depth     int
	counter   int // saturating in [-dclSat, +dclSat]
	protected map[int]dclWatch
	stats     DCLStats
	scratch   bclScratch
}

// dclWatch tracks one protected block: its tag and how many further
// victim decisions the set has taken since protection began.
type dclWatch struct {
	tag uint64
	age int
}

// dclAgeLimit is the number of subsequent evictions in the same set a
// protected block may survive without a re-reference before the
// protection counts as a loss.
const dclAgeLimit = 32

// DCLStats counts the feedback loop's activity.
type DCLStats struct {
	Protections uint64
	Wins        uint64
	Losses      uint64
}

const dclSat = 63

// NewDCL returns the dynamic cost-sensitive LRU engine.
func NewDCL(threshold uint8, depth int) *DCL {
	if depth < 1 {
		panic(simerr.New(simerr.ErrBadConfig, "core: DCL depth must be at least 1, got %d", depth))
	}
	return &DCL{
		threshold: threshold,
		depth:     depth,
		protected: make(map[int]dclWatch),
	}
}

// Name implements cache.Policy.
func (p *DCL) Name() string { return fmt.Sprintf("dcl(t=%d,d=%d)", p.threshold, p.depth) }

// Stats returns the feedback counters.
func (p *DCL) Stats() DCLStats { return p.stats }

// Enabled reports whether cost-sensitivity is currently active.
func (p *DCL) Enabled() bool { return p.counter >= 0 }

// Victim implements cache.Policy.
func (p *DCL) Victim(set cache.SetView) int {
	// LRUWay prefers the lowest-numbered invalid way, exactly like the
	// per-way reference scan this replaces.
	lruWay := set.LRUWay()
	if !set.Line(lruWay).Valid {
		return lruWay
	}
	// Age any active watch in this set; a protection that survives too
	// many evictions without a re-reference is judged a loss even if
	// the block is still resident.
	if watch, ok := p.protected[set.Index]; ok {
		watch.age++
		if watch.age > dclAgeLimit {
			p.loss()
			delete(p.protected, set.Index)
		} else {
			p.protected[set.Index] = watch
		}
	}
	if !p.Enabled() {
		p.counter++ // decay back toward enabling
		return lruWay
	}
	w := bclVictim(set, p.threshold, p.depth, &p.scratch)
	if w != lruWay {
		// The LRU block was protected: remember it and judge later.
		if watch, ok := p.protected[set.Index]; ok && watch.tag == set.Line(lruWay).Tag {
			// Already being watched; nothing to update.
		} else {
			if ok {
				// A different block was being watched and never won.
				p.loss()
			}
			p.protected[set.Index] = dclWatch{tag: set.Line(lruWay).Tag}
			p.stats.Protections++
		}
	} else if watch, ok := p.protected[set.Index]; ok && set.Line(lruWay).Tag == watch.tag {
		// The watched block is finally evicted without a win: loss.
		p.loss()
		delete(p.protected, set.Index)
	}
	return w
}

// Touched implements cache.Policy: a re-reference to a protected block is
// a win for cost-sensitivity.
func (p *DCL) Touched(set cache.SetView, w int) {
	if watch, ok := p.protected[set.Index]; ok && set.Line(w).Tag == watch.tag {
		p.win()
		delete(p.protected, set.Index)
	}
}

// Filled implements cache.Policy.
func (p *DCL) Filled(set cache.SetView, w int) {
	// If the watched block's way was overwritten (e.g. refreshed fill),
	// stop watching a stale tag.
	if watch, ok := p.protected[set.Index]; ok && set.Line(w).Tag == watch.tag {
		delete(p.protected, set.Index)
	}
}

func (p *DCL) win() {
	p.stats.Wins++
	if p.counter < dclSat {
		p.counter += 2
	}
}

func (p *DCL) loss() {
	p.stats.Losses++
	if p.counter > -dclSat {
		p.counter--
	}
}
