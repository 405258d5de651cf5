package audit

import (
	"fmt"

	"mlpcache/internal/cache"
)

// recencyWindow is how many sets one RecencyPermutation pass inspects.
// The reference ranking of a set is O(assoc²) (RecencyRank), so a full
// 1024-set scan per pass would dominate small runs; a rotating window
// still covers the whole cache every sets/window passes.
const recencyWindow = 64

// RecencyPermutation returns a checker verifying that each inspected
// set's recency ranks form a permutation of 0..v-1 over its v valid
// lines — the LRU-stack property every recency-based policy in the
// simulator relies on — and that the positions the cache maintains for
// its policies (SetView.Ranks) equal those reference ranks way by way.
// Each pass audits a rotating window of sets so the whole cache is
// covered across passes at bounded per-pass cost.
func RecencyPermutation(name string, c *cache.Cache) Checker {
	next := 0
	return Func(name, func(_ uint64, report func(string)) {
		sets := c.Config().Sets
		window := recencyWindow
		if window > sets {
			window = sets
		}
		for i := 0; i < window; i++ {
			set := (next + i) % sets
			checkSetRecency(c, set, report)
		}
		next = (next + window) % sets
	})
}

func checkSetRecency(c *cache.Cache, set int, report func(string)) {
	view := c.ViewSet(set)
	valid := 0
	for w := 0; w < view.Ways(); w++ {
		if view.Line(w).Valid {
			valid++
		}
	}
	ranks := view.Ranks(nil)
	seen := make([]bool, valid)
	for w := 0; w < view.Ways(); w++ {
		rank := view.RecencyRank(w)
		if ranks[w] != rank {
			report(fmt.Sprintf("set %d way %d: maintained LRU-stack position %d, recency rank %d", set, w, ranks[w], rank))
			return
		}
		if !view.Line(w).Valid {
			continue
		}
		if rank < 0 || rank >= valid {
			report(fmt.Sprintf("set %d way %d: recency rank %d outside [0,%d)", set, w, rank, valid))
			return
		}
		if seen[rank] {
			report(fmt.Sprintf("set %d: duplicate recency rank %d", set, rank))
			return
		}
		seen[rank] = true
	}
}

// CostQBound returns a checker verifying every resident line's quantized
// cost fits the stated bit width (3 bits → 7 in the paper's design, §5).
func CostQBound(name string, c *cache.Cache, max uint8) Checker {
	return Func(name, func(_ uint64, report func(string)) {
		cfg := c.Config()
		for set := 0; set < cfg.Sets; set++ {
			view := c.ViewSet(set)
			for w := 0; w < view.Ways(); w++ {
				ln := view.Line(w)
				if ln.Valid && ln.CostQ > max {
					report(fmt.Sprintf("set %d way %d: cost_q %d exceeds %d", set, w, ln.CostQ, max))
				}
			}
		}
	})
}
