package oracle

// Offline replays over a captured Log. Every replay maps block b to set
// b % sets — the live L2's default indexer — and charges an access its
// Record.CostQ when it misses, so the replays and the live run are
// scored in the same currency: miss count and summed quantized mlp-cost
// (the paper's Section 2 objective). Sets are independent under this
// mapping, so Compare partitions the log by set once and replays each
// set under every rule.

import (
	"mlpcache/internal/blockmap"
	"mlpcache/internal/cache"
	"mlpcache/internal/core"
	"mlpcache/internal/simerr"
)

// Result summarizes one replay of a log.
type Result struct {
	// Name labels the replayed policy ("belady", "cost-belady", "ehc",
	// or the online policy's own name).
	Name string
	// Accesses is the replayed access count (== Log.Accesses()).
	Accesses uint64
	// Misses counts replay misses.
	Misses uint64
	// CostQSum sums Record.CostQ over replay misses.
	CostQSum uint64
}

// never is the next-use sentinel: the block is not referenced again.
const never = int(^uint(0) >> 1)

// access is one record of the log in set-major order.
type access struct {
	// id numbers the record's block densely, in order of first access.
	id int
	// next is the position within the set of the block's next access,
	// or never.
	next  int
	costQ uint8
}

// partition orders the log's records by home set (block % sets),
// keeping stream order within each set, and links every access to its
// block's next one. Set s is order[start[s]:start[s+1]]; ids counts the
// distinct blocks.
func partition(log *Log, sets int) (order []access, start []int, ids int) {
	start = make([]int, sets+1)
	for _, rec := range log.Records {
		start[rec.Block%uint64(sets)+1]++
	}
	for s := 0; s < sets; s++ {
		start[s+1] += start[s]
	}
	fill := append([]int(nil), start[:sets]...)
	order = make([]access, len(log.Records))
	// last maps a block to the index in order of its latest access.
	last := blockmap.New[int](len(log.Records) / 8)
	for _, rec := range log.Records {
		s := rec.Block % uint64(sets)
		j := fill[s]
		fill[s]++
		a := access{next: never, costQ: rec.CostQ}
		if q, ok := last.Get(rec.Block); ok {
			order[q].next = j - start[s]
			a.id = order[q].id
		} else {
			a.id = ids
			ids++
		}
		order[j] = a
		last.Put(rec.Block, j)
	}
	return order, start, ids
}

// line is one resident block of a replayed set.
type line struct {
	id      int
	next    int     // position of the block's next access, or never
	lastUse int     // position of the block's latest access
	hits    uint64  // hits since the fill
	expect  float64 // the block's expected hits when it was filled
}

// rule is an offline victim rule.
type rule uint8

const (
	// belady evicts the line referenced furthest in the future (first
	// such on ties): classic Belady/OPT, the minimum miss count.
	belady rule = iota
	// costDensity evicts the line whose eviction forfeits the least
	// cost per position of reuse distance. Evicting a line turns its
	// next access into a miss that costs that access's CostQ, so
	// never-referenced-again lines go first (they forfeit nothing), then
	// the minimum CostQ(next)/(next-p), ties toward the furthest next use.
	costDensity
	// ehc evicts the line with the fewest expected hits remaining
	// (expected minus received), ties toward LRU. It uses no future
	// knowledge: a block's expectation is an EWMA of its hits per
	// residency, updated when it is evicted.
	ehc
)

// victim picks the way of a full set to evict at position p.
func (r rule) victim(lines []line, set []access, p int) int {
	w := 0
	switch r {
	case belady:
		for v := 1; v < len(lines); v++ {
			if lines[v].next > lines[w].next {
				w = v
			}
		}
	case costDensity:
		w = -1
		wScore := 0.0
		for v := range lines {
			n := lines[v].next
			if n == never {
				return v
			}
			score := float64(set[n].costQ) / float64(n-p)
			if w < 0 || score < wScore || (score == wScore && n > lines[w].next) {
				w, wScore = v, score
			}
		}
	case ehc:
		for v := 1; v < len(lines); v++ {
			sv := lines[v].expect - float64(lines[v].hits)
			sw := lines[w].expect - float64(lines[w].hits)
			if sv < sw || (sv == sw && lines[v].lastUse < lines[w].lastUse) {
				w = v
			}
		}
	}
	return w
}

// replaySet replays one set's accesses under rule r and returns its
// misses and summed cost. lines is scratch with capacity assoc; expect
// holds each block's expected hits, which only the ehc rule updates.
func replaySet(set []access, assoc int, r rule, lines []line, expect []float64) (misses, cost uint64) {
	lines = lines[:0]
	for p, a := range set {
		found := -1
		for w := range lines {
			if lines[w].id == a.id {
				found = w
				break
			}
		}
		if found >= 0 {
			l := &lines[found]
			l.next, l.lastUse = a.next, p
			l.hits++
			continue
		}
		misses++
		cost += uint64(a.costQ)
		fresh := line{id: a.id, next: a.next, lastUse: p, expect: expect[a.id]}
		if len(lines) < assoc {
			lines = append(lines, fresh)
			continue
		}
		w := r.victim(lines, set, p)
		if r == ehc {
			old := &lines[w]
			expect[old.id] = (old.expect + float64(old.hits)) / 2
		}
		lines[w] = fresh
	}
	return misses, cost
}

// checkGeometry validates a replay geometry.
func checkGeometry(sets, assoc int) {
	if sets <= 0 || assoc <= 0 {
		panic(simerr.New(simerr.ErrBadConfig,
			"oracle: replay needs positive sets and assoc, got %d x %d", sets, assoc))
	}
}

// Compare replays the log at the given geometry in one pass: the log is
// partitioned by set once, and each set is replayed three times.
//   - Belady, whose schedule is the OPT column (minimum misses; it
//     generalizes cache.SimulateOPT, the Figure 1 worked example's OPT,
//     to the live L2's per-set geometry).
//   - The cost-density greedy. CostOPT minimizes summed quantized
//     mlp-cost, the paper's Section 2 objective: weighted offline
//     caching has no simple exchange-argument optimum, so each set keeps
//     the cheaper of the greedy's and Belady's schedules (cost first,
//     misses as tie-break). Sets are independent, so the combination is
//     itself a feasible schedule whose cost never exceeds Belady's.
//   - EHC, the expected-hit-count predictor: unlike the two oracles it
//     uses no future knowledge, so it is a realizable midpoint.
func Compare(log *Log, sets, assoc int) Comparison {
	checkGeometry(sets, assoc)
	n := log.Accesses()
	cmp := Comparison{
		Sets:       sets,
		Assoc:      assoc,
		Accesses:   n,
		LiveMisses: log.LiveMisses,
		LiveCost:   log.LiveCost,
		OPT:        Result{Name: "belady", Accesses: n},
		CostOPT:    Result{Name: "cost-belady", Accesses: n},
		EHC:        Result{Name: "ehc", Accesses: n},
	}
	order, start, ids := partition(log, sets)
	expect := make([]float64, ids)
	lines := make([]line, 0, assoc)
	for s := 0; s < sets; s++ {
		set := order[start[s]:start[s+1]]
		optMiss, optCost := replaySet(set, assoc, belady, lines, expect)
		greedyMiss, greedyCost := replaySet(set, assoc, costDensity, lines, expect)
		ehcMiss, ehcCost := replaySet(set, assoc, ehc, lines, expect)
		cmp.OPT.Misses += optMiss
		cmp.OPT.CostQSum += optCost
		if optCost < greedyCost || (optCost == greedyCost && optMiss < greedyMiss) {
			greedyMiss, greedyCost = optMiss, optCost
		}
		cmp.CostOPT.Misses += greedyMiss
		cmp.CostOPT.CostQSum += greedyCost
		cmp.EHC.Misses += ehcMiss
		cmp.EHC.CostQSum += ehcCost
	}
	return cmp
}

// ReplayOnline replays the log through a real cache.Policy on a fresh
// tag store with the same geometry and scoring — the untimed online
// baseline the oracle results are compared against (and the property
// tests' witnesses: no online policy can miss less than Belady).
func ReplayOnline(log *Log, sets, assoc int, policy cache.Policy) Result {
	return replayStore(log, newStore(sets, assoc, policy), policy.Name(), nil)
}

// ReplayHybrid replays the log through a hybrid selection scheme
// (SBAR/CBS) driving a fresh tag store — the untimed analogue of a
// timed hybrid run. build receives the tag store so the hybrid can
// attach its ATDs; the returned hybrid is installed as the store's
// policy and the replay mirrors the memory system's access protocol:
// probe, OnAccess with the outcome (every replay miss is primary — the
// untimed replay has no MSHR to merge into), then fill and OnFill on a
// miss. Epochs never advance; static leader selection is the natural
// fit here.
func ReplayHybrid(log *Log, sets, assoc int, build func(mtd *cache.Cache) core.Hybrid) Result {
	c := newStore(sets, assoc, nil)
	h := build(c)
	c.SetPolicy(h)
	return replayStore(log, c, h.Name(), h)
}

// newStore builds the fresh tag store an online replay drives.
func newStore(sets, assoc int, policy cache.Policy) *cache.Cache {
	checkGeometry(sets, assoc)
	return cache.New(cache.Config{Sets: sets, Assoc: assoc, BlockBytes: 1}, policy)
}

// replayStore is the one online replay loop: probe each record, and on
// a miss charge its cost and fill. A non-nil hybrid also sees the
// memory system's OnAccess and OnFill calls.
func replayStore(log *Log, c *cache.Cache, name string, h core.Hybrid) Result {
	res := Result{Name: name, Accesses: log.Accesses()}
	for _, rec := range log.Records {
		hit := c.Probe(rec.Block, false)
		if h != nil {
			h.OnAccess(rec.Block, false, hit, !hit)
		}
		if hit {
			continue
		}
		res.Misses++
		res.CostQSum += uint64(rec.CostQ)
		c.Fill(rec.Block, rec.CostQ, false)
		if h != nil {
			h.OnFill(rec.Block, rec.CostQ)
		}
	}
	return res
}
