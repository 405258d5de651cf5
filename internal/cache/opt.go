package cache

// Offline replacement simulation over a recorded block-access stream.
// Belady's OPT (evict the block referenced furthest in the future) gives
// the theoretical minimum miss count the paper's Figure 1 contrasts with
// MLP-aware replacement; the offline LRU simulation provides the matching
// online baseline for miss-count comparisons that do not need timing.
// internal/oracle generalizes this engine to streams captured from live
// runs, with per-access cost weights (the OPT column of oracle.Compare
// reproduces SimulateOPT exactly on bare block streams — a golden test
// enforces it), and learn.Train tabulates its per-access outcomes.

import "mlpcache/internal/simerr"

// AccessResult records the outcome of one access in an offline run.
type AccessResult struct {
	Block uint64
	Hit   bool
	// Evicted is the block displaced when this access missed into a
	// full set; valid only when HasVictim.
	Evicted   uint64
	HasVictim bool
}

// OfflineResult summarizes an offline replacement simulation.
type OfflineResult struct {
	Misses   uint64
	Accesses uint64
	Trace    []AccessResult // per-access outcomes, in order
}

// MissRate returns misses over accesses (0 when empty).
func (r OfflineResult) MissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// SimulateOPT runs Belady's optimal replacement over the block stream on a
// cache with the given number of sets and ways (sets=1 models a
// fully-associative cache). Blocks map to sets by block % sets.
func SimulateOPT(stream []uint64, sets, assoc int) OfflineResult {
	if sets <= 0 || assoc <= 0 {
		panic(simerr.New(simerr.ErrBadConfig, "cache: SimulateOPT needs positive sets and assoc"))
	}
	const never = int(^uint(0) >> 1) // sentinel: no future use

	// nextUse[i] is the index of the next access to stream[i]'s block
	// after position i, or never.
	nextUse := make([]int, len(stream))
	last := make(map[uint64]int, len(stream))
	for i := len(stream) - 1; i >= 0; i-- {
		if j, ok := last[stream[i]]; ok {
			nextUse[i] = j
		} else {
			nextUse[i] = never
		}
		last[stream[i]] = i
	}

	type resident struct {
		block uint64
		next  int // index of the block's next use
	}
	setsState := make([][]resident, sets)
	res := OfflineResult{Trace: make([]AccessResult, 0, len(stream))}

	for i, b := range stream {
		s := int(b % uint64(sets))
		lines := setsState[s]
		out := AccessResult{Block: b}
		found := -1
		for w := range lines {
			if lines[w].block == b {
				found = w
				break
			}
		}
		if found >= 0 {
			lines[found].next = nextUse[i]
			out.Hit = true
		} else {
			res.Misses++
			if len(lines) < assoc {
				setsState[s] = append(lines, resident{block: b, next: nextUse[i]})
			} else {
				victim := 0
				for w := 1; w < len(lines); w++ {
					if lines[w].next > lines[victim].next {
						victim = w
					}
				}
				out.Evicted = lines[victim].block
				out.HasVictim = true
				lines[victim] = resident{block: b, next: nextUse[i]}
			}
		}
		res.Accesses++
		res.Trace = append(res.Trace, out)
	}
	return res
}

// SimulateOffline runs the given policy over the block stream on a
// freshly built cache with the given geometry, recording per-access
// outcomes. It is the untimed (miss-count only) counterpart of the full
// simulator, used by tests and the Figure 1 analysis.
func SimulateOffline(stream []uint64, sets, assoc int, policy Policy) OfflineResult {
	c := New(Config{Sets: sets, Assoc: assoc, BlockBytes: 1}, policy)
	res := OfflineResult{Trace: make([]AccessResult, 0, len(stream))}
	for _, b := range stream {
		out := AccessResult{Block: b}
		if c.Probe(b, false) {
			out.Hit = true
		} else {
			res.Misses++
			ev, has := c.Fill(b, 0, false)
			if has {
				out.Evicted = ev.Block
				out.HasVictim = true
			}
		}
		res.Accesses++
		res.Trace = append(res.Trace, out)
	}
	return res
}
