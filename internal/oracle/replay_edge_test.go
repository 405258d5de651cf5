package oracle

import (
	"testing"

	"mlpcache/internal/cache"
	"mlpcache/internal/core"
	"mlpcache/internal/sim"
)

// replayAll runs every replay in the package over one log and returns
// the results keyed by name — the degenerate-input tests assert the
// same properties across all of them.
func replayAll(log *Log, sets, assoc int) map[string]Result {
	cmp := Compare(log, sets, assoc)
	out := map[string]Result{
		"belady":      cmp.OPT,
		"cost-belady": cmp.CostOPT,
		"ehc":         cmp.EHC,
		"online-lru":  ReplayOnline(log, sets, assoc, cache.NewLRU()),
		"online-rand": ReplayOnline(log, sets, assoc, cache.NewRandom(7)),
	}
	out["hybrid-sbar"] = ReplayHybrid(log, sets, assoc, func(mtd *cache.Cache) core.Hybrid {
		return core.NewSBAR(mtd, core.SBARConfig{
			LeaderSets: 2,
			PselBits:   6,
			Lambda:     4,
			Selector:   core.NewSimpleStatic(sets, 2),
			Threads:    1,
		})
	})
	return out
}

// TestReplayEmptyCapture feeds a capture with no records through every
// replay and Compare: clean all-zero results and zero headroom, no
// panics, no NaNs.
func TestReplayEmptyCapture(t *testing.T) {
	log := &Log{}
	for name, res := range replayAll(log, 8, 4) {
		if res.Accesses != 0 || res.Misses != 0 || res.CostQSum != 0 {
			t.Errorf("%s: empty capture replayed to %d/%d/%d accesses/misses/cost, want all zero",
				name, res.Accesses, res.Misses, res.CostQSum)
		}
	}
	cmp := Compare(log, 8, 4)
	if got := cmp.MissHeadroomPct(); got != 0 {
		t.Errorf("empty capture miss headroom %.1f%%, want 0", got)
	}
	if got := cmp.CostHeadroomPct(); got != 0 {
		t.Errorf("empty capture cost headroom %.1f%%, want 0", got)
	}
	if len(log.Blocks()) != 0 {
		t.Errorf("empty capture yielded %d training blocks", len(log.Blocks()))
	}
}

// TestReplaySingleRecord replays a one-record capture: exactly one
// access, one compulsory miss, and the record's cost — under every
// replay rule.
func TestReplaySingleRecord(t *testing.T) {
	log := &Log{Records: []Record{{Block: 13, CostQ: 5, Kind: sim.AccessMiss}}}
	for name, res := range replayAll(log, 8, 4) {
		if res.Accesses != 1 || res.Misses != 1 || res.CostQSum != 5 {
			t.Errorf("%s: single record replayed to %d/%d/%d accesses/misses/cost, want 1/1/5",
				name, res.Accesses, res.Misses, res.CostQSum)
		}
	}
}

// TestReplayAllHitsCapture builds the capture an all-hits run would
// leave behind — LiveMisses and LiveCost zero, every record a hit on
// one hot block — and checks the replays charge only the compulsory
// miss while Compare reports clean zero headroom (the live run has no
// misses an oracle could avoid; the percentages must not go negative
// or NaN).
func TestReplayAllHitsCapture(t *testing.T) {
	log := &Log{}
	for i := 0; i < 64; i++ {
		log.Records = append(log.Records, Record{Block: 21, CostQ: 3, Kind: sim.AccessHit})
	}
	for name, res := range replayAll(log, 8, 4) {
		if res.Accesses != 64 || res.Misses != 1 {
			t.Errorf("%s: all-hits capture replayed to %d/%d accesses/misses, want 64/1",
				name, res.Accesses, res.Misses)
		}
	}
	cmp := Compare(log, 8, 4)
	if got := cmp.MissHeadroomPct(); got != 0 {
		t.Errorf("all-hits capture miss headroom %.1f%%, want 0", got)
	}
	if got := cmp.CostHeadroomPct(); got != 0 {
		t.Errorf("all-hits capture cost headroom %.1f%%, want 0", got)
	}
}
