package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// driveCache runs a deterministic access mix and returns every
// observable outcome: probe hits, eviction records and final stats.
func driveCache(c *Cache, seed int64) ([]bool, []Evicted, Stats) {
	rng := rand.New(rand.NewSource(seed))
	var hits []bool
	var evs []Evicted
	for i := 0; i < 4_000; i++ {
		addr := uint64(rng.Intn(1<<14) * 64)
		switch rng.Intn(4) {
		case 0:
			hits = append(hits, c.Probe(addr, rng.Intn(2) == 0))
		case 1:
			ev, evicted := c.Fill(addr, uint8(rng.Intn(8)), rng.Intn(2) == 0)
			if evicted {
				evs = append(evs, ev)
			}
		case 2:
			c.MarkDirty(addr)
		case 3:
			hits = append(hits, c.Probe(addr, false))
		}
	}
	return hits, evs, c.Stats()
}

// TestResetMatchesFresh is the arena's reuse contract: a Reset cache
// must be indistinguishable from a just-built one under any access mix.
func TestResetMatchesFresh(t *testing.T) {
	fresh := newTestCache(64, 8, NewLRU())
	wantHits, wantEvs, wantStats := driveCache(fresh, 11)

	used := newTestCache(64, 8, NewLRU())
	driveCache(used, 99) // dirty every structure with a different mix
	used.Reset(NewLRU())
	gotHits, gotEvs, gotStats := driveCache(used, 11)

	if !reflect.DeepEqual(gotHits, wantHits) {
		t.Fatal("probe outcomes diverge after Reset")
	}
	if !reflect.DeepEqual(gotEvs, wantEvs) {
		t.Fatal("eviction records diverge after Reset")
	}
	if gotStats != wantStats {
		t.Fatalf("stats diverge after Reset: got %+v, want %+v", gotStats, wantStats)
	}
}

// TestResetInstallsDefaultPolicy pins the nil-policy convenience: Reset
// with nil falls back to LRU, mirroring New.
func TestResetInstallsDefaultPolicy(t *testing.T) {
	c := newTestCache(4, 2, NewLRU())
	driveCache(c, 3)
	c.Reset(nil)
	if c.Policy() == nil {
		t.Fatal("Reset(nil) left no policy installed")
	}
	if got := c.Stats(); got != (Stats{}) {
		t.Fatalf("Reset left stats behind: %+v", got)
	}
}
