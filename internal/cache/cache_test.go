package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestCache(sets, assoc int, p Policy) *Cache {
	return New(Config{Sets: sets, Assoc: assoc, BlockBytes: 64}, p)
}

func TestConfigDerivesSets(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 20, Assoc: 16, BlockBytes: 64}, nil)
	if got := c.Config().Sets; got != 1024 {
		t.Fatalf("derived %d sets, want 1024", got)
	}
}

// TestConfigString checks that a configuration prints the geometry it
// resolves to, whether sized by SizeBytes or by Sets, with the line
// size defaulted.
func TestConfigString(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{SizeBytes: 16 << 10, Assoc: 4}, "16KB 4-way 64B-line (64 sets)"},
		{Config{SizeBytes: 1 << 20, Assoc: 16, BlockBytes: 128}, "1024KB 16-way 128B-line (512 sets)"},
		{Config{Sets: 2048, Assoc: 8}, "1024KB 8-way 64B-line (2048 sets)"},
		{Config{SizeBytes: 1 << 20, Sets: 64, Assoc: 2, BlockBytes: 64}, "8KB 2-way 64B-line (64 sets)"},
		{Config{Assoc: 4}, "0KB 4-way 64B-line (0 sets)"},
	}
	for _, tc := range cases {
		if got := tc.cfg.String(); got != tc.want {
			t.Errorf("%#v prints %q, want %q", tc.cfg, got, tc.want)
		}
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	cases := []Config{
		{Assoc: 0, Sets: 4},
		{Assoc: 4},
		{Assoc: 4, Sets: -1},
		{Assoc: maxAssoc + 1, Sets: 1}, // positions are 16-bit
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			New(cfg, nil)
		}()
	}
}

func TestProbeFillBasics(t *testing.T) {
	c := newTestCache(4, 2, NewLRU())
	if c.Probe(0x100, false) {
		t.Fatal("cold probe should miss")
	}
	if _, ev := c.Fill(0x100, 3, false); ev {
		t.Fatal("fill into empty set should not evict")
	}
	if !c.Probe(0x100, false) {
		t.Fatal("probe after fill should hit")
	}
	if !c.Probe(0x13f, false) {
		t.Fatal("same-block offset should hit")
	}
	if cost, ok := c.CostOf(0x100); !ok || cost != 3 {
		t.Fatalf("CostOf = %d,%v; want 3,true", cost, ok)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEvictionAtCapacityIsLRU(t *testing.T) {
	c := newTestCache(1, 2, NewLRU())
	c.Fill(0*64, 0, false)
	c.Fill(1*64, 0, false)
	c.Probe(0*64, false) // block 0 becomes MRU
	ev, evicted := c.Fill(2*64, 0, false)
	if !evicted || ev.Block != 1 {
		t.Fatalf("evicted %+v (%v), want block 1", ev, evicted)
	}
	if !c.Contains(0 * 64) {
		t.Fatal("MRU block evicted")
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := newTestCache(1, 1, NewLRU())
	c.Fill(0, 0, true)
	ev, evicted := c.Fill(64, 0, false)
	if !evicted || !ev.Dirty {
		t.Fatalf("expected dirty eviction, got %+v %v", ev, evicted)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestProbeWriteSetsDirty(t *testing.T) {
	c := newTestCache(1, 1, NewLRU())
	c.Fill(0, 0, false)
	c.Probe(0, true)
	ev, _ := c.Fill(64, 0, false)
	if !ev.Dirty {
		t.Fatal("write probe should have dirtied the line")
	}
}

func TestMarkDirty(t *testing.T) {
	c := newTestCache(2, 1, NewLRU())
	c.Fill(0, 0, false)
	if !c.MarkDirty(0) {
		t.Fatal("MarkDirty on resident block returned false")
	}
	if c.MarkDirty(1 << 20) {
		t.Fatal("MarkDirty on absent block returned true")
	}
	ev, _ := c.Fill(2*64, 0, false)
	if !ev.Dirty {
		t.Fatal("dirty bit not set")
	}
}

func TestInvalidate(t *testing.T) {
	c := newTestCache(2, 2, NewLRU())
	c.Fill(0, 0, true)
	dirty, present := c.Invalidate(0)
	if !dirty || !present {
		t.Fatalf("Invalidate = %v,%v; want true,true", dirty, present)
	}
	if c.Contains(0) {
		t.Fatal("block still present after Invalidate")
	}
	if _, present := c.Invalidate(0); present {
		t.Fatal("second Invalidate found the block")
	}
}

func TestFillRefreshExistingBlock(t *testing.T) {
	c := newTestCache(1, 2, NewLRU())
	c.Fill(0, 1, false)
	c.Fill(64, 1, false)
	// Re-fill block 0 (e.g. racing requests): must not duplicate.
	if _, ev := c.Fill(0, 5, false); ev {
		t.Fatal("refresh fill should not evict")
	}
	if cost, _ := c.CostOf(0); cost != 5 {
		t.Fatalf("refresh did not update cost: %d", cost)
	}
	// Block 64 must survive (no duplicate tag consumed a way).
	if !c.Contains(64) {
		t.Fatal("refresh fill displaced the other resident block")
	}
}

func TestCustomIndexerATDStyle(t *testing.T) {
	// An ATD-style cache: 2 sets fed from "leader" sets 0 and 3 of an
	// 8-set geometry, tagged by full block number.
	slot := map[uint64]int{0: 0, 3: 1}
	c := New(Config{Sets: 2, Assoc: 2, BlockBytes: 64, Index: func(b uint64) (int, uint64) {
		return slot[b%8], b
	}}, NewLRU())
	c.Fill(0*64, 0, false)  // block 0 → slot 0
	c.Fill(8*64, 0, false)  // block 8 ≡ set 0 → slot 0
	c.Fill(3*64, 0, false)  // block 3 → slot 1
	c.Fill(16*64, 0, false) // block 16 ≡ set 0 → slot 0, evicts LRU (block 0)
	if c.Contains(0) {
		t.Fatal("block 0 should have been evicted from slot 0")
	}
	if !c.Contains(8*64) || !c.Contains(3*64) || !c.Contains(16*64) {
		t.Fatal("expected blocks missing")
	}
}

// TestAllOnesTag covers the one tag whose stored key equals an invalid
// line's: with one set and one-byte blocks the tag is the address, so
// address ^0 is tag ^0. Its line must hit, must not be taken for a free
// way, and must be evicted and invalidated like any other.
func TestAllOnesTag(t *testing.T) {
	const top = ^uint64(0)
	c := New(Config{Sets: 1, Assoc: 2, BlockBytes: 1}, NewLRU())
	if c.Probe(top, false) {
		t.Fatal("empty cache hit tag ^0")
	}
	c.Fill(top, 3, false)
	if !c.Probe(top, false) {
		t.Fatal("tag ^0 missed after its fill")
	}
	if _, evicted := c.Fill(5, 0, false); evicted {
		t.Fatal("fill beside tag ^0 evicted instead of taking the free way")
	}
	if ln := c.ViewSet(0).Line(0); !ln.Valid || ln.Tag != top || ln.CostQ != 3 {
		t.Fatalf("tag ^0 line = %+v", ln)
	}
	ev, evicted := c.Fill(7, 0, false) // tag ^0 is least recently used
	if !evicted || ev.Block != top || ev.CostQ != 3 {
		t.Fatalf("evicted %+v (%v), want block ^0 with cost 3", ev, evicted)
	}
	c.Fill(top, 0, true)
	if dirty, present := c.Invalidate(top); !dirty || !present || c.Contains(top) {
		t.Fatalf("Invalidate(^0) = %v, %v; still present %v", dirty, present, c.Contains(top))
	}
	if !c.Contains(7) {
		t.Fatal("invalidating tag ^0 dropped another line")
	}
}

// Property: a set never holds two lines with the same tag, the recency
// ranks of valid lines form a permutation of 0..valid-1, and the
// positions Ranks reports equal them, under a mix of probes, fills,
// invalidations and demotions.
func TestSetInvariantsProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		c := newTestCache(4, 4, NewLRU())
		ops := int(opsRaw%500) + 50
		for i := 0; i < ops; i++ {
			addr := uint64(r.Intn(64)) * 64
			switch r.Intn(8) {
			case 0:
				c.Invalidate(addr)
			case 1:
				v := c.ViewSet(r.Intn(4))
				v.Demote(r.Intn(v.Ways()))
			default:
				if !c.Probe(addr, r.Intn(4) == 0) {
					c.Fill(addr, uint8(r.Intn(8)), false)
				}
			}
		}
		var buf []int
		for s := 0; s < 4; s++ {
			v := SetView{cache: c, Index: s}
			tags := map[uint64]bool{}
			valid := 0
			for w := 0; w < v.Ways(); w++ {
				ln := v.Line(w)
				if !ln.Valid {
					continue
				}
				valid++
				if tags[ln.Tag] {
					return false // duplicate tag
				}
				tags[ln.Tag] = true
			}
			ranks := map[int]bool{}
			buf = v.Ranks(buf)
			for w := 0; w < v.Ways(); w++ {
				rk := v.RecencyRank(w)
				if buf[w] != rk {
					return false // maintained position disagrees
				}
				if !v.Line(w).Valid {
					continue
				}
				if rk < 0 || rk >= valid || ranks[rk] {
					return false
				}
				ranks[rk] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: hit-then-probe of the same address always hits again
// (residency is stable between fills).
func TestProbeIdempotentHit(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := newTestCache(8, 2, NewLRU())
		for i := 0; i < 200; i++ {
			addr := uint64(r.Intn(100)) * 64
			if c.Probe(addr, false) {
				if !c.Probe(addr, false) {
					return false
				}
			} else {
				c.Fill(addr, 0, false)
				if !c.Probe(addr, false) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyVictims(t *testing.T) {
	t.Run("fifo", func(t *testing.T) {
		c := newTestCache(1, 2, NewFIFO())
		c.Fill(0, 0, false)
		c.Fill(64, 0, false)
		c.Probe(0, false) // touch does not protect under FIFO
		ev, _ := c.Fill(128, 0, false)
		if ev.Block != 0 {
			t.Fatalf("FIFO evicted block %d, want 0", ev.Block)
		}
	})
	t.Run("random-in-range-and-deterministic", func(t *testing.T) {
		mk := func() []uint64 {
			c := newTestCache(1, 4, NewRandom(42))
			var evs []uint64
			for b := uint64(0); b < 32; b++ {
				if ev, evicted := c.Fill(b*64, 0, false); evicted {
					evs = append(evs, ev.Block)
				}
			}
			return evs
		}
		a, b := mk(), mk()
		if len(a) != 28 {
			t.Fatalf("got %d evictions, want 28", len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("random policy not deterministic for equal seeds")
			}
		}
	})
}

func TestPolicyPanicsOnBadVictim(t *testing.T) {
	bad := NewCostAwareStub()
	c := newTestCache(1, 2, bad)
	c.Fill(0, 0, false)
	c.Fill(64, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range victim")
		}
	}()
	c.Fill(128, 0, false)
}

// NewCostAwareStub returns a deliberately broken policy for the
// panic-path test.
func NewCostAwareStub() Policy { return badPolicy{} }

type badPolicy struct{ Base }

func (badPolicy) Name() string       { return "bad" }
func (badPolicy) Victim(SetView) int { return 99 }

func TestViewSetAndDemote(t *testing.T) {
	c := newTestCache(2, 3, NewLRU())
	c.Fill(0*64, 0, false) // set 0
	c.Fill(2*64, 0, false) // set 0
	c.Fill(4*64, 0, false) // set 0: fill order 0,2,4 → 4 is MRU
	v := c.ViewSet(0)
	mru := -1
	for w := 0; w < v.Ways(); w++ {
		if v.RecencyRank(w) == 2 {
			mru = w
		}
	}
	if mru < 0 {
		t.Fatal("no MRU way found")
	}
	v.Demote(mru)
	if got := v.RecencyRank(mru); got != 0 {
		t.Fatalf("demoted way has rank %d, want 0", got)
	}
	// Next eviction must take the demoted line.
	demotedTag := v.Line(mru).Tag
	ev, _ := c.Fill(6*64, 0, false)
	if ev.Block != demotedTag*2 { // default indexer: block = tag*sets + set
		t.Fatalf("evicted block %d, want the demoted line", ev.Block)
	}
}

func TestDemoteSingleLineIsNoop(t *testing.T) {
	c := newTestCache(1, 2, NewLRU())
	c.Fill(0, 0, false)
	v := c.ViewSet(0)
	v.Demote(0) // only one valid line; must not panic or corrupt
	if !c.Contains(0) {
		t.Fatal("demote corrupted the set")
	}
}

// TestDemoteShiftKeepsRecencyDistinct covers Demote's shift: demoting
// below a line that already holds the lowest recency moves every other
// valid line up one step, and the next access must still rank above
// all of them rather than tie the line that was most recent.
func TestDemoteShiftKeepsRecencyDistinct(t *testing.T) {
	c := newTestCache(1, 4, NewLRU())
	c.Fill(0, 0, false)  // A
	c.Fill(64, 0, false) // B
	v := c.ViewSet(0)
	v.Demote(1)                              // B drops below A
	c.Fill(128, 0, false)                    // C, most recent
	v.Demote(0)                              // A drops below B: the shift
	c.Probe(64, false)                       // B becomes most recent
	want := map[uint64]int{0: 0, 2: 1, 1: 2} // by tag: A, C, B
	for w := 0; w < 3; w++ {
		if got := v.RecencyRank(w); got != want[v.Line(w).Tag] {
			t.Errorf("way %d (tag %d): rank %d, want %d", w, v.Line(w).Tag, got, want[v.Line(w).Tag])
		}
	}
}

func TestViewSetPanicsOutOfRange(t *testing.T) {
	c := newTestCache(2, 2, NewLRU())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.ViewSet(5)
}

func TestAccessorsAndStats(t *testing.T) {
	c := newTestCache(4, 2, NewLRU())
	if got := c.Config().String(); got == "" {
		t.Fatal("empty config string")
	}
	if c.SetOf(5*64) != 1 {
		t.Fatalf("SetOf = %d", c.SetOf(5*64))
	}
	c.Probe(0, false)
	c.Fill(0, 0, false)
	c.Probe(0, false)
	st := c.Stats()
	if st.Accesses() != 2 || st.MissRate() != 0.5 {
		t.Fatalf("stats %+v", st)
	}
	if c.Policy().Name() != "lru" {
		t.Fatal("Policy accessor wrong")
	}
	c.SetPolicy(NewFIFO())
	if c.Policy().Name() != "fifo" {
		t.Fatal("SetPolicy failed")
	}
	var emptyStats Stats
	if emptyStats.MissRate() != 0 {
		t.Fatal("empty MissRate should be 0")
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{NewLRU(), NewFIFO(), NewRandom(1)} {
		if p.Name() == "" {
			t.Fatal("empty policy name")
		}
		// The observer hooks must be safe no-ops.
		c := newTestCache(1, 2, p)
		c.Fill(0, 0, false)
		c.Probe(0, false)
	}
}
