package cache

// Policy selects replacement victims. Implementations may keep per-set
// state keyed by SetView.Index, but the base policies here derive
// everything from the line metadata the cache maintains (recency and
// insertion sequence), which keeps them trivially correct for any number
// of sets.
type Policy interface {
	// Name identifies the policy in reports ("lru", "lin4", ...).
	Name() string
	// Victim picks the way to evict from a full set.
	Victim(set SetView) int
	// Touched notifies the policy of a hit on way w.
	Touched(set SetView, w int)
	// Filled notifies the policy of a fill into way w.
	Filled(set SetView, w int)
}

// Base is a no-op observer mix-in for policies that need no notification
// state of their own.
type Base struct{}

// Touched implements Policy.
func (Base) Touched(SetView, int) {}

// Filled implements Policy.
func (Base) Filled(SetView, int) {}

// LRU evicts the least recently used line — the paper's baseline policy.
type LRU struct{ Base }

// NewLRU returns the least-recently-used policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (*LRU) Name() string { return "lru" }

// Victim implements Policy: the way at recency rank 0, preferring
// invalid lines (see SetView.LRUWay).
func (*LRU) Victim(set SetView) int { return set.LRUWay() }

// FIFO evicts the line that was filled first.
type FIFO struct{ Base }

// NewFIFO returns the first-in-first-out policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Policy.
func (*FIFO) Name() string { return "fifo" }

// Victim implements Policy.
func (*FIFO) Victim(set SetView) int {
	if w := set.FreeWay(); w >= 0 {
		return w
	}
	_, stamps := set.lines()
	best := 0
	for w := range stamps {
		if stamps[w].inserted < stamps[best].inserted {
			best = w
		}
	}
	return best
}

// Random evicts a uniformly random line, using a deterministic seeded
// generator so runs remain reproducible.
type Random struct {
	Base
	state uint64
}

// NewRandom returns the random policy seeded with seed.
func NewRandom(seed uint64) *Random {
	return &Random{state: seed | 1}
}

// Name implements Policy.
func (*Random) Name() string { return "random" }

// Victim implements Policy.
func (r *Random) Victim(set SetView) int {
	if w := set.FreeWay(); w >= 0 {
		return w
	}
	// xorshift64
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return int(r.state % uint64(set.Ways()))
}

// NMRU evicts the least recently used among all lines except the most
// recently used (equivalent to LRU for 2-way caches; cheaper in hardware
// for higher associativity). Included as an additional CARE baseline.
type NMRU struct {
	Base
	state uint64
}

// NewNMRU returns the not-most-recently-used policy seeded with seed.
func NewNMRU(seed uint64) *NMRU { return &NMRU{state: seed | 1} }

// Name implements Policy.
func (*NMRU) Name() string { return "nmru" }

// Victim implements Policy. The least recently used line is never the
// most recently used one in a set of two or more valid lines, so this is
// the LRU victim (SetView.LRUWay).
func (*NMRU) Victim(set SetView) int { return set.LRUWay() }
