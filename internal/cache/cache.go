// Package cache implements the set-associative cache model used for every
// tag directory in the simulator: the L1 data cache, the L2 (the paper's
// MTD, main tag directory), and the tag-only auxiliary tag directories
// (ATDs) that the hybrid replacement schemes shadow it with.
//
// The cache separates lookup (Probe) from allocation (Fill) because in the
// timing simulator a miss is serviced hundreds of cycles after it is
// detected, with other accesses in between. Replacement is delegated to a
// Policy, which sees a SetView exposing per-line recency rank and the
// paper's quantized MLP-based cost (Figure 3b) — the two operands of the
// Section 5 linear cost function. The geometry defaults mirror the
// paper's Table 2 baseline (1MB 16-way L2, 64B lines).
package cache

import (
	"fmt"
	"math/bits"

	"mlpcache/internal/metrics"
	"mlpcache/internal/simerr"
)

// Line is one cache block's tag-store entry, as SetView.Line reports
// it. An invalid entry reads as the zero Line.
type Line struct {
	// Tag identifies the block within its set (see Indexer).
	Tag uint64
	// Valid marks the entry as holding a block.
	Valid bool
	// Dirty marks the block as modified; evicting it produces a
	// writeback.
	Dirty bool
	// CostQ is the 3-bit quantized MLP-based cost stored alongside the
	// tag, written when the block's miss was serviced (paper §5).
	CostQ uint8
}

// Indexer maps a block number to a set index and an in-set tag. The
// default splits the block number into low set bits and high tag bits;
// sampled ATDs override it to place only leader sets.
type Indexer func(block uint64) (set int, tag uint64)

// Config describes a cache's geometry.
type Config struct {
	// SizeBytes is the total data capacity. Either SizeBytes or Sets
	// must be given; Sets wins if both are set.
	SizeBytes uint64
	// Assoc is the number of ways per set.
	Assoc int
	// BlockBytes is the line size (64 in the baseline).
	BlockBytes uint64
	// Sets overrides the set count derived from SizeBytes.
	Sets int
	// Index overrides the default block→(set,tag) mapping. By
	// convention a custom indexer uses the full block number as the
	// tag (sampled ATDs do), so evicted lines can be reported without
	// an inverse mapping.
	Index Indexer
}

// String prints the geometry the configuration resolves to: the set
// count SetCount gives, 0 for an unbuildable geometry, and the line size
// with its 64-byte default.
func (c Config) String() string {
	sets, _ := c.SetCount()
	block := c.blockBytes()
	return fmt.Sprintf("%dKB %d-way %dB-line (%d sets)",
		uint64(sets)*uint64(c.Assoc)*block/1024, c.Assoc, block, sets)
}

// blockBytes returns the line size, 64 bytes when BlockBytes is 0.
func (c Config) blockBytes() uint64 {
	if c.BlockBytes == 0 {
		return 64
	}
	return c.BlockBytes
}

// Validate checks the geometry, wrapping failures in simerr.ErrBadConfig.
// It accepts every configuration New accepts (BlockBytes 0 defaults to
// 64; Sets may be derived from SizeBytes).
func (c Config) Validate() error {
	_, err := c.SetCount()
	return err
}

// SetCount returns the set count the geometry resolves to — Sets if
// given, otherwise derived from SizeBytes — or a wrapped
// simerr.ErrBadConfig when the geometry is unbuildable.
func (c Config) SetCount() (int, error) {
	block := c.blockBytes()
	if c.Assoc <= 0 || c.Assoc > maxAssoc {
		return 0, simerr.New(simerr.ErrBadConfig, "cache: associativity must be in [1,%d], got %d", maxAssoc, c.Assoc)
	}
	sets := c.Sets
	if sets == 0 {
		if c.SizeBytes == 0 {
			return 0, simerr.New(simerr.ErrBadConfig, "cache: need SizeBytes or Sets")
		}
		sets = int(c.SizeBytes / (uint64(c.Assoc) * block))
	}
	if sets <= 0 {
		return 0, simerr.New(simerr.ErrBadConfig,
			"cache: set count must be positive (size %dB, %d-way, %dB blocks gives %d sets)",
			c.SizeBytes, c.Assoc, block, sets)
	}
	return sets, nil
}

// Stats aggregates a cache's access counters.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Fills      uint64
	Writebacks uint64
}

// Accesses returns hits plus misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns misses over accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

// Observe registers the counters under prefix (e.g. "cache.l2") in the
// metrics registry: <prefix>.hit, .miss, .fill, .writeback plus the
// derived .miss_rate gauge.
func (s Stats) Observe(reg *metrics.Registry, prefix string) {
	reg.Counter(prefix+".hit", "accesses", "tag-store probe hits").Add(s.Hits)
	reg.Counter(prefix+".miss", "accesses", "tag-store probe misses").Add(s.Misses)
	reg.Counter(prefix+".fill", "fills", "blocks installed").Add(s.Fills)
	reg.Counter(prefix+".writeback", "evictions", "dirty evictions").Add(s.Writebacks)
	reg.Gauge(prefix+".miss_rate", "ratio", "misses over accesses").Set(s.MissRate())
}

// Cache is a set-associative tag store. Each line's state is split
// across arrays indexed by set*Assoc+way, so the scans a probe and an
// eviction make read only the bytes they need:
//
//   - keys holds every tag inverted (^tag), a set's ways contiguous, so a
//     probe compares 8·Assoc bytes (two host cache lines at 16 ways). An
//     invalid line holds key 0, which folds validity into the compare;
//     only the tag ^0 shares that key, and lookup resolves it through the
//     valid bit.
//   - state holds each line's LRU-stack position (0 = LRU … valid−1 =
//     MRU; 0 for invalid lines), its quantized cost and its valid and
//     dirty bits, four bytes per line. Probe, Fill, Invalidate, Demote
//     and Reset keep the positions current, so a victim decision reads
//     them instead of ranking the set.
//   - stamps holds each line's last-access and fill sequence numbers,
//     side by side so a fill writes one host cache line. lastUse is the
//     recency reference RecencyRank ranks by, and the auditor and the
//     property tests hold the positions to it; inserted orders FIFO.
type Cache struct {
	cfg    Config
	policy Policy
	assoc  int
	keys   []uint64
	state  []lineState
	stamps []stamp
	// valid counts each set's valid lines: the next free position.
	valid []uint32
	seq   uint64
	stats Stats

	customIndex bool
	// A power-of-two block size or default-indexed set count is split
	// by shift and mask (blockShift, setShift and setMask, with
	// shiftBlock and shiftSets saying which apply); other geometries
	// divide, and custom indexers are called.
	shiftBlock, shiftSets bool
	blockShift, setShift  uint8
	setMask               uint64
}

// lineState is one line's recency position, cost and flag bits.
type lineState struct {
	pos   uint16
	costQ uint8
	flags uint8
}

// stamp is one line's last-access and fill sequence numbers.
type stamp struct{ lastUse, inserted uint64 }

const (
	flagValid uint8 = 1 << iota
	flagDirty
)

// maxAssoc bounds the associativity: LRU-stack positions are stored in
// 16 bits.
const maxAssoc = 1 << 16

// New builds a cache. It panics on invalid geometry with a typed
// simerr.ErrBadConfig error (a configuration error in the calling code,
// not a runtime condition); validate externally-sourced geometries with
// Config.Validate first.
func New(cfg Config, policy Policy) *Cache {
	sets, err := cfg.SetCount()
	if err != nil {
		panic(err)
	}
	cfg.BlockBytes = cfg.blockBytes()
	cfg.Sets = sets
	c := &Cache{cfg: cfg, assoc: cfg.Assoc, customIndex: cfg.Index != nil}
	if bits, ok := log2(cfg.BlockBytes); ok {
		c.shiftBlock, c.blockShift = true, bits
	}
	if !c.customIndex {
		n := uint64(sets)
		c.cfg.Index = func(block uint64) (int, uint64) {
			return int(block % n), block / n
		}
		if bits, ok := log2(n); ok {
			c.shiftSets, c.setShift, c.setMask = true, bits, n-1
		}
	}
	if policy == nil {
		policy = NewLRU()
	}
	c.policy = policy
	n := sets * cfg.Assoc
	c.keys = make([]uint64, n)
	c.state = make([]lineState, n)
	c.stamps = make([]stamp, n)
	c.valid = make([]uint32, sets)
	return c
}

// log2 returns the base-2 logarithm of a power of two.
func log2(n uint64) (uint8, bool) {
	if n == 0 || n&(n-1) != 0 {
		return 0, false
	}
	return uint8(bits.TrailingZeros64(n)), true
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// CustomIndex reports whether the cache was built with a caller-supplied
// block→set mapping (sampled ATDs). Pools that match caches by geometry
// use it to exclude such caches: two custom indexers with equal
// Sets/Assoc/BlockBytes need not place blocks the same way.
func (c *Cache) CustomIndex() bool { return c.customIndex }

// Policy returns the replacement policy in use.
func (c *Cache) Policy() Policy { return c.policy }

// SetPolicy swaps the replacement policy (used by tests and ablations).
func (c *Cache) SetPolicy(p Policy) { c.policy = p }

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// BlockOf returns the block number containing the byte address.
func (c *Cache) BlockOf(addr uint64) uint64 {
	if c.shiftBlock {
		return addr >> c.blockShift
	}
	return addr / c.cfg.BlockBytes
}

// SetOf returns the set index a byte address maps to.
func (c *Cache) SetOf(addr uint64) int {
	set, _ := c.index(c.BlockOf(addr))
	return set
}

// index maps a block to its set and in-set tag (Config.Index).
func (c *Cache) index(block uint64) (int, uint64) {
	if c.shiftSets {
		return int(block & c.setMask), block >> c.setShift
	}
	return c.cfg.Index(block)
}

// lookup scans the set starting at line base once. It returns the way
// holding tag, or -1; when the tag is absent, free is the
// lowest-numbered invalid way, or -1 when the set is full.
func (c *Cache) lookup(base int, tag uint64) (way, free int) {
	key := ^tag
	keys := c.keys[base : base+c.assoc]
	state := c.state[base : base+c.assoc]
	free = -1
	for w, k := range keys {
		if k != 0 {
			if k == key {
				return w, free
			}
			continue
		}
		// Key 0: an invalid line, or a valid one holding tag ^0.
		if state[w].flags&flagValid != 0 {
			if key == 0 {
				return w, free
			}
		} else if free < 0 {
			free = w
		}
	}
	return -1, free
}

// find locates the block holding addr: its set, the set's first line
// and the way, or -1.
func (c *Cache) find(addr uint64) (set, base, way int) {
	set, tag := c.index(c.BlockOf(addr))
	base = set * c.assoc
	way, _ = c.lookup(base, tag)
	return set, base, way
}

// promote moves way w of the set starting at line base to the top of
// its LRU stack: every valid line above it steps down one position.
// Invalid lines sit at position 0 and never move.
func (c *Cache) promote(base, w int) {
	state := c.state[base : base+c.assoc]
	p := state[w].pos
	top := p
	for i := range state {
		var above uint16
		if state[i].pos > p {
			above = 1
		}
		state[i].pos -= above
		top += above
	}
	state[w].pos = top
}

// Probe looks up the byte address. On a hit it updates recency (and the
// dirty bit if write is set) and returns true. On a miss it returns false
// and changes nothing; the caller services the miss and later calls Fill.
func (c *Cache) Probe(addr uint64, write bool) bool {
	set, tag := c.index(c.BlockOf(addr))
	base := set * c.assoc
	way, _ := c.lookup(base, tag)
	if way < 0 {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	c.seq++
	i := base + way
	c.stamps[i].lastUse = c.seq
	if write {
		c.state[i].flags |= flagDirty
	}
	if int(c.state[i].pos)+1 != int(c.valid[set]) { // not already MRU
		c.promote(base, way)
	}
	c.policy.Touched(SetView{cache: c, Index: set}, way)
	return true
}

// Contains reports whether the block holding addr is resident, without
// updating any replacement state.
func (c *Cache) Contains(addr uint64) bool {
	_, _, way := c.find(addr)
	return way >= 0
}

// CostOf returns the stored quantized cost of the block holding addr; ok
// is false if the block is not resident. Hybrid replacement uses this to
// source the cost of ATD-only misses from the MTD tag store (paper §6.1,
// footnote 6).
func (c *Cache) CostOf(addr uint64) (costQ uint8, ok bool) {
	_, base, way := c.find(addr)
	if way < 0 {
		return 0, false
	}
	return c.state[base+way].costQ, true
}

// Evicted describes a line displaced by Fill.
type Evicted struct {
	Block uint64 // block number of the displaced line
	Dirty bool   // true if the displacement produces a writeback
	CostQ uint8
}

// Fill installs the block holding addr, evicting a victim if the set is
// full. costQ is the quantized MLP-based cost computed while the miss was
// in flight; dirty pre-marks the line (for write allocations). It returns
// the displaced line, if any. Filling an already-resident block just
// refreshes its metadata.
func (c *Cache) Fill(addr uint64, costQ uint8, dirty bool) (Evicted, bool) {
	set, tag := c.index(c.BlockOf(addr))
	base := set * c.assoc
	c.seq++
	c.stats.Fills++

	var ev Evicted
	evicted := false
	way, free := c.lookup(base, tag)
	switch {
	case way >= 0: // already resident (racing fill); refresh in place
		c.promote(base, way)
	case free >= 0: // the new line tops the stack
		way = free
		c.state[base+way].pos = uint16(c.valid[set])
		c.valid[set]++
	default:
		way = c.policy.Victim(SetView{cache: c, Index: set})
		if way < 0 || way >= c.assoc {
			panic(simerr.New(simerr.ErrInternal,
				"cache: policy %s returned invalid way %d", c.policy.Name(), way))
		}
		old := c.state[base+way]
		ev = Evicted{Block: c.blockFromTag(set, ^c.keys[base+way]), Dirty: old.flags&flagDirty != 0, CostQ: old.costQ}
		evicted = true
		if ev.Dirty {
			c.stats.Writebacks++
		}
		c.promote(base, way)
	}
	i := base + way
	flags := flagValid
	if dirty {
		flags |= flagDirty
	}
	c.keys[i] = ^tag
	c.state[i] = lineState{pos: c.state[i].pos, costQ: costQ, flags: flags}
	c.stamps[i] = stamp{lastUse: c.seq, inserted: c.seq}
	c.policy.Filled(SetView{cache: c, Index: set}, way)
	return ev, evicted
}

// blockFromTag reverses the default indexer; with a custom indexer the
// tag is the full block number by convention (sampled ATDs), so it is
// returned unchanged.
func (c *Cache) blockFromTag(set int, tag uint64) uint64 {
	switch {
	case c.customIndex:
		return tag
	case c.shiftSets:
		return tag<<c.setShift | uint64(set)
	}
	return tag*uint64(c.cfg.Sets) + uint64(set)
}

// MarkDirty sets the dirty bit of the block holding addr if resident,
// without touching recency. It reports whether the block was found; the
// simulator uses it to sink L1 writebacks into the L2.
func (c *Cache) MarkDirty(addr uint64) bool {
	_, base, way := c.find(addr)
	if way < 0 {
		return false
	}
	c.state[base+way].flags |= flagDirty
	return true
}

// Invalidate drops the block holding addr if resident, returning its
// dirtiness. The lines above it in the LRU stack step down one position.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	set, base, way := c.find(addr)
	if way < 0 {
		return false, false
	}
	state := c.state[base : base+c.assoc]
	p := state[way].pos
	for i := range state {
		if state[i].pos > p {
			state[i].pos--
		}
	}
	dirty := state[way].flags&flagDirty != 0
	state[way] = lineState{}
	i := base + way
	c.keys[i], c.stamps[i] = 0, stamp{}
	c.valid[set]--
	return dirty, true
}

// ResetStats zeroes the access counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset returns the cache to its just-built state in place: every line
// invalidated, the counters and the recency/fill sequence zeroed, and
// the given replacement policy installed (nil installs plain LRU, the
// same default New applies). The backing arrays are reused, so a pooled
// cache costs no allocation on its next run (sim.Arena).
func (c *Cache) Reset(policy Policy) {
	clear(c.keys)
	clear(c.state)
	clear(c.stamps)
	clear(c.valid)
	c.seq = 0
	c.stats = Stats{}
	if policy == nil {
		policy = NewLRU()
	}
	c.policy = policy
}

// ViewSet returns a view of the given set — the same object Policy
// implementations receive. Tools and tests use it to inspect cache
// contents.
func (c *Cache) ViewSet(set int) SetView {
	if set < 0 || set >= c.cfg.Sets {
		panic(simerr.New(simerr.ErrInternal, "cache: ViewSet index %d out of range [0,%d)", set, c.cfg.Sets))
	}
	return SetView{cache: c, Index: set}
}

// SetView gives a Policy read access to one set.
type SetView struct {
	cache *Cache
	// Index is the set's index within the cache, letting set-dependent
	// policies (SBAR leader/follower split) dispatch.
	Index int
}

// Ways returns the associativity.
func (v SetView) Ways() int { return v.cache.assoc }

// lines returns the set's slices of the line arrays.
func (v SetView) lines() (state []lineState, stamps []stamp) {
	c := v.cache
	base := v.Index * c.assoc
	return c.state[base : base+c.assoc], c.stamps[base : base+c.assoc]
}

// Line returns way w's entry by value.
func (v SetView) Line(w int) Line {
	c := v.cache
	base := v.Index * c.assoc
	st := c.state[base : base+c.assoc][w]
	if st.flags&flagValid == 0 {
		return Line{}
	}
	return Line{Tag: ^c.keys[base+w], Valid: true, Dirty: st.flags&flagDirty != 0, CostQ: st.costQ}
}

// CostQ returns way w's stored quantized cost (0 for an invalid line):
// Line(w).CostQ without assembling the entry.
func (v SetView) CostQ(w int) uint8 {
	c := v.cache
	base := v.Index * c.assoc
	return c.state[base : base+c.assoc][w].costQ
}

// FreeWay returns the lowest-numbered invalid way, or -1 when every way
// holds a block.
func (v SetView) FreeWay() int {
	c := v.cache
	if int(c.valid[v.Index]) == c.assoc {
		return -1
	}
	state, _ := v.lines()
	for w := range state {
		if state[w].flags&flagValid == 0 {
			return w
		}
	}
	return -1
}

// RecencyRank returns way w's LRU-stack position: 0 for the least
// recently used valid line, Ways()-1 for the most recently used. Invalid
// lines rank below all valid ones.
//
// This is the O(A)-per-way reference implementation, computed from each
// line's last-access sequence number; the cache maintains the same
// positions incrementally for Ranks and LRUWay. The invariant auditor
// and the property tests keep the two in agreement.
func (v SetView) RecencyRank(w int) int {
	state, stamps := v.lines()
	if state[w].flags&flagValid == 0 {
		return 0 // invalid lines stay at rank 0
	}
	rank := 0
	for i := range state {
		if i != w && state[i].flags&flagValid != 0 && stamps[i].lastUse < stamps[w].lastUse {
			rank++
		}
	}
	return rank
}

// Demote moves way w to the bottom of the recency stack (LRU position),
// as if it had not been touched since before every other valid line.
// Insertion-policy variants (e.g. BIP) use it from their Filled hook to
// insert at LRU instead of MRU.
func (v SetView) Demote(w int) {
	state, stamps := v.lines()
	var minUse uint64
	first := true
	for i := range state {
		if i == w || state[i].flags&flagValid == 0 {
			continue
		}
		if first || stamps[i].lastUse < minUse {
			minUse = stamps[i].lastUse
			first = false
		}
	}
	if first {
		return // only line in the set; position is moot
	}
	if minUse == 0 {
		// No room below: shift every other valid line up one step so
		// the demoted line can take a unique bottom slot. Recency is a
		// per-set total order over distinct lastUse values, so a
		// uniform shift preserves it; clamping to 0 instead would give
		// two lines the same rank and break LRU victim selection. The
		// shift can lift a line to seq+1, so the sequence advances
		// with it and the next access still ranks above every line.
		for i := range state {
			if i != w && state[i].flags&flagValid != 0 {
				stamps[i].lastUse++
			}
		}
		v.cache.seq++
		minUse = 1
	}
	stamps[w].lastUse = minUse - 1
	if state[w].flags&flagValid == 0 {
		return
	}
	p := state[w].pos
	for i := range state {
		if state[i].flags&flagValid != 0 && state[i].pos < p {
			state[i].pos++
		}
	}
	state[w].pos = 0
}

// Ranks fills buf with every way's LRU-stack position and returns it
// (reallocating when buf is too small, so callers can reuse a scratch
// slice across invocations). The result agrees exactly with calling
// RecencyRank for each way — invalid lines rank 0; a valid line's rank
// counts the valid lines with older lastUse — but is a copy of the
// positions the cache maintains on every access, which matters because
// the cost-aware victim functions need all A positions on every
// eviction.
func (v SetView) Ranks(buf []int) []int {
	state, _ := v.lines()
	if cap(buf) < len(state) {
		buf = make([]int, len(state))
	}
	buf = buf[:len(state)]
	for w := range state {
		buf[w] = int(state[w].pos)
	}
	return buf
}

// LRUWay returns the victim plain LRU would pick: the lowest-numbered
// invalid way if one exists, otherwise the way at recency rank 0 (the
// oldest lastUse). It is the shared O(A) victim fast path under the LRU,
// BIP and DCL policies.
func (v SetView) LRUWay() int {
	if w := v.FreeWay(); w >= 0 {
		return w
	}
	state, _ := v.lines()
	for w := range state {
		if state[w].pos == 0 {
			return w
		}
	}
	return 0
}
