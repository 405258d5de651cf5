// Package mshr models the Miss Status Holding Registers together with the
// paper's cost calculation logic (CCL, Algorithm 1): every cycle, each
// outstanding demand miss accrues 1/N cycles of MLP-based cost, where N is
// the number of outstanding demand misses. An isolated miss therefore
// accrues its full service latency (444 cycles on the baseline machine),
// while k parallel misses split each cycle k ways.
//
// Two update implementations are provided: the exact one (an adder per
// entry, invoked every cycle) and the paper's cost-reduced variant that
// time-shares four adders round-robin across the valid entries, which the
// paper reports — and the ablation bench confirms — makes a negligible
// difference.
package mshr

import (
	"fmt"
	"math"

	"mlpcache/internal/blockmap"
	"mlpcache/internal/metrics"
	"mlpcache/internal/simerr"
)

// Config parameterizes the MSHR file.
type Config struct {
	// Entries is the number of simultaneous outstanding misses (32 in
	// the baseline).
	Entries int
	// Adders, when positive, enables the time-shared-adder
	// approximation with that many adders (the paper uses 4). Zero
	// selects the exact per-entry update.
	Adders int
}

// Validate checks the configuration, wrapping failures in
// simerr.ErrBadConfig.
func (c Config) Validate() error {
	if c.Entries <= 0 {
		return simerr.New(simerr.ErrBadConfig, "mshr: Entries must be positive, got %d", c.Entries)
	}
	if c.Adders < 0 {
		return simerr.New(simerr.ErrBadConfig, "mshr: Adders must be non-negative, got %d", c.Adders)
	}
	return nil
}

type entry struct {
	block      uint64
	valid      bool
	demand     bool
	cost       float64
	lastUpdate uint64  // cycle of the entry's last adder visit
	base       float64 // exact mode: cost-clock reading when demand charging began
}

// MSHR is the miss file.
type MSHR struct {
	cfg      Config
	capacity int // allocatable entries; <= cfg.Entries (see SetCapacity)
	entries  []entry
	index    *blockmap.Table[int] // block → slot; open-addressed, allocation-free
	demand   int                  // count of valid demand entries
	rr       int                  // round-robin pointer for adder sharing

	// Exact-mode cost clock: clock accumulates Σ 1/N(t) over cycles with
	// N(t) > 0 demand misses outstanding. An entry's cost is the clock
	// advance over its lifetime (clock minus the entry's base), which
	// makes the exact per-entry update O(1) per allocate/free event
	// instead of O(entries) per cycle.
	clock   float64
	clockAt uint64 // cycle the clock was last advanced to
	// busy counts the cycles up to clockAt with a demand miss
	// outstanding, and freed the cost Free has returned for demand
	// entries. Algorithm 1 hands out one cycle of cost per busy cycle,
	// so freed plus the outstanding entries' cost equals busy, which
	// AuditInvariants checks. Exact mode only.
	busy  uint64
	freed float64

	// Peak tracks the maximum simultaneous occupancy observed.
	Peak int

	allocations uint64 // primary entries created
	merges      uint64 // accesses absorbed by an in-flight entry
	rejects     uint64 // allocations refused because the file was full
}

// Stats is the file's lifetime accounting, exported to the metrics
// registry as the mshr.* family.
type Stats struct {
	// Allocations counts primary entries created (demand and prefetch).
	Allocations uint64
	// Merges counts accesses absorbed by an in-flight entry.
	Merges uint64
	// Rejects counts allocations refused because the file was full.
	Rejects uint64
	// Peak is the maximum simultaneous occupancy observed.
	Peak int
}

// Stats returns the file's lifetime accounting.
func (m *MSHR) Stats() Stats {
	return Stats{Allocations: m.allocations, Merges: m.merges, Rejects: m.rejects, Peak: m.Peak}
}

// Observe registers the counters in the metrics registry as the mshr.*
// family: mshr.allocations, mshr.merges, mshr.rejects, and the
// mshr.occupancy.peak gauge.
func (s Stats) Observe(reg *metrics.Registry) {
	reg.Counter("mshr.allocations", "entries", "primary MSHR entries created").Add(s.Allocations)
	reg.Counter("mshr.merges", "accesses", "accesses merged into in-flight entries").Add(s.Merges)
	reg.Counter("mshr.rejects", "accesses", "allocations refused with the file full").Add(s.Rejects)
	reg.Gauge("mshr.occupancy.peak", "entries", "maximum simultaneous occupancy").Set(float64(s.Peak))
}

// New builds an MSHR file. It panics (with a typed simerr.ErrBadConfig
// error) on an invalid configuration; validate externally-sourced
// configs with Config.Validate first.
func New(cfg Config) *MSHR {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &MSHR{
		cfg:      cfg,
		capacity: cfg.Entries,
		entries:  make([]entry, cfg.Entries),
		index:    blockmap.New[int](cfg.Entries),
	}
}

// Exact reports whether the exact (event-driven) cost update is in use.
func (m *MSHR) Exact() bool { return m.cfg.Adders <= 0 }

// Reset returns the file to its just-built state in place: all entries
// invalidated, the block index emptied, the cost clock, round-robin
// pointer, peak gauge and lifetime counters zeroed, and any SetCapacity
// throttle lifted. The entry array and index storage are reused, so a
// pooled file costs no allocation on its next run (sim.Arena).
func (m *MSHR) Reset() {
	clear(m.entries)
	m.index.Reset()
	m.capacity = m.cfg.Entries
	m.demand = 0
	m.rr = 0
	m.clock = 0
	m.clockAt = 0
	m.busy = 0
	m.freed = 0
	m.Peak = 0
	m.allocations = 0
	m.merges = 0
	m.rejects = 0
}

// advanceClock brings the exact-mode cost clock up to the given cycle.
// Between events N is constant, so the clock advances by elapsed/N.
func (m *MSHR) advanceClock(cycle uint64) {
	if cycle > m.clockAt {
		if m.demand > 0 {
			m.clock += float64(cycle-m.clockAt) / float64(m.demand)
			m.busy += cycle - m.clockAt
		}
		m.clockAt = cycle
	}
}

// Config returns the file's configuration.
func (m *MSHR) Config() Config { return m.cfg }

// Len returns the number of valid entries.
func (m *MSHR) Len() int { return m.index.Len() }

// Full reports whether no entry is free.
func (m *MSHR) Full() bool { return m.index.Len() >= m.capacity }

// Capacity returns the number of currently allocatable entries.
func (m *MSHR) Capacity() int { return m.capacity }

// SetCapacity throttles the file to n allocatable entries (clamped to
// the configured entry count). Entries beyond the new capacity that are
// already in flight complete normally; only new allocations are gated.
// The fault-injection harness uses this to model a degraded miss file
// mid-run. It returns a wrapped simerr.ErrBadConfig for n < 1.
func (m *MSHR) SetCapacity(n int) error {
	if n < 1 {
		return simerr.New(simerr.ErrBadConfig, "mshr: capacity must be at least 1, got %d", n)
	}
	if n > m.cfg.Entries {
		n = m.cfg.Entries
	}
	m.capacity = n
	return nil
}

// OutstandingDemand returns N, the number of outstanding demand misses.
func (m *MSHR) OutstandingDemand() int { return m.demand }

// Pending reports whether a miss for the block is in flight.
func (m *MSHR) Pending(block uint64) bool {
	_, ok := m.index.Get(block)
	return ok
}

// Allocate registers a miss for the block at the given cycle.
// primary is true when a new entry was created; false means the miss
// merged into an in-flight entry for the same block (the paper treats
// such concurrent misses as a single miss). full is true — and nothing is
// allocated — when the file has no free entry.
func (m *MSHR) Allocate(block uint64, demand bool, cycle uint64) (primary, full bool) {
	if m.Exact() {
		m.advanceClock(cycle)
	}
	if i, ok := m.index.Get(block); ok {
		// Merge. A demand access upgrades a non-demand entry so the
		// cost machinery starts charging it.
		if demand && !m.entries[i].demand {
			m.entries[i].demand = true
			m.demand++
			if m.Exact() {
				m.entries[i].base = m.clock
			}
		}
		m.merges++
		return false, false
	}
	if m.Full() {
		m.rejects++
		return false, true
	}
	slot := -1
	for i := range m.entries {
		if !m.entries[i].valid {
			slot = i
			break
		}
	}
	m.entries[slot] = entry{block: block, valid: true, demand: demand, lastUpdate: cycle}
	m.index.Put(block, slot)
	if demand {
		m.demand++
		if m.Exact() {
			m.entries[slot].base = m.clock
		}
	}
	if m.index.Len() > m.Peak {
		m.Peak = m.index.Len()
	}
	m.allocations++
	return true, false
}

// Tick advances the cost calculation logic by one cycle (Algorithm 1's
// update_mlp_cost). cycle is the current cycle number, used by the
// adder-sharing approximation. Exact mode needs no per-cycle work: the
// cost clock advances lazily at allocate/free events, and Tick returns
// at once. It is small enough to inline, so that return costs no call.
func (m *MSHR) Tick(cycle uint64) {
	if m.demand == 0 || m.Exact() {
		return
	}
	m.tickAdders(cycle)
}

// tickAdders is Tick's time-shared-adder update, with N > 0 demand
// misses outstanding.
func (m *MSHR) tickAdders(cycle uint64) {
	share := 1 / float64(m.demand)
	// Time-shared adders: visit up to Adders valid entries round-robin,
	// crediting each with the cycles elapsed since its last visit at the
	// current 1/N rate.
	visited := 0
	for scanned := 0; scanned < len(m.entries) && visited < m.cfg.Adders; scanned++ {
		i := m.rr
		m.rr = (m.rr + 1) % len(m.entries)
		if !m.entries[i].valid {
			continue
		}
		visited++
		if !m.entries[i].demand {
			m.entries[i].lastUpdate = cycle
			continue
		}
		elapsed := float64(cycle - m.entries[i].lastUpdate)
		if elapsed > 0 {
			m.entries[i].cost += elapsed * share
			m.entries[i].lastUpdate = cycle
		}
	}
}

// Free releases the block's entry when its miss is serviced, returning
// the accumulated MLP-based cost. Freeing a block with no entry — a
// double free or a free-without-allocate, a protocol violation in the
// caller — returns a wrapped simerr.ErrMSHRLeak instead of panicking, so
// the violation propagates to sim.Run's caller as a typed error.
func (m *MSHR) Free(block uint64, cycle uint64) (float64, error) {
	i, ok := m.index.Get(block)
	if !ok {
		return 0, simerr.New(simerr.ErrMSHRLeak,
			"mshr: Free of block %#x with no entry (double free or free-without-allocate)", block)
	}
	e := &m.entries[i]
	var cost float64
	switch {
	case m.Exact():
		if e.demand {
			m.advanceClock(cycle)
			cost = m.clock - e.base
			m.freed += cost
		}
	default:
		if e.demand && m.demand > 0 {
			// Credit the tail the round-robin scan has not
			// reached yet.
			if elapsed := float64(cycle - e.lastUpdate); elapsed > 0 {
				e.cost += elapsed / float64(m.demand)
			}
		}
		cost = e.cost
	}
	if e.demand {
		m.demand--
	}
	e.valid = false
	m.index.Delete(block)
	return cost, nil
}

// Cost returns the block's accumulated cost as of the given cycle; ok is
// false if no entry exists.
func (m *MSHR) Cost(block uint64, cycle uint64) (cost float64, ok bool) {
	i, found := m.index.Get(block)
	if !found {
		return 0, false
	}
	if m.Exact() {
		if !m.entries[i].demand {
			return 0, true
		}
		m.advanceClock(cycle)
		return m.clock - m.entries[i].base, true
	}
	return m.entries[i].cost, true
}

// AuditInvariants cross-checks the file's internal bookkeeping and
// returns a description of every violated invariant (empty when
// consistent). The audit package runs this periodically during audited
// simulations; it never mutates state.
//
// Checked invariants: the index maps exactly the valid entries (no leak,
// no alias, no dangling slot); the demand counter equals the number of
// valid demand entries; occupancy never exceeds the configured size; in
// exact mode every valid demand entry's cost-clock base is no greater
// than the current clock, and cost is conserved: the cost Free has
// returned plus the outstanding demand entries' cost so far equals the
// busy cycles, to a relative 1e-9. The time-shared-adder approximation
// is exempt from conservation; in that mode every valid entry's cost
// accumulator must be finite and non-negative instead.
func (m *MSHR) AuditInvariants() []string {
	var out []string
	valid := 0
	demand := 0
	charged := m.freed
	for i := range m.entries {
		e := &m.entries[i]
		if !e.valid {
			continue
		}
		valid++
		if e.demand {
			demand++
			charged += m.clock - e.base
		}
		slot, ok := m.index.Get(e.block)
		if !ok {
			out = append(out, fmt.Sprintf("valid entry %d (block %#x) missing from index", i, e.block))
		} else if slot != i {
			out = append(out, fmt.Sprintf("block %#x indexed at slot %d but stored at %d", e.block, slot, i))
		}
		if m.Exact() && e.demand && e.base > m.clock {
			out = append(out, fmt.Sprintf("demand block %#x clock base %v ahead of clock %v", e.block, e.base, m.clock))
		}
		// Negated, so a NaN cost is a violation too.
		if !m.Exact() && !(e.cost >= 0 && e.cost <= math.MaxFloat64) {
			out = append(out, fmt.Sprintf("block %#x cost %v not finite and non-negative", e.block, e.cost))
		}
	}
	if m.index.Len() != valid {
		out = append(out, fmt.Sprintf("index holds %d blocks but %d entries are valid", m.index.Len(), valid))
	}
	if m.demand != demand {
		out = append(out, fmt.Sprintf("demand counter %d but %d valid demand entries", m.demand, demand))
	}
	if valid > m.cfg.Entries {
		out = append(out, fmt.Sprintf("occupancy %d exceeds configured %d entries", valid, m.cfg.Entries))
	}
	// Negated, so a NaN charge is a violation too.
	if busy := float64(m.busy); m.Exact() && !(math.Abs(charged-busy) <= 1e-9*max(busy, 1)) {
		out = append(out, fmt.Sprintf("cost not conserved: %v charged (%v freed) over %d busy cycles", charged, m.freed, m.busy))
	}
	m.index.Range(func(block uint64, slot int) bool {
		if slot < 0 || slot >= len(m.entries) {
			out = append(out, fmt.Sprintf("block %#x indexed at out-of-range slot %d", block, slot))
			return true
		}
		if !m.entries[slot].valid || m.entries[slot].block != block {
			out = append(out, fmt.Sprintf("index entry %#x→%d dangles", block, slot))
		}
		return true
	})
	return out
}
