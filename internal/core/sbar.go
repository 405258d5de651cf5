package core

import (
	"fmt"

	"mlpcache/internal/cache"
	"mlpcache/internal/metrics"

	"mlpcache/internal/simerr"
)

// SBARConfig parameterizes Sampling Based Adaptive Replacement.
type SBARConfig struct {
	// LeaderSets is K, the number of leader sets (32 in the paper's
	// default).
	LeaderSets int
	// PselBits sizes the selector counter (6 in the paper's default).
	PselBits int
	// Lambda is the λ of the LIN contestant (4 by default).
	Lambda int
	// Selector overrides the leader-set selection policy; nil uses
	// simple-static over the MTD geometry.
	Selector LeaderSelector
	// Experimental and Baseline override the two contestant policies.
	// The paper instantiates SBAR with LIN(λ) versus LRU, but the
	// mechanism is generic: any policy pair can race (Section 6 notes
	// the approach applies to hybrid replacement in general). Defaults:
	// LIN(Lambda) and LRU.
	Experimental cache.Policy
	Baseline     cache.Policy
	// Threads partitions the selector per thread for multi-core runs
	// sharing one L2: each thread gets its own PSEL counter, leader-set
	// contests credit the accessing thread's counter, and follower
	// victim decisions consult the accessing thread's counter (set via
	// SetThread). 0 or 1 keeps the paper's single Section 6 counter —
	// the single-core behavior is structurally unchanged.
	Threads int
}

func (c *SBARConfig) setDefaults(sets int) {
	if c.LeaderSets == 0 {
		c.LeaderSets = 32
	}
	if c.PselBits == 0 {
		c.PselBits = 6
	}
	if c.Lambda == 0 {
		c.Lambda = 4
	}
	if c.Selector == nil {
		c.Selector = NewSimpleStatic(sets, c.LeaderSets)
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
}

// SBAR implements Sampling Based Adaptive Replacement (Section 6.4).
//
// The main tag directory's sets are split into leader sets and follower
// sets. Leader sets always replace with LIN and, together with a single
// tag-only ATD that mirrors just the leader sets under LRU, update the
// PSEL counter: a leader-set (LIN) miss that the ATD (LRU) would have hit
// decrements PSEL by the miss's quantized cost, and a leader-set hit the
// ATD would have missed increments it. Follower sets obey PSEL's MSB.
type SBAR struct {
	mtd *cache.Cache
	atd *cache.Cache
	// psels holds one selector counter per thread (Section 6 uses one;
	// multi-core runs partition it per thread so set dueling converges
	// per workload under interference). cur is the thread whose counter
	// governs follower decisions and receives contest updates — always 0
	// in single-threaded runs.
	psels   []*PSEL
	cur     int
	sel     LeaderSelector
	lin     cache.Policy
	lru     cache.Policy
	cfg     SBARConfig
	pending map[uint64]sbarPending
	stats   HybridStats
	tr      metrics.Tracer
}

// SetTracer installs an event tracer: leader-set contests emit
// "sbar.leader" events and every PSEL movement emits a "psel.update"
// event. The tracer propagates to the experimental contestant when it is
// cost-aware, so follower victim decisions are traced too. A nil tracer
// (the default) disables emission.
func (s *SBAR) SetTracer(tr metrics.Tracer) {
	s.tr = tr
	if ca, ok := s.lin.(*CostAware); ok {
		ca.SetTracer(tr)
	}
}

type sbarPending struct {
	decrement bool // ATD-LRU hit while the leader (LIN) set missed
	fillATD   bool // both missed: fill the ATD when the cost is known
	tid       int  // thread whose PSEL the outcome settles against
}

// NewSBAR builds the SBAR engine shadowing mtd and installs itself as
// mtd's replacement policy.
func NewSBAR(mtd *cache.Cache, cfg SBARConfig) *SBAR {
	mcfg := mtd.Config()
	cfg.setDefaults(mcfg.Sets)
	if cfg.Selector.K() != cfg.LeaderSets {
		panic(simerr.New(simerr.ErrBadConfig, "core: SBAR selector provides %d leaders, config wants %d", cfg.Selector.K(), cfg.LeaderSets))
	}
	if cfg.Experimental == nil {
		cfg.Experimental = NewLIN(cfg.Lambda)
	}
	if cfg.Baseline == nil {
		cfg.Baseline = cache.NewLRU()
	}
	if cfg.Threads < 1 {
		panic(simerr.New(simerr.ErrBadConfig, "core: SBAR needs at least 1 thread, got %d", cfg.Threads))
	}
	psels := make([]*PSEL, cfg.Threads)
	for i := range psels {
		psels[i] = NewPSEL(cfg.PselBits)
	}
	s := &SBAR{
		mtd:     mtd,
		psels:   psels,
		sel:     cfg.Selector,
		lin:     cfg.Experimental,
		lru:     cfg.Baseline,
		cfg:     cfg,
		pending: make(map[uint64]sbarPending),
	}
	s.atd = s.newATD()
	mtd.SetPolicy(s)
	return s
}

// newATD builds the tag-only auxiliary directory covering just the leader
// sets: K sets of the MTD's associativity, indexed by routing each leader
// block to its leader's slot, with the full block number as tag.
func (s *SBAR) newATD() *cache.Cache {
	mcfg := s.mtd.Config()
	sets := uint64(mcfg.Sets)
	sel := s.sel
	return cache.New(cache.Config{
		Sets:       s.cfg.LeaderSets,
		Assoc:      mcfg.Assoc,
		BlockBytes: mcfg.BlockBytes,
		Index: func(block uint64) (int, uint64) {
			slot, leader := sel.Slot(int(block % sets))
			if !leader {
				panic(simerr.New(simerr.ErrInternal, "core: non-leader block %#x routed to SBAR ATD", block))
			}
			return slot, block
		},
	}, s.cfg.Baseline)
}

// Name implements cache.Policy.
func (s *SBAR) Name() string {
	return fmt.Sprintf("sbar(%s vs %s, k=%d, %s, psel=%db)",
		s.lin.Name(), s.lru.Name(), s.cfg.LeaderSets, s.sel.Name(), s.cfg.PselBits)
}

// Victim implements cache.Policy: leader sets always use LIN; follower
// sets follow PSEL.
func (s *SBAR) Victim(set cache.SetView) int {
	if _, leader := s.sel.Slot(set.Index); leader {
		s.stats.LinVictims++
		return s.lin.Victim(set)
	}
	if s.psels[s.cur].MSB() {
		s.stats.LinVictims++
		return s.lin.Victim(set)
	}
	s.stats.LruVictims++
	return s.lru.Victim(set)
}

// SetThread selects the thread whose PSEL counter governs subsequent
// follower decisions and receives subsequent leader-contest updates. The
// multi-core engine calls it before every L2 operation it routes on a
// core's behalf; single-core runs never call it and stay on counter 0.
func (s *SBAR) SetThread(tid int) {
	if tid < 0 || tid >= len(s.psels) {
		panic(simerr.New(simerr.ErrInternal, "core: SBAR thread %d outside [0,%d)", tid, len(s.psels)))
	}
	s.cur = tid
}

// active returns the policy currently governing a set: leaders always
// run the experimental policy, followers whatever PSEL selects.
func (s *SBAR) active(set int) cache.Policy {
	if _, leader := s.sel.Slot(set); leader || s.psels[s.cur].MSB() {
		return s.lin
	}
	return s.lru
}

// Touched implements cache.Policy, forwarding the notification to the
// policy governing the set (stateful contestants like BIP or DCL depend
// on these hooks).
func (s *SBAR) Touched(set cache.SetView, w int) { s.active(set.Index).Touched(set, w) }

// Filled implements cache.Policy (see Touched).
func (s *SBAR) Filled(set cache.SetView, w int) { s.active(set.Index).Filled(set, w) }

// OnAccess implements Hybrid.
func (s *SBAR) OnAccess(addr uint64, write, mtdHit, primaryMiss bool) {
	set := s.mtd.SetOf(addr)
	if _, leader := s.sel.Slot(set); !leader {
		return
	}
	s.stats.LeaderAccesses++
	atdHit := s.atd.Probe(addr, write)
	block := s.mtd.BlockOf(addr)
	switch {
	case mtdHit && atdHit:
		// Both policies hit: neither is doing better.
		s.stats.TieBothHit++
		s.leaderEvent(set, "both_hit")
	case mtdHit && !atdHit:
		// LIN (the leader set) is doing better. The cost of the
		// miss the LRU ATD incurred is the block's stored cost in
		// the MTD tag entry (footnote 6): the access is not
		// serviced by memory, so no fresh cost exists.
		cost, _ := s.mtd.CostOf(addr)
		s.psels[s.cur].Add(int(cost))
		s.stats.PselIncrements++
		s.pselEvent(int(cost), s.cur)
		s.leaderEvent(set, "mtd_hit")
		s.atd.Fill(addr, cost, false)
	case !mtdHit && atdHit:
		// LRU is doing better; the decrement amount is the
		// MLP-based cost of the miss, known when it is serviced.
		s.leaderEvent(set, "atd_hit")
		if primaryMiss {
			s.pending[block] = sbarPending{decrement: true, tid: s.cur}
		}
	default:
		// Both miss: PSEL unchanged; the ATD still needs the block
		// once its cost is known.
		s.stats.TieBothMiss++
		s.leaderEvent(set, "both_miss")
		if primaryMiss {
			s.pending[block] = sbarPending{fillATD: true, tid: s.cur}
		}
	}
}

func (s *SBAR) leaderEvent(set int, outcome string) {
	if s.tr == nil {
		return
	}
	s.tr.Emit(metrics.Event{Type: metrics.EventSBARLeader, Set: set, Outcome: outcome})
}

func (s *SBAR) pselEvent(delta, tid int) {
	if s.tr == nil {
		return
	}
	s.tr.Emit(metrics.Event{Type: metrics.EventPselUpdate, Delta: delta, Value: s.psels[tid].Value(), Tid: tid})
}

// OnFill implements Hybrid.
func (s *SBAR) OnFill(addr uint64, costQ uint8) {
	block := s.mtd.BlockOf(addr)
	p, ok := s.pending[block]
	if !ok {
		return
	}
	delete(s.pending, block)
	if p.decrement {
		s.psels[p.tid].Add(-int(costQ))
		s.stats.PselDecrements++
		s.pselEvent(-int(costQ), p.tid)
	}
	if p.fillATD {
		s.atd.Fill(addr, costQ, false)
	}
}

// AdvanceEpoch implements Hybrid: under rand-dynamic selection the
// leaders are re-drawn and the ATD restarts cold for the new sample.
func (s *SBAR) AdvanceEpoch() {
	if !s.sel.Reselect() {
		return
	}
	s.stats.EpochReselects++
	s.atd = s.newATD()
	clear(s.pending)
}

// UsingLIN implements Hybrid: leader sets always run LIN, and follower
// sets report thread 0's counter, the one PselValue reports, so the two
// describe one selector however many threads share the L2.
func (s *SBAR) UsingLIN(set int) bool {
	if _, leader := s.sel.Slot(set); leader {
		return true
	}
	return s.psels[0].MSB()
}

// Psel exposes the selector counter for tests and telemetry (thread 0's
// counter, the only one in single-threaded runs).
func (s *SBAR) Psel() *PSEL { return s.psels[0] }

// PselFor exposes one thread's selector counter (multi-core telemetry).
func (s *SBAR) PselFor(tid int) *PSEL { return s.psels[tid] }

// PselValue implements Hybrid: thread 0's counter value, which every
// follower set shares.
func (s *SBAR) PselValue(int) int { return s.psels[0].Value() }

// Threads returns the number of per-thread selector counters.
func (s *SBAR) Threads() int { return len(s.psels) }

// Stats returns the selection counters.
func (s *SBAR) Stats() HybridStats { return s.stats }

// ATD exposes the auxiliary directory (read-only use in tests).
func (s *SBAR) ATD() *cache.Cache { return s.atd }

// AuditInvariants cross-checks SBAR's sampling bookkeeping and returns a
// description of every violated invariant (empty when consistent): the
// PSEL value stays inside its bit width, every block resident in the
// leader-set ATD routes to the leader slot holding it, and pending
// contest outcomes concern leader sets only. It never mutates state.
func (s *SBAR) AuditInvariants() []string {
	var out []string
	for tid, p := range s.psels {
		if v, max := p.Value(), p.Max(); v < 0 || v > max {
			out = append(out, fmt.Sprintf("thread %d psel value %d outside [0,%d]", tid, v, max))
		}
	}
	sets := uint64(s.mtd.Config().Sets)
	acfg := s.atd.Config()
	for set := 0; set < acfg.Sets; set++ {
		view := s.atd.ViewSet(set)
		for w := 0; w < view.Ways(); w++ {
			ln := view.Line(w)
			if !ln.Valid {
				continue
			}
			// The ATD indexer stores the full block number as tag.
			slot, leader := s.sel.Slot(int(ln.Tag % sets))
			if !leader {
				out = append(out, fmt.Sprintf("ATD set %d holds non-leader block %#x", set, ln.Tag))
			} else if slot != set {
				out = append(out, fmt.Sprintf("ATD block %#x belongs in slot %d but sits in set %d", ln.Tag, slot, set))
			}
		}
	}
	for block, p := range s.pending {
		if _, leader := s.sel.Slot(int(block % sets)); !leader {
			out = append(out, fmt.Sprintf("pending contest for non-leader block %#x", block))
		}
		if p.tid < 0 || p.tid >= len(s.psels) {
			out = append(out, fmt.Sprintf("pending contest for block %#x names thread %d outside [0,%d)", block, p.tid, len(s.psels)))
		}
	}
	return out
}
