package core

import (
	"fmt"

	"mlpcache/internal/cache"
	"mlpcache/internal/metrics"
)

// CBSScope selects between the per-set and global variants of Contest
// Based Selection (Section 6.2).
type CBSScope int

const (
	// CBSLocal keeps one PSEL counter per cache set.
	CBSLocal CBSScope = iota
	// CBSGlobal keeps a single PSEL counter updated by every set. The
	// paper found a 7-bit counter works better for this variant.
	CBSGlobal
)

func (s CBSScope) String() string {
	if s == CBSLocal {
		return "local"
	}
	return "global"
}

// CBSConfig parameterizes Contest Based Selection.
type CBSConfig struct {
	Scope    CBSScope
	PselBits int // default: 6 for local, 7 for global
	Lambda   int // LIN λ, default 4
}

// CBS implements Contest Based Selection (Section 6.1): two full
// auxiliary tag directories, ATD-LIN and ATD-LRU, observe the entire
// access stream and compete. PSEL accumulates the quantized cost of each
// contest the policies split (one hits where the other misses); the main
// tag directory replaces with whichever policy PSEL favours.
type CBS struct {
	mtd     *cache.Cache
	atdLin  *cache.Cache
	atdLru  *cache.Cache
	psel    []*PSEL // one per set for CBSLocal, a single element for CBSGlobal
	cfg     CBSConfig
	lin     cache.Policy
	lru     cache.Policy
	pending map[uint64]cbsPending
	stats   HybridStats
	tr      metrics.Tracer
}

// SetTracer installs an event tracer: every PSEL movement emits a
// "psel.update" event carrying the set index (always 0 under the global
// scope). The tracer propagates to the MTD-facing LIN contestant so
// victim decisions are traced; the ATD contestants stay untraced to keep
// the stream about decisions that affect the real cache. A nil tracer
// (the default) disables emission.
func (c *CBS) SetTracer(tr metrics.Tracer) {
	c.tr = tr
	if ca, ok := c.lin.(*CostAware); ok {
		ca.SetTracer(tr)
	}
}

type cbsPending struct {
	set     int
	delta   int8 // +1: increment by cost (LIN better); -1: decrement; 0: tie
	fillLin bool
	fillLru bool
}

// NewCBS builds a CBS engine shadowing mtd and installs itself as mtd's
// replacement policy. Both ATDs replicate the MTD's full geometry
// (tag-only), which is exactly the hardware expense SBAR exists to avoid.
func NewCBS(mtd *cache.Cache, cfg CBSConfig) *CBS {
	if cfg.PselBits == 0 {
		if cfg.Scope == CBSGlobal {
			cfg.PselBits = 7
		} else {
			cfg.PselBits = 6
		}
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 4
	}
	mcfg := mtd.Config()
	atdGeom := cache.Config{Sets: mcfg.Sets, Assoc: mcfg.Assoc, BlockBytes: mcfg.BlockBytes}
	c := &CBS{
		mtd:     mtd,
		atdLin:  cache.New(atdGeom, NewLIN(cfg.Lambda)),
		atdLru:  cache.New(atdGeom, cache.NewLRU()),
		cfg:     cfg,
		lin:     NewLIN(cfg.Lambda),
		lru:     cache.NewLRU(),
		pending: make(map[uint64]cbsPending),
	}
	n := 1
	if cfg.Scope == CBSLocal {
		n = mcfg.Sets
	}
	c.psel = make([]*PSEL, n)
	for i := range c.psel {
		c.psel[i] = NewPSEL(cfg.PselBits)
	}
	mtd.SetPolicy(c)
	return c
}

func (c *CBS) pselFor(set int) *PSEL {
	if c.cfg.Scope == CBSGlobal {
		return c.psel[0]
	}
	return c.psel[set]
}

// Name implements cache.Policy.
func (c *CBS) Name() string {
	return fmt.Sprintf("cbs-%s(psel=%db,λ=%d)", c.cfg.Scope, c.cfg.PselBits, c.cfg.Lambda)
}

// Victim implements cache.Policy.
func (c *CBS) Victim(set cache.SetView) int {
	if c.pselFor(set.Index).MSB() {
		c.stats.LinVictims++
		return c.lin.Victim(set)
	}
	c.stats.LruVictims++
	return c.lru.Victim(set)
}

// active returns the policy PSEL currently selects for the set.
func (c *CBS) active(set int) cache.Policy {
	if c.pselFor(set).MSB() {
		return c.lin
	}
	return c.lru
}

// Touched implements cache.Policy, forwarding to the selected policy
// (stateful engines depend on these hooks).
func (c *CBS) Touched(set cache.SetView, w int) { c.active(set.Index).Touched(set, w) }

// Filled implements cache.Policy (see Touched).
func (c *CBS) Filled(set cache.SetView, w int) { c.active(set.Index).Filled(set, w) }

// OnAccess implements Hybrid.
func (c *CBS) OnAccess(addr uint64, write, mtdHit, primaryMiss bool) {
	linHit := c.atdLin.Probe(addr, write)
	lruHit := c.atdLru.Probe(addr, write)
	var delta int8
	switch {
	case linHit && !lruHit:
		delta = +1 // LIN doing better: PSEL += cost of ATD-LRU's miss
	case !linHit && lruHit:
		delta = -1 // LRU doing better: PSEL -= cost of ATD-LIN's miss
	}
	set := c.mtd.SetOf(addr)
	if mtdHit {
		// The block is not (re)fetched from memory, so the cost of
		// the losing ATD's miss comes from the MTD tag entry.
		cost, _ := c.mtd.CostOf(addr)
		c.apply(set, delta, cost)
		if !linHit {
			c.atdLin.Fill(addr, cost, false)
		}
		if !lruHit {
			c.atdLru.Fill(addr, cost, false)
		}
		return
	}
	if primaryMiss {
		c.pending[c.mtd.BlockOf(addr)] = cbsPending{
			set: set, delta: delta, fillLin: !linHit, fillLru: !lruHit,
		}
	}
}

// OnFill implements Hybrid.
func (c *CBS) OnFill(addr uint64, costQ uint8) {
	block := c.mtd.BlockOf(addr)
	p, ok := c.pending[block]
	if !ok {
		return
	}
	delete(c.pending, block)
	c.apply(p.set, p.delta, costQ)
	if p.fillLin {
		c.atdLin.Fill(addr, costQ, false)
	}
	if p.fillLru {
		c.atdLru.Fill(addr, costQ, false)
	}
}

func (c *CBS) apply(set int, delta int8, cost uint8) {
	switch delta {
	case +1:
		c.pselFor(set).Add(int(cost))
		c.stats.PselIncrements++
	case -1:
		c.pselFor(set).Add(-int(cost))
		c.stats.PselDecrements++
	}
	if delta != 0 && c.tr != nil {
		c.tr.Emit(metrics.Event{
			Type: metrics.EventPselUpdate, Set: set,
			Delta: int(delta) * int(cost), Value: c.pselFor(set).Value(),
		})
	}
}

// AdvanceEpoch implements Hybrid (CBS has no epoch state).
func (c *CBS) AdvanceEpoch() {}

// UsingLIN implements Hybrid.
func (c *CBS) UsingLIN(set int) bool { return c.pselFor(set).MSB() }

// Stats returns the selection counters.
func (c *CBS) Stats() HybridStats { return c.stats }

// Psel exposes the selector counter for the given set.
func (c *CBS) Psel(set int) *PSEL { return c.pselFor(set) }

// PselValue implements Hybrid: the set's counter value (the one global
// counter under the global scope).
func (c *CBS) PselValue(set int) int { return c.pselFor(set).Value() }

// AuditInvariants cross-checks CBS's bookkeeping and returns a
// description of every violated invariant (empty when consistent): every
// PSEL value stays inside its bit width, both auxiliary directories
// replicate the MTD geometry, and every pending contest is recorded
// against the set its block maps to. It never mutates state.
func (c *CBS) AuditInvariants() []string {
	var out []string
	for i, p := range c.psel {
		if v, max := p.Value(), p.Max(); v < 0 || v > max {
			out = append(out, fmt.Sprintf("psel[%d] value %d outside [0,%d]", i, v, max))
		}
	}
	mcfg := c.mtd.Config()
	for _, atd := range []struct {
		name string
		c    *cache.Cache
	}{{"ATD-LIN", c.atdLin}, {"ATD-LRU", c.atdLru}} {
		acfg := atd.c.Config()
		if acfg.Sets != mcfg.Sets || acfg.Assoc != mcfg.Assoc {
			out = append(out, fmt.Sprintf("%s geometry %dx%d differs from MTD %dx%d",
				atd.name, acfg.Sets, acfg.Assoc, mcfg.Sets, mcfg.Assoc))
		}
	}
	for block, p := range c.pending {
		if want := c.mtd.SetOf(block * mcfg.BlockBytes); p.set != want {
			out = append(out, fmt.Sprintf("pending block %#x recorded for set %d, maps to set %d", block, p.set, want))
		}
	}
	return out
}
