package core

import (
	"fmt"

	"mlpcache/internal/cache"
	"mlpcache/internal/metrics"

	"mlpcache/internal/simerr"
)

// CostAware is the cost-aware replacement engine (the paper's CARE): any
// victim-selection function over a line's LRU-stack position R and its
// stored quantized cost. Lower score evicts first; ties break toward the
// smaller recency value, exactly as the LIN policy specifies.
type CostAware struct {
	cache.Base
	name  string
	score func(recency, costQ int) int
	tr    metrics.Tracer
	// rankBuf is the Ranks scratch slice, reused across victim decisions
	// to keep the eviction path allocation-free. Policies are per-run
	// objects driven from a single goroutine, so one buffer suffices.
	rankBuf []int
}

// SetTracer installs an event tracer; each victim decision then emits a
// "victim" event carrying the winning way's R, cost_q, and score
// operands. A nil tracer (the default) disables emission.
func (p *CostAware) SetTracer(tr metrics.Tracer) { p.tr = tr }

// NewCostAware builds a CARE policy from an arbitrary score function.
func NewCostAware(name string, score func(recency, costQ int) int) *CostAware {
	if score == nil {
		panic(simerr.New(simerr.ErrBadConfig, "core: NewCostAware needs a score function"))
	}
	return &CostAware{name: name, score: score}
}

// NewLIN returns the paper's Linear policy with the given λ:
//
//	Victim_LIN = argmin_i { R(i) + λ·cost_q(i) }
//
// λ=0 degenerates to LRU; the paper's default is λ=4.
func NewLIN(lambda int) *CostAware {
	if lambda < 0 {
		panic(simerr.New(simerr.ErrBadConfig, "core: LIN lambda must be non-negative, got %d", lambda))
	}
	return NewCostAware(fmt.Sprintf("lin%d", lambda), func(r, c int) int {
		return r + lambda*c
	})
}

// Name implements cache.Policy.
func (p *CostAware) Name() string { return p.name }

// Victim implements cache.Policy. Invalid lines win immediately; among
// valid lines the minimum score wins, ties broken by smaller recency.
// The A stack positions are the ones the cache maintains on every
// access, copied by Ranks, so the decision is one O(A) pass with no
// ranking of its own — the software analogue of the paper's point that
// replacement must be near-free in hardware, where R(i) is per-line tag
// state.
func (p *CostAware) Victim(set cache.SetView) int {
	if w := set.FreeWay(); w >= 0 {
		return w
	}
	p.rankBuf = set.Ranks(p.rankBuf)
	best := -1
	bestScore, bestRecency, bestCostQ := 0, 0, 0
	for w, r := range p.rankBuf {
		c := int(set.CostQ(w))
		s := p.score(r, c)
		if best < 0 || s < bestScore || (s == bestScore && r < bestRecency) {
			best, bestScore, bestRecency, bestCostQ = w, s, r, c
		}
	}
	if p.tr != nil {
		p.tr.Emit(metrics.Event{
			Type: metrics.EventVictim, Set: set.Index, Way: best,
			Recency: bestRecency, CostQ: bestCostQ, Score: bestScore,
			Policy: p.name,
		})
	}
	return best
}
