package sim

import (
	"fmt"
	"math/bits"

	"mlpcache/internal/audit"
	"mlpcache/internal/core"
)

// buildAuditor assembles the invariant checkers for one audited run:
// structural checks on the shared L2 (recency-stack permutation,
// quantized-cost bounds), every core's L1 recency and MSHR bookkeeping,
// agreement between the MSHR files and the in-flight fill table, and —
// when a hybrid policy is racing — the selector and sampling-directory
// checks of the engine in use (SBAR/DIP share *core.SBAR, with every
// per-thread selector bounded when the PSEL is partitioned; CBS has its
// own). Per-core and per-thread checkers carry their index only when
// there is more than one.
func (m *memSystem) buildAuditor() *audit.Auditor {
	a := audit.New(m.cfg.AuditEvery,
		audit.RecencyPermutation("l2-recency", m.l2),
		audit.CostQBound("l2-costq", m.l2, 7),
		audit.Func("mshr-inflight", func(_ uint64, report func(string)) {
			// Every sharer of a pending fill must hold an MSHR entry for
			// the block, and each core's occupancy must equal its count
			// of in-flight sharer bits: per core, entries and fills are
			// created and retired together, so the tables are a
			// bijection.
			perCore := make([]int, len(m.ports))
			m.inflight.Range(func(block uint64, f *fill) bool {
				for rest := f.sharers; rest != 0; rest &= rest - 1 {
					tid := bits.TrailingZeros64(rest)
					perCore[tid]++
					if !m.ports[tid].mshr.Pending(block) {
						report(fmt.Sprintf("core %d shares in-flight block %#x but has no MSHR entry", tid, block))
					}
				}
				return true
			})
			for i := range m.ports {
				if got, want := m.ports[i].mshr.Len(), perCore[i]; got != want {
					report(fmt.Sprintf("core %d MSHR holds %d entries but shares %d in-flight fills", i, got, want))
				}
			}
		}),
	)
	indexed := func(name, sep string, i, n int) string {
		if n == 1 {
			return name
		}
		return fmt.Sprintf("%s-%s%d", name, sep, i)
	}
	for i := range m.ports {
		p := &m.ports[i]
		a.Register(
			audit.RecencyPermutation(indexed("l1-recency", "core", i, len(m.ports)), p.l1),
			audit.Strings(indexed("mshr", "core", i, len(m.ports)), p.mshr.AuditInvariants),
		)
	}
	switch h := m.hybrid.(type) {
	case *core.SBAR:
		a.Register(audit.Strings("sbar", h.AuditInvariants))
		for t := 0; t < h.Threads(); t++ {
			a.Register(audit.PselBound(indexed("sbar-psel", "t", t, h.Threads()), func() (int, int) {
				p := h.PselFor(t)
				return p.Value(), p.Max()
			}))
		}
	case *core.CBS:
		a.Register(audit.Strings("cbs", h.AuditInvariants))
	}
	return a
}
