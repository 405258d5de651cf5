package oracle

import "mlpcache/internal/metrics"

// Comparison bundles one captured run's live accounting with all three
// offline replays at a fixed geometry — the unit of the oracle-headroom
// experiment and of `mlpsim -oracle`.
type Comparison struct {
	// Sets and Assoc are the replay geometry (the live L2's).
	Sets, Assoc int
	// Accesses is the captured access count.
	Accesses uint64
	// LiveMisses and LiveCost are the live run's own score over the
	// same stream (MemStats.DemandMisses / MemStats.CostQSum).
	LiveMisses, LiveCost uint64
	// OPT is the classic Belady replay, CostOPT the cost-weighted one,
	// EHC the realizable expected-hit-count predictor.
	OPT, CostOPT, EHC Result
}

// headroomPct returns how much of `live` the oracle value `opt` leaves
// on the table, in percent of live (0 when the live run was idle).
func headroomPct(live, opt uint64) float64 {
	if live == 0 {
		return 0
	}
	return 100 * (float64(live) - float64(opt)) / float64(live)
}

// MissHeadroomPct is the live run's miss-count headroom vs Belady:
// the percentage of live misses an optimal schedule would have avoided.
func (c Comparison) MissHeadroomPct() float64 { return headroomPct(c.LiveMisses, c.OPT.Misses) }

// CostHeadroomPct is the live run's mlp-cost headroom vs cost-weighted
// Belady — the paper's objective: the percentage of summed quantized
// cost an optimal schedule would have avoided.
func (c Comparison) CostHeadroomPct() float64 { return headroomPct(c.LiveCost, c.CostOPT.CostQSum) }

// Observe registers the comparison under the stable dotted names
// catalogued in docs/ORACLE.md (and docs/OBSERVABILITY.md's oracle
// section): the captured stream size, the live score, each replay's
// miss count and summed cost, and the two headroom gauges.
func (c Comparison) Observe(reg *metrics.Registry) {
	reg.Counter("oracle.accesses", "accesses", "captured L2 demand accesses replayed").Add(c.Accesses)
	reg.Counter("oracle.live.miss", "misses", "live run's primary demand misses over the captured stream").Add(c.LiveMisses)
	reg.Counter("oracle.live.cost", "cost_q", "live run's summed quantized cost over the captured stream").Add(c.LiveCost)
	reg.Counter("oracle.opt.miss", "misses", "Belady replay misses (minimum possible)").Add(c.OPT.Misses)
	reg.Counter("oracle.opt.cost", "cost_q", "Belady replay summed quantized cost").Add(c.OPT.CostQSum)
	reg.Counter("oracle.costopt.miss", "misses", "cost-weighted Belady replay misses").Add(c.CostOPT.Misses)
	reg.Counter("oracle.costopt.cost", "cost_q", "cost-weighted Belady replay summed quantized cost").Add(c.CostOPT.CostQSum)
	reg.Counter("oracle.ehc.miss", "misses", "expected-hit-count replay misses").Add(c.EHC.Misses)
	reg.Counter("oracle.ehc.cost", "cost_q", "expected-hit-count replay summed quantized cost").Add(c.EHC.CostQSum)
	reg.Gauge("oracle.headroom.miss_pct", "percent", "live misses an optimal schedule avoids").Set(c.MissHeadroomPct())
	reg.Gauge("oracle.headroom.cost_pct", "percent", "live summed cost an optimal schedule avoids").Set(c.CostHeadroomPct())
}
