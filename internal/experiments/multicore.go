package experiments

import (
	"fmt"
	"strings"

	"mlpcache/internal/sim"
)

// MulticoreMixes is the heterogeneous workload pairings the contention
// experiment runs: a cache-hostile stream against a cache-friendly one
// (mcf+mgrid), two miss-heavy competitors (mcf+art), and a mixed pairing
// (art+parser). Each mix shares the contended L2 between two cores.
var MulticoreMixes = [][]string{
	{"mcf", "art"},
	{"mcf", "mgrid"},
	{"art", "parser"},
}

// MulticoreRow is one (mix, policy) cell: per-core miss/cost slices plus
// the chip-wide aggregates.
type MulticoreRow struct {
	Mix    string
	Policy string
	// CoreMisses, CoreMPKI and CoreCost are per-core in mix order:
	// demand misses issued, misses per thousand own instructions, and
	// mean mlp-cost of the core's own misses.
	CoreMisses []uint64
	CoreMPKI   []float64
	CoreCost   []float64
	// Aggregates over the shared clock.
	AggMisses   uint64
	AggCost     float64
	AggIPC      float64
	CrossMerges uint64
}

// MulticoreResult tables the multi-core contention comparison.
type MulticoreResult struct {
	Rows []MulticoreRow
}

// MulticoreContention runs every mix under LRU, LIN and SBAR on two
// cores sharing the contended L2 and tables per-core plus aggregate
// misses and mlp-cost. Core i seeds its workload with Seed+i, matching
// mlpsim -cores.
func MulticoreContention(r *Runner) MulticoreResult {
	var out MulticoreResult
	for _, names := range MulticoreMixes {
		mix := strings.Join(names, "+")
		out.Rows = append(out.Rows, forBenches(r, comparison, func(spec sim.PolicySpec) MulticoreRow {
			res := r.run(runSpec{Mix: mix, Seed: r.Seed, Policy: spec}, false).multi
			row := MulticoreRow{
				Mix:         mix,
				Policy:      spec.String(),
				AggMisses:   res.Mem.DemandMisses,
				AggCost:     res.AvgMLPCost(),
				AggIPC:      res.IPC(),
				CrossMerges: res.CrossCoreMerges,
			}
			for _, c := range res.Cores {
				row.CoreMisses = append(row.CoreMisses, c.Mem.DemandMisses)
				row.CoreMPKI = append(row.CoreMPKI, c.MPKI())
				row.CoreCost = append(row.CoreCost, c.AvgMLPCost())
			}
			return row
		})...)
	}
	return out
}

// table builds the paper-style contention table.
func (f MulticoreResult) table() *table {
	t := newTable("Multi-core contention: 2 cores sharing the L2 — per-core and aggregate misses / mlp-cost",
		"mix", "policy", "core0 misses (cost)", "core1 misses (cost)", "aggregate")
	for _, row := range f.Rows {
		var cores []string
		for i := range row.CoreMisses {
			cores = append(cores, fmt.Sprintf("%d (%.1fc, MPKI %.1f)",
				row.CoreMisses[i], row.CoreCost[i], row.CoreMPKI[i]))
		}
		t.rowf("%s\t%s\t%s\t%d misses, %.1fc, IPC %.4f",
			row.Mix, row.Policy, strings.Join(cores, "\t"),
			row.AggMisses, row.AggCost, row.AggIPC)
	}
	t.note("per-core mlp-cost comes from each core's own MSHR clock (Algorithm 1 per thread); SBAR duels with one PSEL per thread")
	t.note("cross-core merges (misses joining another core's in-flight fetch) are counted once per joining access")
	return t
}
