package experiments

import "fmt"

// Seed-stability check: the workloads are synthetic, so a fair question
// is whether the reproduced effects are properties of the models or of a
// particular random seed. This experiment re-measures the Figure 5/9
// deltas across several seeds and reports mean and range; the signs must
// be stable for the reproduction to mean anything.

// StabilityResult aggregates multi-seed deltas.
type StabilityResult struct {
	Seeds []uint64
	Rows  []StabilityRow
}

// StabilityRow is one benchmark's cross-seed summary.
type StabilityRow struct {
	Bench                      string
	LINMean, LINMin, LINMax    float64 // LIN IPC delta %, across seeds
	SBARMean, SBARMin, SBARMax float64
	SignStable                 bool // every seed agrees with the mean's sign
}

// stabilityBenches cover a LIN-winner, a LIN-loser, and the phased case.
var stabilityBenches = []string{"mcf", "parser", "ammp"}

// Stability runs the three-policy comparison across three seeds.
func Stability(r *Runner) StabilityResult {
	res := StabilityResult{Seeds: []uint64{r.Seed, r.Seed + 101, r.Seed + 202}}
	res.Rows = forBenches(r, stabilityBenches, func(b string) StabilityRow {
		row := StabilityRow{Bench: b, SignStable: true}
		var linDeltas, sbarDeltas []float64
		for _, seed := range res.Seeds {
			_, lin, sbar := r.compare(runSpec{Mix: b, Seed: seed})
			linDeltas = append(linDeltas, lin)
			sbarDeltas = append(sbarDeltas, sbar)
		}
		row.LINMean, row.LINMin, row.LINMax = summarize(linDeltas)
		row.SBARMean, row.SBARMin, row.SBARMax = summarize(sbarDeltas)
		for _, d := range linDeltas {
			// Treat near-zero deltas as sign-neutral.
			if (d > 1) != (row.LINMean > 1) && (d < -1) != (row.LINMean < -1) {
				row.SignStable = false
			}
		}
		return row
	})
	return res
}

func summarize(vals []float64) (mean, min, max float64) {
	min, max = vals[0], vals[0]
	for _, v := range vals {
		mean += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return mean / float64(len(vals)), min, max
}

// table builds the stability report.
func (f StabilityResult) table() *table {
	t := newTable(fmt.Sprintf("Seed stability: IPC delta vs LRU across %d seeds (mean [min, max])", len(f.Seeds)),
		"bench", "LIN", "SBAR", "sign")
	for _, r := range f.Rows {
		sign := "stable"
		if !r.SignStable {
			sign = "UNSTABLE"
		}
		t.rowf("%s\t%+.1f%% [%+.1f, %+.1f]\t%+.1f%% [%+.1f, %+.1f]\t%s",
			r.Bench, r.LINMean, r.LINMin, r.LINMax,
			r.SBARMean, r.SBARMin, r.SBARMax, sign)
	}
	t.note("a reproduction is only as good as its robustness to the seed; signs must hold everywhere")
	return t
}
