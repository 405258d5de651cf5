package experiments

import (
	"fmt"

	"mlpcache/internal/workload"
)

// Figure2Result is the per-benchmark mlp-cost distribution under the LRU
// baseline (Figure 2): eight 60-cycle bins, the last collecting 420+.
type Figure2Result struct {
	Rows []Figure2Row
}

// Figure2Row is one benchmark's distribution.
type Figure2Row struct {
	Bench   string
	Percent []float64
	Mean    float64
	Misses  uint64
	Spark   string
}

// Figure2 reproduces Figure 2.
func Figure2(r *Runner) Figure2Result {
	var out Figure2Result
	out.Rows = forBenches(r, r.Names(), func(b string) Figure2Row {
		base := r.Baseline(b)
		return Figure2Row{
			Bench:   b,
			Percent: base.CostHist.Percent(),
			Mean:    base.CostHist.Mean(),
			Misses:  base.CostHist.Total(),
			Spark:   base.CostHist.Sparkline(),
		}
	})
	return out
}

// table builds the paper-style table.
func (f Figure2Result) table() *table {
	t := newTable("Figure 2: distribution of mlp-cost under LRU (percent of misses per 60-cycle bin)",
		"bench", "0-59", "60-119", "120-179", "180-239", "240-299", "300-359", "360-419", "420+", "mean", "shape")
	for _, row := range f.Rows {
		cells := []string{row.Bench}
		for _, p := range row.Percent {
			cells = append(cells, fmt.Sprintf("%.0f%%", p))
		}
		cells = append(cells, fmt.Sprintf("%.0f", row.Mean), row.Spark)
		t.row(cells...)
	}
	t.note("an isolated miss costs 444 cycles on the baseline machine and lands in the 420+ bin")
	return t
}

// paperTable1 records the paper's Table 1 delta classes (percent of
// deltas <60, 60-119, ≥120) for side-by-side reporting. The paper's
// average-delta row survives only for the three benchmarks §5.2 quotes.
var paperTable1 = map[string][3]float64{
	"art": {86, 7, 7}, "mcf": {86, 7, 7}, "twolf": {52, 12, 36},
	"vpr": {50, 14, 36}, "facerec": {96, 0, 4}, "ammp": {82, 10, 8},
	"galgel": {71, 9, 20}, "equake": {78, 12, 10}, "bzip2": {43, 15, 42},
	"parser": {43, 5, 52}, "apsi": {85, 5, 10}, "sixtrack": {100, 0, 0},
	"lucas": {84, 6, 10}, "mgrid": {18, 16, 66},
}

// paperAvgDelta holds the average deltas §5.2 quotes explicitly.
var paperAvgDelta = map[string]float64{"bzip2": 126, "parser": 190, "mgrid": 187}

// Table1Result is the delta distribution of mlp-cost between successive
// misses to the same block, measured on the LRU baseline (Table 1).
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one benchmark's delta statistics.
type Table1Row struct {
	Bench                  string
	Lt60, Ge60Lt120, Ge120 float64 // percent
	Mean                   float64 // cycles
	Paper                  [3]float64
	PaperMean              float64 // 0 when the paper value did not survive
}

// Table1 reproduces Table 1.
func Table1(r *Runner) Table1Result {
	var out Table1Result
	out.Rows = forBenches(r, r.Names(), func(b string) Table1Row {
		base := r.Baseline(b)
		d := base.Delta
		return Table1Row{
			Bench: b,
			Lt60:  d.PercentLt60(), Ge60Lt120: d.PercentGe60Lt120(), Ge120: d.PercentGe120(),
			Mean:      d.Mean(),
			Paper:     paperTable1[b],
			PaperMean: paperAvgDelta[b],
		}
	})
	return out
}

// table builds the paper-style table.
func (f Table1Result) table() *table {
	t := newTable("Table 1: delta between successive mlp-costs of a block (measured [paper])",
		"bench", "delta<60", "60<=delta<120", "delta>=120", "avg delta")
	for _, row := range f.Rows {
		mean := fmt.Sprintf("%.0f", row.Mean)
		if row.PaperMean > 0 {
			mean += fmt.Sprintf(" [%.0f]", row.PaperMean)
		}
		t.rowf("%s\t%.0f%% [%.0f%%]\t%.0f%% [%.0f%%]\t%.0f%% [%.0f%%]\t%s",
			row.Bench, row.Lt60, row.Paper[0], row.Ge60Lt120, row.Paper[1],
			row.Ge120, row.Paper[2], mean)
	}
	t.note("high-delta benchmarks (bzip2, parser, mgrid) are where last-cost prediction fails and LIN loses")
	return t
}

// paperCompulsory is Table 3's compulsory-miss percentage column.
var paperCompulsory = map[string]float64{
	"art": 0.5, "mcf": 2.2, "twolf": 2.9, "vpr": 4.3, "ammp": 5.1,
	"galgel": 5.9, "equake": 14.2, "bzip2": 15.5, "facerec": 18.0,
	"parser": 20.3, "sixtrack": 20.6, "apsi": 22.8, "lucas": 41.6, "mgrid": 46.6,
}

// Table3Result summarizes each benchmark: class, miss volume, compulsory
// share (Table 3).
type Table3Result struct {
	Instructions uint64
	Rows         []Table3Row
}

// Table3Row is one benchmark's summary.
type Table3Row struct {
	Bench           string
	Class           string
	L2Misses        uint64
	MPKI            float64
	CompulsoryPct   float64
	PaperCompulsory float64
	IPC             float64
}

// Table3 reproduces Table 3 on the synthetic models. Compulsory
// percentages scale with run length (every reused block is compulsory
// exactly once), so the column to compare against the paper is the
// *ordering*, noted in the rendering.
func Table3(r *Runner) Table3Result {
	out := Table3Result{Instructions: r.Instructions}
	out.Rows = forBenches(r, r.Names(), func(b string) Table3Row {
		spec, _ := workload.ByName(b)
		base := r.Baseline(b)
		return Table3Row{
			Bench: b, Class: spec.Class,
			L2Misses:        base.Mem.DemandMisses,
			MPKI:            base.MPKI(),
			CompulsoryPct:   base.CompulsoryPercent(),
			PaperCompulsory: paperCompulsory[b],
			IPC:             base.IPC,
		}
	})
	return out
}

// table builds the paper-style table.
func (f Table3Result) table() *table {
	t := newTable(fmt.Sprintf("Table 3: benchmark summary (LRU baseline, %d instructions)", f.Instructions),
		"bench", "type", "L2 misses", "MPKI", "compulsory", "[paper]", "IPC")
	for _, row := range f.Rows {
		t.rowf("%s\t%s\t%d\t%.1f\t%.1f%%\t[%.1f%%]\t%.3f",
			row.Bench, row.Class, row.L2Misses, row.MPKI,
			row.CompulsoryPct, row.PaperCompulsory, row.IPC)
	}
	t.note("compulsory %% shrinks toward the paper's values as runs lengthen; the cross-benchmark ordering is the reproduced shape")
	return t
}

// benchesByCompulsory returns the benchmark names ordered by measured
// compulsory share (used by tests to check ordering against the paper).
func (f Table3Result) benchesByCompulsory() []string {
	rows := append([]Table3Row(nil), f.Rows...)
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].CompulsoryPct < rows[j-1].CompulsoryPct; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Bench
	}
	return names
}
