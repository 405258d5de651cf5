package experiments

import (
	"fmt"

	"mlpcache/internal/sim"
)

// Figure9Result compares LIN(4) and SBAR against the LRU baseline
// (Figure 9). SBAR must keep LIN's wins and erase its losses; on phased
// benchmarks (ammp) it can beat both fixed policies.
type Figure9Result struct {
	Rows []Figure9Row
}

// Figure9Row is one benchmark's comparison.
type Figure9Row struct {
	Bench        string
	LINDeltaPct  float64
	SBARDeltaPct float64
}

// Figure9 reproduces Figure 9.
func Figure9(r *Runner) Figure9Result {
	var out Figure9Result
	out.Rows = forBenches(r, r.Names(), func(b string) Figure9Row {
		_, lin, sbar := r.compare(runSpec{Mix: b, Seed: r.Seed})
		return Figure9Row{Bench: b, LINDeltaPct: lin, SBARDeltaPct: sbar}
	})
	return out
}

// comparison is the policy set Figure 9, the sweeps and the contention
// study compare: the LRU baseline, LIN(4), and SBAR (with one selector
// per thread when cores share the L2).
var comparison = []sim.PolicySpec{
	{Kind: sim.PolicyLRU},
	{Kind: sim.PolicyLIN, Lambda: 4},
	{Kind: sim.PolicySBAR},
}

// compare runs d under each comparison policy, in order, and returns the
// LRU result with LIN's and SBAR's IPC deltas against it in percent:
// Figure 9's comparison, which the sensitivity and seed sweeps repeat
// off the Table 2 machine and the runner's seed.
func (r *Runner) compare(d runSpec) (lru sim.Result, linPct, sbarPct float64) {
	var res [3]sim.Result
	for i, spec := range comparison {
		d.Policy = spec
		res[i] = r.run(d, false).res
	}
	return res[0], res[1].IPCDeltaPercent(res[0]), res[2].IPCDeltaPercent(res[0])
}

// table builds the paper-style table.
func (f Figure9Result) table() *table {
	t := newTable("Figure 9: IPC improvement over LRU — LIN vs SBAR", "bench", "LIN", "SBAR")
	for _, row := range f.Rows {
		t.rowf("%s\t%s\t%s", row.Bench, pct(row.LINDeltaPct), pct(row.SBARDeltaPct))
	}
	t.note("SBAR's job: keep LIN's gains, eliminate the bzip2/parser/mgrid degradations, beat both on phased ammp")
	return t
}

// Figure10Result sweeps SBAR's leader-set selection policy and count
// (Figure 10): simple-static vs rand-dynamic × {8, 16, 32} leader sets.
type Figure10Result struct {
	Configs []Figure10Config
	Rows    []Figure10Row
}

// Figure10Config labels one sweep point.
type Figure10Config struct {
	Label       string
	LeaderSets  int
	RandDynamic bool
}

// Figure10Row is one benchmark's sweep.
type Figure10Row struct {
	Bench    string
	DeltaPct []float64 // IPC improvement per config
}

// Figure10 reproduces Figure 10. Rand-dynamic reselects leaders every
// 1/10th of the run, matching the paper's 25M-of-250M cadence.
func Figure10(r *Runner) Figure10Result {
	res := Figure10Result{}
	for _, k := range []int{8, 16, 32} {
		res.Configs = append(res.Configs,
			Figure10Config{Label: fmt.Sprintf("static/%d", k), LeaderSets: k},
			Figure10Config{Label: fmt.Sprintf("rand/%d", k), LeaderSets: k, RandDynamic: true},
		)
	}
	epoch := r.Instructions / 10
	res.Rows = forBenches(r, r.Names(), func(b string) Figure10Row {
		base := r.Baseline(b)
		row := Figure10Row{Bench: b}
		for _, cfg := range res.Configs {
			spec := sim.PolicySpec{
				Kind:        sim.PolicySBAR,
				LeaderSets:  cfg.LeaderSets,
				RandDynamic: cfg.RandDynamic,
			}
			d := runSpec{Mix: b, Seed: r.Seed, Policy: spec}
			if cfg.RandDynamic {
				d.Epoch = epoch
			}
			row.DeltaPct = append(row.DeltaPct, r.run(d, false).res.IPCDeltaPercent(base))
		}
		return row
	})
	return res
}

// table builds the paper-style table.
func (f Figure10Result) table() *table {
	header := []string{"bench"}
	for _, c := range f.Configs {
		header = append(header, c.Label)
	}
	t := newTable("Figure 10: SBAR IPC improvement by leader-set policy and count", header...)
	for _, row := range f.Rows {
		cells := []string{row.Bench}
		for _, d := range row.DeltaPct {
			cells = append(cells, pct(d))
		}
		t.row(cells...)
	}
	t.note("paper: insensitive except ammp, where rand-dynamic helps at 8-16 leaders and the gap closes at 32")
	return t
}

// Figure11Result is the ammp case study (Figure 11): instruction-indexed
// time series of average cost_q per miss, misses per 1000 instructions,
// and IPC, for LRU, LIN and SBAR.
type Figure11Result struct {
	Bench    string
	Interval uint64
	Results  map[string]sim.Result // keyed lru/lin/sbar
}

// Figure11 reproduces Figure 11 on the ammp model.
func Figure11(r *Runner) Figure11Result {
	const bench = "ammp"
	interval := r.Instructions / 40
	if interval == 0 {
		interval = 1
	}
	out := Figure11Result{Bench: bench, Interval: interval, Results: map[string]sim.Result{}}
	for i, name := range []string{"lru", "lin", "sbar"} {
		out.Results[name] = r.run(runSpec{Mix: bench, Seed: r.Seed, Policy: comparison[i], Interval: interval}, false).res
	}
	return out
}

// table builds the three time series side by side.
func (f Figure11Result) table() *table {
	t := newTable(fmt.Sprintf("Figure 11: %s over time (sampled every %d instructions)", f.Bench, f.Interval),
		"instr", "costq lru", "costq lin", "costq sbar",
		"mpki lru", "mpki lin", "mpki sbar",
		"ipc lru", "ipc lin", "ipc sbar")
	lru, lin, sbar := f.Results["lru"], f.Results["lin"], f.Results["sbar"]
	n := len(lru.Series.IPC.Points)
	if k := len(lin.Series.IPC.Points); k < n {
		n = k
	}
	if k := len(sbar.Series.IPC.Points); k < n {
		n = k
	}
	for i := 0; i < n; i++ {
		t.rowf("%d\t%.2f\t%.2f\t%.2f\t%.1f\t%.1f\t%.1f\t%.3f\t%.3f\t%.3f",
			lru.Series.IPC.Points[i].Instructions,
			lru.Series.AvgCostQ.Points[i].Value,
			lin.Series.AvgCostQ.Points[i].Value,
			sbar.Series.AvgCostQ.Points[i].Value,
			lru.Series.MPKI.Points[i].Value,
			lin.Series.MPKI.Points[i].Value,
			sbar.Series.MPKI.Points[i].Value,
			lru.Series.IPC.Points[i].Value,
			lin.Series.IPC.Points[i].Value,
			sbar.Series.IPC.Points[i].Value)
	}
	t.note("whole-run IPC: lru %.3f, lin %.3f, sbar %.3f — SBAR should track the better policy in each phase",
		lru.IPC, lin.IPC, sbar.IPC)
	return t
}
