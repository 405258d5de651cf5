package experiments

import (
	"io"

	"mlpcache/internal/simerr"
)

// An experiment is one runnable id: the group mlpexp runs it in and the
// builder that runs it and returns its table.
type experiment struct {
	id string
	// group is "all" for the paper's evaluation, in paper order, and
	// "sens" for the extension sweeps (the material of the paper's
	// truncated Section 7) plus the multi-core contention study, kept
	// out of "all" since each costs many simulations.
	group string
	build func(*Runner) *table
}

// registry lists every experiment, each group in the order mlpexp
// -run all and -run sens print it.
var registry = []experiment{
	{"fig1", "all", func(*Runner) *table { return Figure1().table() }},
	{"fig2", "all", func(r *Runner) *table { return Figure2(r).table() }},
	{"tab1", "all", func(r *Runner) *table { return Table1(r).table() }},
	{"tab2", "all", func(*Runner) *table { return Table2().table() }},
	{"tab3", "all", func(r *Runner) *table { return Table3(r).table() }},
	{"fig3b", "all", func(*Runner) *table { return Figure3b().table() }},
	{"fig4", "all", func(r *Runner) *table { return Figure4(r).table() }},
	{"fig5", "all", func(r *Runner) *table { return Figure5(r).table() }},
	{"fig8", "all", func(*Runner) *table { return Figure8().table() }},
	{"fig9", "all", func(r *Runner) *table { return Figure9(r).table() }},
	{"fig10", "all", func(r *Runner) *table { return Figure10(r).table() }},
	{"fig11", "all", func(r *Runner) *table { return Figure11(r).table() }},
	{"ovh", "all", func(*Runner) *table { return OverheadReport().table() }},
	{"oracle-headroom", "all", func(r *Runner) *table { return OracleHeadroom(r).table() }},
	{"learned-headroom", "all", func(r *Runner) *table { return LearnedHeadroom(r).table() }},
	{"sens-mem", "sens", func(r *Runner) *table { return sweep(r, memLatency).table() }},
	{"sens-cache", "sens", func(r *Runner) *table { return sweep(r, l2Size).table() }},
	{"sens-mshr", "sens", func(r *Runner) *table { return sweep(r, mshrEntries).table() }},
	{"sens-window", "sens", func(r *Runner) *table { return sweep(r, windowSize).table() }},
	{"stab", "sens", func(r *Runner) *table { return Stability(r).table() }},
	{"cbs", "sens", func(r *Runner) *table { return CBSComparison(r).table() }},
	{"multicore-contention", "sens", func(r *Runner) *table { return MulticoreContention(r).table() }},
}

// formats are RunByID's output formats.
var formats = map[string]func(*table, io.Writer) error{
	"text": (*table).WriteText,
	"csv":  (*table).WriteCSV,
	"json": (*table).WriteJSON,
}

// groupIDs returns the ids of one registry group, in registry order.
func groupIDs(group string) []string {
	var ids []string
	for _, e := range registry {
		if e.group == group {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// AllIDs returns every paper experiment id in paper order: what
// mlpexp -run all runs.
func AllIDs() []string { return groupIDs("all") }

// SensitivityIDs returns the extension sweeps plus the multi-core
// contention study: what mlpexp -run sens runs.
func SensitivityIDs() []string { return groupIDs("sens") }

func lookup(id string) (experiment, bool) {
	for _, e := range registry {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

// RunByID runs one experiment and writes its table to w in format:
// "text" (the paper-style table), "csv" (title comment, header, data
// rows) or "json" (one mlpcache.table/v1 object). An unknown format or
// id is a wrapped simerr.ErrBadConfig, returned before anything
// simulates. A runner whose Context was cancelled mid-sweep returns the
// wrapped simerr.ErrCancelled instead of writing a partial table.
func RunByID(r *Runner, id, format string, w io.Writer) (err error) {
	write, ok := formats[format]
	if !ok {
		return simerr.New(simerr.ErrBadConfig,
			"experiments: unknown format %q (known: text, csv, json)", format)
	}
	e, ok := lookup(id)
	if !ok {
		return simerr.New(simerr.ErrBadConfig,
			"experiments: unknown experiment %q (known: %v plus %v)", id, AllIDs(), SensitivityIDs())
	}
	if err := r.Validate(); err != nil {
		return err
	}
	// A cancelled sweep unwinds the builder with a cancelAbort panic
	// (see Runner.fail), caught here and handed back as the runner's
	// recorded error.
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(cancelAbort); !ok {
				panic(p)
			}
			err = r.Err()
		}
	}()
	t := e.build(r)
	if err := r.Err(); err != nil {
		return err
	}
	return write(t, w)
}
