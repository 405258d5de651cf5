// The doc contracts: every catalog table in docs/ that names something
// the code registers, emits, exports or refuses is compared with the
// code in both directions, so neither can drift from the other. One
// reader (docSection) parses the tables, one comparison (contractDiff)
// reports the differences, and TestDocContracts holds one row per
// table plus a mutation check that every row can fail.
package mlpcache

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"mlpcache/internal/experiments"
	"mlpcache/internal/metrics"
	"mlpcache/internal/oracle"
	"mlpcache/internal/prefetch"
	"mlpcache/internal/service"
	"mlpcache/internal/sim"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// docSection reads the section of docs/<file> whose heading starts with
// heading, up to the next heading of the same or a higher level, and
// returns its text and the cells of its markdown table rows. Header and
// separator rows are left out; cells are trimmed and lose their
// enclosing backticks.
func docSection(t testing.TB, file, heading string) (text string, rows [][]string) {
	t.Helper()
	raw, err := os.ReadFile("docs/" + file)
	if err != nil {
		t.Fatalf("reading contract doc: %v", err)
	}
	var lines []string
	level := 0
	for _, line := range strings.Split(string(raw), "\n") {
		hashes := len(line) - len(strings.TrimLeft(line, "#"))
		if hashes > 0 && level > 0 && hashes <= level {
			break
		}
		if level == 0 && hashes > 0 && strings.HasPrefix(line[hashes:], " "+heading) {
			level = hashes
		}
		if level == 0 {
			continue
		}
		lines = append(lines, line)
		if !strings.HasPrefix(line, "|") {
			continue
		}
		if strings.Trim(line, "|-: ") == "" {
			rows = rows[:len(rows)-1] // the row above a separator is the header
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.Trim(strings.TrimSpace(c), "`"))
		}
		rows = append(rows, cells)
	}
	if level == 0 {
		t.Fatalf("docs/%s lost its %q section", file, heading)
	}
	return strings.Join(lines, "\n"), rows
}

// keys joins each row's first n cells with a space: the documented name,
// or name and kind, or record ID and event type.
func keys(rows [][]string, n int) []string {
	var out []string
	for _, r := range rows {
		if len(r) >= n {
			out = append(out, strings.Join(r[:n], " "))
		}
	}
	return out
}

// contractDiff compares a documented list with the code's set. It
// returns the code's names the doc lacks (missing) and the documented
// names the code lacks (extra); a name documented twice is extra the
// second time. It reports instead of failing, so the mutations subtest
// can check that a drift is caught.
func contractDiff(doc, code []string) (missing, extra []string) {
	inCode := map[string]bool{}
	for _, name := range code {
		inCode[name] = true
	}
	seen := map[string]bool{}
	for _, name := range doc {
		if !inCode[name] || seen[name] {
			extra = append(extra, name)
		}
		seen[name] = true
	}
	for name := range inCode {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing, extra
}

// phrases is a phrase row's two sides: the code side is every
// "heading: phrase" pair the contract requires of docs/<file>, the doc
// side those pairs whose section contains the phrase (line wraps
// collapsed, so a phrase may span a reflowed line break).
func phrases(t *testing.T, file string, want []sectionPhrases) (doc, code []string) {
	for _, w := range want {
		text, _ := docSection(t, file, w.heading)
		text = strings.Join(strings.Fields(text), " ")
		for _, p := range w.phrases {
			code = append(code, w.heading+": "+p)
			if strings.Contains(text, p) {
				doc = append(doc, w.heading+": "+p)
			}
		}
	}
	return doc, code
}

type sectionPhrases struct {
	heading string
	phrases []string
}

// multicoreCores is how many cores the covering multi-core run (mcf+art)
// uses: the catalog's core.<i>. template rows expand to exactly this
// many concrete names.
const multicoreCores = 2

// coverage is what the covering runs register and emit. Together they
// register every catalogued metric and emit every event type: an
// audited, sampled, snapshotting LRU run covers the unconditional,
// sampled and audited sections; the same on rand-dynamic SBAR covers
// the hybrid section (twolf drives enough leader contests to move
// PSEL); a prefetch-enabled run produces miss.merge events (demand
// upgrades of late prefetches, the only merge source at this budget);
// one fig2 runner emits run.start. The learned, oracle and multi-core
// registries each come from their own small run.
type coverage struct {
	runs   []sim.Result
	events []string
	learn  *metrics.Registry
	oracle *metrics.Registry
	multi  *metrics.Registry
}

// covering runs the covering simulations once per test binary: the
// doc contracts and the metrics round trip share them.
var covering = sync.OnceValue(func() coverage {
	var c coverage
	seen := map[metrics.EventType]bool{}
	sink := metrics.FuncTracer(func(ev metrics.Event) { seen[ev.Type] = true })
	c.runs = []sim.Result{
		observedRun("mcf", sim.PolicySpec{Kind: sim.PolicyLRU}, false, sink),
		observedRun("twolf", sim.PolicySpec{Kind: sim.PolicySBAR, RandDynamic: true, Seed: 42}, false, sink),
		observedRun("mgrid", sim.PolicySpec{Kind: sim.PolicyLRU}, true, sink),
	}
	r := experiments.NewRunner(60_000, 42)
	r.Benchmarks = []string{"mcf"}
	r.Trace = sink
	if err := experiments.RunByID(r, "fig2", "text", io.Discard); err != nil {
		panic(fmt.Sprintf("fig2: %v", err))
	}
	for ty := range seen {
		c.events = append(c.events, string(ty))
	}

	// The learned family: a bandit run's Stats populate every learn.*
	// field, so the full family registers.
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 120_000
	cfg.Policy = sim.PolicySpec{Kind: sim.PolicyBandit, Seed: 42}
	c.learn = sim.MustRun(cfg, build("mcf", 42)).Metrics()

	// The oracle families, exactly what mlpsim -oracle adds to a run's
	// registry: one captured LRU run compared against the replays.
	cfg = sim.DefaultConfig()
	cfg.MaxInstructions = 120_000
	capture := oracle.NewCapture()
	cfg.Capture = capture
	sim.MustRun(cfg, build("mcf", 42))
	sets, err := cfg.L2.SetCount()
	if err != nil {
		panic(err)
	}
	c.oracle = metrics.NewRegistry()
	oracle.Compare(capture.Log(), sets, cfg.L2.Assoc).Observe(c.oracle)

	// The multi-core families: mcf+art sharing the L2 under audited,
	// sampled rand-dynamic SBAR, so the partitioned per-thread
	// selectors exist, core.<i>.psel_value registers and the chip-wide
	// interval.* series are exported.
	cfg = sim.DefaultConfig()
	cfg.MaxInstructions = 120_000
	cfg.SampleInterval = 60_000
	cfg.Audit = true
	cfg.Policy = sim.PolicySpec{Kind: sim.PolicySBAR, RandDynamic: true, Seed: 42}
	cfg.EpochInstructions = 60_000
	multi, err := sim.RunMulti(cfg, build("mcf", 42), build("art", 43))
	if err != nil {
		panic(err)
	}
	c.multi = multi.Metrics()
	return c
})

// observedRun runs one small audited, sampled and snapshotting
// simulation with event tracing into sink.
func observedRun(bench string, spec sim.PolicySpec, prefetchOn bool, sink metrics.Tracer) sim.Result {
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 300_000
	cfg.SampleInterval = 50_000
	cfg.SnapshotInterval = 60_000 // emits every snapshot.* type when sink != nil
	cfg.Audit = true
	cfg.Policy = spec
	if spec.RandDynamic {
		cfg.EpochInstructions = 100_000
	}
	if prefetchOn {
		pcfg := prefetch.DefaultConfig()
		cfg.Prefetch = &pcfg
	}
	cfg.Trace = sink
	return sim.MustRun(cfg, build(bench, 42))
}

func build(bench string, seed uint64) trace.Source {
	w, ok := workload.ByName(bench)
	if !ok {
		panic("unknown benchmark " + bench)
	}
	return w.Build(seed)
}

// samples renders registries as "name kind" keys, keeping the names
// that start with prefix.
func samples(prefix string, regs ...*metrics.Registry) []string {
	var out []string
	for _, reg := range regs {
		for _, s := range reg.Samples() {
			if strings.HasPrefix(s.Name, prefix) {
				out = append(out, s.Name+" "+string(s.Kind))
			}
		}
	}
	return out
}

// contentionTables returns the contention section's two tables: rows
// with a "+" are workload mixes, the rest are policy labels.
func contentionTables(t testing.TB) (mixes, policies []string) {
	_, rows := docSection(t, "MULTICORE.md", "Contention experiment")
	for _, name := range keys(rows, 1) {
		if strings.Contains(name, "+") {
			mixes = append(mixes, name)
		} else {
			policies = append(policies, name)
		}
	}
	return mixes, policies
}

// TestDocContracts compares each contract table in docs/ with what the
// code registers, emits, exports or refuses. Each row yields a
// documented list and the code's set; any difference either way fails
// the row. The mutations subtest then reruns every row with one
// documented name dropped and one undocumented name added, and fails
// unless the comparison reports both, so no row can pass vacuously.
func TestDocContracts(t *testing.T) {
	rows := []struct {
		name, file string
		sets       func(t *testing.T) (doc, code []string)
	}{
		{"observability-metrics", "OBSERVABILITY.md", func(t *testing.T) (doc, code []string) {
			// Per-core template rows expand over the covering
			// multi-core run's cores.
			_, rows := docSection(t, "OBSERVABILITY.md", "Metric catalog")
			for _, key := range keys(rows, 2) {
				if !strings.Contains(key, "<i>") {
					doc = append(doc, key)
					continue
				}
				for i := 0; i < multicoreCores; i++ {
					doc = append(doc, strings.Replace(key, "<i>", fmt.Sprint(i), 1))
				}
			}
			c := covering()
			svc, err := service.New(service.Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			regs := []*metrics.Registry{c.learn, c.oracle, c.multi, svc.MetricsSnapshot()}
			for _, res := range c.runs {
				regs = append(regs, res.Metrics())
			}
			return doc, samples("", regs...)
		}},
		{"observability-event-types", "OBSERVABILITY.md", func(t *testing.T) (doc, code []string) {
			_, rows := docSection(t, "OBSERVABILITY.md", "Event catalog")
			for _, ty := range metrics.AllEventTypes() {
				code = append(code, string(ty))
			}
			return keys(rows, 1), code
		}},
		{"observability-events-emitted", "OBSERVABILITY.md", func(t *testing.T) (doc, code []string) {
			_, rows := docSection(t, "OBSERVABILITY.md", "Event catalog")
			return keys(rows, 1), covering().events
		}},
		{"observability-v2-record-ids", "OBSERVABILITY.md", func(t *testing.T) (doc, code []string) {
			_, rows := docSection(t, "OBSERVABILITY.md", "Binary events")
			for _, ty := range metrics.AllEventTypes() {
				id, _ := metrics.EventTypeID(ty)
				if back, ok := metrics.EventTypeByID(id); !ok || back != ty {
					t.Errorf("EventTypeByID(%d) = %q, %v; want %q", id, back, ok, ty)
					continue
				}
				code = append(code, fmt.Sprintf("%d %s", id, ty))
			}
			return keys(rows, 2), code
		}},
		{"learned-metrics", "LEARNED.md", func(t *testing.T) (doc, code []string) {
			_, rows := docSection(t, "LEARNED.md", "Metric catalog")
			return keys(rows, 2), samples("learn.", covering().learn)
		}},
		{"oracle-metrics", "ORACLE.md", func(t *testing.T) (doc, code []string) {
			_, rows := docSection(t, "ORACLE.md", "Metric catalog")
			return keys(rows, 2), samples("", covering().oracle)
		}},
		{"multicore-mixes", "MULTICORE.md", func(t *testing.T) (doc, code []string) {
			doc, _ = contentionTables(t)
			for _, mix := range experiments.MulticoreMixes {
				for _, b := range mix {
					if _, ok := workload.ByName(b); !ok {
						t.Errorf("mix benchmark %q is not a compiled-in workload", b)
					}
				}
				code = append(code, strings.Join(mix, "+"))
			}
			return doc, code
		}},
		{"multicore-policy-labels", "MULTICORE.md", func(t *testing.T) (doc, code []string) {
			// Keyed by position: the labels must appear in the
			// comparison set's order.
			_, labels := contentionTables(t)
			for i, label := range labels {
				doc = append(doc, fmt.Sprintf("%d %s", i, label))
			}
			for i, spec := range []sim.PolicySpec{
				{Kind: sim.PolicyLRU},
				{Kind: sim.PolicyLIN, Lambda: 4},
				{Kind: sim.PolicySBAR},
			} {
				code = append(code, fmt.Sprintf("%d %s", i, spec))
			}
			return doc, code
		}},
		{"multicore-phrases", "MULTICORE.md", func(t *testing.T) (doc, code []string) {
			return phrases(t, "MULTICORE.md", []sectionPhrases{
				{"Core-facing interface", []string{"cpu.MemSystem", "bit-identical", "TestMulticoreSingleCoreEquivalence"}},
				{"Thread-tagged cost model", []string{"per-thread", "cross-core merge", "sharer"}},
				{"Leader-set partitioning", []string{"partitioned", "one PSEL per thread", "tid"}},
			})
		}},
		{"multicore-cores-bound", "MULTICORE.md", func(t *testing.T) (doc, code []string) {
			// The documented core limit is sim.MaxCores, and a run
			// with no cores at all is refused.
			cfg := sim.DefaultConfig()
			cfg.MaxInstructions = 1000
			if _, err := sim.RunMulti(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("zero-source run rejected with %v, want ErrBadConfig", err)
			}
			return phrases(t, "MULTICORE.md", []sectionPhrases{
				{"Configuration surface", []string{fmt.Sprintf("`sim.MaxCores` = %d", sim.MaxCores)}},
			})
		}},
		{"robustness-sentinels", "ROBUSTNESS.md", func(t *testing.T) (doc, code []string) {
			// The root re-exports, each a distinct errors.Is identity.
			_, rows := docSection(t, "ROBUSTNESS.md", "1. Error taxonomy")
			exported := map[string]error{
				"ErrBadConfig":        ErrBadConfig,
				"ErrCorruptTrace":     ErrCorruptTrace,
				"ErrMSHRLeak":         ErrMSHRLeak,
				"ErrInvariant":        ErrInvariant,
				"ErrUnknownBenchmark": ErrUnknownBenchmark,
				"ErrInternal":         ErrInternal,
				"ErrCancelled":        ErrCancelled,
			}
			for name, err := range exported {
				if err == nil {
					t.Fatalf("sentinel %q is nil", name)
				}
				for other, o := range exported {
					if name != other && errors.Is(err, o) {
						t.Errorf("sentinels %q and %q are not distinct", name, other)
					}
				}
				code = append(code, name)
			}
			return keys(rows, 1), code
		}},
		{"robustness-service-fault-model", "ROBUSTNESS.md", func(t *testing.T) (doc, code []string) {
			// Every admission and retry sentinel the service exports,
			// and the load-bearing phrases.
			want := []string{"terminal outcome", "drain", "retry budget", "singleflight"}
			for name, err := range map[string]error{
				"ErrQueueFull": service.ErrQueueFull,
				"ErrClientCap": service.ErrClientCap,
				"ErrDraining":  service.ErrDraining,
				"ErrTransient": service.ErrTransient,
			} {
				if err == nil {
					t.Errorf("service sentinel %q is nil", name)
				}
				want = append(want, "`"+name+"`")
			}
			sort.Strings(want)
			return phrases(t, "ROBUSTNESS.md", []sectionPhrases{{"6. Service fault model", want}})
		}},
	}

	type sides struct{ doc, code []string }
	got := make([]sides, len(rows))
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			doc, code := row.sets(t)
			if len(doc) == 0 {
				t.Fatalf("no documented names parsed from docs/%s — table format changed?", row.file)
			}
			missing, extra := contractDiff(doc, code)
			for _, name := range missing {
				t.Errorf("code has %q; docs/%s does not", name, row.file)
			}
			for _, name := range extra {
				t.Errorf("docs/%s lists %q; code does not (or the doc lists it twice)", row.file, name)
			}
			got[i] = sides{doc, code}
		})
	}

	t.Run("mutations", func(t *testing.T) {
		const added = "undocumented.name"
		for i, row := range rows {
			if len(got[i].doc) == 0 {
				t.Errorf("%s: no documented names to mutate", row.name)
				continue
			}
			dropped := got[i].doc[0]
			missing, extra := contractDiff(append([]string{added}, got[i].doc[1:]...), got[i].code)
			if !slices.Contains(missing, dropped) || !slices.Contains(extra, added) {
				t.Errorf("%s: dropping %q and adding %q went unreported (missing %q, extra %q)",
					row.name, dropped, added, missing, extra)
			}
		}
	})
}
