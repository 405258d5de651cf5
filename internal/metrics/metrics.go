// Package metrics is the simulator's observability registry: typed
// counters, gauges, histograms and instruction-indexed interval series
// behind stable dotted names (cache.l2.demand_miss, mshr.occupancy,
// psel.value, cost_q.hist), exported as one JSONL document per run.
//
// The registry gives every signal the paper's evaluation is built from a
// durable, machine-readable identity: the Figure 2 mlp-cost distribution
// is cost_q.hist, the Figure 11 time series are the interval.* and
// psel.* series, the Section 6 selector telemetry is psel.increments /
// psel.decrements, and Algorithm 1's accounting surfaces as the mshr.*
// family. docs/OBSERVABILITY.md is the catalog and schema contract; a
// test asserts the two never drift apart.
//
// Containers build on the internal/stats primitives (Histogram, Series)
// so a registry can adopt the histograms the simulator already maintains
// without copying samples.
package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"regexp"
	"sort"
	"sync"

	"mlpcache/internal/simerr"
)

// Kind discriminates the metric containers in exported samples.
type Kind string

// The four metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
	KindSeries    Kind = "series"
)

// MetricsSchema identifies the metrics JSONL document format (the header
// line's "schema" field). Bump on any incompatible change and update
// docs/OBSERVABILITY.md in the same commit.
const MetricsSchema = "mlpcache.metrics/v1"

// nameRE is the grammar of metric names: lowercase dotted components of
// letters, digits and underscores. The leading component starts with a
// letter; later components may be purely numeric, which indexed families
// like the multi-core core.<i>.* group use. Loosening the grammar is
// append-only: every previously valid name stays valid.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9][a-z0-9_]*)*$`)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a point-in-time float metric.
type Gauge struct{ v float64 }

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the last recorded value.
func (g *Gauge) Value() float64 { return g.v }

// entry is one registered metric: exactly one of the payload pointers is
// non-nil, matching kind.
type entry struct {
	name    string
	kind    Kind
	unit    string
	help    string
	counter *Counter
	gauge   *Gauge
	hist    HistogramSource
	series  SeriesSource
}

// HistogramSource is what a registry needs from a histogram: the
// internal/stats.Histogram satisfies it.
type HistogramSource interface {
	Width() float64
	Bins() []uint64
	Total() uint64
	Mean() float64
}

// SeriesSource is what a registry needs from an instruction-indexed time
// series; the internal/stats.Series satisfies it via the SeriesAdapter.
type SeriesSource interface {
	Len() int
	At(i int) (instructions uint64, value float64)
}

// Registry holds a run's metric set. Metrics are registered once by name
// (get-or-create); a name collision across kinds is a programmer error
// and panics with a typed simerr.ErrBadConfig.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

func (r *Registry) register(name string, kind Kind, unit, help string) *entry {
	if !nameRE.MatchString(name) {
		panic(simerr.New(simerr.ErrBadConfig,
			"metrics: invalid metric name %q (want dotted lowercase, e.g. cache.l2.demand_miss)", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(simerr.New(simerr.ErrBadConfig,
				"metrics: %s already registered as %s, requested as %s", name, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, kind: kind, unit: unit, help: help}
	r.entries[name] = e
	return e
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, unit, help string) *Counter {
	e := r.register(name, KindCounter, unit, help)
	if e.counter == nil {
		e.counter = &Counter{}
	}
	return e.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, unit, help string) *Gauge {
	e := r.register(name, KindGauge, unit, help)
	if e.gauge == nil {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// AttachHistogram registers an externally maintained histogram under the
// given name. The registry samples it at export time, so the simulator's
// live Figure 2 histogram is exported without copying.
func (r *Registry) AttachHistogram(name, unit, help string, h HistogramSource) {
	if h == nil {
		panic(simerr.New(simerr.ErrBadConfig, "metrics: AttachHistogram(%s) needs a histogram", name))
	}
	r.register(name, KindHistogram, unit, help).hist = h
}

// AttachSeries registers an externally maintained time series under the
// given name (see AttachHistogram).
func (r *Registry) AttachSeries(name, unit, help string, s SeriesSource) {
	if s == nil {
		panic(simerr.New(simerr.ErrBadConfig, "metrics: AttachSeries(%s) needs a series", name))
	}
	r.register(name, KindSeries, unit, help).series = s
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// HistSnapshot is a histogram's exported state.
type HistSnapshot struct {
	// Width is the bin width; the final bin is the overflow bin.
	Width  float64  `json:"width"`
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
	Mean   float64  `json:"mean"`
}

// Point is one exported series sample: retired-instruction index and
// value.
type Point struct {
	Instructions uint64  `json:"i"`
	Value        float64 `json:"v"`
}

// Sample is one metric's exported state — one JSONL line in a metrics
// document. Exactly the fields matching Kind are populated; zero-valued
// optional fields are omitted (absent means zero).
type Sample struct {
	Name   string        `json:"name"`
	Kind   Kind          `json:"kind"`
	Unit   string        `json:"unit,omitempty"`
	Help   string        `json:"help,omitempty"`
	Value  float64       `json:"value,omitempty"`
	Hist   *HistSnapshot `json:"hist,omitempty"`
	Points []Point       `json:"points,omitempty"`
}

func (e *entry) sample() Sample {
	s := Sample{Name: e.name, Kind: e.kind, Unit: e.unit, Help: e.help}
	switch e.kind {
	case KindCounter:
		s.Value = float64(e.counter.Value())
	case KindGauge:
		s.Value = e.gauge.Value()
	case KindHistogram:
		s.Hist = &HistSnapshot{
			Width:  e.hist.Width(),
			Counts: e.hist.Bins(),
			Total:  e.hist.Total(),
			Mean:   e.hist.Mean(),
		}
	case KindSeries:
		pts := make([]Point, e.series.Len())
		for i := range pts {
			pts[i].Instructions, pts[i].Value = e.series.At(i)
		}
		s.Points = pts
	}
	return s
}

// Samples exports every metric's current state, sorted by name.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Sample, 0, len(names))
	for _, n := range names {
		out = append(out, r.entries[n].sample())
	}
	return out
}

// RunHeader is the first line of every metrics or events JSONL document:
// it identifies the schema and the run the telemetry belongs to.
type RunHeader struct {
	Schema       string  `json:"schema"`
	Bench        string  `json:"bench,omitempty"`
	Policy       string  `json:"policy,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
	Instructions uint64  `json:"instructions,omitempty"`
	Cycles       uint64  `json:"cycles,omitempty"`
	IPC          float64 `json:"ipc,omitempty"`
}

// WriteJSONL writes the run header followed by one Sample line per
// metric, sorted by name. hdr.Schema is forced to MetricsSchema.
func (r *Registry) WriteJSONL(w io.Writer, hdr RunHeader) error {
	hdr.Schema = MetricsSchema
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for _, s := range r.Samples() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Report is a whole run as a single JSON object: the header plus the full
// metric set. cmd/mlpsim -json prints one of these to stdout.
type Report struct {
	RunHeader
	Metrics []Sample `json:"metrics"`
}

// ReportSchema identifies the single-object run report format.
const ReportSchema = "mlpcache.run/v1"

// BuildReport assembles a Report from the registry. hdr.Schema is forced
// to ReportSchema.
func (r *Registry) BuildReport(hdr RunHeader) Report {
	hdr.Schema = ReportSchema
	return Report{RunHeader: hdr, Metrics: r.Samples()}
}
