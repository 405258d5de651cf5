package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"mlpcache/internal/simerr"
	"mlpcache/internal/stats"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cache.l2.demand_miss", "misses", "demand misses")
	c.Add(1)
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create returns the same counter.
	if again := r.Counter("cache.l2.demand_miss", "misses", ""); again != c {
		t.Fatalf("second Counter() returned a different instance")
	}
	g := r.Gauge("run.ipc", "ipc", "instructions per cycle")
	g.Set(1.25)
	if got := g.Value(); got != 1.25 {
		t.Fatalf("gauge = %v, want 1.25", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestBadNamePanics(t *testing.T) {
	for _, name := range []string{"", "Upper.case", "1starts.with.digit", "trailing.", ".leading", "has space", "has-dash"} {
		func() {
			defer func() {
				rec := recover()
				if rec == nil {
					t.Fatalf("name %q: no panic", name)
				}
				err, ok := rec.(error)
				if !ok || !errors.Is(err, simerr.ErrBadConfig) {
					t.Fatalf("name %q: panic %v, want ErrBadConfig", name, rec)
				}
			}()
			NewRegistry().Counter(name, "", "")
		}()
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x.y", "", "")
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatalf("no panic on kind clash")
		}
		if err, ok := rec.(error); !ok || !errors.Is(err, simerr.ErrBadConfig) {
			t.Fatalf("panic %v, want ErrBadConfig", rec)
		}
	}()
	r.Gauge("x.y", "", "")
}

func TestSamplesSortedAndTyped(t *testing.T) {
	r := NewRegistry()
	r.Gauge("b.gauge", "", "").Set(2)
	r.Counter("a.counter", "", "").Add(7)
	h := stats.NewHistogram(60, 8)
	h.Add(30)
	h.Add(500)
	r.AttachHistogram("c.hist", "cycles", "", h)
	var ser stats.Series
	ser.Add(1000, 0.5)
	ser.Add(2000, 0.75)
	r.AttachSeries("d.series", "ipc", "", &ser)

	samples := r.Samples()
	wantNames := []string{"a.counter", "b.gauge", "c.hist", "d.series"}
	if len(samples) != len(wantNames) {
		t.Fatalf("got %d samples, want %d", len(samples), len(wantNames))
	}
	for i, s := range samples {
		if s.Name != wantNames[i] {
			t.Fatalf("sample %d name = %q, want %q (sorted)", i, s.Name, wantNames[i])
		}
	}
	if samples[0].Kind != KindCounter || samples[0].Value != 7 {
		t.Fatalf("counter sample = %+v", samples[0])
	}
	if samples[1].Kind != KindGauge || samples[1].Value != 2 {
		t.Fatalf("gauge sample = %+v", samples[1])
	}
	hs := samples[2].Hist
	if samples[2].Kind != KindHistogram || hs == nil || hs.Total != 2 || hs.Width != 60 || len(hs.Counts) != 8 {
		t.Fatalf("hist sample = %+v", samples[2])
	}
	if hs.Counts[0] != 1 || hs.Counts[7] != 1 {
		t.Fatalf("hist counts = %v", hs.Counts)
	}
	pts := samples[3].Points
	if samples[3].Kind != KindSeries || len(pts) != 2 || pts[1].Instructions != 2000 || pts[1].Value != 0.75 {
		t.Fatalf("series sample = %+v", samples[3])
	}
}

func TestAttachNilPanics(t *testing.T) {
	r := NewRegistry()
	for _, f := range []func(){
		func() { r.AttachHistogram("h", "", "", nil) },
		func() { r.AttachSeries("s", "", "", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic on nil attach")
				}
			}()
			f()
		}()
	}
}

// strictDecode round-trips one JSON line into v, rejecting unknown fields
// — the same check the CLI round-trip test applies, so the schema structs
// here are authoritative.
func strictDecode(t *testing.T, line string, v any) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("strict decode of %q: %v", line, err)
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.l2.demand_miss", "misses", "primary demand misses").Add(3)
	h := stats.NewHistogram(60, 8)
	h.Add(100)
	r.AttachHistogram("cost_q.hist", "cycles", "", h)

	var buf bytes.Buffer
	hdr := RunHeader{Bench: "mcf", Policy: "lin4", Seed: 42, Instructions: 1000, Cycles: 2000, IPC: 0.5}
	if err := r.WriteJSONL(&buf, hdr); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}

	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatalf("no header line")
	}
	var gotHdr RunHeader
	strictDecode(t, sc.Text(), &gotHdr)
	if gotHdr.Schema != MetricsSchema {
		t.Fatalf("header schema = %q, want %q", gotHdr.Schema, MetricsSchema)
	}
	if gotHdr.Bench != "mcf" || gotHdr.Seed != 42 || gotHdr.IPC != 0.5 {
		t.Fatalf("header = %+v", gotHdr)
	}
	var lines int
	for sc.Scan() {
		var s Sample
		strictDecode(t, sc.Text(), &s)
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d sample lines, want 2", lines)
	}
}

func TestJSONLTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf, RunHeader{Bench: "mcf"})
	tr.Emit(Event{Type: EventMissIssue, Cycle: 10, Block: 0xabc})
	tr.Emit(Event{Type: EventMissFill, Cycle: 500, Block: 0xabc, Cost: 123.5, CostQ: 2})
	tr.Emit(Event{Type: EventSBARLeader, Outcome: "both_miss", Set: 3})
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if tr.Events() != 3 {
		t.Fatalf("Events = %d, want 3", tr.Events())
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatalf("no header")
	}
	var hdr RunHeader
	strictDecode(t, sc.Text(), &hdr)
	if hdr.Schema != EventsSchema {
		t.Fatalf("schema = %q, want %q", hdr.Schema, EventsSchema)
	}
	var evs []Event
	for sc.Scan() {
		var ev Event
		strictDecode(t, sc.Text(), &ev)
		evs = append(evs, ev)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[1].Type != EventMissFill || evs[1].Cost != 123.5 || evs[1].CostQ != 2 {
		t.Fatalf("fill event = %+v", evs[1])
	}
	if evs[2].Outcome != "both_miss" {
		t.Fatalf("leader event = %+v", evs[2])
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > 4096 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestJSONLTracerStickyError(t *testing.T) {
	tr := NewJSONLTracer(&failWriter{}, RunHeader{})
	for i := 0; i < 10000; i++ {
		tr.Emit(Event{Type: EventMissIssue, Cycle: uint64(i)})
	}
	if err := tr.Flush(); err == nil {
		t.Fatalf("Flush: want error after writer failure")
	}
}

func TestBuildReport(t *testing.T) {
	r := NewRegistry()
	r.Counter("run.instructions", "instructions", "").Add(100)
	rep := r.BuildReport(RunHeader{Bench: "ammp", Policy: "lru"})
	if rep.Schema != ReportSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, ReportSchema)
	}
	if len(rep.Metrics) != 1 || rep.Metrics[0].Name != "run.instructions" {
		t.Fatalf("metrics = %+v", rep.Metrics)
	}
	// The report must marshal and strict-unmarshal cleanly.
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("strict unmarshal: %v", err)
	}
}

func TestFuncTracer(t *testing.T) {
	var got []Event
	var tr Tracer = FuncTracer(func(ev Event) { got = append(got, ev) })
	tr.Emit(Event{Type: EventVictim, Recency: 3, CostQ: 1, Score: 7})
	if len(got) != 1 || got[0].Score != 7 {
		t.Fatalf("got %+v", got)
	}
}
