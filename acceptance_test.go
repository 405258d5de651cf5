// Behavioural acceptance tests of the documented subsystems: the JSONL
// metric and event documents round-trip through strict decoders, model
// training is a pure function of the capture and the seed, and the
// learned-headroom, oracle-headroom and multi-core contention tables
// satisfy their subsystems' defining invariants. The doc catalogs
// themselves are checked by TestDocContracts.
package mlpcache

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mlpcache/internal/experiments"
	"mlpcache/internal/learn"
	"mlpcache/internal/metrics"
	"mlpcache/internal/oracle"
	"mlpcache/internal/sim"
	"mlpcache/internal/workload"
)

// strictLine decodes one JSONL line into v, rejecting unknown fields
// so schema drift in either direction fails the test.
func strictLine(t *testing.T, line []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("strict decode of %s: %v", line, err)
	}
}

// TestMetricsDocumentRoundTrip writes a full metrics document and
// strict-decodes every line: header first with the right schema, then
// one sorted sample per metric.
func TestMetricsDocumentRoundTrip(t *testing.T) {
	res := covering().runs[0] // mcf under LRU
	var buf bytes.Buffer
	if err := res.Metrics().WriteJSONL(&buf, res.Header("mcf", 42)); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("empty document")
	}
	var hdr metrics.RunHeader
	strictLine(t, sc.Bytes(), &hdr)
	if hdr.Schema != metrics.MetricsSchema {
		t.Fatalf("header schema %q, want %q", hdr.Schema, metrics.MetricsSchema)
	}
	if hdr.Bench != "mcf" || hdr.Instructions == 0 || hdr.IPC == 0 {
		t.Fatalf("header not populated: %+v", hdr)
	}

	var prev string
	n := 0
	for sc.Scan() {
		var s metrics.Sample
		strictLine(t, sc.Bytes(), &s)
		if s.Name <= prev {
			t.Fatalf("samples not strictly sorted: %q after %q", s.Name, prev)
		}
		prev = s.Name
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != res.Metrics().Len() {
		t.Fatalf("decoded %d samples, registry holds %d", n, res.Metrics().Len())
	}
}

// TestEventsDocumentRoundTrip streams events through a JSONLTracer and
// strict-decodes the whole document, checking the header schema and
// that every line carries a documented type.
func TestEventsDocumentRoundTrip(t *testing.T) {
	_, rows := docSection(t, "OBSERVABILITY.md", "Event catalog")
	docEvents := map[string]bool{}
	for _, ty := range keys(rows, 1) {
		docEvents[ty] = true
	}
	var buf bytes.Buffer
	tr := metrics.NewJSONLTracer(&buf, metrics.RunHeader{Bench: "twolf", Policy: "sbar", Seed: 42})
	observedRun("twolf", sim.PolicySpec{Kind: sim.PolicySBAR, Seed: 42}, false, tr)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() == 0 {
		t.Fatal("no events emitted")
	}

	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() {
		t.Fatal("empty document")
	}
	var hdr metrics.RunHeader
	strictLine(t, sc.Bytes(), &hdr)
	if hdr.Schema != metrics.EventsSchema {
		t.Fatalf("header schema %q, want %q", hdr.Schema, metrics.EventsSchema)
	}

	var n uint64
	for sc.Scan() {
		var ev metrics.Event
		strictLine(t, sc.Bytes(), &ev)
		if !docEvents[string(ev.Type)] {
			t.Fatalf("undocumented event type %q in stream", ev.Type)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != tr.Events() {
		t.Fatalf("decoded %d events, tracer counted %d", n, tr.Events())
	}
}

// TestTrainingDeterministic runs the full capture → train pipeline and
// checks the model-file promise from docs/LEARNED.md: the same capture
// and seed produce a byte-identical model, and the seed actually salts
// the signatures.
func TestTrainingDeterministic(t *testing.T) {
	w, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("unknown benchmark mcf")
	}
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 200_000
	cap := oracle.NewCapture()
	cfg.Capture = cap
	sim.MustRun(cfg, w.Build(42))
	sets, err := cfg.L2.SetCount()
	if err != nil {
		t.Fatal(err)
	}
	tc := learn.TrainConfig{Sets: sets, Assoc: cfg.L2.Assoc, Seed: 7}
	a, err := learn.Train(cap.Log().Blocks(), tc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := learn.Train(cap.Log().Blocks(), tc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Error("same capture and seed produced different model bytes")
	}
	if a.Trained() == 0 {
		t.Error("training populated no signatures")
	}
	tc.Seed = 8
	c, err := learn.Train(cap.Log().Blocks(), tc)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Encode(), c.Encode()) {
		t.Error("different seeds produced byte-identical models")
	}
}

// TestLearnedHeadroomAcceptance runs the learned-headroom experiment at
// the full default budget on six benchmarks — including the ones where
// the bandit's margin over Random is thinnest — and checks the
// subsystem's acceptance properties: the bandit beats Random on every
// row, the predictor never beats Belady (the replay would be broken),
// and at least one benchmark recovers ≥ 25% of the miss headroom.
func TestLearnedHeadroomAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := experiments.NewRunner(3_000_000, 42)
	r.Benchmarks = []string{"art", "twolf", "ammp", "galgel", "bzip2", "parser"}
	res := experiments.LearnedHeadroom(r)
	if len(res.Rows) != len(r.Benchmarks) {
		t.Fatalf("headroom table has %d rows, want %d", len(res.Rows), len(r.Benchmarks))
	}
	best := 0.0
	for _, row := range res.Rows {
		if row.Accesses == 0 {
			t.Errorf("%s: empty capture", row.Bench)
		}
		if row.BanditMiss >= row.RandomMiss {
			t.Errorf("%s: bandit's %d misses do not beat Random's %d",
				row.Bench, row.BanditMiss, row.RandomMiss)
		}
		if row.OPTMiss > row.LRUMiss {
			t.Errorf("%s: Belady %d misses exceeds replayed LRU's %d",
				row.Bench, row.OPTMiss, row.LRUMiss)
		}
		if row.LearnedMiss < row.OPTMiss {
			t.Errorf("%s: predictor's %d misses beat Belady's %d — replay broken",
				row.Bench, row.LearnedMiss, row.OPTMiss)
		}
		if row.TrainedSignatures == 0 {
			t.Errorf("%s: training populated no signatures", row.Bench)
		}
		if row.RecoveredPct > best {
			best = row.RecoveredPct
		}
	}
	if best < 25 {
		t.Errorf("best miss-headroom recovery is %.1f%%, want >= 25%%", best)
	}
}

// TestOracleHeadroomAcceptance runs the oracle-headroom experiment on
// four benchmarks and checks the row invariants the subsystem promises:
// Belady's miss count lower-bounds the captured LRU run's, and the
// cost-weighted Belady's summed cost never exceeds classic Belady's
// (nor the live LRU cost).
func TestOracleHeadroomAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := experiments.NewRunner(200_000, 42)
	r.Benchmarks = []string{"art", "mcf", "ammp", "parser"}
	res := experiments.OracleHeadroom(r)
	if len(res.Rows) < 4 {
		t.Fatalf("headroom table has %d rows, want >= 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Accesses == 0 {
			t.Errorf("%s: empty capture", row.Bench)
		}
		if row.OPTMiss > row.LRUMiss {
			t.Errorf("%s: Belady %d misses exceeds live LRU's %d",
				row.Bench, row.OPTMiss, row.LRUMiss)
		}
		if row.CostOPTCost > row.OPTCost {
			t.Errorf("%s: cost-weighted Belady cost %d exceeds Belady's %d",
				row.Bench, row.CostOPTCost, row.OPTCost)
		}
		if row.CostOPTCost > row.LRUCost {
			t.Errorf("%s: cost-weighted Belady cost %d exceeds live LRU's %d",
				row.Bench, row.CostOPTCost, row.LRUCost)
		}
		if row.MissHeadroomPct < 0 || row.CostHeadroomPct < 0 {
			t.Errorf("%s: negative headroom (miss %.1f%%, cost %.1f%%)",
				row.Bench, row.MissHeadroomPct, row.CostHeadroomPct)
		}
	}
}

// TestMulticoreContentionAcceptance runs the contention experiment at
// a reduced budget and checks its defining row invariants: one row
// per (mix, policy) in order, per-core slices matching the mix width,
// per-core misses summing to the aggregate, and policy labels exactly
// matching the documented comparison set.
func TestMulticoreContentionAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	docMixes, docPolicies := contentionTables(t)
	r := experiments.NewRunner(30_000, 42)
	res := experiments.MulticoreContention(r)
	if want := len(docMixes) * len(docPolicies); len(res.Rows) != want {
		t.Fatalf("experiment produced %d rows, want %d (mixes × policies)", len(res.Rows), want)
	}
	seenPolicies := map[string]bool{}
	for i, row := range res.Rows {
		mix, policy := docMixes[i/len(docPolicies)], docPolicies[i%len(docPolicies)]
		if row.Mix != mix || row.Policy != policy {
			t.Errorf("row %d is (%s, %s), want (%s, %s)", i, row.Mix, row.Policy, mix, policy)
		}
		seenPolicies[row.Policy] = true
		width := strings.Count(row.Mix, "+") + 1
		if len(row.CoreMisses) != width || len(row.CoreMPKI) != width || len(row.CoreCost) != width {
			t.Errorf("row %d: per-core slices sized %d/%d/%d, want %d",
				i, len(row.CoreMisses), len(row.CoreMPKI), len(row.CoreCost), width)
			continue
		}
		var sum uint64
		for _, m := range row.CoreMisses {
			sum += m
		}
		if sum != row.AggMisses {
			t.Errorf("row %d (%s, %s): per-core misses sum to %d, aggregate says %d",
				i, row.Mix, row.Policy, sum, row.AggMisses)
		}
		if row.AggMisses == 0 || row.AggIPC <= 0 {
			t.Errorf("row %d (%s, %s): degenerate aggregates (misses %d, IPC %f)",
				i, row.Mix, row.Policy, row.AggMisses, row.AggIPC)
		}
	}
	for _, p := range docPolicies {
		if !seenPolicies[p] {
			t.Errorf("documented policy %q never appeared in the experiment's rows", p)
		}
	}
}
