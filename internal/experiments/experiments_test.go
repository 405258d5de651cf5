package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mlpcache/internal/metrics"
	"mlpcache/internal/sim"
	"mlpcache/internal/simerr"
)

func TestFigure1MatchesPaperExactly(t *testing.T) {
	res := Figure1()
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.MissesPerIter != r.PaperMisses {
			t.Errorf("%s: %v misses/iter, paper says %v", r.Policy, r.MissesPerIter, r.PaperMisses)
		}
		if r.StallsPerIter != r.PaperStalls {
			t.Errorf("%s: %v stalls/iter, paper says %v", r.Policy, r.StallsPerIter, r.PaperStalls)
		}
	}
}

func TestFigure3bTable(t *testing.T) {
	res := Figure3b()
	if len(res.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(res.Rows))
	}
	if res.Rows[0].Interval != "0 to 59 cycles" || res.Rows[7].Interval != "420+ cycles" {
		t.Fatalf("interval labels wrong: %+v", res.Rows)
	}
}

func TestFigure8Values(t *testing.T) {
	res := Figure8()
	// p=0.5 row is flat at 0.5; every row is non-decreasing over odd
	// points; and the k=32 column at p>=0.7 exceeds 0.95.
	for j := range res.Ks {
		if v := res.Curves[0][j]; v < 0.4999 || v > 0.5001 {
			t.Fatalf("p=0.5 curve not flat: %v", res.Curves[0])
		}
	}
	for i, p := range res.Ps {
		if p >= 0.7 && res.Curves[i][5] < 0.95 { // k=32
			t.Fatalf("p=%v k=32: %v < 0.95", p, res.Curves[i][5])
		}
	}
}

func TestOverheadReport(t *testing.T) {
	res := OverheadReport()
	if b := res.Overhead.SBARBytes(); b < 1836 || b > 1873 {
		t.Fatalf("SBAR bytes %d not within 1%% of 1854", b)
	}
	if res.Fraction >= 0.002 {
		t.Fatalf("fraction %v >= 0.2%%", res.Fraction)
	}
}

func TestTable2RendersLiveConfig(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2().table().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"128-entry window", "1024KB", "32-entry MSHR", "444"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(20_000, 1)
	r.Benchmarks = []string{"mcf"}
	a := r.Baseline("mcf")
	b := r.Baseline("mcf")
	if a.Cycles != b.Cycles {
		t.Fatal("memoized results differ")
	}
	if len(r.CachedKeys()) != 1 {
		t.Fatalf("cache holds %d keys, want 1", len(r.CachedKeys()))
	}
}

func TestRunByIDUnknown(t *testing.T) {
	r := NewRunner(1000, 1)
	if err := RunByID(r, "fig99", "text", &bytes.Buffer{}); !errors.Is(err, simerr.ErrBadConfig) {
		t.Fatalf("unknown experiment: err = %v, want ErrBadConfig", err)
	}
	var buf bytes.Buffer
	if err := RunByID(r, "tab3", "xml", &buf); !errors.Is(err, simerr.ErrBadConfig) {
		t.Fatalf("unknown format: err = %v, want ErrBadConfig", err)
	}
	if buf.Len() != 0 || len(r.CachedKeys()) != 0 {
		t.Fatalf("unknown format still ran: %d bytes written, %d runs memoized", buf.Len(), len(r.CachedKeys()))
	}
}

func TestAllIDsRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite in -short mode")
	}
	// A miniature pass over every experiment: tiny instruction budget,
	// two benchmarks. Verifies the full rendering path end to end.
	r := NewRunner(120_000, 1)
	r.Benchmarks = []string{"mcf", "parser"}
	for _, id := range AllIDs() {
		var buf bytes.Buffer
		if err := RunByID(r, id, "text", &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s rendered nothing", id)
		}
	}
}

func TestHeadlineShapesAtReducedScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// The paper's two headline contrasts, at a reduced but meaningful
	// scale: LIN helps mcf and hurts parser; SBAR rescues parser.
	r := NewRunner(1_200_000, 42)

	mcfBase := r.Baseline("mcf")
	mcfLIN := r.Run("mcf", sim.PolicySpec{Kind: sim.PolicyLIN, Lambda: 4})
	if mcfLIN.IPC <= mcfBase.IPC {
		t.Errorf("mcf: LIN %.4f should beat LRU %.4f", mcfLIN.IPC, mcfBase.IPC)
	}

	parserBase := r.Baseline("parser")
	parserLIN := r.Run("parser", sim.PolicySpec{Kind: sim.PolicyLIN, Lambda: 4})
	parserSBAR := r.Run("parser", sim.PolicySpec{Kind: sim.PolicySBAR})
	if parserLIN.IPC >= parserBase.IPC {
		t.Errorf("parser: LIN %.4f should lose to LRU %.4f", parserLIN.IPC, parserBase.IPC)
	}
	if parserSBAR.IPC <= parserLIN.IPC {
		t.Errorf("parser: SBAR %.4f should rescue LIN's %.4f", parserSBAR.IPC, parserLIN.IPC)
	}
}

func TestSameSignHelper(t *testing.T) {
	cases := []struct {
		m, p, band float64
		want       bool
	}{
		{5, 3, 2, true},
		{-5, 3, 2, false},
		{1, -20, 2, true}, // inside dead band
		{-20, 1, 2, true}, // paper value inside dead band
		{-20, -3, 2, true},
	}
	for _, c := range cases {
		if got := sameSign(c.m, c.p, c.band); got != c.want {
			t.Errorf("sameSign(%v,%v,%v) = %v, want %v", c.m, c.p, c.band, got, c.want)
		}
	}
}

func TestSensitivityAndStabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// With every telemetry channel on: the sweeps and the multi-core
	// study run through the runner, snapshots included where sim
	// supports them.
	r := NewRunner(150_000, 7)
	var starts, snapshots int
	r.Trace = metrics.FuncTracer(func(ev metrics.Event) {
		switch ev.Type {
		case metrics.EventRunStart:
			starts++
		case metrics.EventSnapshotIPC:
			snapshots++
		}
	})
	r.SnapshotInterval = 50_000
	var docs int
	r.OnResult = func(metrics.RunHeader, *metrics.Registry) { docs++ }
	for _, id := range SensitivityIDs() {
		var buf bytes.Buffer
		if err := RunByID(r, id, "text", &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s rendered nothing", id)
		}
	}
	if docs != 94 || starts != 94 || snapshots == 0 {
		t.Fatalf("%d metrics documents, %d run.start events, %d snapshots; want 94, 94 and some", docs, starts, snapshots)
	}
}

func TestCSVRendering(t *testing.T) {
	r := NewRunner(1000, 1)
	var buf bytes.Buffer
	if err := RunByID(r, "fig8", "csv", &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Title comment + header + 5 p-rows.
	if len(lines) != 7 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "# Figure 8") && !strings.HasPrefix(lines[0], "\"# Figure 8") {
		t.Fatalf("missing title comment: %q", lines[0])
	}
	if !strings.Contains(lines[2], "0.500") {
		t.Fatalf("data row malformed: %q", lines[2])
	}
	if err := RunByID(r, "nope", "csv", &buf); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestTable3CompulsoryOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// The reproduced quantity for Table 3's compulsory column is the
	// ordering: the low group (art, mcf) must rank below the high group
	// (lucas, mgrid) even at reduced scale.
	r := NewRunner(1_000_000, 42)
	r.Benchmarks = []string{"art", "mcf", "lucas", "mgrid"}
	res := Table3(r)
	rank := map[string]int{}
	for i, name := range res.benchesByCompulsory() {
		rank[name] = i
	}
	for _, low := range []string{"art", "mcf"} {
		for _, high := range []string{"lucas", "mgrid"} {
			if rank[low] > rank[high] {
				t.Errorf("compulsory ordering violated: %s (%d) above %s (%d)",
					low, rank[low], high, rank[high])
			}
		}
	}
}
