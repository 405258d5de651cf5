package mlpcache_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mlpcache"
	"mlpcache/internal/faultinject"
	"mlpcache/internal/sim"
)

// End-to-end tests of the three command-line tools: build each binary
// once, then drive the documented flows (simulate, regenerate an
// experiment, generate/inspect/replay a trace).

// buildTools compiles the commands into a temp dir once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	for tool, pkg := range map[string]string{
		"mlpsim":   "./cmd/mlpsim",
		"mlpexp":   "./cmd/mlpexp",
		"mlptrace": "./cmd/mlptrace",
		"mlptrain": "./cmd/mlptrain",
		"mlpserve": "./cmd/mlpserve",
		"loadgen":  "./tools/loadgen",
	} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), pkg)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

func runTool(t *testing.T, dir, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	dir := buildTools(t)

	t.Run("mlpsim-list", func(t *testing.T) {
		out := runTool(t, dir, "mlpsim", "-list")
		for _, want := range []string{"art", "mcf", "mgrid"} {
			if !strings.Contains(out, want) {
				t.Fatalf("-list missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("mlpsim-run", func(t *testing.T) {
		out := runTool(t, dir, "mlpsim", "-bench", "micro.figure1",
			"-policy", "lin", "-n", "120000")
		if !strings.Contains(out, "IPC") || !strings.Contains(out, "mlp-cost distribution") {
			t.Fatalf("unexpected mlpsim output:\n%s", out)
		}
	})

	t.Run("mlpexp-exact-figures", func(t *testing.T) {
		out := runTool(t, dir, "mlpexp", "-run", "fig1,fig3b,fig8,ovh")
		for _, want := range []string{"Figure 1", "Figure 3(b)", "Figure 8", "1857"} {
			if !strings.Contains(out, want) {
				t.Fatalf("mlpexp output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("mlpexp-csv", func(t *testing.T) {
		out := runTool(t, dir, "mlpexp", "-run", "fig3b", "-format", "csv")
		if !strings.Contains(out, "420+ cycles,7") {
			t.Fatalf("CSV output malformed:\n%s", out)
		}
	})

	t.Run("trace-pipeline", func(t *testing.T) {
		tr := filepath.Join(dir, "t.trace")
		out := runTool(t, dir, "mlptrace", "-gen", "micro.parallel", "-n", "60000", "-o", tr)
		if !strings.Contains(out, "wrote 60000 instructions") {
			t.Fatalf("generate failed:\n%s", out)
		}
		out = runTool(t, dir, "mlptrace", "-stats", tr)
		if !strings.Contains(out, "instructions      60000") {
			t.Fatalf("stats failed:\n%s", out)
		}
		out = runTool(t, dir, "mlptrace", "-dump", tr, "-limit", "5")
		if !strings.Contains(out, "load") {
			t.Fatalf("dump failed:\n%s", out)
		}
		// Replay the trace through the simulator and cross-check the
		// instruction count.
		out = runTool(t, dir, "mlpsim", "-trace", tr, "-hist=false")
		if !strings.Contains(out, "instructions 60000") {
			t.Fatalf("replay failed:\n%s", out)
		}
	})

	// The -policy help names exactly the kinds the flag accepts.
	t.Run("mlpsim-policy-help", func(t *testing.T) {
		out := runTool(t, dir, "mlpsim", "-h")
		_, usage, ok := strings.Cut(out, "replacement policy: ")
		if !ok {
			t.Fatalf("-h prints no -policy usage:\n%s", out)
		}
		usage, _, _ = strings.Cut(usage, " ")
		listed := map[string]bool{}
		for _, kind := range strings.Split(usage, "|") {
			listed[kind] = true
		}
		for _, kind := range sim.AllPolicies {
			if !listed[string(kind)] {
				t.Errorf("-policy help %q omits %q", usage, kind)
			}
		}
		if len(listed) != len(sim.AllPolicies) {
			t.Errorf("-policy help lists %d kinds, sim.AllPolicies has %d: %q", len(listed), len(sim.AllPolicies), usage)
		}
	})

	t.Run("mlpsim-unknown-bench-fails", func(t *testing.T) {
		cmd := exec.Command(filepath.Join(dir, "mlpsim"), "-bench", "gcc")
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Fatalf("expected failure for unknown benchmark:\n%s", out)
		}
	})

	// Failure paths: every bad input must produce a one-line diagnostic
	// and a non-zero exit — never a Go panic trace.
	mustFailCleanly := func(t *testing.T, tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(dir, tool), args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s %v: expected non-zero exit\n%s", tool, args, out)
		}
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%s %v: did not run: %v", tool, args, err)
		}
		if strings.Contains(string(out), "panic:") || strings.Contains(string(out), "goroutine ") {
			t.Fatalf("%s %v: panic escaped to the user:\n%s", tool, args, out)
		}
		return string(out)
	}

	t.Run("mlpsim-bad-policy-fails", func(t *testing.T) {
		out := mustFailCleanly(t, "mlpsim", "-bench", "mcf", "-policy", "belady", "-n", "1000")
		if !strings.Contains(out, "belady") {
			t.Fatalf("diagnostic does not name the bad policy:\n%s", out)
		}
	})

	t.Run("mlpsim-missing-trace-fails", func(t *testing.T) {
		mustFailCleanly(t, "mlpsim", "-trace", filepath.Join(dir, "no-such.trace"))
	})

	t.Run("mlpsim-corrupt-trace-fails", func(t *testing.T) {
		bad := filepath.Join(dir, "bad.trace")
		if err := os.WriteFile(bad, []byte("MLPT\x01\x07\x07\x07"), 0o644); err != nil {
			t.Fatal(err)
		}
		out := mustFailCleanly(t, "mlpsim", "-trace", bad, "-hist=false")
		if !strings.Contains(out, "corrupt") && !strings.Contains(out, "invalid kind") {
			t.Fatalf("diagnostic does not describe the corruption:\n%s", out)
		}
	})

	t.Run("mlpexp-unknown-experiment-fails", func(t *testing.T) {
		mustFailCleanly(t, "mlpexp", "-run", "fig99")
	})

	t.Run("mlpexp-unknown-format-fails", func(t *testing.T) {
		out := mustFailCleanly(t, "mlpexp", "-run", "fig8", "-format", "xml")
		if !strings.Contains(out, "xml") || strings.Contains(out, "Figure 8") {
			t.Fatalf("want a diagnostic naming the format and no table:\n%s", out)
		}
	})

	t.Run("mlptrace-missing-file-fails", func(t *testing.T) {
		mustFailCleanly(t, "mlptrace", "-stats", filepath.Join(dir, "absent.trace"))
	})

	t.Run("mlpsim-oracle-multicore", func(t *testing.T) {
		// The oracle replays the shared L2's demand stream, prefetches
		// excluded, after the two-core run.
		out := runTool(t, dir, "mlpsim", "-bench", "mcf,art", "-cores", "2",
			"-oracle", "-prefetch", "-n", "20000", "-hist=false")
		for _, want := range []string{"cores 2", "prefetch:", "oracle:", "belady", "headroom:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("two-core oracle report lacks %q:\n%s", want, out)
			}
		}
	})

	t.Run("mlpsim-series-multicore", func(t *testing.T) {
		// The Figure 11 series is chip-wide: 20,000 instructions on
		// each of two cores close four 10,000-instruction points.
		out := runTool(t, dir, "mlpsim", "-bench", "mcf,art", "-cores", "2", "-policy", "sbar",
			"-series", "-interval", "10000", "-n", "20000", "-hist=false")
		_, points, ok := strings.Cut(out, "time series (instructions, IPC, MPKI, avg cost_q):\n")
		if !ok {
			t.Fatalf("two-core report lacks the series:\n%s", out)
		}
		if n := len(strings.Fields(points)); n != 4*4 {
			t.Fatalf("two-core series has %d fields, want 4 points of 4:\n%s", n, out)
		}
	})

	t.Run("mlpsim-sub-cycle-interval-fails", func(t *testing.T) {
		// One cycle retires up to 8 instructions on the default core, so
		// a 2-instruction interval would close repeated points on one
		// instruction count: the run is refused with the bound named.
		out := mustFailCleanly(t, "mlpsim", "-bench", "twolf", "-policy", "lru",
			"-series", "-interval", "2", "-n", "2000", "-hist=false")
		if !strings.Contains(out, "invalid configuration") || !strings.Contains(out, "RetireWidth × cores = 8") {
			t.Fatalf("diagnostic is not the config error naming the bound:\n%s", out)
		}
	})

	t.Run("mlpsim-multicore-audited-run", func(t *testing.T) {
		// Four cores on the one cycle loop keep the paper's invariants:
		// every core's recency stacks, MSHR files and per-thread PSEL.
		out := runTool(t, dir, "mlpsim", "-bench", "mcf,art,parser,equake",
			"-cores", "4", "-policy", "sbar", "-n", "60000", "-audit", "-hist=false")
		if !strings.Contains(out, "audit:") || !strings.Contains(out, " passes, 0 violations") {
			t.Fatalf("audited 4-core run did not report a clean audit:\n%s", out)
		}
	})

	t.Run("mlpsim-audited-run", func(t *testing.T) {
		out := runTool(t, dir, "mlpsim", "-bench", "micro.figure1",
			"-policy", "sbar", "-n", "120000", "-audit", "-hist=false")
		if !strings.Contains(out, "audit:") || !strings.Contains(out, "0 violations") {
			t.Fatalf("audited run did not report a clean audit:\n%s", out)
		}
	})
}

// strictJSONLines strict-decodes a JSONL document: the header line into
// hdr, then every following line into a fresh value from mk, rejecting
// unknown fields so the on-disk format cannot drift from the Go types.
func strictJSONLines(t *testing.T, path string, hdr any, mk func() any) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	strict := func(line []byte, v any) {
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("%s: strict decode of %s: %v", path, line, err)
		}
	}
	if !sc.Scan() {
		t.Fatalf("%s: empty document", path)
	}
	strict(sc.Bytes(), hdr)
	n := 0
	for sc.Scan() {
		strict(sc.Bytes(), mk())
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCLIObservability drives the machine-readable output paths of
// mlpsim/mlpexp and round-trips every document through strict decoders
// against the public API types — the docs/OBSERVABILITY.md contract at
// the process boundary.
func TestCLIObservability(t *testing.T) {
	dir := buildTools(t)

	t.Run("mlpsim-json-report", func(t *testing.T) {
		out := runTool(t, dir, "mlpsim", "-bench", "mcf", "-n", "120000", "-json")
		dec := json.NewDecoder(strings.NewReader(out))
		dec.DisallowUnknownFields()
		var rep mlpcache.RunReport
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("strict decode of -json output: %v\n%s", err, out)
		}
		if rep.Schema != mlpcache.ReportSchema {
			t.Fatalf("report schema %q, want %q", rep.Schema, mlpcache.ReportSchema)
		}
		if rep.Bench != "mcf" || rep.Instructions != 120000 || len(rep.Metrics) == 0 {
			t.Fatalf("report not populated: schema=%q bench=%q n=%d metrics=%d",
				rep.Schema, rep.Bench, rep.Instructions, len(rep.Metrics))
		}
	})

	t.Run("mlpsim-telemetry-files", func(t *testing.T) {
		mPath := filepath.Join(dir, "run.metrics.jsonl")
		ePath := filepath.Join(dir, "run.events.jsonl")
		out := runTool(t, dir, "mlpsim", "-bench", "twolf", "-policy", "sbar",
			"-n", "150000", "-series", "-audit", "-hist=false",
			"-metrics", mPath, "-trace-events", ePath)
		// Telemetry must not leak into the stdout report.
		if strings.Contains(out, "\"schema\"") {
			t.Fatalf("JSONL leaked to stdout:\n%s", out)
		}
		var mh mlpcache.RunHeader
		n := strictJSONLines(t, mPath, &mh, func() any { return new(mlpcache.MetricSample) })
		if mh.Schema != mlpcache.MetricsSchema || mh.Bench != "twolf" || n == 0 {
			t.Fatalf("metrics document: schema=%q bench=%q samples=%d", mh.Schema, mh.Bench, n)
		}
		var eh mlpcache.RunHeader
		n = strictJSONLines(t, ePath, &eh, func() any { return new(mlpcache.TraceEvent) })
		if eh.Schema != mlpcache.EventsSchema || eh.Policy == "" || n == 0 {
			t.Fatalf("events document: schema=%q policy=%q events=%d", eh.Schema, eh.Policy, n)
		}
	})

	t.Run("mlpexp-json-and-metrics", func(t *testing.T) {
		mPath := filepath.Join(dir, "exp.metrics.jsonl")
		out := runTool(t, dir, "mlpexp", "-run", "fig2", "-bench", "mcf",
			"-n", "60000", "-format", "json", "-metrics", mPath)
		dec := json.NewDecoder(strings.NewReader(out))
		var tbl struct {
			Schema string     `json:"schema"`
			Title  string     `json:"title"`
			Header []string   `json:"header"`
			Rows   [][]string `json:"rows"`
			Notes  []string   `json:"notes"`
		}
		if err := dec.Decode(&tbl); err != nil {
			t.Fatalf("decoding -format json output: %v\n%s", err, out)
		}
		if tbl.Schema != "mlpcache.table/v1" || len(tbl.Rows) == 0 {
			t.Fatalf("table document: schema=%q rows=%d", tbl.Schema, len(tbl.Rows))
		}
		var mh mlpcache.RunHeader
		if n := strictJSONLines(t, mPath, &mh, func() any { return new(mlpcache.MetricSample) }); n == 0 {
			t.Fatal("mlpexp -metrics wrote no samples")
		}
	})

	t.Run("pprof-profiles", func(t *testing.T) {
		cpu := filepath.Join(dir, "cpu.pprof")
		mem := filepath.Join(dir, "mem.pprof")
		runTool(t, dir, "mlpsim", "-bench", "mcf", "-n", "200000", "-hist=false",
			"-cpuprofile", cpu, "-memprofile", mem)
		for _, p := range []string{cpu, mem} {
			info, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() == 0 {
				t.Fatalf("%s is empty", p)
			}
		}
	})
}

// runDocCommands parses one named section's fenced sh block out of
// EXPERIMENTS.md and executes every `go run ./cmd/...` line in it
// (instruction counts reduced, benchmark set restricted, output paths
// redirected into the test dir), so documented commands cannot rot.
func runDocCommands(t *testing.T, dir, section string, minCmds int) {
	t.Helper()
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, body, found := strings.Cut(string(raw), "## "+section)
	if !found {
		t.Fatalf("EXPERIMENTS.md lost its %q section", section)
	}
	_, block, found := strings.Cut(body, "```sh")
	if !found {
		t.Fatalf("%q section lost its fenced command block", section)
	}
	block, _, _ = strings.Cut(block, "```")

	var cmds [][]string
	for _, line := range strings.Split(block, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "go run ./cmd/") {
			cmds = append(cmds, strings.Fields(line))
		}
	}
	if len(cmds) < minCmds {
		t.Fatalf("expected at least %d documented commands in %q, found %d",
			minCmds, section, len(cmds))
	}

	for _, argv := range cmds {
		tool := filepath.Base(argv[2])
		args := append([]string(nil), argv[3:]...)
		var outputs []string
		hasBench := false
		for i := 0; i < len(args)-1; i++ {
			switch args[i] {
			case "-n":
				args[i+1] = "60000"
			case "-snapshot-interval":
				args[i+1] = "20000"
			case "-metrics", "-trace-events", "-cpuprofile", "-memprofile", "-o":
				args[i+1] = filepath.Join(dir, args[i+1])
				outputs = append(outputs, args[i+1])
			case "-events", "-model", "-inspect":
				// An input file a previous documented command wrote
				// into dir; redirect the path, don't expect output.
				args[i+1] = filepath.Join(dir, args[i+1])
			case "-bench":
				hasBench = true
			}
		}
		if tool == "mlpexp" && !hasBench {
			args = append(args, "-bench", "mcf")
		}
		t.Run(strings.Join(argv[2:], " "), func(t *testing.T) {
			runTool(t, dir, tool, args...)
			for _, p := range outputs {
				if info, err := os.Stat(p); err != nil || info.Size() == 0 {
					t.Fatalf("documented command produced no output at %s (err=%v)", p, err)
				}
			}
		})
	}
}

// TestExperimentsCommandsRun executes the documented command blocks of
// EXPERIMENTS.md: the full reproduction flow, the oracle-headroom
// section, and the binary event capture/decode pipeline.
func TestExperimentsCommandsRun(t *testing.T) {
	dir := buildTools(t)
	runDocCommands(t, dir, "Reproducing with metrics export", 5)
	runDocCommands(t, dir, "Measuring oracle headroom", 4)
	runDocCommands(t, dir, "Binary event capture and decode", 5)
	runDocCommands(t, dir, "Multi-core contention", 6)
	runDocCommands(t, dir, "Training and evaluating learned eviction", 5)
}

// TestCLIOracle drives mlpsim -oracle end to end: the text report must
// carry the oracle section, and -json/-metrics must carry the oracle.*
// families alongside the run's own metrics.
func TestCLIOracle(t *testing.T) {
	dir := buildTools(t)

	t.Run("text-report", func(t *testing.T) {
		out := runTool(t, dir, "mlpsim", "-bench", "art", "-policy", "lru",
			"-n", "150000", "-oracle", "-hist=false")
		for _, want := range []string{"oracle:", "belady", "cost-belady", "ehc", "headroom:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("-oracle report missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("json-and-metrics", func(t *testing.T) {
		mPath := filepath.Join(dir, "oracle.metrics.jsonl")
		out := runTool(t, dir, "mlpsim", "-bench", "mcf", "-n", "120000",
			"-oracle", "-json", "-metrics", mPath)
		dec := json.NewDecoder(strings.NewReader(out))
		dec.DisallowUnknownFields()
		var rep mlpcache.RunReport
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("strict decode of -oracle -json output: %v\n%s", err, out)
		}
		names := map[string]bool{}
		for _, s := range rep.Metrics {
			names[s.Name] = true
		}
		for _, want := range []string{
			"oracle.accesses", "oracle.opt.miss", "oracle.costopt.cost", "oracle.headroom.cost_pct",
		} {
			if !names[want] {
				t.Fatalf("-oracle -json report lacks %q (got %d metrics)", want, len(rep.Metrics))
			}
		}
		var mh mlpcache.RunHeader
		n := strictJSONLines(t, mPath, &mh, func() any { return new(mlpcache.MetricSample) })
		if n == 0 {
			t.Fatal("-oracle -metrics wrote no samples")
		}
	})
}

// TestCLILearned drives the learned eviction subsystem's CLI loop end
// to end (docs/LEARNED.md): mlptrain writes a deterministic model,
// -inspect decodes it, mlpsim runs it as -policy learned, the bandit
// reports its arm statistics, and corrupt model files fail with a
// one-line diagnostic in both consumers.
func TestCLILearned(t *testing.T) {
	dir := buildTools(t)
	model := filepath.Join(dir, "mcf.model")

	t.Run("train", func(t *testing.T) {
		out := runTool(t, dir, "mlptrain", "-bench", "mcf", "-n", "120000", "-o", model)
		for _, want := range []string{"captured", "trained", "model"} {
			if !strings.Contains(out, want) {
				t.Fatalf("mlptrain report missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("train-deterministic", func(t *testing.T) {
		again := filepath.Join(dir, "mcf-again.model")
		runTool(t, dir, "mlptrain", "-bench", "mcf", "-n", "120000", "-o", again)
		a, err := os.ReadFile(model)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("same benchmark, budget and seeds produced different model files (%d vs %d bytes)",
				len(a), len(b))
		}
	})

	t.Run("inspect", func(t *testing.T) {
		out := runTool(t, dir, "mlptrain", "-inspect", model)
		for _, want := range []string{"geometry", "table", "training", "trained signatures"} {
			if !strings.Contains(out, want) {
				t.Fatalf("-inspect report missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("simulate-learned", func(t *testing.T) {
		out := runTool(t, dir, "mlpsim", "-bench", "mcf", "-policy", "learned",
			"-model", model, "-n", "120000", "-hist=false")
		for _, want := range []string{"learned:", "model fills:", "trained"} {
			if !strings.Contains(out, want) {
				t.Fatalf("-policy learned report missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("simulate-bandit", func(t *testing.T) {
		out := runTool(t, dir, "mlpsim", "-bench", "mcf", "-policy", "bandit",
			"-n", "120000", "-hist=false")
		for _, want := range []string{"learned:", "bandit arms:", "arm values:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("-policy bandit report missing %q:\n%s", want, out)
			}
		}
	})

	mustFailCleanly := func(t *testing.T, tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(dir, tool), args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s %v: expected non-zero exit\n%s", tool, args, out)
		}
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%s %v: did not run: %v", tool, args, err)
		}
		if strings.Contains(string(out), "panic:") || strings.Contains(string(out), "goroutine ") {
			t.Fatalf("%s %v: panic escaped to the user:\n%s", tool, args, out)
		}
		return string(out)
	}

	t.Run("corrupt-model-fails", func(t *testing.T) {
		raw, err := os.ReadFile(model)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(dir, "bad.model")
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)/2] ^= 0xFF
		if err := os.WriteFile(bad, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, argv := range [][]string{
			{"mlptrain", "-inspect", bad},
			{"mlpsim", "-bench", "mcf", "-policy", "learned", "-model", bad, "-n", "1000"},
		} {
			out := mustFailCleanly(t, argv[0], argv[1:]...)
			if !strings.Contains(out, "model") {
				t.Fatalf("%v: diagnostic does not mention the model file:\n%s", argv, out)
			}
			if strings.Count(strings.TrimSpace(out), "\n") > 0 {
				t.Fatalf("%v: diagnostic is not one line:\n%s", argv, out)
			}
		}
	})

	t.Run("truncated-model-fails", func(t *testing.T) {
		raw, err := os.ReadFile(model)
		if err != nil {
			t.Fatal(err)
		}
		short := filepath.Join(dir, "short.model")
		if err := os.WriteFile(short, raw[:16], 0o644); err != nil {
			t.Fatal(err)
		}
		mustFailCleanly(t, "mlptrain", "-inspect", short)
		mustFailCleanly(t, "mlpsim", "-bench", "mcf", "-policy", "learned",
			"-model", short, "-n", "1000")
	})

	t.Run("missing-model-fails", func(t *testing.T) {
		mustFailCleanly(t, "mlpsim", "-bench", "mcf", "-policy", "learned",
			"-model", filepath.Join(dir, "absent.model"), "-n", "1000")
	})
}

// TestCLITraceEventFilter checks the sampling/filter flags at the
// process boundary: the filtered stream contains only the requested
// types (plus run boundaries), sampling shrinks it, and an unknown
// filter token fails with a diagnostic instead of a panic.
func TestCLITraceEventFilter(t *testing.T) {
	dir := buildTools(t)

	countTypes := func(path string) (map[string]int, int) {
		t.Helper()
		var hdr mlpcache.RunHeader
		types := map[string]int{}
		n := 0
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(raw))
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		if !sc.Scan() {
			t.Fatalf("%s: empty document", path)
		}
		if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
			t.Fatal(err)
		}
		for sc.Scan() {
			var ev mlpcache.TraceEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatal(err)
			}
			types[string(ev.Type)]++
			n++
		}
		return types, n
	}

	full := filepath.Join(dir, "full.events.jsonl")
	runTool(t, dir, "mlpsim", "-bench", "mcf", "-n", "150000", "-hist=false",
		"-trace-events", full)
	_, nFull := countTypes(full)

	filtered := filepath.Join(dir, "filtered.events.jsonl")
	runTool(t, dir, "mlpsim", "-bench", "mcf", "-n", "150000", "-hist=false",
		"-trace-events", filtered, "-trace-events-sample", "10", "-trace-events-filter", "miss.fill")
	types, nFiltered := countTypes(filtered)
	if nFiltered == 0 {
		t.Fatal("filtered stream is empty")
	}
	if nFiltered*5 > nFull {
		t.Fatalf("sampling did not shrink the stream: %d of %d events kept", nFiltered, nFull)
	}
	for ty := range types {
		if ty != "miss.fill" && ty != "run.start" {
			t.Fatalf("filtered stream leaked type %q", ty)
		}
	}

	cmd := exec.Command(filepath.Join(dir, "mlpsim"), "-bench", "mcf", "-n", "1000",
		"-trace-events", filepath.Join(dir, "x.jsonl"), "-trace-events-filter", "bogus")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("unknown filter token accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "bogus") || strings.Contains(string(out), "panic:") {
		t.Fatalf("bad diagnostic for unknown filter token:\n%s", out)
	}
}

// TestCLIEventsV2 drives the mlpcache.events/v2 pipeline at the process
// boundary: capture the same run in both encodings, decode the binary
// one with mlptrace, and require the decoded JSONL to byte-equal the
// directly-written v1 file; then check -stats/-filter/-limit, snapshot
// emission, run.start framing under mlpexp -workers, and that truncated
// or bit-flipped v2 files fail with a one-line diagnostic.
func TestCLIEventsV2(t *testing.T) {
	dir := buildTools(t)

	v1 := filepath.Join(dir, "cap.v1.jsonl")
	v2 := filepath.Join(dir, "cap.v2.bin")
	runTool(t, dir, "mlpsim", "-bench", "mcf", "-n", "150000", "-hist=false",
		"-trace-events", v1)
	runTool(t, dir, "mlpsim", "-bench", "mcf", "-n", "150000", "-hist=false",
		"-trace-events", v2, "-trace-events-format", "v2")

	t.Run("decode-byte-identical", func(t *testing.T) {
		decoded := runTool(t, dir, "mlptrace", "-events", v2, "-decode")
		want, err := os.ReadFile(v1)
		if err != nil {
			t.Fatal(err)
		}
		if decoded != string(want) {
			t.Fatalf("decoded v2 differs from the directly-written v1 document (%d vs %d bytes)",
				len(decoded), len(want))
		}
	})

	t.Run("v2-is-smaller", func(t *testing.T) {
		i1, err := os.Stat(v1)
		if err != nil {
			t.Fatal(err)
		}
		i2, err := os.Stat(v2)
		if err != nil {
			t.Fatal(err)
		}
		if i2.Size() >= i1.Size() {
			t.Fatalf("v2 capture (%d bytes) not smaller than v1 (%d bytes)", i2.Size(), i1.Size())
		}
	})

	t.Run("stats", func(t *testing.T) {
		out := runTool(t, dir, "mlptrace", "-events", v2, "-stats")
		for _, want := range []string{"mlpcache.events/v2", "miss.issue", "miss.fill", "bench"} {
			if !strings.Contains(out, want) {
				t.Fatalf("-stats output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("filter-and-limit", func(t *testing.T) {
		out := runTool(t, dir, "mlptrace", "-events", v2, "-decode", "-filter", "miss.fill", "-limit", "7")
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		// Header plus at most 7 events, all of the filtered type.
		if len(lines) > 8 {
			t.Fatalf("-limit 7 decoded %d lines", len(lines)-1)
		}
		for _, line := range lines[1:] {
			var ev mlpcache.TraceEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Type != "miss.fill" {
				t.Fatalf("filtered decode leaked type %q", ev.Type)
			}
		}
	})

	t.Run("snapshots", func(t *testing.T) {
		snap := filepath.Join(dir, "snap.v2.bin")
		runTool(t, dir, "mlpsim", "-bench", "mcf", "-n", "150000", "-hist=false",
			"-trace-events", snap, "-trace-events-format", "v2", "-snapshot-interval", "50000")
		out := runTool(t, dir, "mlptrace", "-events", snap, "-decode", "-filter", "snapshot")
		for _, want := range []string{"snapshot.ipc", "snapshot.mpki", "snapshot.avg_cost_q",
			"snapshot.mshr_occupancy", "snapshot.cost_hist"} {
			if !strings.Contains(out, want) {
				t.Fatalf("snapshot decode missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("mlpexp-workers-framing", func(t *testing.T) {
		exp := filepath.Join(dir, "exp.v2.bin")
		runTool(t, dir, "mlpexp", "-run", "fig9", "-bench", "mcf,parser", "-n", "60000",
			"-workers", "4", "-trace-events", exp, "-trace-events-format", "v2")
		out := runTool(t, dir, "mlptrace", "-events", exp, "-decode")
		runs := 0
		sc := bufio.NewScanner(strings.NewReader(out))
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		sc.Scan() // header
		var sawEvent bool
		for sc.Scan() {
			var ev mlpcache.TraceEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Type == "run.start" {
				runs++
			} else if runs == 0 && !sawEvent {
				t.Fatal("events before the first run.start boundary")
			}
			sawEvent = true
		}
		if runs < 2 {
			t.Fatalf("expected at least 2 run.start boundaries, decoded %d", runs)
		}
	})

	// Failure paths: a corrupted v2 file must produce a one-line typed
	// diagnostic and exit 1 — never a panic.
	mustFailCleanly := func(t *testing.T, tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(dir, tool), args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s %v: expected non-zero exit\n%s", tool, args, out)
		}
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%s %v: did not run: %v", tool, args, err)
		}
		if strings.Contains(string(out), "panic:") || strings.Contains(string(out), "goroutine ") {
			t.Fatalf("%s %v: panic escaped to the user:\n%s", tool, args, out)
		}
		return string(out)
	}

	good, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated-fails", func(t *testing.T) {
		bad := filepath.Join(dir, "trunc.v2.bin")
		if err := os.WriteFile(bad, faultinject.Truncate(good, 10), 0o644); err != nil {
			t.Fatal(err)
		}
		out := mustFailCleanly(t, "mlptrace", "-events", bad, "-decode")
		if !strings.Contains(out, "mlptrace:") {
			t.Fatalf("diagnostic not one-line prefixed:\n%s", out)
		}
	})

	t.Run("bitflipped-fails", func(t *testing.T) {
		// Flip bits in the record region (past magic+header) — with the
		// varint framing gone, decoding must fail, and cleanly. The
		// corruption is deterministic (fixed seed over fixed bytes), so
		// this cannot flake.
		bad := filepath.Join(dir, "flip.v2.bin")
		if err := os.WriteFile(bad, faultinject.FlipBits(good, 7, 64, 80), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(filepath.Join(dir, "mlptrace"), "-events", bad, "-decode")
		out, err := cmd.CombinedOutput()
		// Decoding may legitimately succeed if every flipped bit lands in
		// field payloads rather than framing; what must never happen is a
		// panic or a silent half-write on failure.
		if strings.Contains(string(out), "panic:") || strings.Contains(string(out), "goroutine ") {
			t.Fatalf("panic on bit-flipped input:\n%s", out)
		}
		if err != nil && !strings.Contains(string(out), "mlptrace:") {
			t.Fatalf("failure without a one-line diagnostic:\n%s", out)
		}
	})

	t.Run("not-a-v2-file-fails", func(t *testing.T) {
		out := mustFailCleanly(t, "mlptrace", "-events", v1, "-decode")
		if !strings.Contains(out, "magic") {
			t.Fatalf("diagnostic does not mention the bad magic:\n%s", out)
		}
	})

	t.Run("bad-format-flag-fails", func(t *testing.T) {
		out := mustFailCleanly(t, "mlpsim", "-bench", "mcf", "-n", "1000",
			"-trace-events", filepath.Join(dir, "x.bin"), "-trace-events-format", "v3")
		if !strings.Contains(out, "v3") {
			t.Fatalf("diagnostic does not name the bad format:\n%s", out)
		}
	})

	t.Run("snapshot-without-trace-fails", func(t *testing.T) {
		out := mustFailCleanly(t, "mlpsim", "-bench", "mcf", "-n", "1000",
			"-snapshot-interval", "500")
		if !strings.Contains(out, "trace-events") {
			t.Fatalf("diagnostic does not point at -trace-events:\n%s", out)
		}
	})
}

// TestCLIWorkers checks mlpexp -workers produces the same table at any
// setting.
func TestCLIWorkers(t *testing.T) {
	dir := buildTools(t)
	serial := runTool(t, dir, "mlpexp", "-run", "fig9", "-bench", "mcf,parser",
		"-n", "60000", "-workers", "1")
	parallel := runTool(t, dir, "mlpexp", "-run", "fig9", "-bench", "mcf,parser",
		"-n", "60000", "-workers", "4")
	if serial != parallel {
		t.Fatalf("-workers changed the output:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// serveSection parses the "Running sweeps as a service" block of
// EXPERIMENTS.md into its daemon commands (go run lines) and curl
// lines, so TestCLIServe can execute the documented flow.
func serveSection(t *testing.T) (goRuns [][]string, curls []string) {
	t.Helper()
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, body, found := strings.Cut(string(raw), "## Running sweeps as a service")
	if !found {
		t.Fatal("EXPERIMENTS.md lost its \"Running sweeps as a service\" section")
	}
	_, block, found := strings.Cut(body, "```sh")
	if !found {
		t.Fatal("service section lost its fenced command block")
	}
	block, _, _ = strings.Cut(block, "```")
	for _, line := range strings.Split(block, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "go run ./"):
			goRuns = append(goRuns, strings.Fields(line))
		case strings.HasPrefix(line, "curl "):
			curls = append(curls, line)
		}
	}
	if len(goRuns) < 3 || len(curls) < 5 {
		t.Fatalf("service section documents %d go-run and %d curl commands; format changed?",
			len(goRuns), len(curls))
	}
	return goRuns, curls
}

// startDaemon launches a built daemon binary on an ephemeral port and
// returns its base URL, the running command, and a channel that yields
// the exit error once the process stops.
func startDaemon(t *testing.T, dir, tool string, args ...string) (string, *exec.Cmd, <-chan error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	var base string
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			base = addr
			break
		}
	}
	if base == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("%s never announced its listen address", tool)
	}
	// Drain the rest of stderr so the daemon never blocks on the pipe.
	drained := make(chan string, 1)
	go func() {
		var rest strings.Builder
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteString("\n")
		}
		drained <- rest.String()
	}()
	exited := make(chan error, 1)
	go func() {
		err := cmd.Wait()
		t.Logf("%s stderr after startup:\n%s", tool, <-drained)
		exited <- err
	}()
	return base, cmd, exited
}

// curlEquivalent executes one documented curl line against base using
// net/http (the test environment need not ship curl) and returns the
// response body. Only the two shapes the doc uses are supported.
func curlEquivalent(t *testing.T, base, line string) string {
	t.Helper()
	var (
		resp *http.Response
		err  error
	)
	if _, rest, isPost := strings.Cut(line, "-d '"); isPost {
		payload, after, ok := strings.Cut(rest, "'")
		if !ok {
			t.Fatalf("unparseable curl line: %s", line)
		}
		path := urlPath(t, strings.TrimSpace(after))
		resp, err = http.Post(base+path, "application/json", strings.NewReader(payload))
	} else {
		fields := strings.Fields(line)
		path := urlPath(t, fields[len(fields)-1])
		resp, err = http.Get(base + path)
	}
	if err != nil {
		t.Fatalf("curl line %q: %v", line, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("curl line %q: status %d: %s", line, resp.StatusCode, buf.String())
	}
	return buf.String()
}

// urlPath strips the documented fixed address down to its path.
func urlPath(t *testing.T, u string) string {
	t.Helper()
	i := strings.Index(u, "/v1/")
	if i < 0 {
		if j := strings.LastIndex(u, "/"); j > len("http://") {
			return u[j:]
		}
		t.Fatalf("unparseable documented URL %q", u)
	}
	return u[i:]
}

// TestCLIServe drives the documented sweep-service flow end to end:
// daemon up on an ephemeral port, every documented curl exchange over
// the wire, the load generator against the live address, then a SIGTERM
// drain that must exit 0. The in-process chaos drill runs afterwards.
func TestCLIServe(t *testing.T) {
	dir := buildTools(t)
	goRuns, curls := serveSection(t)

	// The documented daemon line must be the mlpserve invocation.
	if filepath.Base(goRuns[0][2]) != "mlpserve" {
		t.Fatalf("first documented command is %v, want mlpserve", goRuns[0])
	}
	base, cmd, exited := startDaemon(t, dir, "mlpserve", "-addr", "127.0.0.1:0")

	for _, line := range curls {
		line := line
		t.Run(line, func(t *testing.T) {
			body := curlEquivalent(t, base, line)
			switch {
			case strings.Contains(line, "/v1/jobs") && strings.Contains(line, "experiment"):
				if !strings.Contains(body, "mlpcache.table/v1") {
					t.Fatalf("experiment job did not return a table document: %.200s", body)
				}
			case strings.Contains(line, "/v1/jobs"):
				if !strings.Contains(body, "mlpcache.metrics/v1") {
					t.Fatalf("job did not return a metrics document: %.200s", body)
				}
			case strings.Contains(line, "/metrics"):
				if !strings.Contains(body, "service.jobs.admitted") {
					t.Fatalf("/metrics missing service counters: %.200s", body)
				}
			}
		})
	}

	// The documented loadgen-against-a-live-daemon command, retargeted.
	var loadgenArgs []string
	for _, argv := range goRuns {
		if strings.Contains(argv[2], "loadgen") && hasFlag(argv, "-url") {
			loadgenArgs = argv[3:]
			break
		}
	}
	if loadgenArgs == nil {
		t.Fatal("service section lost its loadgen -url command")
	}
	for i := range loadgenArgs {
		if loadgenArgs[i] == "-url" {
			loadgenArgs[i+1] = base
		}
	}
	out, err := exec.Command(filepath.Join(dir, "loadgen"), loadgenArgs...).CombinedOutput()
	if err != nil {
		t.Fatalf("loadgen against live daemon: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 lost") {
		t.Fatalf("loadgen lost jobs:\n%s", out)
	}

	// Graceful drain: SIGTERM, exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("mlpserve exit after SIGTERM: %v (want 0)", err)
		}
	case <-time.After(time.Minute):
		cmd.Process.Kill()
		t.Fatal("mlpserve failed to drain on SIGTERM")
	}

	// The self-contained chaos drill.
	var chaosArgs []string
	for _, argv := range goRuns {
		if strings.Contains(argv[2], "loadgen") && !hasFlag(argv, "-url") {
			chaosArgs = argv[3:]
			break
		}
	}
	if chaosArgs == nil {
		t.Fatal("service section lost its in-process chaos loadgen command")
	}
	out, err = exec.Command(filepath.Join(dir, "loadgen"), chaosArgs...).CombinedOutput()
	if err != nil {
		t.Fatalf("in-process chaos loadgen: %v\n%s", err, out)
	}
}

func hasFlag(argv []string, flag string) bool {
	for _, a := range argv {
		if a == flag {
			return true
		}
	}
	return false
}

// TestCLITimeout checks the -timeout flags: an expired budget is a
// one-line typed diagnostic and exit 1, never a panic or a hang.
func TestCLITimeout(t *testing.T) {
	dir := buildTools(t)
	mustFailCleanly := func(t *testing.T, tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(dir, tool), args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s %v: expected non-zero exit\n%s", tool, args, out)
		}
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%s %v: did not run: %v", tool, args, err)
		}
		if strings.Contains(string(out), "panic:") || strings.Contains(string(out), "goroutine ") {
			t.Fatalf("%s %v: panic escaped to the user:\n%s", tool, args, out)
		}
		return string(out)
	}

	t.Run("mlpsim", func(t *testing.T) {
		out := mustFailCleanly(t, "mlpsim", "-bench", "mcf", "-n", "80000000",
			"-timeout", "100ms", "-hist=false")
		if !strings.Contains(out, "cancelled") {
			t.Fatalf("diagnostic does not say cancelled:\n%s", out)
		}
	})

	t.Run("mlpexp", func(t *testing.T) {
		out := mustFailCleanly(t, "mlpexp", "-run", "tab3", "-n", "80000000",
			"-bench", "mcf", "-timeout", "100ms")
		if !strings.Contains(out, "cancelled") {
			t.Fatalf("diagnostic does not say cancelled:\n%s", out)
		}
	})

	t.Run("mlpsim-generous-timeout-succeeds", func(t *testing.T) {
		runTool(t, dir, "mlpsim", "-bench", "micro.isolated", "-n", "50000",
			"-timeout", "5m", "-hist=false")
	})
}
