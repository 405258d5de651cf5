// Command benchjson is the repo's performance-trajectory harness: it
// runs the root package's benchmark suite (simulator throughput,
// observability overhead, oracle headroom, trace generation and codec),
// parses the `go test -bench` text into a machine-readable document, and
// gates regressions against a committed snapshot.
//
//   - -record writes the snapshot (BENCH_PR10.json by convention),
//     preserving any pre_pr5_baseline and prior_baselines sections
//     already in the file so the before/after story survives re-records.
//   - -compare re-runs the suite and fails when a benchmark disappears,
//     when any calibrated instr/s figure drops more than -threshold
//     percent after machine-speed normalization (see below), or when
//     allocs/op grows
//     more than -alloc-threshold percent (allocations are deterministic,
//     so this catches reintroduced per-access allocation immediately).
//     Wall-clock-only figures (ns/op, MB/s) are reported but not gated:
//     on a shared machine they are too noisy for a hard 5% gate.
//     It also enforces the relational allocation gates in allocGates
//     (docs/PERFORMANCE.md), each judged on the current run, so a
//     regression in, say, the binary encoder's zero-alloc Emit path
//     fails the gate even if a snapshot is re-recorded around it.
//
// Host-speed calibration: this repo benchmarks on shared virtual
// machines whose speed drifts within seconds, and single-iteration
// samples of one benchmark spread by 6-16% (coefficient of variation)
// from pass to pass. Every instr/s benchmark therefore also reports
// ref/s, the rate of a fixed L1-resident reference loop timed just
// before and after its timed region (bench_test.go), and the gate
// compares instr/s divided by ref/s. On 16 passes of the suite on a
// 2-vCPU Xeon VM this cut the mean spread from 12.5% to 8.1%.
//
// Each figure is the median of -count full passes over the suite (N
// separate `go test` invocations, not `go test -count N`, so a slow
// window costs at most one sample of each benchmark). Medians, not
// best-of maxima: the samples have a long fast tail, and a maximum
// lands in it on one side of a comparison and not the other. Replaying
// random disjoint subsets of those 16 passes as snapshot and re-run,
// the former gate (best of 4 passes, uncalibrated) failed unchanged
// code in 86-90% of trials, this one (median of 8, calibrated) in 0.9%.
//
// Machine-speed normalization: whatever the L1-resident loop does not
// feel (memory contention, say) still moves the whole suite together,
// while a code regression is not uniform (the suite spans disjoint
// subsystems: trace codec, generators, oracle replay, the full
// simulator). -compare therefore computes the suite-wide median of
// per-benchmark calibrated ratios (current/baseline, clamped at 1.0)
// and gates each benchmark's drop relative to that median. The gate is
// a 10% tripwire for a lost fast path. The precise gates are the
// allocation ones: a regression slowing every subsystem by the same
// factor (the normalizer's deliberate blind spot) or a fine per-op cost
// creep is caught by the absolute allocs/op gates, which are
// deterministic and never normalized.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// benchPattern selects the perf-trajectory suite; bench-smoke separately
// guards that the observability and oracle benchmarks keep existing.
const benchPattern = "BenchmarkSimulatorThroughput|BenchmarkMulticoreThroughput|BenchmarkArenaReuse|BenchmarkObservability|BenchmarkTracingV2|BenchmarkLearnedEviction|BenchmarkOracleHeadroom|BenchmarkGeneratorThroughput|BenchmarkTraceEncode|BenchmarkServiceThroughput"

// allocGates are the relational allocation gates: bench's allocs/op
// must stay within factor times base's, both taken from the current
// run so re-recording a snapshot cannot bury a regression. Allocation
// counts are deterministic, so the factors gate without a noise margin.
// prec is the number of decimals the factor prints with.
var allocGates = []struct {
	bench, base, label string
	factor             float64
	prec               int
}{
	// The mlpcache.events/v2 tracer's allocation-parity contract: its
	// Emit path allocates nothing at steady state.
	{"BenchmarkTracingV2/v2", "BenchmarkTracingV2/off", "untraced", 2, 0},
	// The bandit and predictor victim paths rank on the shared scratch
	// (docs/LEARNED.md), so they must allocate like the LRU baseline.
	{"BenchmarkLearnedEviction/bandit", "BenchmarkLearnedEviction/lru", "lru", 1.5, 1},
	{"BenchmarkLearnedEviction/learned", "BenchmarkLearnedEviction/lru", "lru", 1.5, 1},
	// A run drawing caches, MSHR files, core models and blockmap tables
	// from a warmed arena allocates at most half of a cold run.
	{"BenchmarkArenaReuse/reused", "BenchmarkArenaReuse/cold", "cold", 0.5, 2},
}

// Sample is one benchmark's aggregated figures. Only the units the
// suite emits are modeled; absent figures are zero and omitted.
type Sample struct {
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	InstrPerSec float64 `json:"instr_per_s,omitempty"`
	// RefPerSec is the rate of the suite's fixed reference loop sampled
	// around the timed region, and InstrPerRef the throughput calibrated
	// by it (instructions simulated per reference-loop step): the figure
	// the instr/s gate compares, since host speed divides out of it.
	RefPerSec   float64 `json:"ref_per_s,omitempty"`
	InstrPerRef float64 `json:"instr_per_ref,omitempty"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Snapshot is the committed document.
type Snapshot struct {
	Schema    string            `json:"schema"`
	Go        string            `json:"go"`
	Note      string            `json:"note,omitempty"`
	Count     int               `json:"count"`
	Benchtime string            `json:"benchtime"`
	PreBase   map[string]Sample `json:"pre_pr5_baseline,omitempty"`
	// Prior holds earlier snapshots' benchmark sections keyed by a short
	// label (pr5 … pr9), preserving the cross-PR trajectory inside the
	// current file. Informational, never gated.
	Prior      map[string]map[string]Sample `json:"prior_baselines,omitempty"`
	Benchmarks map[string]Sample            `json:"benchmarks"`
}

func main() {
	var (
		record    = flag.Bool("record", false, "run the suite and write the snapshot")
		compare   = flag.Bool("compare", false, "run the suite and gate against the snapshot")
		out       = flag.String("out", "BENCH_PR10.json", "snapshot path for -record")
		baseline  = flag.String("baseline", "BENCH_PR10.json", "snapshot path for -compare")
		note      = flag.String("note", "", "free-form note stored in the snapshot")
		count     = flag.Int("count", 8, "full passes over the suite; each figure is their median")
		benchtime = flag.String("benchtime", "1x", "go test -benchtime value")
		threshold = flag.Float64("threshold", 10, "max tolerated instr/s drop after machine-speed normalization, percent")
		allocThr  = flag.Float64("alloc-threshold", 20, "max tolerated allocs/op growth, percent")
	)
	flag.Parse()
	switch {
	case *record == *compare:
		fmt.Fprintln(os.Stderr, "benchjson: exactly one of -record or -compare is required")
		os.Exit(2)
	case *record:
		if err := doRecord(*out, *note, *count, *benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	case *compare:
		if err := doCompare(*baseline, *count, *benchtime, *threshold, *allocThr); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// runSuite takes count full passes over the suite and folds them into
// medians. Separate passes — not `go test -count` — so each
// benchmark's repetitions are spread across the run's whole wall time
// (see the package comment on machine noise).
func runSuite(count int, benchtime string) (map[string]Sample, error) {
	var all strings.Builder
	for i := 0; i < count; i++ {
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", benchPattern,
			"-benchtime", benchtime, "-benchmem", ".")
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go test -bench (pass %d/%d): %w", i+1, count, err)
		}
		all.Write(raw)
		all.WriteByte('\n')
	}
	samples := parseBench(all.String())
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark lines in go test output")
	}
	return samples, nil
}

// resultLine matches one benchmark result: name, iteration count, then
// value/unit pairs handled field-by-field below.
var resultLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// gomaxprocsSuffix strips the -8 style suffix go test appends to
// benchmark names, so snapshots transfer between machines.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench folds every result line into one sample per benchmark:
// the median of each wall-clock figure across repetitions, and of each
// repetition's calibrated throughput (instr/s over the ref/s sampled
// around that very repetition); the minimum of the allocation figures,
// which repeat almost exactly. Medians, not maxima: on a shared host a
// benchmark's samples have a long fast tail (a pass whose neighbours
// went quiet), and a best-of figure lands in it on one side of a
// comparison and not on the other.
func parseBench(out string) map[string]Sample {
	reps := make(map[string][]Sample)
	for _, line := range strings.Split(out, "\n") {
		m := resultLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		var s Sample
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.NsPerOp = v
			case "instr/s":
				s.InstrPerSec = v
			case "ref/s":
				s.RefPerSec = v
			case "MB/s":
				s.MBPerSec = v
			case "B/op":
				s.BytesPerOp = v
			case "allocs/op":
				s.AllocsPerOp = v
			}
		}
		if s.InstrPerSec > 0 && s.RefPerSec > 0 {
			s.InstrPerRef = s.InstrPerSec / s.RefPerSec
		}
		reps[name] = append(reps[name], s)
	}
	samples := make(map[string]Sample, len(reps))
	for name, rs := range reps {
		field := func(f func(Sample) float64) []float64 {
			vs := make([]float64, len(rs))
			for i, r := range rs {
				vs[i] = f(r)
			}
			return vs
		}
		samples[name] = Sample{
			NsPerOp:     median(field(func(s Sample) float64 { return s.NsPerOp })),
			InstrPerSec: median(field(func(s Sample) float64 { return s.InstrPerSec })),
			RefPerSec:   median(field(func(s Sample) float64 { return s.RefPerSec })),
			InstrPerRef: median(field(func(s Sample) float64 { return s.InstrPerRef })),
			MBPerSec:    median(field(func(s Sample) float64 { return s.MBPerSec })),
			BytesPerOp:  slices.Min(field(func(s Sample) float64 { return s.BytesPerOp })),
			AllocsPerOp: slices.Min(field(func(s Sample) float64 { return s.AllocsPerOp })),
		}
	}
	return samples
}

// median returns the middle of vs (the mean of the two middle values
// for an even count). vs is sorted in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func doRecord(out, note string, count int, benchtime string) error {
	snap := Snapshot{
		Schema:    "mlpcache-bench/v1",
		Go:        runtime.Version(),
		Note:      note,
		Count:     count,
		Benchtime: benchtime,
	}
	// Carry the pre-optimization baseline and prior snapshots forward
	// across re-records.
	if prevRaw, err := os.ReadFile(out); err == nil {
		var prev Snapshot
		if json.Unmarshal(prevRaw, &prev) == nil {
			snap.PreBase = prev.PreBase
			snap.Prior = prev.Prior
			if note == "" {
				snap.Note = prev.Note
			}
		}
	}
	samples, err := runSuite(count, benchtime)
	if err != nil {
		return err
	}
	snap.Benchmarks = samples
	doc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: recorded %d benchmarks to %s\n", len(samples), out)
	return nil
}

func doCompare(baseline string, count int, benchtime string, threshold, allocThr float64) error {
	raw, err := os.ReadFile(baseline)
	if err != nil {
		return fmt.Errorf("reading baseline (run `make bench-record` first): %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("parsing %s: %w", baseline, err)
	}
	current, err := runSuite(count, benchtime)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(snap.Benchmarks))
	for name := range snap.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	// Machine-speed normalizer: the suite-wide median of per-benchmark
	// calibrated-throughput ratios, clamped at 1.0 so a faster machine
	// never raises the bar. It absorbs what the reference loop misses
	// (an L1-resident loop does not feel memory contention): such a
	// slowdown moves the whole suite together, while a code regression
	// moves specific benchmarks away from the median.
	var ratios []float64
	for _, name := range names {
		want := snap.Benchmarks[name]
		if got, ok := current[name]; ok && want.InstrPerRef > 0 && got.InstrPerRef > 0 {
			ratios = append(ratios, got.InstrPerRef/want.InstrPerRef)
		}
	}
	norm := 1.0
	if len(ratios) > 0 {
		norm = min(median(ratios), 1)
	}
	if norm < 1 {
		fmt.Fprintf(os.Stderr,
			"benchjson: machine-speed normalizer %.3f (suite-median calibrated ratio; drops gated relative to it)\n", norm)
	}
	var failures []string
	for _, name := range names {
		want := snap.Benchmarks[name]
		got, ok := current[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: benchmark disappeared from the suite", name))
			continue
		}
		switch {
		case want.InstrPerSec > 0 && (want.InstrPerRef == 0 || got.InstrPerRef == 0):
			failures = append(failures, fmt.Sprintf(
				"%s: instr/s without a ref/s calibration sample (report it through reportThroughput, then re-record)", name))
		case want.InstrPerSec > 0:
			drop := 100 * (1 - got.InstrPerRef/(want.InstrPerRef*norm))
			status := "ok"
			if drop > threshold {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf(
					"%s: calibrated instr/s dropped %.1f%% vs suite median (%.4g -> %.4g instr/ref, normalizer %.3f, gate %.1f%%)",
					name, drop, want.InstrPerRef, got.InstrPerRef, norm, threshold))
			}
			fmt.Fprintf(os.Stderr, "%-45s instr/s %12.0f -> %12.0f (%+.1f%% raw, %+.1f%% calibrated vs suite) %s\n",
				name, want.InstrPerSec, got.InstrPerSec, 100*(got.InstrPerSec/want.InstrPerSec-1), -drop, status)
		case want.NsPerOp > 0 && got.NsPerOp > 0:
			fmt.Fprintf(os.Stderr, "%-45s ns/op   %12.0f -> %12.0f (%+.1f%%) info\n",
				name, want.NsPerOp, got.NsPerOp, 100*(got.NsPerOp-want.NsPerOp)/want.NsPerOp)
		}
		if want.AllocsPerOp > 0 {
			growth := 100 * (got.AllocsPerOp - want.AllocsPerOp) / want.AllocsPerOp
			if growth > allocThr {
				failures = append(failures, fmt.Sprintf(
					"%s: allocs/op grew %.1f%% (%.0f -> %.0f, gate %.1f%%)",
					name, growth, want.AllocsPerOp, got.AllocsPerOp, allocThr))
			}
		}
	}
	for _, g := range allocGates {
		got, haveGot := current[g.bench]
		base, haveBase := current[g.base]
		factor := strconv.FormatFloat(g.factor, 'f', g.prec, 64)
		switch {
		case !haveGot || !haveBase:
			failures = append(failures, fmt.Sprintf("%s/%s: benchmarks missing from the suite", g.base, g.bench))
		case base.AllocsPerOp > 0 && got.AllocsPerOp > g.factor*base.AllocsPerOp:
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f exceeds %sx %s (%s at %.0f)",
				g.bench, got.AllocsPerOp, factor, g.label, g.base, base.AllocsPerOp))
		default:
			fmt.Fprintf(os.Stderr, "%-45s allocs/op %12.0f vs %9.0f %s (gate %sx) ok\n",
				g.bench, got.AllocsPerOp, base.AllocsPerOp, g.label, factor)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("performance regression:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(os.Stderr, "benchjson: no regressions against", baseline)
	return nil
}
