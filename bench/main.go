// Command bench is the repository's benchmark: it runs one named
// workload of the simulator for a fixed wall time and prints the
// end-to-end metrics, or with -trace 1 the per-layer ledger, as the
// last line of standard output. README.md is the catalog of workloads
// and metrics.
//
//	go run . -workload paper-sweep -seed 42 -seconds 30 -trace 0
//
// Every input is generated from -seed; the simulator only sees the
// generated sources. -workload all runs each workload in its own child
// process, so peak RSS and set-up time stay per workload.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 42, "seed every generated input is built from (hold-out seed: 7)")
	seconds := fs.Float64("seconds", 30, "measure for this many seconds; at least one pass always runs")
	traceArg := fs.String("trace", "0", "1 adds traced passes and reports the per-layer ledger instead of the end-to-end metrics")
	spansPath := fs.String("spans", "", "write every span as JSONL to this file at exit (with all: one file per workload, suffixed .<workload>)")
	scale := fs.Float64("scale", 1, "multiply every instruction budget; digests are pinned at 1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	traced, err := strconv.ParseBool(*traceArg)
	if err != nil {
		return fmt.Errorf("-trace: want 0 or 1, got %q", *traceArg)
	}
	if *seconds < 0 || math.IsNaN(*seconds) || !(*scale > 0) || math.IsInf(*scale, 0) {
		return errors.New("-seconds must be non-negative and -scale positive")
	}
	if *name == "all" {
		child := []string{"-seed", strconv.FormatUint(*seed, 10), "-seconds", fmt.Sprint(*seconds),
			"-trace", *traceArg, "-scale", fmt.Sprint(*scale)}
		return runAll(child, *spansPath, stdout)
	}
	wl, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown -workload %q (want one of %s, or all)", *name, strings.Join(workloadNames(), ", "))
	}
	rep, err := run(config{wl: wl, seed: *seed, seconds: *seconds, traced: traced, scale: *scale})
	if err != nil {
		return err
	}
	if *spansPath != "" {
		if err := writeSpans(*spansPath, rep.spans); err != nil {
			return err
		}
	}
	for _, e := range rep.info.Errors {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	return printReport(stdout, rep)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printReport writes the info line, then the result as the last line.
func printReport(w io.Writer, rep *report) error {
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", k, m.Value)
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(rep.info); err != nil {
		return err
	}
	return enc.Encode(rep)
}

// runAll runs every workload in a child process with the given flags
// and relays its output; the last line sums the children's counts and
// prefixes each metric with its workload.
func runAll(args []string, spansPath string, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	total := &report{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		childArgs := append(slices.Clone(args), "-workload", w.name)
		if spansPath != "" {
			childArgs = append(childArgs, "-spans", spansPath+"."+w.name)
		}
		cmd := exec.Command(exe, childArgs...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		if _, err := stdout.Write(out); err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var child report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &child); err != nil {
			return fmt.Errorf("workload %s: result line: %w", w.name, err)
		}
		total.Correct = total.Correct && child.Correct
		total.Attempted += child.Attempted
		total.Failed += child.Failed
		for k, m := range child.Metrics {
			total.Metrics[w.name+"."+k] = m
		}
	}
	return json.NewEncoder(stdout).Encode(total)
}

// span is one timed interval: the benchmark itself, a set-up, a pass, a
// simulation call, or a layer's share of one. Run numbers the
// simulation call a span belongs to (0 outside any).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Run    int    `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark ends.
type spanLog struct{ spans []span }

func (l *spanLog) add(name string, parent, run int, start, end int64) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Run: run, Start: start, End: end})
	return len(l.spans)
}

// open starts a span now; close ends it.
func (l *spanLog) open(name, label string, parent, run int) int {
	id := l.add(name, parent, run, now(), 0)
	l.spans[id-1].Label = label
	return id
}

func (l *spanLog) close(id int) { l.spans[id-1].End = now() }

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

//go:embed digests.json
var digestsJSON []byte

// pinnedDigest returns a recorded digest: key is a seed for a whole
// run's digest at scale 1, or "canary" for the workload's canary op.
func pinnedDigest(workload, key string) (string, bool) {
	var pins map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &pins); err != nil {
		panic(fmt.Sprintf("bench: digests.json: %v", err))
	}
	d, ok := pins[workload][key]
	return d, ok
}
