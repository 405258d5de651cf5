package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mlpcache/internal/trace"
)

// smokeScale keeps every workload to a few milliseconds of simulation.
const smokeScale = 0.01

// declared reads BENCHMARK.json's metric names: the end-to-end set an
// untraced run emits and the per-layer set a traced run emits.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkNames reports any emitted name that is malformed or undeclared,
// and any declared name that was not emitted.
func checkNames(emitted map[string]metric, declared []string) error {
	want := make(map[string]bool, len(declared))
	for _, n := range declared {
		want[n] = true
	}
	var problems []string
	for n := range emitted {
		switch {
		case !metricName.MatchString(n):
			problems = append(problems, fmt.Sprintf("malformed name %q", n))
		case !want[n]:
			problems = append(problems, fmt.Sprintf("%q is not declared", n))
		}
	}
	for _, n := range declared {
		if _, ok := emitted[n]; !ok {
			problems = append(problems, fmt.Sprintf("%q is declared but not emitted", n))
		}
	}
	if problems != nil {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

// ledgerMetric names the per-layer metric that reports each ledger term.
var ledgerMetric = map[string]string{
	"workload": "workload.ns_per_instr",
	"cache.l1": "cache.l1.ns_per_instr",
	"cache.l2": "cache.l2.ns_per_instr",
	"mshr":     "mshr.ns_per_instr",
	"dram":     "dram.ns_per_instr",
	"metrics":  "metrics.ns_per_instr",
	"oracle":   "oracle.ns_per_instr",
	"residual": "sim.residual_ns_per_instr",
}

func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			plain, err := run(config{wl: w, seed: 42, scale: smokeScale})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Failed != 0 || !plain.Correct {
				t.Fatalf("untraced: %d of %d ops failed: %v", plain.Failed, plain.Attempted, plain.info.Errors)
			}
			if err := checkNames(plain.Metrics, endToEnd); err != nil {
				t.Errorf("untraced metrics: %v", err)
			}

			traced, err := run(config{wl: w, seed: 42, scale: smokeScale, traced: true})
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 || !traced.Correct {
				t.Fatalf("traced: %d of %d ops failed: %v", traced.Failed, traced.Attempted, traced.info.Errors)
			}
			if err := checkNames(traced.Metrics, perLayer); err != nil {
				t.Errorf("traced metrics: %v", err)
			}
			if !reflect.DeepEqual(traced.results[0], traced.results[1]) {
				t.Error("the traced pass's simulated results differ from the untraced pass's")
			}
			// The same seed reproduces the digest (the traced run's first
			// pass is untraced), and another seed changes every source,
			// so -seed reaches every generator.
			if traced.info.Digest != plain.info.Digest {
				t.Errorf("seed 42 gave digests %s and %s", plain.info.Digest, traced.info.Digest)
			}
			a, b := w.build(42, smokeScale, nil), w.build(43, smokeScale, nil)
			for i := range a {
				for j := range a[i].srcs {
					if reflect.DeepEqual(trace.Collect(a[i].srcs[j], 1000), trace.Collect(b[i].srcs[j], 1000)) {
						t.Errorf("%s source %d is the same under seeds 42 and 43", a[i].label, j)
					}
				}
			}
			if n := traced.Metrics["mshr.replay_cost_mismatches"].Value; n != 0 {
				t.Errorf("MSHR replay disagrees with the live cost of %v fills", n)
			}

			// The ledger identity: the reported layer terms plus the
			// residual make up 1e9/instr_per_s.
			total := traced.info.Ledger["total"]
			sum := 0.0
			for term, v := range traced.info.Ledger {
				if term == "total" {
					continue
				}
				name, ok := ledgerMetric[term]
				if !ok {
					t.Fatalf("ledger term %q has no metric", term)
				}
				if got := traced.Metrics[name].Value; got != v {
					t.Errorf("%s = %v, ledger says %v", name, got, v)
				}
				sum += v
			}
			if !(total > 0) || math.Abs(sum-total) > 0.005*total {
				t.Errorf("ledger terms sum to %v, want 1e9/instr_per_s = %v", sum, total)
			}
		})
	}
}

func TestCheckNamesRejectsUndeclared(t *testing.T) {
	emitted := map[string]metric{"instr_per_s": {1, "instr/s"}}
	if err := checkNames(emitted, []string{"instr_per_s"}); err != nil {
		t.Fatalf("matching sets: %v", err)
	}
	emitted["undeclared.metric"] = metric{1, "count"}
	if err := checkNames(emitted, []string{"instr_per_s"}); err == nil {
		t.Error("an undeclared metric passed the check")
	}
	delete(emitted, "undeclared.metric")
	emitted["bad name"] = metric{1, "count"}
	if err := checkNames(emitted, []string{"instr_per_s", "bad name"}); err == nil {
		t.Error("a malformed metric name passed the check")
	}
	if err := checkNames(map[string]metric{}, []string{"instr_per_s"}); err == nil {
		t.Error("a declared metric that was not emitted passed the check")
	}
}

func TestDigestsPinned(t *testing.T) {
	for _, w := range workloads {
		for _, key := range []string{"42", "7", "canary"} {
			if _, ok := pinnedDigest(w.name, key); !ok {
				t.Errorf("digests.json has no %q digest for %s", key, w.name)
			}
		}
	}
}
