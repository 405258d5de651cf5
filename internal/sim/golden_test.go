package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mlpcache/internal/faultinject"
	"mlpcache/internal/metrics"
	"mlpcache/internal/prefetch"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_results.json from the current code")

const goldenResultsFile = "testdata/golden_results.json"

// goldenCase is one pinned simulation: run returns the full Result or
// MultiResult whose digest the table records.
type goldenCase struct {
	name string
	run  func() (any, error)
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	policies := []PolicySpec{
		{Kind: PolicyLRU},
		{Kind: PolicyLIN, Lambda: 4},
		{Kind: PolicySBAR, Lambda: 4, LeaderSets: 32},
	}
	for _, name := range workload.Names() {
		spec, _ := workload.ByName(name)
		for _, p := range policies {
			cfg := DefaultConfig()
			cfg.MaxInstructions = 200_000
			cfg.Policy = p
			cases = append(cases, goldenCase{name + "/" + p.String(), func() (any, error) {
				return Run(cfg, spec.Build(42))
			}})
		}
	}

	mixes := []struct {
		label  string
		names  []string
		policy PolicySpec
	}{
		{"mcf+art", []string{"mcf", "art"}, PolicySpec{Kind: PolicyLIN, Lambda: 4}},
		{"mcf+art+parser+equake", []string{"mcf", "art", "parser", "equake"}, PolicySpec{Kind: PolicySBAR, Lambda: 4, LeaderSets: 32}},
	}
	for _, mix := range mixes {
		cfg := DefaultConfig()
		cfg.MaxInstructions = 100_000
		cfg.Policy = mix.policy
		cases = append(cases, goldenCase{mix.label + "/" + mix.policy.String() + "/serial", func() (any, error) {
			return RunMulti(cfg, sources(mix.names...)...)
		}})
	}

	exact := DefaultConfig()
	exact.MaxInstructions = 100_000
	exact.Policy = PolicySpec{Kind: PolicySBAR, Lambda: 4, LeaderSets: 32}
	exact.DisableFastForward = true
	cases = append(cases, goldenCase{"mcf/" + exact.Policy.String() + "/no-fast-forward", func() (any, error) {
		spec, _ := workload.ByName("mcf")
		return Run(exact, spec.Build(42))
	}})
	cases = append(cases, goldenCase{"mcf+art/" + exact.Policy.String() + "/serial/no-fast-forward", func() (any, error) {
		return RunMulti(exact, sources("mcf", "art")...)
	}})

	// The serial multi-core loop across policies, core counts and two
	// heterogeneous mixes.
	for _, mix := range []struct {
		label string
		names []string
	}{{"mcf+art", []string{"mcf", "art"}}, {"parser+mcf", []string{"parser", "mcf"}}} {
		for _, kind := range []PolicyKind{PolicyLRU, PolicyLIN, PolicySBAR, PolicyBandit, PolicyLearned} {
			for _, cores := range []int{1, 2, 4} {
				cfg := DefaultConfig()
				cfg.MaxInstructions = 40_000
				cfg.Policy = PolicySpec{Kind: kind, Seed: 7}
				name := fmt.Sprintf("matrix/%s/%s/%dcore", mix.label, kind, cores)
				cases = append(cases, goldenCase{name, func() (any, error) {
					return RunMulti(cfg, mixSources(mix.names, cores)...)
				}})
			}
		}
	}

	cases = append(cases, featureCases()...)
	cases = append(cases, quadCases()...)
	cases = append(cases, evictionCases()...)
	return append(cases, exitCases()...)
}

// evictionCases pins every policy kind on an L2 small enough that a
// 200k-instruction run chooses victims on most fills (the 1 MB L2 of
// the rows above gets fewer fills than it has lines in most models):
// a 128 KB 16-way L2 (128 sets) under bzip2 and mgrid, a 96 KB one (96
// sets, not a power of two; 32 leader sets divide it) under parser, and
// a four-core SBAR run on the 128 KB L2.
func evictionCases() []goldenCase {
	var cases []goldenCase
	for _, run := range []struct {
		bench string
		kb    uint64
	}{{"bzip2", 128}, {"mgrid", 128}, {"parser", 96}} {
		spec, _ := workload.ByName(run.bench)
		for _, kind := range AllPolicies {
			cfg := DefaultConfig()
			cfg.MaxInstructions = 200_000
			cfg.L2.SizeBytes = run.kb * 1024
			cfg.Policy = PolicySpec{Kind: kind, Seed: 7}
			name := fmt.Sprintf("evict/%dKB/%s/%s", run.kb, run.bench, kind)
			cases = append(cases, goldenCase{name, func() (any, error) {
				return Run(cfg, spec.Build(42))
			}})
		}
	}
	quad := DefaultConfig()
	quad.MaxInstructions = 100_000
	quad.L2.SizeBytes = 128 * 1024
	quad.Policy = PolicySpec{Kind: PolicySBAR, Lambda: 4, LeaderSets: 32}
	return append(cases, goldenCase{"evict/128KB/mcf+art+parser+equake/" + quad.Policy.String(), func() (any, error) {
		return RunMulti(quad, sources("mcf", "art", "parser", "equake")...)
	}})
}

// quadCases pins the four-core run under each condition that decides
// which cores the cycle loop steps and when: an audited run traced
// through the v2 tracer (its event bytes digested next to the result),
// a two-entry MSHR whose rejects keep cores busy retrying, the
// time-shared MSHR adders, rand-dynamic SBAR with epochs, and a core
// whose source ends after 5,000 instructions and idles to the end.
func quadCases() []goldenCase {
	quad := func() []trace.Source { return sources("mcf", "art", "parser", "equake") }
	sbar := PolicySpec{Kind: PolicySBAR, Lambda: 4, LeaderSets: 32}
	base := func(p PolicySpec) Config {
		cfg := DefaultConfig()
		cfg.MaxInstructions = 50_000
		cfg.Policy = p
		return cfg
	}
	return []goldenCase{
		{"quad/audit-trace", func() (any, error) {
			cfg := base(sbar)
			cfg.Audit = true
			cfg.AuditEvery = 4096
			var buf bytes.Buffer
			tr := metrics.NewBinaryTracer(&buf, metrics.RunHeader{Bench: "mcf+art+parser+equake", Policy: sbar.String(), Seed: 42})
			cfg.Trace = tr
			res, err := RunMulti(cfg, quad()...)
			if err == nil {
				err = tr.Flush()
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			return struct {
				Res    MultiResult
				Len    int
				Digest uint64
			}{res, buf.Len(), h.Sum64()}, err
		}},
		{"quad/mshr-entries-2", func() (any, error) {
			cfg := base(sbar)
			cfg.MSHR.Entries = 2
			res, err := RunMulti(cfg, quad()...)
			if err == nil && res.Cores[0].CPU.MSHRRejects == 0 {
				err = fmt.Errorf("no MSHR rejects on core 0: %+v", res.Cores[0].CPU)
			}
			return res, err
		}},
		{"quad/mshr-adders-2", func() (any, error) {
			cfg := base(sbar)
			cfg.MSHR.Adders = 2
			return RunMulti(cfg, quad()...)
		}},
		{"quad/rand-sbar-epochs", func() (any, error) {
			cfg := base(PolicySpec{Kind: PolicySBAR, Seed: 7, RandDynamic: true})
			cfg.EpochInstructions = 25_000
			return RunMulti(cfg, quad()...)
		}},
		{"quad/early-finish", func() (any, error) {
			srcs := quad()
			srcs[1] = trace.NewLimit(srcs[1], 5000)
			res, err := RunMulti(base(sbar), srcs...)
			if err == nil && res.Cores[1].Instructions != 5000 {
				err = fmt.Errorf("core 1 retired %d instructions, want 5000", res.Cores[1].Instructions)
			}
			return res, err
		}},
	}
}

// exitCases pins the two ways a two-core run can end before every core
// finishes, each with a core whose stall counters keep accruing to the
// last cycle: a wedge, where core 1's window fills behind an
// instruction of no known kind that never issues and the loop stops
// once core 0 is done, and the cycle guard, tripped by a DRAM access
// latency far beyond the guard's allowance for 1,000 instructions.
func exitCases() []goldenCase {
	sbar := PolicySpec{Kind: PolicySBAR, Lambda: 4, LeaderSets: 32}
	return []goldenCase{
		{"exit/wedged-core", func() (any, error) {
			cfg := DefaultConfig()
			cfg.MaxInstructions = 20_000
			cfg.Policy = sbar
			stuck := make([]trace.Instr, 400)
			stuck[50].Kind = 255 // no known kind: never issues
			spec, _ := workload.ByName("mcf")
			res, err := RunMulti(cfg, spec.Build(42), trace.NewSliceSource(stuck))
			if err == nil && res.Cores[1].CPU.FullWindowCycles == 0 {
				err = fmt.Errorf("core 1 never filled its window: %+v", res.Cores[1].CPU)
			}
			return res, err
		}},
		{"exit/cycle-guard", func() (any, error) {
			cfg := DefaultConfig()
			cfg.MaxInstructions = 1_000
			cfg.Policy = sbar
			cfg.DRAM.AccessCycles = 1 << 24
			res, err := RunMulti(cfg, sources("mcf", "art")...)
			if err == nil && res.Cycles < 1<<24 {
				err = fmt.Errorf("run ended at cycle %d, before the first fill", res.Cycles)
			}
			return res, err
		}},
	}
}

// sources builds one source per benchmark name, seeding the i-th with
// 42+i.
func sources(names ...string) []trace.Source {
	srcs := make([]trace.Source, len(names))
	for i, name := range names {
		spec, _ := workload.ByName(name)
		srcs[i] = spec.Build(42 + uint64(i))
	}
	return srcs
}

// mixSources builds one source per core, cycling through names and
// seeding core i with 11+i.
func mixSources(names []string, cores int) []trace.Source {
	srcs := make([]trace.Source, cores)
	for i := range srcs {
		spec, _ := workload.ByName(names[i%len(names)])
		srcs[i] = spec.Build(uint64(11 + i))
	}
	return srcs
}

// capturedAccess is one call an AccessObserver received: an L2 demand
// access (cost false) or a miss's completed cost (cost true).
type capturedAccess struct {
	Block uint64
	Kind  AccessKind
	CostQ uint8
	Cost  bool
}

// accessRecorder is an AccessObserver that keeps every call in order.
type accessRecorder struct{ log []capturedAccess }

func (r *accessRecorder) OnL2Access(block uint64, kind AccessKind, costQ uint8) {
	r.log = append(r.log, capturedAccess{Block: block, Kind: kind, CostQ: costQ})
}

func (r *accessRecorder) OnMissCost(block uint64, costQ uint8) {
	r.log = append(r.log, capturedAccess{Block: block, CostQ: costQ, Cost: true})
}

// featureCases pins each optional feature of the memory system and run
// loop: prefetching, fault injection, access capture, the Figure 11
// series, snapshot emission through the v2 tracer, an audited
// rand-dynamic SBAR run with epochs and the time-shared MSHR adders on
// one core, and prefetching, faults, capture and snapshots again on two
// cores. Cases whose feature has a side output digest it next to the
// result.
func featureCases() []goldenCase {
	build := func(name string) trace.Source {
		spec, _ := workload.ByName(name)
		return spec.Build(42)
	}
	base := func(p PolicySpec, n uint64) Config {
		cfg := DefaultConfig()
		cfg.MaxInstructions = n
		cfg.Policy = p
		return cfg
	}
	lin := PolicySpec{Kind: PolicyLIN, Lambda: 4}
	sbar := PolicySpec{Kind: PolicySBAR, Lambda: 4, LeaderSets: 32}
	return []goldenCase{
		{"feature/prefetch", func() (any, error) {
			cfg := base(lin, 150_000)
			cfg.L2.SizeBytes = 128 * 1024
			p := prefetch.DefaultConfig()
			cfg.Prefetch = &p
			res, err := Run(cfg, build("twolf"))
			if err == nil && (res.Mem.PrefetchIssued == 0 || res.Mem.PrefetchUnused == 0) {
				err = fmt.Errorf("prefetcher idle: %+v", res.Mem)
			}
			return res, err
		}},
		{"feature/faults", func() (any, error) {
			cfg := base(sbar, 100_000)
			cfg.Faults = &faultinject.Plan{Seed: 3, DRAMJitterMax: 97, MSHRCapacity: 2, MSHRThrottleAfter: 20_000}
			return Run(cfg, build("mcf"))
		}},
		{"feature/capture", func() (any, error) {
			cfg := base(lin, 100_000)
			rec := &accessRecorder{}
			cfg.Capture = rec
			res, err := Run(cfg, build("parser"))
			return struct {
				Res Result
				Log []capturedAccess
			}{res, rec.log}, err
		}},
		{"feature/series", func() (any, error) {
			cfg := base(sbar, 100_000)
			cfg.SampleInterval = 10_000
			return Run(cfg, build("mcf"))
		}},
		{"feature/snapshot", func() (any, error) {
			cfg := base(lin, 100_000)
			var buf bytes.Buffer
			tr := metrics.NewBinaryTracer(&buf, metrics.RunHeader{Bench: "art", Policy: lin.String(), Seed: 42})
			cfg.Trace = tr
			cfg.SnapshotInterval = 10_000
			res, err := Run(cfg, build("art"))
			if err == nil {
				err = tr.Flush()
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			return struct {
				Res    Result
				Len    int
				Digest uint64
			}{res, buf.Len(), h.Sum64()}, err
		}},
		{"feature/audit-rand-sbar-epochs", func() (any, error) {
			cfg := base(PolicySpec{Kind: PolicySBAR, Seed: 7, RandDynamic: true}, 100_000)
			cfg.EpochInstructions = 25_000
			cfg.Audit = true
			cfg.AuditEvery = 4096
			return Run(cfg, build("mcf"))
		}},
		{"feature/mshr-adders", func() (any, error) {
			cfg := base(lin, 100_000)
			cfg.MSHR.Adders = 2
			return Run(cfg, build("mcf"))
		}},
		{"feature/twolf+twolf/prefetch", func() (any, error) {
			cfg := base(lin, 100_000)
			cfg.L2.SizeBytes = 128 * 1024
			p := prefetch.DefaultConfig()
			cfg.Prefetch = &p
			res, err := RunMulti(cfg, sources("twolf", "twolf")...)
			if err == nil && (res.Mem.PrefetchLate == 0 || res.Mem.PrefetchUnused == 0 || res.CrossCoreMerges == 0) {
				err = fmt.Errorf("prefetchers or sharing idle: %+v, %d cross-core merges", res.Mem, res.CrossCoreMerges)
			}
			return res, err
		}},
		{"feature/mcf+art/faults", func() (any, error) {
			cfg := base(sbar, 100_000)
			cfg.Faults = &faultinject.Plan{Seed: 3, DRAMJitterMax: 97, MSHRCapacity: 2, MSHRThrottleAfter: 20_000}
			return RunMulti(cfg, sources("mcf", "art")...)
		}},
		{"feature/parser+mcf/capture", func() (any, error) {
			cfg := base(lin, 100_000)
			rec := &accessRecorder{}
			cfg.Capture = rec
			res, err := RunMulti(cfg, sources("parser", "mcf")...)
			return struct {
				Res MultiResult
				Log []capturedAccess
			}{res, rec.log}, err
		}},
		{"feature/art+mcf/snapshot", func() (any, error) {
			cfg := base(lin, 100_000)
			var buf bytes.Buffer
			tr := metrics.NewBinaryTracer(&buf, metrics.RunHeader{Bench: "art+mcf", Policy: lin.String(), Seed: 42})
			cfg.Trace = tr
			cfg.SnapshotInterval = 10_000
			res, err := RunMulti(cfg, sources("art", "mcf")...)
			if err == nil {
				err = tr.Flush()
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			return struct {
				Res    MultiResult
				Len    int
				Digest uint64
			}{res, buf.Len(), h.Sum64()}, err
		}},
	}
}

// TestGoldenResults pins the simulator's output bit for bit: every case's
// full Result or MultiResult, digested field by field (unexported fields
// included), must equal the digest recorded in testdata. A speed-only
// change to any layer must leave the table untouched; a deliberate
// behaviour change regenerates it with
//
//	go test ./internal/sim -run TestGoldenResults -update-golden
func TestGoldenResults(t *testing.T) {
	cases := goldenCases()
	got := make(map[string]string, len(cases))
	digests := make([]string, len(cases))
	t.Run("cases", func(t *testing.T) {
		for i, gc := range cases {
			i, gc := i, gc
			t.Run(gc.name, func(t *testing.T) {
				t.Parallel()
				res, err := gc.run()
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				digests[i] = fmt.Sprintf("%016x", digestOf(res))
			})
		}
	})
	for i, gc := range cases {
		got[gc.name] = digests[i]
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenResultsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenResultsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenResultsFile)
	if err != nil {
		t.Fatalf("read golden table: %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("parse golden table: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden table has %d cases, the test runs %d", len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, golden %s", name, d, want[name])
		}
	}
}

// digestOf is FNV-1a over every field reachable from v, in declaration
// order: two values DeepEqual exactly when their digests agree, up to
// hash collisions. Pointers are followed, map entries sorted by key.
func digestOf(v any) uint64 {
	h := fnv.New64a()
	digestValue(h, reflect.ValueOf(v))
	return h.Sum64()
}

func digestValue(h hash.Hash64, v reflect.Value) {
	var buf [8]byte
	word := func(x uint64) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Invalid:
		word(0)
	case reflect.Bool:
		if v.Bool() {
			word(1)
		} else {
			word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		word(v.Uint())
	case reflect.Float32, reflect.Float64:
		word(math.Float64bits(v.Float()))
	case reflect.String:
		word(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestValue(h, v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			word(0)
			return
		}
		word(1)
		h.Write([]byte(v.Elem().Type().String()))
		digestValue(h, v.Elem())
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		word(uint64(len(keys)))
		for _, k := range keys {
			digestValue(h, k)
			digestValue(h, v.MapIndex(k))
		}
	default:
		panic(fmt.Sprintf("digestOf: unsupported kind %s", v.Kind()))
	}
}
