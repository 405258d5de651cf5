package trace_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_streams.json from the current code")

const goldenStreamsFile = "testdata/golden_streams.json"

// goldenStream is one pinned instruction stream: build returns a fresh
// source, and the table records the first n instructions it yields (all
// of them when it ends sooner).
type goldenStream struct {
	name  string
	n     int
	build func() trace.Source
}

func goldenStreams() []goldenStream {
	var streams []goldenStream
	// A million instructions reach every model's steady state, including
	// the TwoPass revisit bursts that start between 353k and 692k
	// instructions in.
	for _, name := range workload.Names() {
		spec, _ := workload.ByName(name)
		for _, seed := range []uint64{42, 7} {
			streams = append(streams, goldenStream{
				name:  fmt.Sprintf("%s/seed%d", name, seed),
				n:     1_000_000,
				build: func() trace.Source { return spec.Build(seed) },
			})
		}
	}

	// Finite parts. chase and stream carry dependences the interleavers
	// must rewrite; slice is a plain Next-only source whose dependences
	// reach past its own start and past the rewrite window.
	chase := func(n int, seed uint64) trace.Source {
		return trace.NewLimit(trace.NewPointerChase(trace.ChaseConfig{
			Base: 1 << 33, Blocks: 300, Gap: 5, Touches: 2, Stores: 0.2, FPFrac: 0.3, Mispredict: 0.05, Seed: seed,
		}), n)
	}
	stream := func(n int, seed uint64) trace.Source {
		return trace.NewLimit(trace.NewStream(trace.StreamConfig{
			Base: 2 << 33, Blocks: 500, Gap: 3, Touches: 1, Stores: 0.3, RandomOrder: true, Seed: seed,
		}), n)
	}
	slice := func(n int, seed uint64) trace.Source {
		rng := trace.NewRNG(seed)
		ins := make([]trace.Instr, n)
		for i := range ins {
			ins[i] = trace.Instr{Kind: trace.Kind(rng.Intn(7)), Addr: 3<<33 + uint64(rng.Intn(1<<20)), Dep: int32(rng.Intn(400))}
		}
		return trace.NewSliceSource(ins)
	}
	twoPass := func(n int, seed uint64) trace.Source {
		return trace.NewLimit(trace.NewTwoPass(trace.TwoPassConfig{
			Base: 4 << 33, SegBlocks: 8, LagSegs: 3, ChaseGap: 2, BurstGap: 1, Touches: 1, Seed: seed,
		}), n)
	}

	nested := []goldenStream{
		// 1000 is no multiple of the 64-instruction chunks: both parts
		// run out mid-chunk.
		{name: "mix/mid-chunk", n: 10_000, build: func() trace.Source {
			return trace.NewMix(1,
				trace.MixPart{Src: chase(1000, 1), Weight: 1, Chunk: 64},
				trace.MixPart{Src: stream(1000, 2), Weight: 2, Chunk: 64})
		}},
		// 1024 parts in 64- and 256-instruction chunks run out exactly
		// at a chunk boundary.
		{name: "mix/chunk-boundary", n: 10_000, build: func() trace.Source {
			return trace.NewMix(2,
				trace.MixPart{Src: chase(1024, 3), Weight: 1, Chunk: 64},
				trace.MixPart{Src: stream(1024, 4), Weight: 1, Chunk: 256},
				trace.MixPart{Src: slice(512, 5), Weight: 0.5, Chunk: 256})
		}},
		{name: "mix/single-instruction-chunks", n: 10_000, build: func() trace.Source {
			return trace.NewMix(3,
				trace.MixPart{Src: chase(777, 6), Weight: 1},
				trace.MixPart{Src: slice(333, 7), Weight: 3},
				trace.MixPart{Src: twoPass(900, 8), Weight: 1, Chunk: 5})
		}},
		{name: "phases/mid-phase", n: 10_000, build: func() trace.Source {
			return trace.NewPhases(
				trace.Phase{Src: chase(1000, 9), Len: 300},
				trace.Phase{Src: stream(700, 10), Len: 256},
				trace.Phase{Src: slice(50, 11), Len: 64})
		}},
		{name: "phases/phase-boundary", n: 10_000, build: func() trace.Source {
			return trace.NewPhases(
				trace.Phase{Src: chase(1024, 12), Len: 256},
				trace.Phase{Src: stream(512, 13), Len: 64})
		}},
		// An unbounded phase schedule: the Limit ends it mid-phase.
		{name: "limit/phases", n: 10_000, build: func() trace.Source {
			return trace.NewLimit(trace.NewPhases(
				trace.Phase{Src: trace.NewPointerChase(trace.ChaseConfig{Blocks: 100, Gap: 3, Touches: 1, Seed: 14}), Len: 1000},
				trace.Phase{Src: trace.NewStream(trace.StreamConfig{Blocks: 100, Gap: 2, Seed: 15}), Len: 37}), 5_555)
		}},
		{name: "limit/chunk-boundary", n: 10_000, build: func() trace.Source {
			return trace.NewLimit(trace.NewMix(16,
				trace.MixPart{Src: trace.NewStream(trace.StreamConfig{Blocks: 50, Gap: 1, Seed: 17}), Weight: 1, Chunk: 256},
				trace.MixPart{Src: trace.NewPointerChase(trace.ChaseConfig{Blocks: 50, Gap: 1, Seed: 18}), Weight: 1, Chunk: 256}), 4096)
		}},
		// Everything at once: Mix inside Phases inside Mix, Limits at
		// several levels, parts ending mid-chunk, at chunk boundaries
		// and mid-phase, and the outer Limit ending the stream before
		// the parts run dry.
		{name: "nested/all", n: 40_000, build: func() trace.Source {
			inner := trace.NewMix(19,
				trace.MixPart{Src: chase(2000, 20), Weight: 1, Chunk: 7},
				trace.MixPart{Src: slice(1024, 21), Weight: 1, Chunk: 256},
				trace.MixPart{Src: twoPass(3000, 22), Weight: 1, Chunk: 100})
			ph := trace.NewPhases(
				trace.Phase{Src: inner, Len: 500},
				trace.Phase{Src: stream(4096, 23), Len: 256},
				trace.Phase{Src: trace.NewLimit(trace.NewMix(24,
					trace.MixPart{Src: chase(5000, 25), Weight: 2, Chunk: 13},
					trace.MixPart{Src: slice(300, 26), Weight: 1, Chunk: 1}), 2500), Len: 333})
			return trace.NewLimit(trace.NewMix(27,
				trace.MixPart{Src: ph, Weight: 3, Chunk: 128},
				trace.MixPart{Src: stream(3000, 28), Weight: 1, Chunk: 64},
				trace.MixPart{Src: trace.NewConcat(slice(200, 29), chase(300, 30)), Weight: 1, Chunk: 50}), 12_345)
		}},
	}

	// Parts whose ends fall on each side of the 32- and 64-instruction
	// marks, in one-instruction chunks, in chunks shorter and longer than
	// those marks, and in Phases legs of the same lengths. A part that
	// ends exactly on a mark is drawn again after it has nothing left.
	for _, lens := range [][3]int{{31, 32, 33}, {63, 64, 65}, {127, 128, 129}} {
		nested = append(nested, goldenStream{name: fmt.Sprintf("stage/ones-%d-%d-%d", lens[0], lens[1], lens[2]), n: 10_000, build: func() trace.Source {
			return trace.NewMix(31,
				trace.MixPart{Src: chase(lens[0], 32), Weight: 1},
				trace.MixPart{Src: stream(lens[1], 33), Weight: 2},
				trace.MixPart{Src: slice(lens[2], 34), Weight: 1},
				trace.MixPart{Src: twoPass(lens[1], 35), Weight: 1})
		}})
	}
	for _, chunk := range []int{7, 8, 63, 64, 65} {
		parts := func() []trace.Source {
			return []trace.Source{
				chase(31, 36), stream(32, 37), slice(33, 38),
				twoPass(63, 39), chase(64, 40), slice(65, 41),
			}
		}
		nested = append(nested, goldenStream{name: fmt.Sprintf("stage/mix-chunk%d", chunk), n: 10_000, build: func() trace.Source {
			var mps []trace.MixPart
			for i, src := range parts() {
				mps = append(mps, trace.MixPart{Src: src, Weight: float64(1 + i%3), Chunk: chunk})
			}
			return trace.NewMix(42, mps...)
		}})
		nested = append(nested, goldenStream{name: fmt.Sprintf("stage/phases-len%d", chunk), n: 10_000, build: func() trace.Source {
			var ps []trace.Phase
			for _, src := range parts() {
				ps = append(ps, trace.Phase{Src: src, Len: chunk})
			}
			return trace.NewPhases(ps...)
		}})
	}
	nested = append(nested,
		// Parts that run dry exactly as the 32-instruction mark drains:
		// the slices are drawn again once they hold nothing.
		goldenStream{name: "stage/dry-as-drained", n: 10_000, build: func() trace.Source {
			return trace.NewMix(43,
				trace.MixPart{Src: slice(32, 44), Weight: 5},
				trace.MixPart{Src: slice(64, 45), Weight: 5, Chunk: 8},
				trace.MixPart{Src: chase(40, 46), Weight: 3, Chunk: 8},
				trace.MixPart{Src: stream(1000, 47), Weight: 1, Chunk: 3})
		}},
		goldenStream{name: "stage/phases-len1", n: 10_000, build: func() trace.Source {
			return trace.NewPhases(
				trace.Phase{Src: chase(500, 48), Len: 1},
				trace.Phase{Src: stream(300, 49), Len: 1},
				trace.Phase{Src: slice(200, 50), Len: 2},
				trace.Phase{Src: twoPass(64, 51), Len: 1})
		}},
	)
	return append(streams, nested...)
}

// digest folds an instruction stream into FNV-1a, field by field, and
// counts it.
type digest struct {
	h uint64
	n int
}

func newDigest() digest { return digest{h: 14695981039346656037} }

func (d *digest) add(in trace.Instr) {
	flags := uint64(in.Kind)
	if in.Mispredict {
		flags |= 1 << 8
	}
	if in.Taken {
		flags |= 2 << 8
	}
	d.h = fnvBytes(fnvBytes(fnvBytes(d.h, in.Addr, 8), uint64(uint32(in.Dep)), 4), flags, 2)
	d.n++
}

// fnvBytes folds the low n bytes of v into h, least significant first.
func fnvBytes(h, v uint64, n int) uint64 {
	for range n {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

func (d digest) String() string { return fmt.Sprintf("%016x/%d", d.h, d.n) }

// drawNext digests up to n instructions drawn one Next call at a time.
func drawNext(src trace.Source, n int) digest {
	d := newDigest()
	for d.n < n {
		in, ok := src.Next()
		if !ok {
			break
		}
		d.add(in)
	}
	return d
}

// drawBatches digests up to n instructions drawn through ReadBatch in
// batches of random size, zero included.
func drawBatches(src trace.Source, n int, rng *trace.RNG) digest {
	d := newDigest()
	buf := make([]trace.Instr, 600)
	for d.n < n {
		want := min(rng.Intn(len(buf)+1), n-d.n)
		got := trace.ReadBatch(src, buf[:want])
		for _, in := range buf[:got] {
			d.add(in)
		}
		if got < want {
			break
		}
	}
	return d
}

// drawInterleaved digests up to n instructions drawn by alternating runs
// of Next calls with NextBatch calls of random size.
func drawInterleaved(t *testing.T, src trace.Source, n int, rng *trace.RNG) digest {
	b, ok := src.(trace.Batcher)
	if !ok {
		t.Fatalf("%T does not implement trace.Batcher", src)
	}
	d := newDigest()
	buf := make([]trace.Instr, 300)
	for d.n < n {
		if rng.Bool(0.5) {
			for k := rng.Intn(100); k > 0 && d.n < n; k-- {
				in, ok := src.Next()
				if !ok {
					return d
				}
				d.add(in)
			}
			continue
		}
		want := min(rng.Intn(len(buf)+1), n-d.n)
		got := b.NextBatch(buf[:want])
		for _, in := range buf[:got] {
			d.add(in)
		}
		if got < want {
			break
		}
	}
	return d
}

// TestGoldenStreams pins every instruction the generators and
// interleavers produce: each stream's FNV digest and length must equal
// the ones recorded in testdata, whether the stream is drawn one Next
// call at a time, through ReadBatch in batches of random size, or by
// Next and NextBatch calls interleaved. A speed-only change to the trace
// package must leave the table untouched; a deliberate change to the
// generated workloads regenerates it with
//
//	go test ./internal/trace -run TestGoldenStreams -update-golden
func TestGoldenStreams(t *testing.T) {
	streams := goldenStreams()
	got := make([]string, len(streams))
	t.Run("streams", func(t *testing.T) {
		for i, gs := range streams {
			t.Run(gs.name, func(t *testing.T) {
				t.Parallel()
				got[i] = drawNext(gs.build(), gs.n).String()
				if *updateGolden {
					return
				}
				if d := drawBatches(gs.build(), gs.n, trace.NewRNG(uint64(i))).String(); d != got[i] {
					t.Errorf("drawn through ReadBatch: %s, through Next: %s", d, got[i])
				}
				if d := drawInterleaved(t, gs.build(), gs.n, trace.NewRNG(uint64(i))).String(); d != got[i] {
					t.Errorf("drawn by interleaved Next and NextBatch: %s, through Next: %s", d, got[i])
				}
			})
		}
	})
	if *updateGolden {
		table := make(map[string]string, len(streams))
		for i, gs := range streams {
			table[gs.name] = got[i]
		}
		b, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenStreamsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStreamsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenStreamsFile)
	if err != nil {
		t.Fatalf("read golden table: %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("parse golden table: %v", err)
	}
	if len(want) != len(streams) {
		t.Errorf("golden table has %d streams, the test draws %d", len(want), len(streams))
	}
	for i, gs := range streams {
		if got[i] != want[gs.name] {
			t.Errorf("%s: digest %s, golden %s", gs.name, got[i], want[gs.name])
		}
	}
}
