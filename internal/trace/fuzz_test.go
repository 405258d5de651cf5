package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mlpcache/internal/simerr"
)

// FuzzTraceDecode feeds arbitrary bytes to the trace reader. The decoder
// must never panic and never loop forever: it either yields instructions
// with in-range fields or stops with a wrapped simerr.ErrCorruptTrace
// (header failures may also surface io errors, still wrapped).
func FuzzTraceDecode(f *testing.F) {
	// Seed corpus: a valid little trace, the bare header, a truncated
	// header, a corrupt magic, and records with pathological varints.
	var valid bytes.Buffer
	w := NewWriter(&valid)
	for _, in := range []Instr{
		{Kind: Int},
		{Kind: Load, Addr: 0x1000, Dep: 3},
		{Kind: Store, Addr: 0xffff_ffff_0000, Dep: 1},
		{Kind: Branch, Mispredict: true, Taken: true},
	} {
		if err := w.Write(in); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("MLPT\x01"))
	f.Add([]byte("MLPT"))
	f.Add([]byte("XLPT\x01junk"))
	f.Add(append([]byte("MLPT\x01"), 0x17, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add(append([]byte("MLPT\x01"), 0x07)) // invalid kind 7

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, simerr.ErrCorruptTrace) &&
				!errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
				t.Fatalf("reader error not typed: %v", err)
			}
			return
		}
		// The stream is finite, so decoding must terminate well within
		// one instruction per input byte plus slack.
		limit := len(data) + 8
		n := 0
		for {
			in, ok := r.Next()
			if !ok {
				break
			}
			if n++; n > limit {
				t.Fatalf("decoded %d instructions from %d bytes", n, len(data))
			}
			if in.Kind >= numKinds {
				t.Fatalf("decoded out-of-range kind %d", in.Kind)
			}
			if in.Dep < 0 {
				t.Fatalf("decoded negative dep %d", in.Dep)
			}
		}
		if err := r.Err(); err != nil && !errors.Is(err, simerr.ErrCorruptTrace) {
			t.Fatalf("decode error not typed: %v", err)
		}
	})
}

// FuzzTraceRoundTrip encodes a canonicalized instruction pair and checks
// the decode reproduces it exactly.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint64(0x1000), int32(3), true, false, uint8(5), uint64(0x2000), int32(0), false, true)
	f.Add(uint8(0), uint64(0), int32(0), false, false, uint8(6), uint64(1<<40), int32(9), true, true)
	f.Add(uint8(5), ^uint64(0), int32(1<<30), false, false, uint8(4), uint64(1), int32(1), false, false)

	f.Fuzz(func(t *testing.T, k1 uint8, a1 uint64, d1 int32, m1, t1 bool,
		k2 uint8, a2 uint64, d2 int32, m2, t2 bool) {
		canon := func(k uint8, addr uint64, dep int32, mis, taken bool) Instr {
			in := Instr{Kind: Kind(k % uint8(numKinds)), Mispredict: mis, Taken: taken}
			if dep > 0 {
				in.Dep = dep
			}
			// The format carries addresses only for memory ops and
			// taken-address branches; others decode as zero.
			if in.Kind.IsMem() {
				in.Addr = addr
			} else if in.Kind == Branch {
				in.Addr = addr
			}
			return in
		}
		ins := []Instr{
			canon(k1, a1, d1, m1, t1),
			canon(k2, a2, d2, m2, t2),
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, in := range ins {
			if err := w.Write(in); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reading back own encoding: %v", err)
		}
		for i, want := range ins {
			got, ok := r.Next()
			if !ok {
				t.Fatalf("record %d missing: %v", i, r.Err())
			}
			// A branch with Addr 0 encodes without an address; the
			// previous record's delta base makes that decode to the
			// prior address only if flagged, so zero stays zero.
			if got != want {
				t.Fatalf("record %d: got %+v want %+v", i, got, want)
			}
		}
		if _, ok := r.Next(); ok {
			t.Fatal("decoded phantom record")
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzReadBatch builds one random tree of Mix, Phases and Limit over
// finite parts twice: from the production interleavers, drawn by an
// input-chosen schedule of Next runs and batches of assorted sizes, and
// from the per-instruction reference interleavers in gen_test.go, drawn
// one Next call at a time. The two sequences must be identical, end of
// stream included. The input picks the tree's shape, part lengths
// (zero included), chunks, weights and phase lengths, then the draw
// schedule.
func FuzzReadBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 4, 0, 1, 0, 63, 9, 2, 5, 2, 8, 0, 255, 1, 3, 7, 0, 0, 200, 17, 33, 129, 64})
	f.Add([]byte{1, 2, 2, 3, 1, 0, 0, 255, 4, 4, 1, 1, 3, 232, 5, 6, 7, 255, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{2, 4, 0, 1, 7, 255, 10, 1, 11, 0, 3, 2, 2, 1, 1, 12, 40, 3, 1, 0, 0, 9, 99, 100, 3, 170, 0, 85})
	f.Add([]byte{0, 4, 4, 4, 0, 2, 0, 128, 0, 0, 128, 0, 0, 255, 255, 255, 255, 255, 255, 255, 1, 1, 1})
	// Chunks and batches longer than the rewrite window.
	f.Add([]byte{0, 5, 1, 1, 200, 1, 1, 3, 7, 208, 200, 1, 1, 0, 7, 208, 254, 254, 254, 254, 254, 254, 254, 254})
	f.Add([]byte{1, 6, 1, 1, 0, 1, 150, 3, 7, 208, 0, 1, 140, 1, 7, 208, 254, 254, 254, 254, 254, 254, 254, 254})
	// Three-part Mixes whose middle part weighs 3 and 4.
	f.Add([]byte{0, 9, 1, 2, 0, 1, 0, 1, 7, 208, 0, 253, 0, 0, 7, 208, 0, 1, 0, 3, 7, 208, 64, 1, 33, 200, 17, 2})
	f.Add([]byte{0, 9, 1, 2, 0, 1, 0, 1, 7, 208, 0, 254, 0, 0, 7, 208, 0, 1, 0, 3, 7, 208, 64, 1, 33, 200, 17, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{b: data}
		shape := readShape(in, 0)
		sched := in.b // whatever the shape left over drives the draw

		var want []Instr
		ref := shape.build(true)
		for len(want) < fuzzMaxDraw {
			x, ok := ref.Next()
			if !ok {
				break
			}
			want = append(want, x)
		}

		src := shape.build(false)
		got := make([]Instr, 0, len(want))
		buf := make([]Instr, 512)
	draw:
		for step := 0; len(got) < fuzzMaxDraw; step++ {
			op := 194 // past the schedule: fixed batches finish the stream
			if step < len(sched) {
				op = int(sched[step])
			}
			if op&1 == 1 { // a run of 1 to 16 Next calls
				for k := op >> 4; k >= 0; k-- {
					x, ok := src.Next()
					if !ok {
						break draw
					}
					got = append(got, x)
				}
				continue
			}
			size := (op >> 1) * 4 // 0 to 508
			n := ReadBatch(src, buf[:size])
			got = append(got, buf[:n]...)
			if n < size {
				break
			}
		}
		got = got[:min(len(got), fuzzMaxDraw)]
		if len(got) != len(want) {
			t.Fatalf("production drew %d instructions, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("instruction %d: production %+v, reference %+v", i, got[i], want[i])
			}
		}
	})
}

// fuzzMaxDraw bounds how much of a fuzzed stream is compared.
const fuzzMaxDraw = 60_000

// fuzzInput hands out the fuzz input a byte at a time, then zeros.
type fuzzInput struct{ b []byte }

func (in *fuzzInput) next() int {
	if len(in.b) == 0 {
		return 0
	}
	v := in.b[0]
	in.b = in.b[1:]
	return int(v)
}

// fuzzNode is an interleaver in a fuzzed tree: a Mix or a Phases over
// its kids, optionally capped by a Limit.
type fuzzNode struct {
	phases bool
	seed   uint64
	limit  int // 0: no Limit
	kids   []fuzzKid
}

// fuzzKid is one part: a nested interleaver, or a finite leaf.
type fuzzKid struct {
	node   *fuzzNode
	leaf   int // 0 chase, 1 stream, 2 two-pass, 3 Next-only slice
	n      int
	seed   uint64
	chunk  int
	weight float64
	len    int
}

func readShape(in *fuzzInput, depth int) *fuzzNode {
	nd := &fuzzNode{phases: in.next()%2 == 1, seed: uint64(in.next())}
	if b := in.next(); b%3 == 0 {
		nd.limit = b * 40
	}
	kids := 1 + in.next()%4
	for i := 0; i < kids; i++ {
		k := fuzzKid{
			chunk:  2 * in.next(),          // zero: Mix's default chunk of 1
			weight: float64(in.next() % 5), // zero: Mix's default weight of 1
			len:    1 + 2*in.next(),
			seed:   uint64(i + 1),
		}
		if kind := in.next(); kind%5 == 4 && depth < 2 {
			k.node = readShape(in, depth+1)
		} else {
			k.leaf = kind % 4
			k.n = (in.next()<<8 | in.next()) % 2500
		}
		nd.kids = append(nd.kids, k)
	}
	return nd
}

// build instantiates the tree from the reference interleavers or the
// production ones. The leaves are the same production generators in
// both.
func (nd *fuzzNode) build(ref bool) Source {
	var src Source
	if nd.phases {
		ps := make([]Phase, len(nd.kids))
		for i, k := range nd.kids {
			ps[i] = Phase{Src: k.build(ref), Len: k.len}
		}
		if ref {
			src = newRefPhases(ps...)
		} else {
			src = NewPhases(ps...)
		}
	} else {
		ps := make([]MixPart, len(nd.kids))
		for i, k := range nd.kids {
			ps[i] = MixPart{Src: k.build(ref), Weight: k.weight, Chunk: k.chunk}
		}
		if ref {
			src = newRefMix(nd.seed, ps...)
		} else {
			src = NewMix(nd.seed, ps...)
		}
	}
	if nd.limit > 0 {
		src = NewLimit(src, nd.limit)
	}
	return src
}

func (k fuzzKid) build(ref bool) Source {
	if k.node != nil {
		return k.node.build(ref)
	}
	switch k.leaf {
	case 0:
		return NewLimit(NewPointerChase(ChaseConfig{
			Blocks: 64, Gap: int(k.seed % 5), Touches: 1, Stores: 0.2, Mispredict: 0.1, Seed: k.seed,
		}), k.n)
	case 1:
		return NewLimit(NewStream(StreamConfig{
			Blocks: 64, Gap: 2, Touches: 2, Stores: 0.3, RandomOrder: true, Seed: k.seed,
		}), k.n)
	case 2:
		return NewLimit(NewTwoPass(TwoPassConfig{
			SegBlocks: 4, LagSegs: 2, ChaseGap: 1, BurstGap: 2, Touches: 1, Seed: k.seed,
		}), k.n)
	}
	// A plain Next-only source whose dependences reach past its own
	// start and past the rewrite window.
	rng := NewRNG(k.seed)
	ins := make([]Instr, k.n)
	for i := range ins {
		ins[i] = Instr{Kind: Kind(rng.Intn(int(numKinds))), Addr: uint64(rng.Intn(1 << 16)), Dep: int32(rng.Intn(2 * depWindow))}
	}
	return NewSliceSource(ins)
}
