package trace

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Int: "int", Mul: "mul", FP: "fp", Div: "div",
		Load: "load", Store: "store", Branch: "branch",
		Kind(99): "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindIsMem(t *testing.T) {
	for k := Int; k < numKinds; k++ {
		want := k == Load || k == Store
		if got := k.IsMem(); got != want {
			t.Errorf("%v.IsMem() = %v, want %v", k, got, want)
		}
	}
}

func TestSliceSource(t *testing.T) {
	ins := []Instr{{Kind: Int}, {Kind: Load, Addr: 64}, {Kind: Branch}}
	s := NewSliceSource(ins)
	for i, want := range ins {
		got, ok := s.Next()
		if !ok || got != want {
			t.Fatalf("instr %d: got %+v ok=%v, want %+v", i, got, ok, want)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("expected end of stream")
	}
	s.Reset()
	if in, ok := s.Next(); !ok || in != ins[0] {
		t.Fatalf("after Reset: got %+v ok=%v", in, ok)
	}
}

func TestLimit(t *testing.T) {
	src := NewStream(StreamConfig{Blocks: 4, Seed: 1})
	lim := NewLimit(src, 7)
	n := 0
	for {
		_, ok := lim.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 7 {
		t.Fatalf("Limit yielded %d instructions, want 7", n)
	}
}

// countingSource is an unbounded Next-only source that counts its calls.
type countingSource struct{ calls int }

func (c *countingSource) Next() (Instr, bool) {
	c.calls++
	return Instr{Kind: Load, Addr: uint64(c.calls)}, true
}

func TestReadBatchFallsBackToNext(t *testing.T) {
	ins := []Instr{{Kind: Int}, {Kind: FP}, {Kind: Load, Addr: 64}, {Kind: Branch, Taken: true}, {Kind: Mul}}
	src := NewSliceSource(ins)
	buf := make([]Instr, 3)
	if n := ReadBatch(src, buf); n != 3 || !slices.Equal(buf, ins[:3]) {
		t.Fatalf("first batch: %d %+v", n, buf[:n])
	}
	if n := ReadBatch(src, buf); n != 2 || !slices.Equal(buf[:2], ins[3:]) {
		t.Fatalf("short batch at end of stream: %d %+v", n, buf[:n])
	}
	if n := ReadBatch(src, buf); n != 0 {
		t.Fatalf("drained source wrote %d", n)
	}
}

func TestLimitNextBatchNeverDrawsPastLimit(t *testing.T) {
	inner := &countingSource{}
	lim := NewLimit(inner, 10)
	buf := make([]Instr, 4)
	var got []int
	for {
		n := ReadBatch(lim, buf)
		got = append(got, n)
		if n < len(buf) {
			break
		}
	}
	if !slices.Equal(got, []int{4, 4, 2}) {
		t.Fatalf("batch sizes %v, want [4 4 2]", got)
	}
	if inner.calls != 10 {
		t.Fatalf("Limit drew %d instructions from its source, want 10", inner.calls)
	}
	if n := ReadBatch(lim, buf); n != 0 || inner.calls != 10 {
		t.Fatalf("exhausted Limit wrote %d and drew %d", n, inner.calls)
	}
}

func TestLimitEndsWithShortSource(t *testing.T) {
	lim := NewLimit(NewSliceSource([]Instr{{Kind: Int}}), 10)
	if got := len(Collect(lim, 100)); got != 1 {
		t.Fatalf("got %d instructions, want 1", got)
	}
}

func TestConcat(t *testing.T) {
	a := NewSliceSource([]Instr{{Kind: Int}, {Kind: FP}})
	b := NewSliceSource([]Instr{{Kind: Load, Addr: 128}})
	got := Collect(NewConcat(a, b), 10)
	if len(got) != 3 || got[0].Kind != Int || got[1].Kind != FP || got[2].Kind != Load {
		t.Fatalf("Concat produced %+v", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(7).Uint64() == NewRNG(8).Uint64() {
		t.Fatal("different seeds should (overwhelmingly) differ")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGBoolExtremes(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

// Property: Perm always returns a permutation of [0, n).
func TestRNGPermProperty(t *testing.T) {
	r := NewRNG(11)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// PermInto must draw exactly what Perm draws, whatever the buffer held
// before, and reuse the buffer whenever it is long enough.
func TestRNGPermIntoMatchesPerm(t *testing.T) {
	var buf []int
	for seed := uint64(1); seed <= 64; seed++ {
		// Visit the sizes in a shuffled order so the buffer both grows
		// and is reused with stale contents.
		for _, n := range NewRNG(seed).Perm(301) {
			want, got := NewRNG(seed*1000+uint64(n)), NewRNG(seed*1000+uint64(n))
			p := want.Perm(n)
			reuse := n > 0 && cap(buf) >= n
			q := got.PermInto(buf, n)
			if !slices.Equal(p, q) {
				t.Fatalf("seed %d n %d: PermInto %v, Perm %v", seed, n, q, p)
			}
			if want.Uint64() != got.Uint64() {
				t.Fatalf("seed %d n %d: PermInto left the generator elsewhere than Perm", seed, n)
			}
			if reuse && &q[0] != &buf[0] {
				t.Fatalf("seed %d n %d: PermInto reallocated a buffer of capacity %d", seed, n, cap(buf))
			}
			if cap(q) > cap(buf) {
				buf = q
			}
		}
	}
}
