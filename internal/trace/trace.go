// Package trace defines the instruction-stream representation consumed by
// the timing simulator, together with deterministic generators that build
// synthetic workloads and a compact binary on-disk encoding.
//
// A trace is a sequence of Instr records. Memory instructions carry a byte
// address; every instruction may carry a register dependence expressed as a
// backward distance in instructions. The dependence distance is what lets
// the out-of-order core model distinguish pointer-chasing loads (each load
// depends on the previous one, so their misses serialize and become
// "isolated misses" in the paper's terminology) from streaming loads (no
// dependences, so their misses overlap inside the instruction window and
// become "parallel misses") — the Figure 1 distinction the whole paper
// builds on (Section 2).
package trace

// Kind classifies an instruction for the timing model.
type Kind uint8

// Instruction kinds. Latencies follow the paper's Table 2: all INT
// instructions except multiply take 1 cycle, INT multiply takes 8, FP
// operations take 4 except divide at 16. Loads and stores are timed by the
// memory hierarchy; branches resolve in one cycle plus any misprediction
// penalty.
const (
	Int Kind = iota
	Mul
	FP
	Div
	Load
	Store
	Branch

	numKinds
)

var kindNames = [...]string{"int", "mul", "fp", "div", "load", "store", "branch"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// IsMem reports whether the instruction accesses data memory.
func (k Kind) IsMem() bool { return k == Load || k == Store }

// Instr is one dynamic instruction.
type Instr struct {
	// Addr is the byte address accessed by a Load or Store; zero otherwise.
	Addr uint64
	// Dep is the backward distance, in dynamic instructions, to the
	// producer of this instruction's source operand. Zero means the
	// instruction has no unresolved register dependence. A load with
	// Dep == 1 cannot issue until the immediately preceding instruction
	// completes.
	Dep int32
	// Kind selects the functional-unit timing class.
	Kind Kind
	// Mispredict marks a branch the front end mispredicts (oracle
	// mode, the default). When the simulator runs a real branch
	// predictor instead, it uses Taken — the branch's actual outcome —
	// and Addr, which for branches holds the static branch id.
	Mispredict bool
	// Taken is the branch's actual direction (predictor mode).
	Taken bool
}

// Source produces a stream of instructions. Implementations may be finite
// (Next reports false at end of stream) or unbounded (workload generators
// never report false; callers bound the run by instruction count).
type Source interface {
	Next() (Instr, bool)
}

// Batcher is implemented by sources that can produce a run of
// instructions in one call, sparing the simulator's fetch stage a call
// per instruction. NextBatch fills buf from the front and returns how
// many instructions it wrote: fewer than len(buf) only at end of stream.
// Next and NextBatch draw from the same stream and may be interleaved.
type Batcher interface {
	NextBatch(buf []Instr) int
}

// ReadBatch fills buf from src and returns how many instructions it
// wrote, fewer than len(buf) only at end of stream. A source without
// NextBatch is read one Next call at a time.
func ReadBatch(src Source, buf []Instr) int {
	if b, ok := src.(Batcher); ok {
		return b.NextBatch(buf)
	}
	for i := range buf {
		in, ok := src.Next()
		if !ok {
			return i
		}
		buf[i] = in
	}
	return len(buf)
}

// SliceSource replays a fixed slice of instructions once.
type SliceSource struct {
	instrs []Instr
	pos    int
}

// NewSliceSource returns a Source that yields each element of instrs in
// order, then reports end of stream. The slice is not copied.
func NewSliceSource(instrs []Instr) *SliceSource {
	return &SliceSource{instrs: instrs}
}

func (s *SliceSource) Next() (Instr, bool) {
	if s.pos >= len(s.instrs) {
		return Instr{}, false
	}
	in := s.instrs[s.pos]
	s.pos++
	return in, true
}

// Reset rewinds the source to the beginning of the slice.
func (s *SliceSource) Reset() { s.pos = 0 }

// Collect drains up to n instructions from src into a new slice. It stops
// early if the source ends.
func Collect(src Source, n int) []Instr {
	out := make([]Instr, 0, n)
	for len(out) < n {
		in, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	return out
}

// Limit wraps src so that at most n instructions are produced.
type Limit struct {
	src  Source
	left int
}

// NewLimit returns a Source producing at most n instructions from src.
func NewLimit(src Source, n int) *Limit {
	return &Limit{src: src, left: n}
}

func (l *Limit) Next() (Instr, bool) {
	if l.left <= 0 {
		return Instr{}, false
	}
	in, ok := l.src.Next()
	if !ok {
		l.left = 0
		return Instr{}, false
	}
	l.left--
	return in, true
}

// NextBatch reads at most the remaining allowance from the wrapped
// source, so a Limit never draws past its n.
func (l *Limit) NextBatch(buf []Instr) int {
	want := min(len(buf), max(l.left, 0))
	n := ReadBatch(l.src, buf[:want])
	if n < want {
		l.left = 0
	} else {
		l.left -= n
	}
	return n
}

// Concat yields every instruction of each source in turn.
type Concat struct {
	srcs []Source
}

// NewConcat returns a Source that drains each of srcs in order.
func NewConcat(srcs ...Source) *Concat {
	return &Concat{srcs: srcs}
}

func (c *Concat) Next() (Instr, bool) {
	for len(c.srcs) > 0 {
		in, ok := c.srcs[0].Next()
		if ok {
			return in, true
		}
		c.srcs = c.srcs[1:]
	}
	return Instr{}, false
}
