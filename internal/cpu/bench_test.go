package cpu

import (
	"testing"

	"mlpcache/internal/trace"
)

// programSource replays a fixed program and serves whole batches, as
// the generators do, so a fetch refill costs one copy.
type programSource struct {
	prog []trace.Instr
	pos  int
}

func (s *programSource) Next() (trace.Instr, bool) {
	if s.pos == len(s.prog) {
		return trace.Instr{}, false
	}
	s.pos++
	return s.prog[s.pos-1], true
}

func (s *programSource) NextBatch(buf []trace.Instr) int {
	n := copy(buf, s.prog[s.pos:])
	s.pos += n
	return n
}

// BenchmarkWindow times the core alone, in ns per retired instruction.
// Each op resets one core over a pre-collected 64k-instruction program
// and runs it to the end with idle cycles skipped, as the simulator's
// loop does. resident is the bench l1-resident stream against a fixed
// 2-cycle memory: every completion is due within a few cycles. chase is
// a pointer chase against a fixed 400-cycle memory: every load completes
// far out and most cycles are skipped.
func BenchmarkWindow(b *testing.B) {
	const n = 64 << 10
	cases := []struct {
		name    string
		src     trace.Source
		latency uint64
	}{
		{"resident", trace.NewStream(trace.StreamConfig{
			Blocks: 128, Gap: 6, Touches: 2, FPFrac: 0.3, Mispredict: 0.02, Stores: 0.3, Seed: 42,
		}), 2},
		{"chase", trace.NewPointerChase(trace.ChaseConfig{
			Blocks: 4096, Gap: 10, Touches: 1, Seed: 42,
		}), 400},
	}
	for _, bc := range cases {
		prog := trace.Collect(bc.src, n)
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			mem := &fakeMem{latency: bc.latency}
			src := &programSource{prog: prog}
			c := New(cfg, mem, src)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				src.pos = 0
				c.Reset(cfg, mem, src)
				run(b, c, 1<<40)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(prog)), "ns/instr")
		})
	}
}
