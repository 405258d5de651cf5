package workload

import (
	"runtime/debug"
	"testing"

	"mlpcache/internal/trace"
)

// TestBuildAllocations pins how many allocations building each model's
// source takes, so a per-part buffer that moves from the part's fixed
// fields to the heap shows here, in the package that builds the
// sources, and not only in a whole run's count. The collector is off
// while counting, as in sim's TestWarmRunAllocations: a GC cycle that
// starts mid-build allocates on its own account.
func TestBuildAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	want := map[string]float64{
		"art": 20, "mcf": 24, "twolf": 22, "vpr": 32, "facerec": 21, "ammp": 27, "galgel": 26,
		"equake": 28, "bzip2": 18, "parser": 28, "sixtrack": 23, "apsi": 23, "lucas": 23, "mgrid": 31,
	}
	for _, spec := range All() {
		got := testing.AllocsPerRun(5, func() { spec.Build(42) })
		if w, ok := want[spec.Name]; !ok || got != w {
			t.Errorf("%s: Build allocates %v times, want %v", spec.Name, got, w)
		}
	}
}

// BenchmarkSupply times each model's instruction supply alone: one op is
// one fetch-sized trace.ReadBatch from a source built before the timer
// starts, the path the core's fetch stage reads, reported in ns per
// instruction.
func BenchmarkSupply(b *testing.B) {
	const batch = 256
	for _, spec := range All() {
		b.Run(spec.Name, func(b *testing.B) {
			src := spec.Build(42)
			buf := make([]trace.Instr, batch)
			b.ResetTimer()
			for range b.N {
				if n := trace.ReadBatch(src, buf); n != batch {
					b.Fatalf("read %d of %d instructions", n, batch)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/instr")
		})
	}
}
