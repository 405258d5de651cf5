package sim

import "testing"

// BenchmarkFillHeap times the pending-fill heap in ns per op, one Pop
// and one Push, at the population the default MSHR file bounds it to:
// each op services the earliest fill and reissues it as a miss due 444
// to 699 cycles later, the spread bank and bus queueing give DRAM reads.
func BenchmarkFillHeap(b *testing.B) {
	fills := make([]fill, DefaultConfig().MSHR.Entries)
	var h fillHeap
	for i := range fills {
		fills[i].done = uint64(444 + 8*i)
		h.Push(&fills[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range uint64(b.N) {
		f := h.Pop()
		f.done += 444 + i*37%256
		h.Push(f)
	}
}
