package dram

import "testing"

// BenchmarkDRAM times one Read at the default configuration in ns per
// op. Blocks stride across the 32 banks and a read is issued every 44
// cycles, the bus's transfer time, so the bank and bus queues stay
// bounded however long the benchmark runs.
func BenchmarkDRAM(b *testing.B) {
	d := New(Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := range uint64(b.N) {
		d.Read(7*i, 44*i)
	}
}
