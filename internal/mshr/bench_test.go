package mshr

import "testing"

// BenchmarkMSHR times the miss file's two cost paths with 16 demand
// misses outstanding, in ns per op. exact is one Free and one Allocate
// through the exact-mode cost clock: each op frees the oldest miss and
// allocates its block again a cycle after the last op. adders is one
// adder-mode Tick, the paper's four time-shared adders visiting the
// outstanding entries.
func BenchmarkMSHR(b *testing.B) {
	const outstanding = 16
	b.Run("exact", func(b *testing.B) {
		m := New(Config{Entries: 32})
		for blk := range uint64(outstanding) {
			m.Allocate(blk, true, blk)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range uint64(b.N) {
			blk, cycle := i%outstanding, outstanding+i
			if _, err := m.Free(blk, cycle); err != nil {
				b.Fatal(err)
			}
			m.Allocate(blk, true, cycle)
		}
	})
	b.Run("adders", func(b *testing.B) {
		m := New(Config{Entries: 32, Adders: 4})
		for blk := range uint64(outstanding) {
			m.Allocate(blk, true, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range uint64(b.N) {
			m.Tick(1 + i)
		}
	})
}
