package core

import (
	"testing"

	"mlpcache/internal/cache"
	"mlpcache/internal/trace"
)

// BenchmarkL2Access times the L2 tag store and its replacement policy
// alone: one op is one access, so ns/op is ns per access. Each op
// probes the paper's 1 MB 16-way L2 and, on a miss, fills the block
// with its recorded cost, choosing a victim once the set is full. The
// blocks are drawn uniformly from four times the L2's capacity by a
// seeded generator, and one pass over them warms the cache before
// timing, so most accesses miss into a full set. sbar is driven through
// the Hybrid protocol the memory system uses: OnAccess after every
// probe and OnFill after every fill.
func BenchmarkL2Access(b *testing.B) {
	geom := cache.Config{SizeBytes: 1 << 20, Assoc: 16, BlockBytes: 64}
	const n = 1 << 20 // accesses in the recorded stream
	lines := uint64(geom.SizeBytes / geom.BlockBytes)
	rng := trace.NewRNG(42)
	addrs := make([]uint64, n)
	costs := make([]uint8, n)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(int(4*lines))) * geom.BlockBytes
		costs[i] = uint8(rng.Intn(8))
	}
	cases := []struct {
		name  string
		build func() (*cache.Cache, Hybrid)
	}{
		{"lru", func() (*cache.Cache, Hybrid) { return cache.New(geom, cache.NewLRU()), nil }},
		{"lin4", func() (*cache.Cache, Hybrid) { return cache.New(geom, NewLIN(4)), nil }},
		{"sbar", func() (*cache.Cache, Hybrid) {
			l2 := cache.New(geom, nil)
			sets := l2.Config().Sets
			return l2, NewSBAR(l2, SBARConfig{LeaderSets: 32, Lambda: 4, Selector: NewSimpleStatic(sets, 32)})
		}},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			l2, hybrid := bc.build()
			access := func(i int) {
				addr := addrs[i]
				hit := l2.Probe(addr, false)
				if hybrid != nil {
					hybrid.OnAccess(addr, false, hit, !hit)
				}
				if !hit {
					l2.Fill(addr, costs[i], false)
					if hybrid != nil {
						hybrid.OnFill(addr, costs[i])
					}
				}
			}
			for i := range addrs {
				access(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				access(i % n)
			}
		})
	}
}
