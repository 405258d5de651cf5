// Package prefetch implements a stride prefetcher for the L2, the classic
// MLP-generating mechanism the paper's Section 2 groups with out-of-order
// execution and runahead. Prefetching interacts with MLP-aware
// replacement in two ways this package makes observable:
//
//  1. Prefetch requests occupy MSHR entries but are not demand misses, so
//     Algorithm 1 must not charge them MLP-based cost (the MSHR's demand
//     flag and demand-upgrade path model exactly this);
//  2. successful prefetches convert would-be parallel misses into hits,
//     concentrating the remaining misses into the expensive isolated
//     region — which shifts the Figure 2 distribution rightward and makes
//     cost-aware replacement matter more, not less.
//
// The design is a standard reference-prediction table: per-stream entries
// keyed by a hash of the accessing block's region, tracking the last
// address and a confirmed stride with 2-bit confidence.
package prefetch

import "mlpcache/internal/simerr"

// Config parameterizes the stride prefetcher.
type Config struct {
	// Streams is the number of tracked streams (table entries).
	Streams int
	// Degree is how many blocks to prefetch per trigger once a stride
	// is confirmed.
	Degree int
	// Distance is how far ahead (in strides) the prefetch window
	// starts. With a 444-cycle memory, adjacent-block prefetches are
	// almost always late; a distance of several strides gives the
	// request time to complete before the demand stream arrives.
	Distance int
}

// regionBits groups addresses into streams by their high bits: 64 KB
// regions.
const regionBits = 16

// Validate checks the configuration, wrapping failures in
// simerr.ErrBadConfig. Degree and Distance have defaults applied by
// New, so only Streams can be invalid.
func (c Config) Validate() error {
	if c.Streams <= 0 {
		return simerr.New(simerr.ErrBadConfig, "prefetch: Streams must be positive, got %d", c.Streams)
	}
	return nil
}

// DefaultConfig returns a 16-stream, degree-4, distance-12 prefetcher.
func DefaultConfig() Config {
	return Config{Streams: 16, Degree: 4, Distance: 12}
}

// Stats counts prefetcher activity. Accuracy is confirmed hits over
// issued prefetches (tracked by the consumer).
type Stats struct {
	// Trains counts table updates; Confirms counts stride confirmations.
	Trains   uint64
	Confirms uint64
	// Issued counts prefetch addresses produced.
	Issued uint64
}

type streamEntry struct {
	valid      bool
	region     uint64
	lastBlock  uint64
	stride     int64
	confidence uint8 // 0..3; issue at >= 2
	lastUse    uint64
}

// Prefetcher is the stride engine. Feed every demand L2 access through
// Observe; it returns the block addresses to prefetch (possibly none).
type Prefetcher struct {
	cfg     Config
	entries []streamEntry
	seq     uint64
	stats   Stats
	out     []uint64 // reused output buffer
}

// New builds a prefetcher. It panics (with a typed
// simerr.ErrBadConfig error) on an invalid configuration; validate
// externally-sourced configs with Config.Validate first.
func New(cfg Config) *Prefetcher {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 1
	}
	if cfg.Distance <= 0 {
		cfg.Distance = 1
	}
	return &Prefetcher{cfg: cfg, entries: make([]streamEntry, cfg.Streams)}
}

// Stats returns the activity counters.
func (p *Prefetcher) Stats() Stats { return p.stats }

// Observe trains on a demand access to the given block number and returns
// the blocks to prefetch. The returned slice is reused across calls.
func (p *Prefetcher) Observe(block uint64) []uint64 {
	p.seq++
	p.stats.Trains++
	region := block >> (regionBits - 6) // block-granular region id

	// Find the stream entry for this region, or victimize the LRU one.
	idx := -1
	lru := 0
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.region == region {
			idx = i
			break
		}
		if !e.valid || e.lastUse < p.entries[lru].lastUse {
			lru = i
		}
	}
	if idx < 0 {
		p.entries[lru] = streamEntry{valid: true, region: region, lastBlock: block, lastUse: p.seq}
		return nil
	}

	e := &p.entries[idx]
	e.lastUse = p.seq
	stride := int64(block) - int64(e.lastBlock)
	e.lastBlock = block
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.confidence < 3 {
			e.confidence++
		}
		if e.confidence == 2 {
			p.stats.Confirms++
		}
	} else {
		e.stride = stride
		e.confidence = 0
		return nil
	}
	if e.confidence < 2 {
		return nil
	}

	p.out = p.out[:0]
	next := int64(block) + stride*int64(p.cfg.Distance-1)
	for d := 0; d < p.cfg.Degree; d++ {
		next += stride
		if next < 0 {
			break
		}
		p.out = append(p.out, uint64(next))
		p.stats.Issued++
	}
	return p.out
}
