// Package oracle is the offline replacement-oracle engine: it captures
// the live L2 demand-access stream (via sim.Config.Capture) into a
// compact access log and replays it, untimed, under oracles the online
// policies can be measured against. Compare replays it under three
// rules in one pass over the log: classic Belady/OPT, which minimizes
// miss count — the objective the paper's Section 2 and Figure 1 argue
// is the wrong one; a cost-weighted Belady variant that minimizes the
// summed quantized mlp-cost the live run actually accrued — the paper's
// objective; and an EHC-style expected-hit-count predictor (a
// realizable midpoint between the oracles and the online policies,
// after "Making Belady-Inspired Replacement Policies More Effective
// Using Expected Hit Count"). The generalization starts from
// cache.SimulateOPT, the Figure 1 worked example's fully-associative
// OPT, and extends it to the full per-set geometry of the live L2 with
// per-access cost weights.
package oracle

import (
	"mlpcache/internal/blockmap"
	"mlpcache/internal/core"
	"mlpcache/internal/sim"
)

// Record is one captured L2 demand access.
type Record struct {
	// Block is the L2 block number (the live L2 maps it to set
	// block % sets, and the replays use the same mapping).
	Block uint64
	// CostQ is the access's quantized mlp-cost if it misses: for a
	// captured hit, the resident line's stored cost (what the block's
	// own miss accrued); for a captured miss or merge, the cost
	// Algorithm 1 computed when the miss's fill serviced it. A miss
	// still in flight when the run ended keeps 0.
	CostQ uint8
	// Kind is the access's live outcome (hit, primary miss, merge).
	Kind sim.AccessKind
}

// Log is a captured access stream plus the live run's own accounting
// over it, so replays can be compared against what actually happened.
type Log struct {
	Records []Record
	// LiveMisses counts captured primary demand misses — equal to the
	// run's MemStats.DemandMisses.
	LiveMisses uint64
	// LiveCost sums the quantized cost over serviced captured misses —
	// equal to the run's MemStats.CostQSum.
	LiveCost uint64
}

// Accesses returns the number of captured accesses.
func (l *Log) Accesses() uint64 { return uint64(len(l.Records)) }

// LogFromBlocks builds a log from a bare block stream with unit cost
// per access — miss count and summed cost coincide, which makes the
// classic and cost-weighted replays directly comparable to
// cache.SimulateOPT (tests use this).
func LogFromBlocks(blocks []uint64) *Log {
	log := &Log{Records: make([]Record, len(blocks))}
	for i, b := range blocks {
		log.Records[i] = Record{Block: b, CostQ: 1, Kind: sim.AccessMiss}
	}
	return log
}

// Blocks returns the captured block stream in order: the offline
// trainer's input (learn.Train), so training replays the exact demand
// stream the live run saw (docs/ORACLE.md, "Capture as training data").
func (l *Log) Blocks() []uint64 {
	out := make([]uint64, len(l.Records))
	for i, rec := range l.Records {
		out[i] = rec.Block
	}
	return out
}

// Capture implements sim.AccessObserver: it appends one Record per L2
// demand access and patches miss/merge records with the accrued cost
// when the miss's fill computes it (the fill-time OnMissCost call). Set
// it as Config.Capture, run, then read Log.
type Capture struct {
	log Log
	// pending maps an in-flight block to its newest unpatched miss or
	// merge record, as an index into links; each link names its record
	// and the block's previous link (-1 ends the chain). A fill patches
	// the chain and returns its links to the free list headed by free,
	// so the links in use never outnumber the records in flight.
	pending *blockmap.Table[int]
	links   []pendingLink
	free    int
}

// pendingLink is one unpatched record in a block's chain.
type pendingLink struct{ rec, prev int }

// NewCapture returns an empty capture sink.
func NewCapture() *Capture {
	return &Capture{pending: blockmap.New[int](64), free: -1}
}

// OnL2Access implements sim.AccessObserver.
func (c *Capture) OnL2Access(block uint64, kind sim.AccessKind, costQ uint8) {
	if costQ > core.CostQMax {
		costQ = core.CostQMax
	}
	c.log.Records = append(c.log.Records, Record{Block: block, CostQ: costQ, Kind: kind})
	switch kind {
	case sim.AccessMiss:
		c.log.LiveMisses++
		c.hold(block)
	case sim.AccessMerge:
		c.hold(block)
	}
}

// hold chains the newest record onto block's unpatched ones.
func (c *Capture) hold(block uint64) {
	prev, ok := c.pending.Get(block)
	if !ok {
		prev = -1
	}
	link := pendingLink{rec: len(c.log.Records) - 1, prev: prev}
	i := c.free
	if i >= 0 {
		c.free = c.links[i].prev
		c.links[i] = link
	} else {
		i = len(c.links)
		c.links = append(c.links, link)
	}
	c.pending.Put(block, i)
}

// OnMissCost implements sim.AccessObserver: the block's fill computed
// its accrued quantized cost, so every pending record for the block is
// patched and the live cost sum advances — once per serviced fill,
// matching MemStats.CostQSum.
func (c *Capture) OnMissCost(block uint64, costQ uint8) {
	if costQ > core.CostQMax {
		costQ = core.CostQMax
	}
	if i, ok := c.pending.Get(block); ok {
		for i >= 0 {
			link := c.links[i]
			c.log.Records[link.rec].CostQ = costQ
			c.links[i].prev, c.free = c.free, i
			i = link.prev
		}
		c.pending.Delete(block)
	}
	c.log.LiveCost += uint64(costQ)
}

// Log returns the captured stream. Call it after the run completes;
// misses still in flight at the end keep cost 0, exactly as the live
// run never accounted them either.
func (c *Capture) Log() *Log { return &c.log }
