package sim

import (
	"math/bits"

	"mlpcache/internal/audit"
	"mlpcache/internal/blockmap"
	"mlpcache/internal/cache"
	"mlpcache/internal/core"
	"mlpcache/internal/cpu"
	"mlpcache/internal/dram"
	"mlpcache/internal/faultinject"
	"mlpcache/internal/metrics"
	"mlpcache/internal/mshr"
	"mlpcache/internal/prefetch"
	"mlpcache/internal/stats"
	"mlpcache/internal/trace"
)

// clockTracer stamps outgoing events with the current cycle and the
// issuing core before forwarding them. The replacement policies emit
// victim, contest and PSEL events without a notion of time or thread;
// the memory system keeps now and tid current so the exported stream is
// fully ordered and carries the thread that caused each event. psel.update
// events are exempt from tid stamping — the selector is partitioned per
// thread and SBAR tags those events with the counter's owner itself,
// which can legitimately differ from the core whose fill is being
// serviced (a deferred leader-contest decrement).
type clockTracer struct {
	dst metrics.Tracer
	now uint64
	tid int
}

func (t *clockTracer) Emit(ev metrics.Event) {
	if ev.Cycle == 0 {
		ev.Cycle = t.now
	}
	if ev.Tid == 0 && ev.Type != metrics.EventPselUpdate {
		ev.Tid = t.tid
	}
	t.dst.Emit(ev)
}

// MemStats aggregates the memory-side counters the experiments consume.
type MemStats struct {
	// DemandMisses counts primary L2 demand misses (serviced by DRAM).
	DemandMisses uint64
	// MergedMisses counts L2 misses that merged into an in-flight MSHR
	// entry for the same block.
	MergedMisses uint64
	// CompulsoryMisses counts first-ever references among DemandMisses.
	CompulsoryMisses uint64
	// L1WritebackDrops counts dirty L1 evictions whose block was absent
	// from L2 (the data is dropped; only a counter in this model).
	L1WritebackDrops uint64
	// CostQSum accumulates quantized costs over serviced misses, for
	// average-cost_q reporting.
	CostQSum uint64
	// Prefetch accounting: issued requests, those dropped for lack of
	// an MSHR entry, fills later hit by demand (useful), fills evicted
	// unused, and in-flight prefetches a demand access merged into
	// (late — the access still waits, but less).
	PrefetchIssued  uint64
	PrefetchDropped uint64
	PrefetchUseful  uint64
	PrefetchUnused  uint64
	PrefetchLate    uint64
	// TrackedBlocks is the final population of the flat per-block
	// footprint store (distinct blocks ever demand-missed or
	// prefetched). The store grows with the application's footprint and
	// is never pruned, so this doubles as the memory system's own memory
	// footprint gauge; exported as sim.mem.tracked_blocks.
	TrackedBlocks uint64
}

// add accumulates o's counters into s. TrackedBlocks is a chip-wide
// gauge, not a per-core counter, so it is left alone.
func (s *MemStats) add(o MemStats) {
	s.DemandMisses += o.DemandMisses
	s.MergedMisses += o.MergedMisses
	s.CompulsoryMisses += o.CompulsoryMisses
	s.L1WritebackDrops += o.L1WritebackDrops
	s.CostQSum += o.CostQSum
	s.PrefetchIssued += o.PrefetchIssued
	s.PrefetchDropped += o.PrefetchDropped
	s.PrefetchUseful += o.PrefetchUseful
	s.PrefetchUnused += o.PrefetchUnused
	s.PrefetchLate += o.PrefetchLate
}

// DeltaStats is the Table 1 measurement: the distribution of the absolute
// difference in mlp-cost between successive misses to the same block.
type DeltaStats struct {
	Lt60      uint64
	Ge60Lt120 uint64
	Ge120     uint64
	sum       float64
}

// Samples returns the number of deltas observed.
func (d DeltaStats) Samples() uint64 { return d.Lt60 + d.Ge60Lt120 + d.Ge120 }

// Mean returns the average delta in cycles.
func (d DeltaStats) Mean() float64 {
	if n := d.Samples(); n > 0 {
		return d.sum / float64(n)
	}
	return 0
}

// PercentLt60 etc. return each class's share in percent.
func (d DeltaStats) PercentLt60() float64      { return d.pct(d.Lt60) }
func (d DeltaStats) PercentGe60Lt120() float64 { return d.pct(d.Ge60Lt120) }
func (d DeltaStats) PercentGe120() float64     { return d.pct(d.Ge120) }

func (d DeltaStats) pct(c uint64) float64 {
	if n := d.Samples(); n > 0 {
		return 100 * float64(c) / float64(n)
	}
	return 0
}

func (d *DeltaStats) add(delta float64) {
	switch {
	case delta < 60:
		d.Lt60++
	case delta < 120:
		d.Ge60Lt120++
	default:
		d.Ge120++
	}
	d.sum += delta
}

// fill is a pending DRAM→L2 fill. owner is the core whose access issued
// the primary miss (or the prefetch); sharers is the bitmask of cores
// with an MSHR entry waiting on the block, owner's bit included. owner
// is a byte (MaxCores is 64) so the struct stays 32 bytes: a 40-byte
// fill lands in the 48-byte size class, where half the objects straddle
// a cache line and the miss path's fill writes become split stores.
type fill struct {
	done     uint64
	addr     uint64
	sharers  uint64
	owner    uint8
	write    bool // a store touched the block while the miss was in flight
	prefetch bool // still a pure prefetch (no demand access merged)
}

// blockInfo is the per-block record in the memory system's flat
// footprint store: everything the miss path remembers about a block
// across its whole lifetime.
type blockInfo struct {
	seen       bool    // block has demand-missed before (compulsory classification)
	hasCost    bool    // lastCost holds a valid previous cost
	prefetched bool    // resident via a prefetch no demand access has hit yet
	lastCost   float64 // previous mlp-cost (Table 1 successive-miss deltas)
}

// fillHeap is a concrete min-heap of pending fills ordered by completion
// cycle. It inlines container/heap's exact sift traversals (so heap order
// — and therefore fill service order among equal completion cycles — is
// bit-identical to the interface-based version it replaces) without the
// any-boxing and indirect calls of the container/heap protocol. Pop nils
// the vacated tail slot so the backing array never retains a serviced
// fill.
type fillHeap struct{ h []*fill }

func (h *fillHeap) Len() int    { return len(h.h) }
func (h *fillHeap) Peek() *fill { return h.h[0] }

func (h *fillHeap) Push(f *fill) {
	h.h = append(h.h, f)
	j := len(h.h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if h.h[j].done >= h.h[i].done {
			break
		}
		h.h[i], h.h[j] = h.h[j], h.h[i]
		j = i
	}
}

func (h *fillHeap) Pop() *fill {
	n := len(h.h) - 1
	h.h[0], h.h[n] = h.h[n], h.h[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.h[j2].done < h.h[j].done {
			j = j2
		}
		if h.h[j].done >= h.h[i].done {
			break
		}
		h.h[i], h.h[j] = h.h[j], h.h[i]
		i = j
	}
	out := h.h[n]
	h.h[n] = nil // release the slot; the fill returns to the freelist
	h.h = h.h[:n]
	return out
}

// corePort is one core of the machine: its CPU model, and its private L1,
// MSHR file and optional prefetcher in front of the shared L2. It
// implements cpu.MemSystem for that core. Keeping the MSHR per core
// keeps Algorithm 1's cost clock per thread: each cycle divides among
// that core's own outstanding demand misses, so mlp-cost measures the
// issuing thread's overlap, not the whole chip's. The prefetcher trains
// on this core's L2 demand stream and issues into this core's MSHR.
type corePort struct {
	m    *memSystem
	tid  int
	l1   *cache.Cache
	mshr *mshr.MSHR
	pf   *prefetch.Prefetcher // nil: prefetching off

	cpu     *cpu.CPU
	src     trace.Source // the caller's source, checked for a deferred decode error
	retired uint64
	// wake is the next cycle the run loop steps this core: the cycle
	// after one in which it worked, else its NextEvent. ran is the last
	// cycle it was stepped or credited through; the cycles it sleeps
	// after ran are credited, not stepped (credit).
	wake, ran uint64

	mstats   MemStats // this core's counters
	costSum  float64  // summed mlp-cost over this core's serviced misses
	costHist *stats.Histogram
}

// credit attributes the cycles after ran through the given cycle to the
// core's stall counters, as stepping it idle through them would, and
// marks it run through that cycle.
func (p *corePort) credit(through uint64) {
	if through > p.ran {
		p.cpu.NoteSkipped(through - p.ran)
		p.ran = through
	}
}

// memSystem is the machine every run executes on: one port per core,
// each with a private L1, MSHR file and prefetcher, in front of one
// shared L2, one shared DRAM and one replacement engine. A single-core
// run is the one-port case. It also owns the run loop's optional
// instruments — access capture, fault injection, tracer, auditor and
// the Figure 11 series — so sim.Run and sim.RunMulti differ only in how
// they assemble their results.
type memSystem struct {
	cfg    Config
	l2     *cache.Cache
	dram   *dram.DRAM
	hybrid core.Hybrid
	// sbar is the hybrid downcast when the selector is partitioned per
	// thread (SBAR with Threads > 1); nil otherwise (DIP and CBS keep a
	// single shared counter, as documented in docs/MULTICORE.md).
	sbar *core.SBAR

	ports []corePort

	fills    fillHeap
	inflight *blockmap.Table[*fill] // block → pending fill; bounded by the MSHRs
	fillFree []*fill                // serviced fills recycled into new misses

	// tracked is the flat per-block footprint store, replacing the three
	// block-keyed Go maps the miss path used to touch (seen, lastCost,
	// prefetched). One probe finds all of a block's history. Compulsory-
	// miss classification and Table 1 deltas are block properties, so
	// the store is chip-wide even though cost accounting is per thread.
	// Its population grows with the run's distinct-block footprint and
	// is never pruned — by design, since compulsory-miss classification
	// needs full history; the final size is exported as the
	// sim.mem.tracked_blocks gauge so runs can watch the footprint.
	tracked *blockmap.Table[blockInfo]

	costHist *stats.Histogram // aggregate Figure 2 distribution
	delta    DeltaStats       // Table 1 deltas over the shared block store

	// crossMerges counts demand misses that joined another core's
	// in-flight miss (exported as multicore.cross_core_merges).
	crossMerges uint64

	// inj, when non-nil, perturbs DRAM latencies (fault injection). A
	// nil injector is inert, so the hot path needs no flag check.
	inj *faultinject.Injector

	// tr, when non-nil, receives the miss-lifecycle event stream and is
	// shared (cycle- and thread-stamped) with the replacement policies.
	tr *clockTracer

	// capture, when non-nil, receives the L2 demand-access stream for
	// offline oracle replay (Config.Capture).
	capture AccessObserver

	auditor *audit.Auditor
	series  *SeriesSet // non-nil when Config.SampleInterval is set
}

// newMemSystem builds the machine for one instruction source per core,
// drawing its bulk components from cfg.Arena.
func newMemSystem(cfg Config, srcs []trace.Source) (*memSystem, error) {
	cores := len(srcs)
	l2, hybrid, err := buildL2(cfg, cores)
	if err != nil {
		return nil, err
	}
	m := &memSystem{
		cfg:      cfg,
		l2:       l2,
		dram:     dram.New(cfg.DRAM),
		hybrid:   hybrid,
		inflight: cfg.Arena.getInflightTable(cores * cfg.MSHR.Entries),
		tracked:  cfg.Arena.getTrackedTable(256),
		costHist: stats.NewHistogram(60, 8),
		capture:  cfg.Capture,
	}
	m.fills.h, m.fillFree = cfg.Arena.getFills()
	if s, ok := hybrid.(*core.SBAR); ok && s.Threads() > 1 {
		m.sbar = s
	}
	if cfg.Faults != nil && cfg.Faults.Active() {
		m.inj = faultinject.NewInjector(*cfg.Faults)
	}
	if cfg.Trace != nil {
		// SBAR and CBS install themselves as the L2's policy and pass
		// the tracer on to their LIN contestant; a bare LIN traces its
		// own victims.
		m.tr = &clockTracer{dst: cfg.Trace}
		if p, ok := l2.Policy().(interface{ SetTracer(metrics.Tracer) }); ok {
			p.SetTracer(m.tr)
		}
	}
	m.ports = cfg.Arena.getPorts(cores)
	for i, src := range srcs {
		p := &m.ports[i]
		*p = corePort{
			m:        m,
			tid:      i,
			l1:       cfg.Arena.getCache(cfg.L1, cache.NewLRU()),
			mshr:     cfg.Arena.getMSHR(cfg.MSHR),
			src:      src,
			costHist: m.costHist, // a lone core's distribution is the aggregate
		}
		if cores > 1 {
			p.costHist = stats.NewHistogram(60, 8)
		}
		if cfg.Prefetch != nil {
			p.pf = prefetch.New(*cfg.Prefetch)
		}
		if cfg.MaxInstructions > 0 {
			src = trace.NewLimit(src, int(cfg.MaxInstructions))
		}
		p.cpu = cfg.Arena.getCPU(cfg.CPU, p, src)
	}
	if cfg.Audit {
		m.auditor = m.buildAuditor()
	}
	if cfg.SampleInterval > 0 {
		m.series = &SeriesSet{
			AvgCostQ:      stats.Series{Name: "avg-costq-per-miss"},
			MPKI:          stats.Series{Name: "mpki"},
			IPC:           stats.Series{Name: "ipc"},
			UsingLIN:      stats.Series{Name: "lin-selected"},
			PselValue:     stats.Series{Name: "psel-value"},
			MSHROccupancy: stats.Series{Name: "mshr-occupancy"},
		}
	}
	return m, nil
}

// newFill builds a pending fill with the owner's sharer bit set,
// recycling a serviced one from the freelist when available so
// steady-state miss traffic allocates nothing: the live fill population
// is bounded by the MSHRs, and every serviced fill returns to the list.
func (m *memSystem) newFill(done, addr uint64, write, prefetch bool, owner int) *fill {
	var f *fill
	if n := len(m.fillFree); n > 0 {
		f = m.fillFree[n-1]
		m.fillFree[n-1] = nil
		m.fillFree = m.fillFree[:n-1]
	} else {
		f = new(fill)
	}
	// Field by field: a composite literal is built on the stack and
	// copied in with wide loads that span its narrower stores, which
	// defeats store-to-load forwarding.
	f.done = done
	f.addr = addr
	f.sharers = 1 << uint(owner)
	f.owner = uint8(owner)
	f.write = write
	f.prefetch = prefetch
	return f
}

// dramRead issues a DRAM read and applies any injected latency jitter to
// its completion time. Jitter is safe to add after the fact: the fill
// heap orders completions by time, so a perturbed fill simply completes
// later.
func (m *memSystem) dramRead(block uint64, at uint64) uint64 {
	return m.dram.Read(block, at) + m.inj.Jitter()
}

// trainPrefetcher observes one of this core's demand L2 accesses and
// issues any predicted prefetches: non-demand allocations in this core's
// MSHR that Algorithm 1 does not charge. A target any core already has
// in flight is skipped, so each block keeps one fill.
func (p *corePort) trainPrefetcher(block uint64, now uint64) {
	if p.pf == nil {
		return
	}
	m := p.m
	for _, target := range p.pf.Observe(block) {
		addr := target * m.l2.Config().BlockBytes
		if _, inflight := m.inflight.Get(target); inflight || m.l2.Contains(addr) {
			continue
		}
		if p.mshr.Full() {
			p.mstats.PrefetchDropped++
			continue
		}
		p.mshr.Allocate(target, false, now)
		p.mstats.PrefetchIssued++
		done := m.dramRead(target, now)
		f := m.newFill(done, addr, false, true, p.tid)
		m.inflight.Put(target, f)
		m.fills.Push(f)
	}
}

// Access implements cpu.MemSystem for one core: the private L1 probe,
// then the shared L2. A miss on a block another core already has in
// flight allocates a primary entry in this core's own MSHR and joins the
// fill's sharer set, so the waiting thread pays its own cost clock for
// the overlap (a cross-core merge).
func (p *corePort) Access(addr uint64, write bool, now uint64) (uint64, bool) {
	m := p.m
	if p.l1.Probe(addr, write) {
		return now + m.cfg.L1Lat, true
	}
	if m.tr != nil {
		m.tr.now = now
		m.tr.tid = p.tid
	}
	if m.sbar != nil {
		m.sbar.SetThread(p.tid)
	}
	l2Hit := m.l2.Probe(addr, false)
	block := m.l2.BlockOf(addr)
	if l2Hit {
		if m.capture != nil {
			// A hit's cost-if-miss estimate is the resident line's
			// stored quantized cost — what the block's own miss accrued.
			costQ, _ := m.l2.CostOf(addr)
			m.capture.OnL2Access(block, AccessHit, costQ)
		}
		if p.pf != nil {
			if info, ok := m.tracked.Get(block); ok && info.prefetched {
				info.prefetched = false
				m.tracked.Put(block, info)
				p.mstats.PrefetchUseful++
			}
		}
		if m.hybrid != nil {
			m.hybrid.OnAccess(addr, write, true, false)
		}
		p.fillL1(addr, write)
		p.trainPrefetcher(block, now)
		return now + m.cfg.L1Lat + m.cfg.L2Lat, true
	}
	// L2 demand miss.
	if f, ok := m.inflight.Get(block); ok {
		// Merge into the in-flight miss (or claim an in-flight
		// prefetch); completes with it.
		if bit := uint64(1) << uint(p.tid); f.sharers&bit == 0 {
			// Another core's miss is already fetching the block. This
			// core still waits on DRAM, so it allocates a primary entry
			// in its own MSHR — starting its own cost clock — and joins
			// the fill's sharer set.
			if p.mshr.Full() {
				return 0, false
			}
			f.sharers |= bit
			m.crossMerges++
		}
		p.mshr.Allocate(block, true, now)
		f.write = f.write || write
		if m.tr != nil {
			m.tr.Emit(metrics.Event{Type: metrics.EventMissMerge, Addr: addr, Block: block})
		}
		if f.prefetch {
			// A late prefetch: the demand access still waits, but
			// the cost clock only starts now (demand upgrade). The
			// upgrading core owns the miss from here: its demand
			// entry prices it at service, not the prefetch's.
			if m.capture != nil {
				m.capture.OnL2Access(block, AccessMiss, 0)
			}
			f.prefetch = false
			f.owner = uint8(p.tid)
			p.mstats.PrefetchLate++
			p.mstats.DemandMisses++
			p.noteSeen(block)
			if m.hybrid != nil {
				m.hybrid.OnAccess(addr, write, false, true)
			}
		} else {
			if m.capture != nil {
				m.capture.OnL2Access(block, AccessMerge, 0)
			}
			p.mstats.MergedMisses++
			if m.hybrid != nil {
				m.hybrid.OnAccess(addr, write, false, false)
			}
		}
		p.trainPrefetcher(block, now)
		return f.done, true
	}
	if p.mshr.Full() {
		return 0, false // structural stall; the core retries
	}
	p.mshr.Allocate(block, true, now)
	if m.capture != nil {
		m.capture.OnL2Access(block, AccessMiss, 0)
	}
	if m.tr != nil {
		m.tr.Emit(metrics.Event{Type: metrics.EventMissIssue, Addr: addr, Block: block})
	}
	if m.hybrid != nil {
		m.hybrid.OnAccess(addr, write, false, true)
	}
	p.mstats.DemandMisses++
	p.noteSeen(block)
	done := m.dramRead(block, now+m.cfg.L1Lat+m.cfg.L2Lat)
	f := m.newFill(done, addr, write, false, p.tid)
	m.inflight.Put(block, f)
	m.fills.Push(f)
	p.trainPrefetcher(block, now)
	return done, true
}

// noteSeen records a demand miss on the block in the shared footprint
// store, crediting the compulsory miss to the core that touched the
// block first.
func (p *corePort) noteSeen(block uint64) {
	info, _ := p.m.tracked.Get(block)
	if !info.seen {
		info.seen = true
		p.m.tracked.Put(block, info)
		p.mstats.CompulsoryMisses++
	}
}

// fillL1 installs the block into this core's L1, sinking any dirty
// victim into the shared L2's dirty bit.
func (p *corePort) fillL1(addr uint64, write bool) {
	ev, evicted := p.l1.Fill(addr, 0, write)
	if evicted && ev.Dirty {
		if !p.m.l2.MarkDirty(ev.Block * p.l1.Config().BlockBytes) {
			p.mstats.L1WritebackDrops++
		}
	}
}

// notePrefetchEvicted marks an evicted block's unused-prefetch status
// resolved: a prefetched block leaving the cache untouched counts as an
// unused prefetch, charged to the core whose fill evicted it.
func (p *corePort) notePrefetchEvicted(block uint64) {
	if info, ok := p.m.tracked.Get(block); ok && info.prefetched {
		info.prefetched = false
		p.m.tracked.Put(block, info)
		p.mstats.PrefetchUnused++
	}
}

// Tick advances the memory side by one cycle: every core's MSHR cost
// clock runs (Algorithm 1, per thread), then any DRAM fills due this
// cycle install into the hierarchy. A non-nil error reports an MSHR
// protocol violation (simerr.ErrMSHRLeak) and aborts the run.
func (m *memSystem) Tick(now uint64) error {
	if m.tr != nil {
		m.tr.now = now
	}
	for i := range m.ports {
		m.ports[i].mshr.Tick(now)
	}
	for m.fills.Len() > 0 && m.fills.Peek().done <= now {
		f := m.fills.Pop()
		if err := m.service(f, now); err != nil {
			return err
		}
		m.fillFree = append(m.fillFree, f)
	}
	return nil
}

// service completes one fill. The owning core's MSHR entry yields the
// miss's mlp-cost — the thread-tagged cost the paper's accounting needs —
// and feeds the owner's histogram plus the aggregate one. Every other
// sharer frees its own entry too (its clock measured its own wait, which
// already shaped the costs of that core's concurrent misses) but the
// block's stored cost is the owner's. The block installs into the shared
// L2 and the owner's L1; other sharers refetch from L2 on their next
// touch.
func (m *memSystem) service(f *fill, now uint64) error {
	block := m.l2.BlockOf(f.addr)
	m.inflight.Delete(block)
	owner := int(f.owner)
	p := &m.ports[owner]
	if m.tr != nil {
		m.tr.tid = owner
	}
	if m.sbar != nil {
		m.sbar.SetThread(owner)
	}
	cost, err := p.mshr.Free(block, now)
	if err != nil {
		return err
	}
	for rest := f.sharers &^ (1 << uint(owner)); rest != 0; rest &= rest - 1 {
		if _, err := m.ports[bits.TrailingZeros64(rest)].mshr.Free(block, now); err != nil {
			return err
		}
	}

	if f.prefetch {
		// A pure prefetch fill: no demand miss to account, no cost.
		ev, evicted := m.l2.Fill(f.addr, 0, false)
		if evicted {
			p.notePrefetchEvicted(ev.Block)
			if ev.Dirty {
				m.dram.Write(ev.Block, now)
			}
		}
		info, _ := m.tracked.Get(block)
		info.prefetched = true
		m.tracked.Put(block, info)
		return nil
	}

	m.costHist.Add(cost)
	if p.costHist != m.costHist {
		p.costHist.Add(cost)
	}
	p.costSum += cost
	info, _ := m.tracked.Get(block)
	if info.hasCost {
		d := cost - info.lastCost
		if d < 0 {
			d = -d
		}
		m.delta.add(d)
	}
	info.hasCost = true
	info.lastCost = cost
	m.tracked.Put(block, info)

	costQ := core.Quantize(cost)
	if m.tr != nil {
		m.tr.Emit(metrics.Event{
			Type: metrics.EventMissFill, Addr: f.addr, Block: block,
			Cost: cost, CostQ: int(costQ),
		})
	}
	if m.capture != nil {
		m.capture.OnMissCost(block, costQ)
	}
	p.mstats.CostQSum += uint64(costQ)

	ev, evicted := m.l2.Fill(f.addr, costQ, false)
	if evicted {
		if p.pf != nil {
			p.notePrefetchEvicted(ev.Block)
		}
		if ev.Dirty {
			m.dram.Write(ev.Block, now)
		}
	}
	if m.hybrid != nil {
		m.hybrid.OnFill(f.addr, costQ)
	}
	p.fillL1(f.addr, f.write)
	return nil
}

// memStats sums the cores' counters and stamps the footprint gauge from
// the shared block store's current population.
func (m *memSystem) memStats() MemStats {
	var s MemStats
	for i := range m.ports {
		s.add(m.ports[i].mstats)
	}
	s.TrackedBlocks = uint64(m.tracked.Len())
	return s
}

// mark is the chip-wide run totals at one interval boundary. The
// Figure 11 series and the snapshot.* gauges each keep their previous
// boundary's mark and read an interval as the difference of two.
type mark struct {
	retired  uint64 // instructions retired over all cores
	cycle    uint64
	issued   uint64 // demand misses issued (MemStats.DemandMisses)
	serviced uint64 // demand misses priced: the aggregate histogram's samples
	costQ    uint64 // summed cost_q of the serviced misses
	mshr     int    // MSHR entries in use over all cores
}

// mark reads the totals at cycle now, with retired counted over all
// cores.
func (m *memSystem) mark(now, retired uint64) mark {
	k := mark{retired: retired, cycle: now, serviced: m.costHist.Total()}
	for i := range m.ports {
		p := &m.ports[i]
		k.issued += p.mstats.DemandMisses
		k.costQ += p.mstats.CostQSum
		k.mshr += p.mshr.Len()
	}
	return k
}

// sample closes the Figure 11 interval of Config.SampleInterval retired
// instructions that ends at cur, and makes cur the previous boundary:
// IPC, the serviced misses per thousand instructions and their mean
// cost_q, and at the boundary the selector and the MSHR occupancy.
func (m *memSystem) sample(prev *mark, cur mark) {
	ser := m.series
	intInstr := m.cfg.SampleInterval
	if intCycles := cur.cycle - prev.cycle; intCycles > 0 {
		ser.IPC.Add(cur.retired, float64(intInstr)/float64(intCycles))
	}
	misses := cur.serviced - prev.serviced
	ser.MPKI.Add(cur.retired, 1000*float64(misses)/float64(intInstr))
	avg := 0.0
	if misses > 0 {
		avg = float64(cur.costQ-prev.costQ) / float64(misses)
	}
	ser.AvgCostQ.Add(cur.retired, avg)
	if m.hybrid != nil {
		// Both series read one set: set 1, a follower under the
		// default leader geometry, or set 0 of a one-set L2.
		set := min(1, m.l2.Config().Sets-1)
		v := 0.0
		if m.hybrid.UsingLIN(set) {
			v = 1.0
		}
		ser.UsingLIN.Add(cur.retired, v)
		ser.PselValue.Add(cur.retired, float64(m.hybrid.PselValue(set)))
	}
	ser.MSHROccupancy.Add(cur.retired, float64(cur.mshr))
	*prev = cur
}

// emitSnapshot streams one snapshot.* gauge group through the tracer at
// cur, and makes cur the previous boundary: IPC, the misses issued per
// thousand instructions and the mean quantized cost per serviced miss
// since prev, the MSHR occupancy at cur, and the cumulative Figure 2
// cost-histogram bins (one event per bin, Value = bin index). Every
// gauge is chip-wide — totals over all cores — so each carries tid 0,
// not the thread of whichever core last touched memory. Only called
// with a tracer attached, at snapshot-interval rate — the histogram
// copy it takes is nowhere near the per-miss hot path.
func (m *memSystem) emitSnapshot(prev *mark, cur mark) {
	m.tr.tid = 0
	dInstr := cur.retired - prev.retired
	dCyc := cur.cycle - prev.cycle
	dServed := cur.serviced - prev.serviced
	var ipc, mpki, avg float64
	if dCyc > 0 {
		ipc = float64(dInstr) / float64(dCyc)
	}
	if dInstr > 0 {
		mpki = 1000 * float64(cur.issued-prev.issued) / float64(dInstr)
	}
	if dServed > 0 {
		avg = float64(cur.costQ-prev.costQ) / float64(dServed)
	}
	m.tr.Emit(metrics.Event{Type: metrics.EventSnapshotIPC, Gauge: ipc})
	m.tr.Emit(metrics.Event{Type: metrics.EventSnapshotMPKI, Gauge: mpki})
	m.tr.Emit(metrics.Event{Type: metrics.EventSnapshotAvgCostQ, Gauge: avg})
	m.tr.Emit(metrics.Event{Type: metrics.EventSnapshotMSHR, Gauge: float64(cur.mshr)})
	for i, c := range m.costHist.Bins() {
		m.tr.Emit(metrics.Event{Type: metrics.EventSnapshotCostHist, Value: i, Gauge: float64(c)})
	}
	*prev = cur
}

// drainInflight reports whether misses are still outstanding (used to let
// the run loop wind down cleanly).
func (m *memSystem) drainInflight() bool { return m.fills.Len() > 0 }

// nextFill returns the cycle of the earliest pending DRAM fill, or
// ^uint64(0) when none is outstanding.
func (m *memSystem) nextFill() uint64 {
	if m.fills.Len() == 0 {
		return ^uint64(0)
	}
	return m.fills.Peek().done
}

// sourceErr returns the first deferred decode error a core's source
// reports (the trace reader's Err method), or nil.
func (m *memSystem) sourceErr() error {
	for i := range m.ports {
		if s, ok := m.ports[i].src.(interface{ Err() error }); ok {
			if err := s.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish ends a run whose result has been assembled: a source's decode
// error wins, then the auditor's final pass yields the audit report (nil
// for an unaudited run); a clean run returns the machine's bulk
// components to the arena. Nothing released there is reachable from a
// result (stats are copied by value, histograms are never pooled).
func (m *memSystem) finish(now uint64) (*audit.Report, error) {
	if err := m.sourceErr(); err != nil {
		return nil, err
	}
	var rep *audit.Report
	if m.auditor != nil {
		m.auditor.CheckNow(now)
		rep = m.auditor.Report()
		if err := rep.Err(); err != nil {
			return rep, err
		}
	}
	m.cfg.Arena.release(m)
	return rep, nil
}
