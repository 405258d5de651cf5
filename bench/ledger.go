package main

// The traced pass measures each layer from outside the simulator. While
// a simulation call runs, recorders sit on its public hooks: a buffer
// between each generator and the core (timed refills: the workload
// layer), Config.Capture (the L2 demand stream) and Config.Trace (miss
// issue/merge/fill events, each batch also encoded by a fresh v2
// tracer: the metrics layer). After the call, each recorded stream is
// replayed through the owning package's public API in a tight loop,
// and the replay's wall time is that layer's share. Everything the
// simulator spends that no replay covers is the residual.

import (
	"fmt"
	"time"

	"mlpcache/internal/cache"
	"mlpcache/internal/core"
	"mlpcache/internal/dram"
	"mlpcache/internal/metrics"
	"mlpcache/internal/mshr"
	"mlpcache/internal/oracle"
	"mlpcache/internal/sim"
	"mlpcache/internal/trace"
)

// epoch is the zero of every span timestamp.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// interval is one timed span a recorder took, kept until the call ends
// so recorders on different cores never share a slice.
type interval struct{ start, end int64 }

// genBatch is how many instructions one timed generator span produces.
const genBatch = 4096

// genRecorder buffers a generator: it refills genBatch instructions per
// timed span and keeps every data address in program order (bit 0 set
// for a store; the L1 maps both to the same block).
type genRecorder struct {
	src   trace.Source
	left  uint64 // instructions the run has yet to fetch
	buf   []trace.Instr
	pos   int
	spans []interval
	ns    int64
	addrs []uint64
}

func newGenRecorder(src trace.Source, budget uint64) *genRecorder {
	return &genRecorder{src: src, left: budget, buf: make([]trace.Instr, 0, genBatch)}
}

func (g *genRecorder) Next() (trace.Instr, bool) {
	if g.pos == len(g.buf) && !g.refill() {
		return trace.Instr{}, false
	}
	in := g.buf[g.pos]
	g.pos++
	return in, true
}

// refill never draws past the run's budget, so the timed spans cover
// exactly the instructions the simulator executes.
func (g *genRecorder) refill() bool {
	n := min(genBatch, g.left)
	buf := g.buf[:0]
	start := now()
	for uint64(len(buf)) < n {
		in, ok := g.src.Next()
		if !ok {
			break
		}
		buf = append(buf, in)
	}
	end := now()
	g.spans = append(g.spans, interval{start, end})
	g.ns += end - start
	g.left -= uint64(len(buf))
	for _, in := range buf {
		switch in.Kind {
		case trace.Load:
			g.addrs = append(g.addrs, in.Addr)
		case trace.Store:
			g.addrs = append(g.addrs, in.Addr|1)
		}
	}
	g.buf, g.pos = buf, 0
	return len(buf) > 0
}

// l2Fill marks a recorded L2 operation as a fill; the other kinds are
// sim.AccessKind values.
const l2Fill = 3

// l2Op is one L2 operation in the order the memory system performed it.
type l2Op struct {
	block uint64
	costQ uint8
	kind  uint8
}

// l2Recorder is a sim.AccessObserver that keeps the demand stream and
// forwards it to the workload's own capture, if any.
type l2Recorder struct {
	next sim.AccessObserver
	ops  []l2Op
}

func (r *l2Recorder) OnL2Access(block uint64, kind sim.AccessKind, costQ uint8) {
	if r.next != nil {
		r.next.OnL2Access(block, kind, costQ)
	}
	r.ops = append(r.ops, l2Op{block: block, costQ: costQ, kind: uint8(kind)})
}

func (r *l2Recorder) OnMissCost(block uint64, costQ uint8) {
	if r.next != nil {
		r.next.OnMissCost(block, costQ)
	}
	r.ops = append(r.ops, l2Op{block: block, costQ: costQ, kind: l2Fill})
}

// Miss-lifecycle event kinds kept for the MSHR and DRAM replays.
const (
	evIssue = iota
	evMerge
	evFill
)

type missEvent struct {
	cycle uint64
	block uint64
	kind  uint8
	tid   uint8
	costQ uint8
}

// evRecorder is a metrics.Tracer that forwards to the workload's own
// tracer, if any, and collects events in batches. Each full batch is
// encoded by a fresh v2 tracer in one timed span (the metrics layer)
// and then reduced to the miss events the later replays need.
type evRecorder struct {
	next   metrics.Tracer
	batch  []metrics.Event
	v2     *metrics.BinaryTracer
	out    byteCounter
	spans  []interval
	ns     int64
	events uint64
	misses []missEvent
}

func newEvRecorder(next metrics.Tracer) *evRecorder {
	r := &evRecorder{next: next, batch: make([]metrics.Event, 0, genBatch)}
	r.v2 = metrics.NewBinaryTracer(&r.out, metrics.RunHeader{})
	return r
}

func (r *evRecorder) Emit(ev metrics.Event) {
	if r.next != nil {
		r.next.Emit(ev)
	}
	r.batch = append(r.batch, ev)
	if len(r.batch) == cap(r.batch) {
		r.flush()
	}
}

func (r *evRecorder) flush() {
	start := now()
	for i := range r.batch {
		r.v2.Emit(r.batch[i])
	}
	end := now()
	r.spans = append(r.spans, interval{start, end})
	r.ns += end - start
	r.events += uint64(len(r.batch))
	for _, ev := range r.batch {
		var kind uint8
		switch ev.Type {
		case metrics.EventMissIssue:
			kind = evIssue
		case metrics.EventMissMerge:
			kind = evMerge
		case metrics.EventMissFill:
			kind = evFill
		default:
			continue
		}
		r.misses = append(r.misses, missEvent{cycle: ev.Cycle, block: ev.Block, kind: kind, tid: uint8(ev.Tid), costQ: uint8(ev.CostQ)})
	}
	r.batch = r.batch[:0]
}

// finish encodes the last partial batch and flushes the v2 stream.
func (r *evRecorder) finish() error {
	r.flush()
	start := now()
	err := r.v2.Flush()
	end := now()
	r.spans = append(r.spans, interval{start, end})
	r.ns += end - start
	return err
}

// recorders are everything attached to one op for its traced call.
type recorders struct {
	gens []*genRecorder
	l2   *l2Recorder // nil on multi-core: RunMulti rejects Capture
	ev   *evRecorder
}

func attach(o *op) *recorders {
	rec := &recorders{ev: newEvRecorder(o.cfg.Trace)}
	o.cfg.Trace = rec.ev
	for i, src := range o.srcs {
		g := newGenRecorder(src, o.budget)
		rec.gens = append(rec.gens, g)
		o.srcs[i] = g
	}
	if !o.multi() {
		rec.l2 = &l2Recorder{next: o.cfg.Capture}
		o.cfg.Capture = rec.l2
	}
	return rec
}

// The layers a traced pass times, in ledger order.
const (
	layerWorkload = iota
	layerL1
	layerL2
	layerMSHR
	layerDRAM
	layerMetrics
	layerOracle
	numLayers
)

// layerNames name the layers' spans and ledger terms.
var layerNames = [numLayers]string{"workload", "cache.l1", "cache.l2", "mshr", "dram", "metrics", "oracle"}

// layerSample is one traced op's measurements: per-layer nanoseconds
// and the replays' agreement with the live run.
type layerSample struct {
	ns [numLayers]int64

	l1ReplayMisses, l2ReplayMisses uint64
	costMismatches                 uint64
	dramMatched, dramFills         uint64
	events, eventBytes             uint64
	records                        uint64
}

// replay runs every layer replay for one finished traced op, adding a
// span per layer under parent.
func (rec *recorders) replay(o *op, log *spanLog, parent, run int) (layerSample, error) {
	var s layerSample
	for _, g := range rec.gens {
		s.ns[layerWorkload] += g.ns
		for _, iv := range g.spans {
			log.add(layerNames[layerWorkload], parent, run, iv.start, iv.end)
		}
	}
	if err := rec.ev.finish(); err != nil {
		return s, fmt.Errorf("%s: v2 replay: %w", o.label, err)
	}
	s.ns[layerMetrics] = rec.ev.ns
	s.events, s.eventBytes = rec.ev.events, rec.ev.out.n
	for _, iv := range rec.ev.spans {
		log.add(layerNames[layerMetrics], parent, run, iv.start, iv.end)
	}

	timed := func(layer int, f func()) {
		start := now()
		f()
		end := now()
		log.add(layerNames[layer], parent, run, start, end)
		s.ns[layer] = end - start
	}
	timed(layerL1, func() {
		for _, g := range rec.gens {
			s.l1ReplayMisses += replayL1(o.cfg.L1, g.addrs)
		}
	})
	timed(layerMSHR, func() { s.costMismatches = replayMSHR(o.cfg.MSHR, len(o.srcs), rec.ev.misses) })
	var done []uint64
	timed(layerDRAM, func() { done = replayDRAM(o.cfg, rec.ev.misses) })
	s.dramMatched, s.dramFills = dramMatches(rec.ev.misses, done)
	// RunMulti rejects Capture, so a multi-core op has no L2 stream to
	// replay: its L2 and oracle terms stay 0 and their time falls into
	// the residual.
	if rec.l2 == nil {
		return s, nil
	}
	timed(layerL2, func() { s.l2ReplayMisses = replayL2(o.cfg, rec.l2.ops) })
	sets, err := o.cfg.L2.SetCount()
	if err != nil {
		return s, err
	}
	timed(layerOracle, func() { s.records = replayOracle(sets, o.cfg.L2.Assoc, rec.l2.ops) })
	return s, nil
}

// replayL1 probes and fills a fresh LRU L1 with the addresses in
// program order, filling at once on a miss, and returns the misses.
func replayL1(cfg cache.Config, addrs []uint64) uint64 {
	l1 := cache.New(cfg, cache.NewLRU())
	var misses uint64
	for _, a := range addrs {
		w := a&1 != 0
		if !l1.Probe(a, w) {
			misses++
			l1.Fill(a, 0, w)
		}
	}
	return misses
}

// newL2 builds a fresh L2 under the run's policy the way the simulator
// does for the three policies the workloads use.
func newL2(cfg sim.Config) (*cache.Cache, core.Hybrid) {
	l2 := cache.New(cfg.L2, nil)
	switch p := cfg.Policy; p.Kind {
	case sim.PolicyLRU:
		return l2, nil
	case sim.PolicyLIN:
		l2.SetPolicy(core.NewLIN(p.Lambda))
		return l2, nil
	case sim.PolicySBAR:
		// The default selector is the static one the workloads use.
		return l2, core.NewSBAR(l2, core.SBARConfig{LeaderSets: p.LeaderSets, Lambda: p.Lambda})
	}
	panic(fmt.Sprintf("bench: no L2 replay for policy %s", cfg.Policy))
}

// replayL2 drives a fresh L2 with the recorded operations, calling the
// hybrid's hooks in the order the memory system does, and returns the
// probe misses.
func replayL2(cfg sim.Config, ops []l2Op) (misses uint64) {
	l2, hybrid := newL2(cfg)
	bb := l2.Config().BlockBytes
	for _, o := range ops {
		addr := o.block * bb
		if o.kind == l2Fill {
			l2.Fill(addr, o.costQ, false)
			if hybrid != nil {
				hybrid.OnFill(addr, o.costQ)
			}
			continue
		}
		hit := l2.Probe(addr, false)
		if !hit {
			misses++
		}
		if hybrid != nil {
			hybrid.OnAccess(addr, false, hit, !hit && o.kind != uint8(sim.AccessMerge))
		}
	}
	return misses
}

// replayMSHR allocates and frees one fresh MSHR file per core at the
// recorded cycles (Algorithm 1's cost clock is event-driven, so those
// calls are all it needs) and counts fills whose quantized cost differs
// from the live one. A fill frees every core's entry for the block, as
// the shared fill does.
func replayMSHR(cfg mshr.Config, cores int, evs []missEvent) (mismatches uint64) {
	files := make([]*mshr.MSHR, cores)
	for i := range files {
		files[i] = mshr.New(cfg)
	}
	for _, e := range evs {
		switch e.kind {
		case evIssue, evMerge:
			files[e.tid].Allocate(e.block, true, e.cycle)
		case evFill:
			cost, err := files[e.tid].Free(e.block, e.cycle)
			if err != nil || core.Quantize(cost) != e.costQ {
				mismatches++
			}
			for t, f := range files {
				if t != int(e.tid) && f.Pending(e.block) {
					if _, err := f.Free(e.block, e.cycle); err != nil {
						mismatches++
					}
				}
			}
		}
	}
	return mismatches
}

// replayDRAM reads every issued miss from a fresh DRAM model at the
// cycle the memory system issues it (after the L1 and L2 lookups) and
// returns the completion cycles in issue order.
func replayDRAM(cfg sim.Config, evs []missEvent) []uint64 {
	d := dram.New(cfg.DRAM)
	lat := cfg.L1Lat + cfg.L2Lat
	done := make([]uint64, 0, len(evs)/2)
	for _, e := range evs {
		if e.kind == evIssue {
			done = append(done, d.Read(e.block, e.cycle+lat))
		}
	}
	return done
}

// dramMatches counts fills serviced at exactly the cycle the replayed
// read completes. Writebacks are not in the event stream, so the replay
// sees less bank and bus contention than the live model and matches
// only part of the fills.
func dramMatches(evs []missEvent, done []uint64) (matched, fills uint64) {
	pending := make(map[uint64]uint64)
	i := 0
	for _, e := range evs {
		switch e.kind {
		case evIssue:
			pending[e.block] = done[i]
			i++
		case evFill:
			fills++
			if pending[e.block] == e.cycle {
				matched++
			}
			delete(pending, e.block)
		}
	}
	return matched, fills
}

// replayOracle feeds the L2 stream to a fresh oracle capture and runs
// the three offline replays on it at the L2's geometry, returning the
// captured accesses.
func replayOracle(sets, assoc int, ops []l2Op) uint64 {
	c := oracle.NewCapture()
	for _, o := range ops {
		if o.kind == l2Fill {
			c.OnMissCost(o.block, o.costQ)
		} else {
			c.OnL2Access(o.block, sim.AccessKind(o.kind), o.costQ)
		}
	}
	oracle.Compare(c.Log(), sets, assoc)
	return c.Log().Accesses()
}
