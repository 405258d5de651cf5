// Package cpu models the out-of-order core of the baseline machine
// (Table 2): an eight-wide fetch/issue/retire engine with a 128-entry
// instruction window, oldest-ready scheduling, a store buffer that lets
// store misses retire without blocking the window, and a stall-on-
// mispredict front end with the paper's 15-cycle minimum penalty.
//
// The model is deliberately scoped to what MLP-aware replacement can
// observe: how many long-latency misses overlap inside the bounded
// window, and when the window stalls waiting for memory. Loads issue when
// their register dependence (a backward distance carried by the trace)
// resolves; dependent loads therefore serialize their misses (isolated
// misses) while independent loads overlap them (parallel misses).
//
// Issue is event driven, so a cycle costs the work that happens in it,
// not the size of the window. Each window entry is linked at fetch onto
// its producer's consumer list unless its operand is already available;
// a completion wakes the consumers when its cycle arrives; and issue
// visits only the ready entries, oldest first, through a one-bit-per-slot
// ready bitmap. A window stalled on a few chase loads behind completed
// filler therefore costs nothing per stepped cycle beyond the wake-ups.
// Completions due within 63 cycles, all but the DRAM fills, wait on a
// completion wheel: one slot bitmap per cycle modulo 64, so scheduling
// a result and waking it are a bit each. Later ones wait in a min-heap.
package cpu

import (
	"math/bits"

	"mlpcache/internal/bpred"
	"mlpcache/internal/simerr"
	"mlpcache/internal/trace"
)

// Config describes the core.
type Config struct {
	ROBEntries         int
	FetchWidth         int
	IssueWidth         int
	RetireWidth        int
	MemPorts           int // memory instructions issued per cycle
	StoreBufferEntries int
	MispredictPenalty  uint64
	IntLat             uint64
	MulLat             uint64
	FPLat              uint64
	DivLat             uint64
	// BranchPredictor, when set, replaces the trace's oracle
	// Mispredict flags with a live gshare/per-address hybrid operating
	// on the branches' static ids and actual outcomes.
	BranchPredictor *bpred.Config
}

// DefaultConfig returns the paper's baseline core.
func DefaultConfig() Config {
	return Config{
		ROBEntries:         128,
		FetchWidth:         8,
		IssueWidth:         8,
		RetireWidth:        8,
		MemPorts:           2,
		StoreBufferEntries: 128,
		MispredictPenalty:  15,
		IntLat:             1,
		MulLat:             8,
		FPLat:              4,
		DivLat:             16,
	}
}

// Validate checks the configuration, wrapping failures in
// simerr.ErrBadConfig.
func (c Config) Validate() error {
	if c.ROBEntries <= 0 || c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0 {
		return simerr.New(simerr.ErrBadConfig,
			"cpu: widths and window size must be positive (rob=%d fetch=%d issue=%d retire=%d)",
			c.ROBEntries, c.FetchWidth, c.IssueWidth, c.RetireWidth)
	}
	if c.MemPorts <= 0 {
		return simerr.New(simerr.ErrBadConfig, "cpu: MemPorts must be positive, got %d", c.MemPorts)
	}
	if c.StoreBufferEntries < 0 {
		return simerr.New(simerr.ErrBadConfig, "cpu: StoreBufferEntries must be non-negative, got %d", c.StoreBufferEntries)
	}
	if c.BranchPredictor != nil {
		if err := c.BranchPredictor.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// MemSystem is the data-memory interface the core issues to.
type MemSystem interface {
	// Access starts a load (write=false) or store (write=true) at cycle
	// now. It returns the access's completion cycle, which is final:
	// nothing the memory system does later moves it, so the core never
	// has to be told of a completion. accepted=false signals a
	// structural hazard (MSHR full); the core retries the instruction on
	// a later cycle.
	Access(addr uint64, write bool, now uint64) (done uint64, accepted bool)
}

// Stats aggregates the core's counters.
type Stats struct {
	Retired     uint64
	Loads       uint64
	Stores      uint64
	Branches    uint64
	Mispredicts uint64
	// MemStallCycles counts cycles in which nothing retired because the
	// window head was an incomplete memory instruction.
	MemStallCycles uint64
	// MemStallEpisodes counts maximal runs of such cycles — the paper's
	// "long-latency stalls" when the run is caused by an L2 miss.
	MemStallEpisodes uint64
	// FullWindowCycles counts cycles fetch was blocked by a full window.
	FullWindowCycles uint64
	// FetchMispredictCycles counts cycles fetch was blocked waiting for
	// a mispredicted branch to resolve (plus the redirect penalty).
	FetchMispredictCycles uint64
	// StoreBufferFullEvents counts issue attempts rejected by a full
	// store buffer; MSHRRejects counts memory accesses the hierarchy
	// refused (MSHR full).
	StoreBufferFullEvents uint64
	MSHRRejects           uint64
}

const (
	stWaiting uint8 = iota
	stDone          // issued; completes when doneAt is reached
)

type robEntry struct {
	in     trace.Instr
	doneAt uint64
	state  uint8
	// mispredicted records the branch's fate as decided at fetch
	// (oracle flag or live predictor), for retirement statistics.
	mispredicted bool
	// firstConsumer heads the intrusive list of slots that need this
	// entry's result, chained through their nextConsumer; -1 ends a list.
	// An entry has one source operand, so it sits on at most one list.
	firstConsumer int32
	nextConsumer  int32
}

const noBranch = ^uint64(0)

// wheelSize is the completion wheel's span in cycles: one bucket per
// cycle modulo wheelSize, and one bit of wheelMask per bucket. A
// completion due less than wheelSize cycles after the cycle that issues
// it goes on the wheel; a later one goes on the far heap.
const wheelSize = 64

// fetchBatch is how many instructions one source read supplies: fetch
// pops from a buffer of this size and refills it with one
// trace.ReadBatch call when it runs dry.
const fetchBatch = 256

// CPU is the core model. Drive it by calling Cycle with a monotonically
// increasing cycle number until Finished reports true or an instruction
// budget is met.
type CPU struct {
	cfg Config
	mem MemSystem
	src trace.Source
	// fetched[fetchPos:] holds the instructions read from src that fetch
	// has yet to place in the window.
	fetched  []trace.Instr
	fetchPos int

	rob []robEntry
	// ready has bit s set when rob[s] is unissued and its operand is
	// available: exactly the entries issue may try this cycle.
	ready    []uint64
	head     int
	count    int
	headG    uint64 // global index of rob[head]
	nextG    uint64 // global index of the next fetched instruction
	srcDone  bool
	blockedG uint64 // global index of the unresolved mispredicted branch
	resumeAt uint64 // cycle fetch may resume after redirect; 0 = unresolved

	storeDone []uint64 // completion cycles of in-flight stores

	predictor *bpred.Predictor

	// The completions still in flight are the entries whose doneAt lies
	// after lastNow, the last cycle run. They wake their consumers when
	// that cycle arrives, and the earliest one bounds a run loop's skip.
	// One due at most wheelSize-1 cycles out sets its slot's bit in the
	// wheel bucket for doneAt mod wheelSize (len(ready) words per bucket,
	// bucket b at wheel[b*len(ready):]), and wheelMask has bit b set
	// while bucket b is non-empty. Every wheel entry lies within
	// wheelSize-1 cycles after lastNow, so no bucket holds two cycles.
	// Completions due later wait in far.
	wheel     []uint64
	wheelMask uint64
	far       completionHeap
	lastNow   uint64
	didWork   bool

	inMemStall bool
	stats      Stats
}

// completion is an in-flight result on the far heap: the ROB slot that
// produces it and the cycle it becomes available. A slot cannot be
// refilled while its completion is in flight, on the wheel or the heap:
// retiring the entry needs doneAt <= now, and the same cycle's issue
// stage wakes every such completion before fetch reuses a slot.
type completion struct {
	at   uint64
	slot int
}

// completionHeap is a plain binary min-heap on the completion cycle
// (inlined rather than container/heap to keep the hot path
// allocation-free). Order among equal cycles does not matter: popping
// only sets ready bits.
type completionHeap []completion

func (h *completionHeap) push(v completion) {
	*h = append(*h, v)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].at <= q[i].at {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (h *completionHeap) pop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && old[l].at < old[small].at {
			small = l
		}
		if r < n && old[r].at < old[small].at {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
}

// New builds a core that executes src against mem.
func New(cfg Config, mem MemSystem, src trace.Source) *CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if mem == nil || src == nil {
		panic(simerr.New(simerr.ErrBadConfig, "cpu: need a memory system and a source"))
	}
	c := &CPU{
		cfg:      cfg,
		mem:      mem,
		src:      src,
		fetched:  make([]trace.Instr, 0, fetchBatch),
		rob:      make([]robEntry, cfg.ROBEntries),
		ready:    make([]uint64, readyWords(cfg.ROBEntries)),
		wheel:    make([]uint64, wheelSize*readyWords(cfg.ROBEntries)),
		blockedG: noBranch,
	}
	if cfg.BranchPredictor != nil {
		c.predictor = bpred.New(*cfg.BranchPredictor)
	}
	return c
}

func readyWords(robEntries int) int { return (robEntries + 63) / 64 }

// Reset returns the core to just-built state executing src against mem,
// recycling the fetch buffer, ROB ring, ready bitmap, completion wheel,
// store buffer and far-heap backings — the arena's reuse contract. The
// ring, bitmap and wheel are rebuilt only when the window size changes;
// the bitmap and wheel are cleared, since a run stopped before the core
// drains leaves bits in both. Stale ROB entries are safe to keep:
// fetch fully overwrites a slot before any stage reads it. A configured
// branch predictor is rebuilt fresh (its tables are run state).
func (c *CPU) Reset(cfg Config, mem MemSystem, src trace.Source) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if mem == nil || src == nil {
		panic(simerr.New(simerr.ErrBadConfig, "cpu: need a memory system and a source"))
	}
	rob, ready, wheel := c.rob, c.ready, c.wheel
	if len(rob) != cfg.ROBEntries {
		rob = make([]robEntry, cfg.ROBEntries)
		ready = make([]uint64, readyWords(cfg.ROBEntries))
		wheel = make([]uint64, wheelSize*len(ready))
	}
	clear(ready)
	clear(wheel)
	var pred *bpred.Predictor
	if cfg.BranchPredictor != nil {
		pred = bpred.New(*cfg.BranchPredictor)
	}
	*c = CPU{
		cfg:       cfg,
		mem:       mem,
		src:       src,
		fetched:   c.fetched[:0],
		rob:       rob,
		ready:     ready,
		wheel:     wheel,
		blockedG:  noBranch,
		storeDone: c.storeDone[:0],
		far:       c.far[:0],
		predictor: pred,
	}
}

// PredictorStats returns the live predictor's counters (zero value when
// running in oracle mode).
func (c *CPU) PredictorStats() bpred.Stats {
	if c.predictor == nil {
		return bpred.Stats{}
	}
	return c.predictor.Stats()
}

// Stats returns the core's counters.
func (c *CPU) Stats() Stats { return c.stats }

// Finished reports whether the source is drained and the window empty.
func (c *CPU) Finished() bool { return c.srcDone && c.count == 0 }

// slot maps a global instruction index in the window to its ROB slot.
// g is within the window, so the offset is below len(rob) and a single
// conditional wrap replaces the (much slower) modulo.
func (c *CPU) slot(g uint64) int {
	s := c.head + int(g-c.headG)
	if s >= len(c.rob) {
		s -= len(c.rob)
	}
	return s
}

func (c *CPU) setReady(s int)   { c.ready[s>>6] |= 1 << (s & 63) }
func (c *CPU) clearReady(s int) { c.ready[s>>6] &^= 1 << (s & 63) }

// nextReady returns the first ready slot in [from, to), or to if none.
// It reads the bitmap live, so a consumer woken earlier in the same scan
// is found.
func (c *CPU) nextReady(from, to int) int {
	for from < to {
		if w := c.ready[from>>6] >> (from & 63); w != 0 {
			return min(from+bits.TrailingZeros64(w), to)
		}
		from = (from | 63) + 1
	}
	return to
}

// link decides at fetch whether the entry in slot s (global index g) can
// issue: at once if it has no dependence, its producer precedes the
// stream or has retired, or its producer's result is available by now;
// otherwise it joins the producer's consumer list and waits for the
// producer's completion to wake it.
func (c *CPU) link(s int, g uint64, now uint64) {
	if dep := c.rob[s].in.Dep; dep > 0 && uint64(dep) <= g {
		if prodG := g - uint64(dep); prodG >= c.headG {
			p := &c.rob[c.slot(prodG)]
			if p.state != stDone || p.doneAt > now {
				c.rob[s].nextConsumer = p.firstConsumer
				p.firstConsumer = int32(s)
				return
			}
		}
	}
	c.setReady(s)
}

// wake marks every consumer of the entry in slot s ready.
func (c *CPU) wake(s int) {
	p := &c.rob[s]
	for k := p.firstConsumer; k >= 0; k = c.rob[k].nextConsumer {
		c.setReady(int(k))
	}
	p.firstConsumer = -1
}

// Cycle advances the core by one cycle: retire, drain the store buffer,
// issue, fetch. It returns the number of instructions retired this cycle.
func (c *CPU) Cycle(now uint64) int {
	c.didWork = false
	retired := c.retire(now)
	if retired > 0 {
		c.didWork = true
	}
	c.drainStores(now)
	c.issue(now)
	c.fetch(now)
	return retired
}

// NoteSkipped attributes n cycles in which the run loop did not step
// the core (DidWork was false and NextEvent had not come) to the stall
// statistics those cycles would have accrued one by one.
func (c *CPU) NoteSkipped(n uint64) {
	if c.inMemStall {
		c.stats.MemStallCycles += n
	}
	// Attribution order mirrors fetch exactly (blocked front end before
	// full window), so a skipped stall cycle accrues the same counter a
	// burned one would.
	if c.blockedG != noBranch {
		c.stats.FetchMispredictCycles += n
	} else if c.count == len(c.rob) {
		c.stats.FullWindowCycles += n
	}
}

// DidWork reports whether the last Cycle retired, issued or fetched
// anything, or tried an access that was refused (MSHR or store buffer
// full), which it retries next cycle. When it returns false, no core
// state can change before NextEvent: the state changes only inside the
// core's own Cycle, and nothing another core or the memory side does
// reaches it, since Access fixed every completion cycle when it
// returned. The run loop may leave the core asleep until NextEvent and
// credit the cycles in between with NoteSkipped.
func (c *CPU) DidWork() bool { return c.didWork }

// NextEvent returns the earliest future cycle (strictly after now) at
// which core-visible state can change: a pending completion, a store
// buffer drain, or a fetch redirect. It returns ^uint64(0) if no such
// event is scheduled. The core's own schedule is the whole answer:
// nothing another core or the memory side does can change this core's
// state before that cycle. now is the cycle last passed to Cycle, which
// left only completions after now in flight. The earliest completion is
// the first non-empty wheel bucket after that cycle, found with one
// rotate of wheelMask, or the far heap's top if that comes first.
func (c *CPU) NextEvent(now uint64) uint64 {
	next := ^uint64(0)
	if c.wheelMask != 0 {
		from := c.lastNow + 1
		next = from + uint64(bits.TrailingZeros64(bits.RotateLeft64(c.wheelMask, -int(from%wheelSize))))
	}
	if len(c.far) > 0 && c.far[0].at < next {
		next = c.far[0].at
	}
	if c.blockedG != noBranch && c.resumeAt > now && c.resumeAt < next {
		next = c.resumeAt
	}
	for _, d := range c.storeDone {
		if d > now && d < next {
			next = d
		}
	}
	return next
}

func (c *CPU) retire(now uint64) int {
	retired := 0
	for retired < c.cfg.RetireWidth && c.count > 0 {
		e := &c.rob[c.head]
		if e.state != stDone || e.doneAt > now {
			break
		}
		switch e.in.Kind {
		case trace.Load:
			c.stats.Loads++
		case trace.Store:
			c.stats.Stores++
		case trace.Branch:
			c.stats.Branches++
			if e.mispredicted {
				c.stats.Mispredicts++
			}
		}
		c.head++
		if c.head == len(c.rob) {
			c.head = 0
		}
		c.headG++
		c.count--
		c.stats.Retired++
		retired++
	}
	if retired == 0 && c.count > 0 {
		e := &c.rob[c.head]
		if e.in.Kind.IsMem() && (e.state != stDone || e.doneAt > now) {
			c.stats.MemStallCycles++
			if !c.inMemStall {
				c.inMemStall = true
				c.stats.MemStallEpisodes++
			}
		} else {
			c.inMemStall = false
		}
	} else {
		c.inMemStall = false
	}
	return retired
}

func (c *CPU) drainStores(now uint64) {
	out := c.storeDone[:0]
	for _, d := range c.storeDone {
		if d > now {
			out = append(out, d)
		}
	}
	c.storeDone = out
}

// wakeDue wakes the consumers of every completion due by now: the wheel
// buckets of the cycles in (lastNow, now], all of them after a skip of
// wheelSize cycles or more, then the far completions that have arrived.
// Wake order does not matter, since a wake only sets ready bits.
func (c *CPU) wakeDue(now uint64) {
	if due := c.wheelMask; due != 0 {
		if span := now - c.lastNow; span < wheelSize {
			due &= bits.RotateLeft64(1<<span-1, int((c.lastNow+1)%wheelSize))
		}
		c.wheelMask &^= due
		for ; due != 0; due &= due - 1 {
			bucket := c.wheel[bits.TrailingZeros64(due)*len(c.ready):][:len(c.ready)]
			for i, w := range bucket {
				bucket[i] = 0
				for ; w != 0; w &= w - 1 {
					c.wake(i<<6 | bits.TrailingZeros64(w))
				}
			}
		}
	}
	c.lastNow = now
	for len(c.far) > 0 && c.far[0].at <= now {
		s := c.far[0].slot
		c.far.pop()
		c.wake(s)
	}
}

// issue wakes the consumers of every completion that has arrived, then
// tries the ready entries oldest first: from the head to the end of the
// ring, then the wrap-around. An entry that cannot issue this cycle (no
// memory port, a full store buffer, an MSHR rejection) stays ready and
// is retried on a later cycle.
func (c *CPU) issue(now uint64) {
	c.wakeDue(now)
	issued, memIssued := 0, 0
	// base+s is the global index of slot s within the current segment.
	lo, hi, base := c.head, len(c.rob), c.headG-uint64(c.head)
	for range 2 {
		for s := c.nextReady(lo, hi); s < hi; s = c.nextReady(s+1, hi) {
			if issued >= c.cfg.IssueWidth {
				return
			}
			e := &c.rob[s]
			var doneAt uint64
			switch e.in.Kind {
			case trace.Int:
				doneAt = now + c.cfg.IntLat
			case trace.Mul:
				doneAt = now + c.cfg.MulLat
			case trace.FP:
				doneAt = now + c.cfg.FPLat
			case trace.Div:
				doneAt = now + c.cfg.DivLat
			case trace.Branch:
				doneAt = now + 1
				if c.blockedG == base+uint64(s) {
					// Branch resolved: fetch redirects after the
					// minimum misprediction penalty.
					c.resumeAt = doneAt + c.cfg.MispredictPenalty
				}
			case trace.Load:
				if memIssued >= c.cfg.MemPorts {
					continue
				}
				memIssued++
				done, ok := c.mem.Access(e.in.Addr, false, now)
				if !ok {
					// A rejected access still mutates state (reject
					// counters, L2 probe stats), so the cycle counts as
					// work: fast-forward must not skip retry cycles a
					// burned loop would execute.
					c.stats.MSHRRejects++
					c.didWork = true
					continue
				}
				doneAt = done
			case trace.Store:
				if memIssued >= c.cfg.MemPorts {
					continue
				}
				if len(c.storeDone) >= c.cfg.StoreBufferEntries {
					// The full-buffer event accrues per executed cycle,
					// so the cycle counts as work for the same reason a
					// reject does.
					c.stats.StoreBufferFullEvents++
					c.didWork = true
					continue // window blocks only when the buffer is full
				}
				memIssued++
				done, ok := c.mem.Access(e.in.Addr, true, now)
				if !ok {
					c.stats.MSHRRejects++
					c.didWork = true
					continue
				}
				// The store retires from the window immediately; the
				// store buffer tracks the in-flight write.
				c.storeDone = append(c.storeDone, done)
				doneAt = now + 1
			default:
				continue // not an instruction kind: never issues
			}
			issued++
			c.complete(s, doneAt, now)
		}
		lo, hi, base = 0, c.head, c.headG+uint64(len(c.rob)-c.head)
	}
}

// complete issues the entry in slot s with its result available at
// doneAt. A result available already (zero latency) wakes the consumers
// at once, so younger entries still to be visited in this scan see it.
// A later one goes on the wheel, or on the far heap when it is due
// wheelSize or more cycles out; now is lastNow here, as issue has run
// wakeDue.
func (c *CPU) complete(s int, doneAt, now uint64) {
	e := &c.rob[s]
	e.state = stDone
	e.doneAt = doneAt
	c.clearReady(s)
	c.didWork = true
	switch {
	case doneAt <= now:
		c.wake(s)
	case doneAt-now < wheelSize:
		b := int(doneAt % wheelSize)
		c.wheel[b*len(c.ready)+s>>6] |= 1 << (s & 63)
		c.wheelMask |= 1 << b
	default:
		c.far.push(completion{at: doneAt, slot: s})
	}
}

// branchMispredicted decides a fetched branch's fate: a live predictor
// consults and trains on the branch's id and outcome; oracle mode obeys
// the trace's flag.
func (c *CPU) branchMispredicted(in trace.Instr) bool {
	if c.predictor != nil {
		return !c.predictor.PredictAndUpdate(in.Addr, in.Taken)
	}
	return in.Mispredict
}

func (c *CPU) fetch(now uint64) {
	if c.blockedG != noBranch {
		if c.resumeAt == 0 || now < c.resumeAt {
			c.stats.FetchMispredictCycles++
			return
		}
		c.blockedG = noBranch
		c.resumeAt = 0
	}
	if c.count == len(c.rob) {
		c.stats.FullWindowCycles++
		return
	}
	slot := c.head + c.count
	if slot >= len(c.rob) {
		slot -= len(c.rob)
	}
	for f := 0; f < c.cfg.FetchWidth && c.count < len(c.rob) && !c.srcDone; f++ {
		if c.fetchPos == len(c.fetched) {
			// A short refill still holds instructions to fetch; only an
			// empty one ends the stream.
			c.fetched = c.fetched[:trace.ReadBatch(c.src, c.fetched[:fetchBatch])]
			c.fetchPos = 0
			if len(c.fetched) == 0 {
				c.srcDone = true
				return
			}
		}
		in := c.fetched[c.fetchPos]
		c.fetchPos++
		mispredicted := in.Kind == trace.Branch && c.branchMispredicted(in)
		// Field by field: a composite literal is built on the stack and
		// copied in with wide loads that span its narrower stores, which
		// defeats store-to-load forwarding.
		e := &c.rob[slot]
		e.in = in
		e.doneAt = 0
		e.state = stWaiting
		e.mispredicted = mispredicted
		e.firstConsumer = -1
		e.nextConsumer = -1
		g := c.nextG
		c.count++
		c.link(slot, g, now)
		slot++
		if slot == len(c.rob) {
			slot = 0
		}
		c.nextG++
		c.didWork = true
		if mispredicted {
			// Stall-on-mispredict front end: no wrong path is
			// fetched; fetch waits for the branch to resolve.
			c.blockedG = g
			return
		}
	}
}
