package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"mlpcache/internal/cache"
	"mlpcache/internal/cpu"
	"mlpcache/internal/sim"
)

// config is one invocation's settings.
type config struct {
	wl      *workloadDef
	seed    uint64
	seconds float64
	traced  bool
	scale   float64
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one workload run produced.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	info    info
	spans   []span
	results [2][]outcome // last untraced and last traced pass, for tests
}

// info is the line printed before the result: where and what was run.
type info struct {
	Host     host     `json:"host"`
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Scale    float64  `json:"scale"`
	Passes   int      `json:"passes"`
	Traced   int      `json:"traced_passes"`
	Digest   string   `json:"digest"`
	Canary   string   `json:"canary,omitempty"`
	Pinned   bool     `json:"pinned"`
	Errors   []string `json:"errors,omitempty"`
	// InstrPerS is every untraced pass's throughput on this host, in
	// pass order; HostSpeed is this host's speed relative to the
	// reference host (calibrate.go), which instr_per_s and setup_s are
	// scaled to.
	InstrPerS []float64 `json:"instr_per_s_passes"`
	HostSpeed float64   `json:"host_speed"`
	// Ledger splits 1e9/instr_per_s ("total") into the layer terms and
	// the residual in a traced run.
	Ledger map[string]float64 `json:"ledger,omitempty"`
}

// host records what the numbers depend on, so runs from machines with
// different CPU counts are never compared blindly.
type host struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Engine is the multi-core engine RunMulti picked, or single-core
	// when the workload never calls it.
	Engine string `json:"engine"`
}

type untracedPass struct {
	opNs                 []float64 // each operation's host time, in op order
	instr, cycles, alloc uint64
	misses               uint64
}

type tracedPass struct {
	ns, instr uint64 // sim calls with the recorders attached
	layers    layerSample
	outcomes  []outcome
}

type runner struct {
	config
	arena        *sim.Arena
	spans        spanLog
	root         int
	setup        []float64
	kernel       []float64 // reference-loop rates, taken between operations
	ref          []uint64  // per-op digests of the first pass
	attempted    int
	failed       int
	errs         []string
	untraced     []untracedPass
	traced       []tracedPass
	last         [2][]outcome
	canaryErr    error
	canaryDigest string
}

// run measures one workload for c.seconds: untraced passes, or with
// c.traced alternating untraced and traced passes, at least one of each.
func run(c config) (*report, error) {
	r := &runner{config: c, arena: sim.NewArena()}
	r.root = r.spans.open("bench", c.wl.name, 0, 0)
	if c.scale == 1 {
		r.canary()
	}
	// A pass that would end past the deadline is not started, so a run
	// takes about -seconds however long its passes are.
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for {
		start := time.Now()
		r.untracedPass()
		if c.traced {
			if err := r.tracedPass(); err != nil {
				return nil, err
			}
		}
		if time.Now().Add(time.Since(start)).After(deadline) {
			break
		}
	}
	r.spans.close(r.root)
	return r.report()
}

// minSetupSample is the least host time one set-up sample covers: a
// pass's inputs are built again until it has passed and the sample is
// the mean, so a set-up of microseconds is not lost in timer and
// allocator noise.
const minSetupSample = time.Millisecond

// build sets up one pass and records how long that took. It collects
// garbage first, so no collection cycle runs inside the timed set-up and
// discarded passes never inflate peak RSS.
func (r *runner) build() []*op {
	runtime.GC()
	id := r.spans.open("setup", r.wl.name, r.root, 0)
	start := time.Now()
	var ops []*op
	for n := 1; ; n++ {
		ops = r.wl.build(r.seed, r.scale, r.arena)
		if d := time.Since(start); d >= minSetupSample {
			r.setup = append(r.setup, d.Seconds()/float64(n))
			break
		}
	}
	r.spans.close(id)
	return ops
}

// sampleHost times the reference loop and a discarded set-up before
// operation i of n, so that every pass takes kernelSamplesPerPass of
// each, spread evenly over its operations: the samples cover the same
// stretch of host time as the operations. Set-ups timed only at the
// start of a process read the transients of a fresh heap and vary by a
// third from run to run.
func (r *runner) sampleHost(i, n int) {
	for s := i * kernelSamplesPerPass / n; s < (i+1)*kernelSamplesPerPass/n; s++ {
		r.kernel = append(r.kernel, kernelRate(max(1, int(kernelSteps*r.scale))))
		r.build()
	}
}

// canary runs the workload's canary op at seed 42 on a cold arena and,
// when digests.json pins it, compares the digests, so every run checks
// the program against recorded results, not only runs at a pinned seed.
func (r *runner) canary() {
	o := r.wl.build(42, r.wl.canaryScale, nil)[r.wl.canary]
	out, err := o.run()
	if err == nil {
		err = o.check(out)
	}
	if err == nil {
		r.canaryDigest = fmt.Sprintf("%016x", out.digest())
		if want, ok := pinnedDigest(r.wl.name, "canary"); ok && r.canaryDigest != want {
			err = fmt.Errorf("canary %s at seed 42: digest %s, pinned %s", o.label, r.canaryDigest, want)
		}
	}
	r.canaryErr = err
}

// record checks one op's outcome; i is the op's index in its pass.
func (r *runner) record(i int, o *op, out outcome, err error) {
	r.attempted++
	if err == nil {
		err = o.check(out)
	}
	if err == nil {
		d := out.digest()
		switch {
		case i == len(r.ref):
			r.ref = append(r.ref, d)
		case r.ref[i] != d:
			err = fmt.Errorf("%s: simulated results differ from the first pass (digest %016x, want %016x)", o.label, d, r.ref[i])
		}
	}
	if err != nil {
		r.failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

func (r *runner) untracedPass() {
	ops := r.build()
	id := r.spans.open("pass", r.wl.name, r.root, 0)
	p := untracedPass{opNs: make([]float64, len(ops))}
	var before, after runtime.MemStats
	outs := make([]outcome, len(ops))
	for i, o := range ops {
		r.sampleHost(i, len(ops))
		sid := r.spans.open(o.call(), o.label, id, r.attempted+1)
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, err := o.run()
		p.opNs[i] = float64(time.Since(start))
		runtime.ReadMemStats(&after)
		p.alloc += after.TotalAlloc - before.TotalAlloc
		r.spans.close(sid)
		r.record(i, o, out, err)
		if err == nil {
			outs[i] = out
			p.instr += out.instructions()
			p.cycles += out.cycles()
			p.misses += out.mem().DemandMisses
		}
	}
	r.spans.close(id)
	r.untraced = append(r.untraced, p)
	r.last[0] = outs
}

func (r *runner) tracedPass() error {
	ops := r.build()
	id := r.spans.open("traced_pass", r.wl.name, r.root, 0)
	var p tracedPass
	for i, o := range ops {
		rec := attach(o)
		run := r.attempted + 1
		sid := r.spans.open(o.call(), o.label, id, run)
		start := time.Now()
		out, err := o.run()
		p.ns += uint64(time.Since(start))
		r.spans.close(sid)
		r.record(i, o, out, err)
		if err != nil {
			continue
		}
		s, err := rec.replay(o, &r.spans, sid, run)
		if err != nil {
			return err
		}
		p.instr += out.instructions()
		p.layers.add(s)
		p.outcomes = append(p.outcomes, out)
	}
	r.spans.close(id)
	r.traced = append(r.traced, p)
	r.last[1] = p.outcomes
	return nil
}

func (o *op) call() string {
	if o.multi() {
		return "sim.RunMulti"
	}
	return "sim.Run"
}

func (s *layerSample) add(o layerSample) {
	for l := range s.ns {
		s.ns[l] += o.ns[l]
	}
	s.l1ReplayMisses += o.l1ReplayMisses
	s.l2ReplayMisses += o.l2ReplayMisses
	s.costMismatches += o.costMismatches
	s.dramMatched += o.dramMatched
	s.dramFills += o.dramFills
	s.events += o.events
	s.eventBytes += o.eventBytes
	s.records += o.records
}

func (r *runner) report() (*report, error) {
	rep := &report{
		Attempted: r.attempted,
		Failed:    r.failed,
		spans:     r.spans.spans,
		results:   r.last,
	}
	h := fnv.New64a()
	for _, d := range r.ref {
		h.Write(binary.LittleEndian.AppendUint64(nil, d))
	}
	rep.info = info{
		Host:     hostInfo(r.last[0]),
		Workload: r.wl.name,
		Seed:     r.seed,
		Scale:    r.scale,
		Passes:   len(r.untraced),
		Traced:   len(r.traced),
		Digest:   fmt.Sprintf("%016x", h.Sum64()),
		Canary:   r.canaryDigest,
	}
	if want, ok := pinnedDigest(r.wl.name, strconv.FormatUint(r.seed, 10)); ok && r.scale == 1 {
		rep.info.Pinned = true
		if want != rep.info.Digest {
			r.errs = append(r.errs, fmt.Sprintf("digest %s, pinned %s for seed %d", rep.info.Digest, want, r.seed))
			rep.Failed = rep.Attempted // every op reproduced the same wrong results
		}
	}
	if r.canaryErr != nil {
		r.errs = append(r.errs, r.canaryErr.Error())
		rep.Failed = rep.Attempted // the program no longer computes what was recorded
	}
	rep.Correct = rep.Failed == 0
	rep.info.Errors = r.errs

	// instr_per_s sums each operation's median time over the passes, so a
	// burst of host noise moves only the operations it hit.
	ipsSamples := make([]float64, len(r.untraced))
	for i, p := range r.untraced {
		var ns float64
		for _, t := range p.opNs {
			ns += t
		}
		ipsSamples[i] = 1e9 * float64(p.instr) / ns
	}
	var ns float64
	for i := range r.untraced[0].opNs {
		t := make([]float64, len(r.untraced))
		for j, p := range r.untraced {
			t[j] = p.opNs[i]
		}
		ns += median(t)
	}
	ips := 1e9 * float64(r.untraced[0].instr) / ns
	// speed is how much faster than the reference host this one ran.
	speed := median(r.kernel) / refKernelRate
	rep.info.InstrPerS, rep.info.HostSpeed = ipsSamples, speed
	if r.traced == nil {
		// Allocation is the steady state of a sweep: every pass but the
		// first finds the arena warm. How far a cold pass's slices grow
		// depends on the seed far more.
		warm := r.untraced[min(1, len(r.untraced)-1):]
		alloc := make([]float64, len(warm))
		for i, p := range warm {
			alloc[i] = ratio(p.alloc, p.instr)
		}
		p := r.untraced[0]
		rep.Metrics = map[string]metric{
			"instr_per_s":           {ips / speed, "instr/s"},
			"setup_s":               {median(r.setup) * speed, "s"},
			"peak_rss_mb":           {peakRSSMB(), "MB"},
			"alloc_bytes_per_instr": {median(alloc), "B/instr"},
			"sim_ipc":               {ratio(p.instr, p.cycles), "instr/cycle"},
			"sim_mpki":              {1000 * ratio(p.misses, p.instr), "misses/kinstr"},
		}
		return rep, nil
	}
	// The ledger stays in this host's time: the layer replays ran here.
	rep.Metrics, rep.info.Ledger = r.layerMetrics(1e9 / ips)
	return rep, nil
}

// layerMetrics builds the per-layer report and the ledger. total is
// host nanoseconds per simulated instruction in the untraced passes.
func (r *runner) layerMetrics(total float64) (map[string]metric, map[string]float64) {
	// overPasses is f's median over the traced passes.
	overPasses := func(f func(tracedPass) float64) float64 {
		v := make([]float64, len(r.traced))
		for i, p := range r.traced {
			v[i] = f(p)
		}
		return median(v)
	}
	var layer [numLayers]float64
	for l := range layer {
		layer[l] = overPasses(func(p tracedPass) float64 { return float64(p.layers.ns[l]) / float64(p.instr) })
	}
	// Every workload pays for the layers up to dram; only an observed
	// workload's untraced operations run the tracer and the oracle.
	terms := layerMetrics
	if r.wl.observed {
		terms = numLayers
	}
	ledger := map[string]float64{"total": total}
	residual := total
	for l := 0; l < terms; l++ {
		ledger[layerNames[l]] = layer[l]
		residual -= layer[l]
	}
	ledger["residual"] = residual

	last := r.traced[len(r.traced)-1]
	s := last.layers
	c := countsOf(last.outcomes)
	k := float64(last.instr) / 1000
	m := map[string]metric{
		"workload.ns_per_instr":            {layer[layerWorkload], "ns/instr"},
		"sim.residual_ns_per_instr":        {residual, "ns/instr"},
		"sim.residual_share":               {residual / total, "ratio"},
		"cpu.mem_stall_frac":               {ratio(c.memStall, c.coreCycles), "ratio"},
		"cpu.full_window_frac":             {ratio(c.fullWindow, c.coreCycles), "ratio"},
		"cpu.mshr_rejects_per_kinstr":      {float64(c.rejects) / k, "rejects/kinstr"},
		"cache.l1.ns_per_instr":            {layer[layerL1], "ns/instr"},
		"cache.l1.accesses_per_kinstr":     {float64(c.l1.Accesses()) / k, "accesses/kinstr"},
		"cache.l1.miss_rate":               {c.l1.MissRate(), "ratio"},
		"cache.l1.replay_miss_ratio":       {ratio(s.l1ReplayMisses, c.l1.Misses), "ratio"},
		"cache.l2.ns_per_instr":            {layer[layerL2], "ns/instr"},
		"cache.l2.accesses_per_kinstr":     {float64(c.l2.Accesses()) / k, "accesses/kinstr"},
		"cache.l2.miss_rate":               {c.l2.MissRate(), "ratio"},
		"cache.l2.replay_miss_ratio":       {ratio(s.l2ReplayMisses, c.demandMisses+c.mergedMisses), "ratio"},
		"mshr.ns_per_instr":                {layer[layerMSHR], "ns/instr"},
		"mshr.merges_per_kinstr":           {float64(c.mergedMisses) / k, "merges/kinstr"},
		"mshr.peak_occupancy":              {float64(c.mshrPeak), "entries"},
		"mshr.replay_cost_mismatches":      {float64(s.costMismatches), "fills"},
		"dram.ns_per_instr":                {layer[layerDRAM], "ns/instr"},
		"dram.reads_per_kinstr":            {float64(c.dramReads) / k, "reads/kinstr"},
		"dram.writes_per_kinstr":           {float64(c.dramWrites) / k, "writes/kinstr"},
		"dram.replay_done_match_frac":      {ratio(s.dramMatched, s.dramFills), "ratio"},
		"sim.tracked_blocks":               {float64(c.trackedBlocks), "blocks"},
		"sim.cross_core_merges_per_kinstr": {float64(c.crossMerges) / k, "merges/kinstr"},
		"metrics.events_per_kinstr":        {float64(s.events) / k, "events/kinstr"},
		"metrics.emit_ns_per_event":        {overPasses(func(p tracedPass) float64 { return ratio(uint64(p.layers.ns[layerMetrics]), p.layers.events) }), "ns/event"},
		"metrics.ns_per_instr":             {layer[layerMetrics], "ns/instr"},
		"metrics.v2_bytes_per_event":       {ratio(s.eventBytes, s.events), "B/event"},
		"oracle.records_per_kinstr":        {float64(s.records) / k, "records/kinstr"},
		"oracle.compare_ns_per_record":     {overPasses(func(p tracedPass) float64 { return ratio(uint64(p.layers.ns[layerOracle]), p.layers.records) }), "ns/record"},
		"oracle.ns_per_instr":              {layer[layerOracle], "ns/instr"},
		"bench.trace_overhead_pct":         {100 * (overPasses(func(p tracedPass) float64 { return float64(p.ns) / float64(p.instr) }) - total) / total, "%"},
	}
	return m, ledger
}

// counts sums the live simulator's own counters over one pass.
type counts struct {
	memStall, fullWindow, rejects, coreCycles uint64
	l1, l2                                    cache.Stats
	demandMisses, mergedMisses                uint64
	dramReads, dramWrites                     uint64
	mshrPeak                                  int
	trackedBlocks, crossMerges                uint64
}

func (c *counts) addCPU(s cpu.Stats, cycles uint64) {
	c.memStall += s.MemStallCycles
	c.fullWindow += s.FullWindowCycles
	c.rejects += s.MSHRRejects
	c.coreCycles += cycles
}

func addCache(dst *cache.Stats, s cache.Stats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
}

func countsOf(outs []outcome) counts {
	var c counts
	for _, out := range outs {
		mem := out.mem()
		c.demandMisses += mem.DemandMisses
		c.mergedMisses += mem.MergedMisses
		c.trackedBlocks = max(c.trackedBlocks, mem.TrackedBlocks)
		if r := out.single; r != nil {
			c.addCPU(r.CPU, r.Cycles)
			addCache(&c.l1, r.L1)
			addCache(&c.l2, r.L2)
			c.dramReads += r.DRAM.Reads
			c.dramWrites += r.DRAM.Writes
			c.mshrPeak = max(c.mshrPeak, r.MSHR.Peak)
			continue
		}
		r := out.multi
		for _, cr := range r.Cores {
			c.addCPU(cr.CPU, r.Cycles)
			addCache(&c.l1, cr.L1)
			c.mshrPeak = max(c.mshrPeak, cr.MSHR.Peak)
		}
		addCache(&c.l2, r.L2)
		c.dramReads += r.DRAM.Reads
		c.dramWrites += r.DRAM.Writes
		c.crossMerges += r.CrossCoreMerges
	}
	return c
}

func hostInfo(outs []outcome) host {
	h := host{
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Engine:     "single-core",
	}
	for _, out := range outs {
		if out.multi != nil {
			h.Engine = "serial"
			if out.multi.Parallel != nil {
				h.Engine = "parallel"
			}
		}
	}
	return h
}

// peakRSSMB is the process's peak resident set in MB (Linux reports
// Maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
