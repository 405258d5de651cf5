package sim

import (
	"mlpcache/internal/blockmap"
	"mlpcache/internal/cache"
	"mlpcache/internal/cpu"
	"mlpcache/internal/mshr"
	"mlpcache/internal/trace"
)

// arenaPoolCap bounds each of the Arena's component pools. A worker
// reusing one arena per job holds at most one run's worth of components
// between jobs; the cap only matters if an arena is fed from runs with
// ever-growing core counts, and keeps even that case bounded.
const arenaPoolCap = 128

// Arena recycles a run's bulk allocations — cache line arrays, MSHR
// files, blockmap tables, fill-heap backing and fill freelists — across
// runs, so a worker executing many simulations (an experiment sweep, an
// mlpserve worker) pays the cold-allocation cost once instead of per
// job. Set Config.Arena to use it; the memory system draws its components
// from the arena and returns them after the result is assembled.
//
// Recycled components are reset to their just-built state on reuse
// (cache.Reset, mshr.Reset, blockmap.Reset), so arena-backed runs are
// bit-identical to cold ones — TestArenaRunsBitIdentical holds single-
// and multi-core runs to that, and TestWarmRunAllocations pins that a
// warm run draws every component from the pools. Result histograms and policy state are
// never pooled: results alias them after the run returns (the experiment
// cache memoizes Results), so the arena only touches objects the memory
// system owns outright.
//
// An Arena is not goroutine-safe. Give each worker goroutine its own;
// internal/experiments.Runner and internal/service do exactly that
// (docs/PERFORMANCE.md "Simulation arenas").
type Arena struct {
	caches   []*cache.Cache
	mshrs    []*mshr.MSHR
	cpus     []*cpu.CPU
	inflight []*blockmap.Table[*fill]
	tracked  []*blockmap.Table[blockInfo]

	// Fill-heap backing array and freelist, objects included: the fills
	// themselves are plain structs the memory system fully overwrites on
	// reuse (newFill), so carrying them between runs is safe.
	heap []*fill
	free []*fill
	// ports is the last run's port array, reused by the next run that
	// fits in it. release clears it first, so it pins no component or
	// instruction source between runs.
	ports []corePort
}

// NewArena returns an empty arena. The zero value is not usable; a nil
// Config.Arena simply disables pooling.
func NewArena() *Arena { return &Arena{} }

// getCache returns a cache with the requested geometry and policy,
// reusing a pooled one when its resolved geometry matches. Custom
// indexers (sampled ATDs) are never pooled: their geometry is not
// comparable, and they are built by the hybrid engines, not the
// simulator core.
func (a *Arena) getCache(cfg cache.Config, policy cache.Policy) *cache.Cache {
	if a == nil || cfg.Index != nil {
		return cache.New(cfg, policy)
	}
	sets, err := cfg.SetCount()
	if err != nil {
		return cache.New(cfg, policy) // New panics with the typed error
	}
	block := cfg.BlockBytes
	if block == 0 {
		block = 64
	}
	for i := len(a.caches) - 1; i >= 0; i-- {
		got := a.caches[i].Config()
		if got.Sets == sets && got.Assoc == cfg.Assoc && got.BlockBytes == block {
			c := a.caches[i]
			a.caches[i] = a.caches[len(a.caches)-1]
			a.caches[len(a.caches)-1] = nil
			a.caches = a.caches[:len(a.caches)-1]
			c.Reset(policy)
			return c
		}
	}
	return cache.New(cfg, policy)
}

// getMSHR returns an MSHR file with the requested configuration,
// reusing a pooled one when the configs match exactly.
func (a *Arena) getMSHR(cfg mshr.Config) *mshr.MSHR {
	if a == nil {
		return mshr.New(cfg)
	}
	for i := len(a.mshrs) - 1; i >= 0; i-- {
		if a.mshrs[i].Config() == cfg {
			m := a.mshrs[i]
			a.mshrs[i] = a.mshrs[len(a.mshrs)-1]
			a.mshrs[len(a.mshrs)-1] = nil
			a.mshrs = a.mshrs[:len(a.mshrs)-1]
			m.Reset()
			return m
		}
	}
	return mshr.New(cfg)
}

// getCPU returns a core model executing src against mem, reusing a
// pooled one when available. Any pooled core serves any configuration:
// cpu.Reset reallocates the ROB ring, ready bitmap and completion wheel
// only when the window size changes and recycles the store-buffer and
// far-heap backings, which carry no observable state.
func (a *Arena) getCPU(cfg cpu.Config, mem cpu.MemSystem, src trace.Source) *cpu.CPU {
	if a == nil {
		return cpu.New(cfg, mem, src)
	}
	if n := len(a.cpus); n > 0 {
		c := a.cpus[n-1]
		a.cpus[n-1] = nil
		a.cpus = a.cpus[:n-1]
		c.Reset(cfg, mem, src)
		return c
	}
	return cpu.New(cfg, mem, src)
}

// Table pools. Any pooled table serves any request: blockmap tables
// grow on demand, and a table recycled from an earlier run has already
// grown to that run's population, so steady-state reuse never rehashes.

func (a *Arena) getInflightTable(expected int) *blockmap.Table[*fill] {
	if a == nil {
		return blockmap.New[*fill](expected)
	}
	if n := len(a.inflight); n > 0 {
		t := a.inflight[n-1]
		a.inflight[n-1] = nil
		a.inflight = a.inflight[:n-1]
		t.Reset()
		return t
	}
	return blockmap.New[*fill](expected)
}

func (a *Arena) getTrackedTable(expected int) *blockmap.Table[blockInfo] {
	if a == nil {
		return blockmap.New[blockInfo](expected)
	}
	if n := len(a.tracked); n > 0 {
		t := a.tracked[n-1]
		a.tracked[n-1] = nil
		a.tracked = a.tracked[:n-1]
		t.Reset()
		return t
	}
	return blockmap.New[blockInfo](expected)
}

// getFills returns recycled fill-heap backing and a recycled freelist
// (both possibly nil/empty on a cold arena). The freelist carries live
// *fill objects from the previous run; newFill overwrites every field on
// reuse.
func (a *Arena) getFills() (heap []*fill, free []*fill) {
	if a == nil {
		return nil, nil
	}
	heap, free = a.heap, a.free
	a.heap, a.free = nil, nil
	return heap[:0:cap(heap)], free
}

// getPorts returns an n-port array, the pooled one when it is large
// enough. newMemSystem overwrites every port it uses.
func (a *Arena) getPorts(n int) []corePort {
	if a == nil || cap(a.ports) < n {
		return make([]corePort, n)
	}
	ports := a.ports[:n]
	a.ports = nil
	return ports
}

// release returns a memory system's poolable components: the shared L2,
// every core's L1, MSHR file and CPU model, and the shared tables, heap
// backing and freelist. The run entry points call it after result
// assembly; nothing released here is reachable from a result (stats are
// copied out by value; histograms, policy state and stats values stay
// with the caller).
func (a *Arena) release(m *memSystem) {
	if a == nil || m == nil {
		return
	}
	a.putCache(m.l2)
	for i := range m.ports {
		p := &m.ports[i]
		a.putCache(p.l1)
		a.putMSHR(p.mshr)
		if len(a.cpus) < arenaPoolCap {
			a.cpus = append(a.cpus, p.cpu)
		}
	}
	if len(a.inflight) < arenaPoolCap {
		a.inflight = append(a.inflight, m.inflight)
	}
	if len(a.tracked) < arenaPoolCap {
		a.tracked = append(a.tracked, m.tracked)
	}
	// The heap drains before a run completes normally; clear any
	// stragglers (errored runs) so the backing array holds no live fills.
	clear(m.fills.h)
	a.heap, a.free = m.fills.h[:0:cap(m.fills.h)], m.fillFree
	clear(m.ports)
	a.ports = m.ports
}

func (a *Arena) putCache(c *cache.Cache) {
	if c != nil && !c.CustomIndex() && len(a.caches) < arenaPoolCap {
		a.caches = append(a.caches, c)
	}
}

func (a *Arena) putMSHR(m *mshr.MSHR) {
	if m != nil && len(a.mshrs) < arenaPoolCap {
		a.mshrs = append(a.mshrs, m)
	}
}
