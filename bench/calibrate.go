package main

import (
	"sync/atomic"
	"time"
)

// The hosts this benchmark runs on are shared virtual machines whose
// speed drifts by a third within minutes as neighbours come and go,
// which no number of passes inside one run can average away. Every run
// therefore also times a fixed reference loop between its operations
// and reports host-time metrics scaled to a reference host, one on which
// the loop runs refKernelRate steps per second. The loop lives in the
// benchmark, not the program, so no change to the simulator moves it.

// refKernelRate is the loop's median rate on the 2-vCPU host the
// baseline in baseline.json was recorded on.
const refKernelRate = 2.4e8

// kernelSteps is one sample's work at scale 1: about 17 ms on the
// reference host. Samples shrink with -scale, as the operations do.
const kernelSteps = 4_000_000

// kernelRing is a random cyclic permutation small enough (8 KiB) to
// stay in the L1: where the loop's data lands in physical memory then
// cannot change its speed from one process to the next, so it tracks
// only how fast the host's cores run.
var kernelRing = func() []uint32 {
	const n = 1 << 11
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	ring := make([]uint32, n)
	for i := range perm {
		ring[perm[i]] = perm[(i+1)%n]
	}
	return ring
}()

// kernelSink keeps the loop's result live; runs in parallel tests
// share it.
var kernelSink atomic.Uint64

// kernelSamplesPerPass is how many times each pass runs the loop, and
// times a set-up, spread over its operations.
const kernelSamplesPerPass = 8

// kernelRate runs the reference loop for steps steps, a pointer chase
// with data-dependent branches, and returns its rate in steps per
// second.
func kernelRate(steps int) float64 {
	start := time.Now()
	var p uint32
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < steps; i++ {
		p = kernelRing[p]
		h ^= uint64(p)
		h *= 0x100000001b3
		switch {
		case h&7 == 3:
			h += uint64(i)
		case h&5 == 1:
			h ^= h >> 13
		}
	}
	kernelSink.Add(h)
	return float64(steps) / time.Since(start).Seconds()
}
