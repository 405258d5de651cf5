package core

import "mlpcache/internal/cache"

// Hybrid is a replacement scheme that dynamically chooses between an
// MLP-aware and a traditional policy. It doubles as the main tag
// directory's cache.Policy and additionally observes the access stream to
// drive its selection machinery (ATDs and PSEL counters).
//
// Protocol, driven by the simulator for every L2 access:
//
//  1. The L2 is probed; the outcome is reported through OnAccess together
//     with whether a missing access allocated a new MSHR entry
//     (primaryMiss). Merged secondary misses are observed for ATD recency
//     but never update PSEL, mirroring the paper's treatment of
//     concurrent misses to one block as a single miss.
//  2. When a primary miss is serviced, OnFill delivers the quantized
//     MLP-based cost the MSHR computed, completing any deferred PSEL
//     update and ATD fill for that block.
type Hybrid interface {
	cache.Policy
	// OnAccess observes one L2 access. mtdHit is the main directory's
	// probe outcome; primaryMiss is true when a missing access allocated
	// a new MSHR entry.
	OnAccess(addr uint64, write, mtdHit, primaryMiss bool)
	// OnFill observes the service of a primary miss with the quantized
	// cost the MSHR computed for it.
	OnFill(addr uint64, costQ uint8)
	// AdvanceEpoch gives runtime selection policies (rand-dynamic
	// leaders) a chance to re-draw; called every epoch boundary.
	AdvanceEpoch()
	// UsingLIN reports whether the given set currently runs LIN, for
	// the Figure 11 series: SBAR's leader sets always do, and every
	// other set follows the counter PselValue reads.
	UsingLIN(set int) bool
	// Stats returns the selection counters.
	Stats() HybridStats
	// PselValue reads the selector counter a follower set consults, for
	// the Figure 11 series: SBAR's thread-0 PSEL whatever the set, or
	// CBS's counter for the set (the only one under the global scope).
	PselValue(set int) int
}

// HybridStats counts a hybrid's selection activity.
type HybridStats struct {
	// PselIncrements and PselDecrements count PSEL updates toward LIN
	// and toward LRU respectively.
	PselIncrements uint64
	PselDecrements uint64
	// LinVictims and LruVictims count victim decisions made with each
	// policy (leader-set decisions included for SBAR).
	LinVictims uint64
	LruVictims uint64
	// EpochReselects counts leader re-draws that changed the leader map.
	EpochReselects uint64
	// LeaderAccesses counts accesses observed in leader sets (SBAR) or
	// total observed accesses (CBS); TieBothHit/TieBothMiss count the
	// contests where neither policy won.
	LeaderAccesses uint64
	TieBothHit     uint64
	TieBothMiss    uint64
}

// Compile-time conformance checks.
var (
	_ Hybrid = (*SBAR)(nil)
	_ Hybrid = (*CBS)(nil)
)
