package core

import (
	"strings"
	"testing"
	"testing/quick"

	"mlpcache/internal/cache"
	"mlpcache/internal/trace"
)

// sbarHarness drives an SBAR-managed cache through the memsys protocol
// without timing: misses are serviced immediately with a caller-chosen
// quantized cost.
type sbarHarness struct {
	mtd  *cache.Cache
	sbar *SBAR
}

func newSBARHarness(t *testing.T, cfg SBARConfig, sets, assoc int) *sbarHarness {
	t.Helper()
	mtd := cache.New(cache.Config{Sets: sets, Assoc: assoc, BlockBytes: 64}, nil)
	return &sbarHarness{mtd: mtd, sbar: NewSBAR(mtd, cfg)}
}

// access performs one block access; on a miss the block is filled with
// costQ. Returns whether the MTD hit.
func (h *sbarHarness) access(block uint64, costQ uint8) bool {
	addr := block * 64
	hit := h.mtd.Probe(addr, false)
	h.sbar.OnAccess(addr, false, hit, !hit)
	if !hit {
		h.mtd.Fill(addr, costQ, false)
		h.sbar.OnFill(addr, costQ)
	}
	return hit
}

func TestSBARLeaderSetsAlwaysUseLIN(t *testing.T) {
	h := newSBARHarness(t, SBARConfig{LeaderSets: 2, Lambda: 4}, 4, 2)
	// Force PSEL to favour LRU; leader sets must still replace with LIN.
	h.sbar.Psel().Add(-100)
	// Leader sets for K=2, N=4: constituency 2, leaders at 0 and 3.
	if !h.sbar.UsingLIN(0) || !h.sbar.UsingLIN(3) {
		t.Fatal("leader sets must report LIN regardless of PSEL")
	}
	if h.sbar.UsingLIN(1) || h.sbar.UsingLIN(2) {
		t.Fatal("follower sets must follow PSEL (LRU here)")
	}
	// In leader set 0: a cost-7 block at LRU must survive a fill (LIN
	// behaviour), even though PSEL selects LRU.
	h.access(0, 7) // block 0 → set 0, expensive
	h.access(4, 0) // block 4 → set 0, cheap, MRU
	h.access(8, 0) // set 0 full → LIN evicts block 4 (score 15+0 vs 0+28... rank1+0=1)
	if !h.mtd.Contains(0 * 64) {
		t.Fatal("leader set evicted the protected cost-7 block")
	}
}

func TestSBARFollowersObeyPSEL(t *testing.T) {
	h := newSBARHarness(t, SBARConfig{LeaderSets: 2, Lambda: 4}, 4, 2)
	// Follower set 1 (blocks ≡ 1 mod 4). With PSEL high (LIN): cost-7
	// block survives; with PSEL low (LRU): it is evicted.
	h.sbar.Psel().Add(+100)
	h.access(1, 7)
	h.access(5, 0)
	h.access(9, 0)
	if !h.mtd.Contains(1 * 64) {
		t.Fatal("follower under LIN evicted the cost-7 block")
	}

	h2 := newSBARHarness(t, SBARConfig{LeaderSets: 2, Lambda: 4}, 4, 2)
	h2.sbar.Psel().Add(-100)
	h2.access(1, 7)
	h2.access(5, 0)
	h2.access(9, 0)
	if h2.mtd.Contains(1 * 64) {
		t.Fatal("follower under LRU kept the LRU-position block")
	}
}

// TestSBARUsingLINReadsThreadZero partitions the selector over two
// threads that disagree: whichever thread last touched the L2, a
// follower set reports thread 0's counter, the one PselValue reports.
func TestSBARUsingLINReadsThreadZero(t *testing.T) {
	h := newSBARHarness(t, SBARConfig{LeaderSets: 2, Lambda: 4, Threads: 2}, 4, 2)
	h.sbar.PselFor(0).Add(-100)
	h.sbar.PselFor(1).Add(100)
	for tid := range 2 {
		h.sbar.SetThread(tid)
		if h.sbar.UsingLIN(1) {
			t.Errorf("after SetThread(%d), follower set 1 reports LIN; thread 0's counter %d selects LRU",
				tid, h.sbar.PselValue(1))
		}
		if !h.sbar.UsingLIN(0) {
			t.Errorf("after SetThread(%d), leader set 0 does not report LIN", tid)
		}
	}
}

func TestSBARDecrementRule(t *testing.T) {
	// Figure 6: leader (LIN) miss + ATD-LRU hit → PSEL -= cost_q of the
	// miss, applied when the miss is serviced.
	h := newSBARHarness(t, SBARConfig{LeaderSets: 2, Lambda: 4}, 4, 2)
	start := h.sbar.Psel().Value()
	// Leader set 0. Fill blocks 0 (q7) and 4 (q0): both in MTD and ATD.
	h.access(0, 7)
	h.access(4, 1)
	// Insert block 8 (q0): LIN evicts block 4 (cheap); LRU (ATD) evicts
	// block 0 (oldest).
	h.access(8, 1)
	// Access block 4 again: MTD misses (LIN evicted it), ATD hits → the
	// paper's decrement case. Service cost 5.
	if h.access(4, 5) {
		t.Fatal("expected MTD miss for block 4")
	}
	st := h.sbar.Stats()
	if st.PselDecrements != 1 {
		t.Fatalf("decrements = %d, want 1", st.PselDecrements)
	}
	if got := h.sbar.Psel().Value(); got != start-5 {
		t.Fatalf("PSEL = %d, want %d (decrement by the serviced cost)", got, start-5)
	}
}

func TestSBARIncrementRule(t *testing.T) {
	// Figure 6 mirror: leader hit + ATD-LRU miss → PSEL += cost_q taken
	// from the MTD tag entry (footnote 6: not serviced by memory).
	h := newSBARHarness(t, SBARConfig{LeaderSets: 2, Lambda: 4}, 4, 2)
	h.access(0, 7) // leader set 0, protected by LIN
	h.access(4, 1)
	h.access(8, 1) // ATD-LRU evicts block 0; MTD-LIN evicts a cheap block
	start := h.sbar.Psel().Value()
	// Access block 0: MTD hits (LIN kept it), ATD misses → increment by
	// the MTD-stored cost (7).
	if !h.access(0, 0) {
		t.Fatal("expected MTD hit for the protected block")
	}
	st := h.sbar.Stats()
	if st.PselIncrements != 1 {
		t.Fatalf("increments = %d, want 1", st.PselIncrements)
	}
	if got := h.sbar.Psel().Value(); got != start+7 {
		t.Fatalf("PSEL = %d, want %d", got, start+7)
	}
}

func TestSBARTiesLeavePSELUnchanged(t *testing.T) {
	h := newSBARHarness(t, SBARConfig{LeaderSets: 2, Lambda: 4}, 4, 2)
	start := h.sbar.Psel().Value()
	h.access(0, 3) // both miss
	h.access(0, 3) // both hit
	if got := h.sbar.Psel().Value(); got != start {
		t.Fatalf("PSEL moved to %d on tie outcomes", got)
	}
	st := h.sbar.Stats()
	if st.TieBothMiss != 1 || st.TieBothHit != 1 {
		t.Fatalf("tie counters %+v", st)
	}
}

func TestSBARFollowerAccessesDoNotUpdatePSEL(t *testing.T) {
	h := newSBARHarness(t, SBARConfig{LeaderSets: 2, Lambda: 4}, 4, 2)
	start := h.sbar.Psel().Value()
	for b := uint64(0); b < 40; b++ {
		h.access(b*4+1, 7) // all in follower set 1
	}
	if h.sbar.Psel().Value() != start {
		t.Fatal("follower sets must not update PSEL")
	}
	if h.sbar.Stats().LeaderAccesses != 0 {
		t.Fatal("follower accesses counted as leader accesses")
	}
}

func TestSBARConvergesToLRUUnderDeadPollution(t *testing.T) {
	// The bzip2/parser/mgrid scenario in miniature: a hot loop that LRU
	// keeps, plus dead cost-7 blocks that LIN wrongly protects. PSEL
	// must saturate toward LRU.
	h := newSBARHarness(t, SBARConfig{}, 1024, 16)
	rng := trace.NewRNG(3)
	cold := uint64(1 << 24)
	for round := 0; round < 40; round++ {
		for b := uint64(0); b < 4000; b++ {
			h.access(b, 1)
			if rng.Bool(0.5) {
				h.access(cold, 7)
				cold++
			}
		}
	}
	if h.sbar.Psel().MSB() {
		t.Fatalf("PSEL = %d still selects LIN under dead pollution", h.sbar.Psel().Value())
	}
	if h.sbar.UsingLIN(5) {
		t.Fatal("followers should be using LRU")
	}
}

func TestSBARConvergesToLINWhenCostIsRepeatable(t *testing.T) {
	// The mcf scenario in miniature: an expensive region that thrashes
	// under LRU but fits if protected, against a streaming region.
	h := newSBARHarness(t, SBARConfig{}, 1024, 16)
	streamNext := uint64(1 << 24)
	for round := 0; round < 60; round++ {
		for b := uint64(0); b < 6000; b++ {
			h.access(b, 7) // expensive reused region
			// Two streaming fills per reused access → LRU thrashes
			// the reused region.
			for s := 0; s < 2; s++ {
				h.access(streamNext%40000+1<<23, 0)
				streamNext++
			}
		}
	}
	if !h.sbar.Psel().MSB() {
		t.Fatalf("PSEL = %d still selects LRU for a LIN-friendly workload", h.sbar.Psel().Value())
	}
}

func TestSBARAdvanceEpochRandDynamic(t *testing.T) {
	sel := NewRandDynamic(1024, 32, 11)
	mtd := cache.New(cache.Config{Sets: 1024, Assoc: 16, BlockBytes: 64}, nil)
	s := NewSBAR(mtd, SBARConfig{Selector: sel})
	oldATD := s.ATD()
	s.AdvanceEpoch()
	if s.Stats().EpochReselects == 0 {
		t.Skip("reselect drew identical leaders (astronomically unlikely)")
	}
	if s.ATD() == oldATD {
		t.Fatal("epoch reselect must rebuild the ATD")
	}
}

func TestSBARAdvanceEpochStaticIsNoop(t *testing.T) {
	mtd := cache.New(cache.Config{Sets: 64, Assoc: 4, BlockBytes: 64}, nil)
	s := NewSBAR(mtd, SBARConfig{LeaderSets: 8})
	old := s.ATD()
	s.AdvanceEpoch()
	if s.ATD() != old || s.Stats().EpochReselects != 0 {
		t.Fatal("simple-static epoch must be a no-op")
	}
}

func TestSBARName(t *testing.T) {
	mtd := cache.New(cache.Config{Sets: 64, Assoc: 4, BlockBytes: 64}, nil)
	s := NewSBAR(mtd, SBARConfig{LeaderSets: 8})
	if s.Name() == "" {
		t.Fatal("empty name")
	}
	if mtd.Policy() != s {
		t.Fatal("SBAR must install itself as the MTD policy")
	}
}

func TestSBARGenericContestants(t *testing.T) {
	// SBAR is a generic hybrid engine: race FIFO against LRU.
	mtd := cache.New(cache.Config{Sets: 64, Assoc: 4, BlockBytes: 64}, nil)
	s := NewSBAR(mtd, SBARConfig{
		LeaderSets:   8,
		Experimental: cache.NewFIFO(),
		Baseline:     cache.NewLRU(),
	})
	if got := s.Name(); !strings.Contains(got, "fifo") || !strings.Contains(got, "lru") {
		t.Fatalf("Name %q should identify both contestants", got)
	}
	// Leader sets must replace with the experimental policy: in leader
	// set 0, FIFO evicts the first-filled block even if recently used.
	h := &sbarHarness{mtd: mtd, sbar: s}
	h.access(0, 0)   // set 0 (leader for K=8, N=64)
	h.access(64, 0)  // same set
	h.access(128, 0) // same set
	h.access(192, 0) // set 0 now full
	h.access(0, 0)   // touch block 0 (protects it under LRU, not FIFO)
	h.access(256, 0) // forces an eviction
	if mtd.Contains(0) {
		t.Fatal("FIFO leader set should have evicted the first-filled block")
	}
}

// Property: whatever access pattern is thrown at it, SBAR's PSEL stays in
// range, its pending map never grows beyond the number of in-flight
// primary misses it was told about, and victim selection never panics.
func TestSBARRobustnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := trace.NewRNG(uint64(seed) | 1)
		h := newSBARHarness(t, SBARConfig{LeaderSets: 4}, 64, 4)
		for i := 0; i < 3000; i++ {
			block := uint64(rng.Intn(400))
			h.access(block, uint8(rng.Intn(8)))
			if v := h.sbar.Psel().Value(); v < 0 || v > h.sbar.Psel().Max() {
				return false
			}
		}
		return true
	}
	if err := quickCheck(f, 25); err != nil {
		t.Fatal(err)
	}
}

// TestAuditInvariantsNameOutOfRangePsel pushes one SBAR thread's
// selector and one CBS-local set's selector past their bit widths: each
// engine's AuditInvariants must report exactly that counter, by thread
// or by set.
func TestAuditInvariantsNameOutOfRangePsel(t *testing.T) {
	sbar := newSBARHarness(t, SBARConfig{LeaderSets: 4, Threads: 3}, 64, 4).sbar
	cbs := newCBSHarness(t, CBSConfig{Scope: CBSLocal}, 64, 4).cbs
	for _, c := range []struct {
		name  string
		psel  *PSEL
		value int
		audit func() []string
		want  string
	}{
		{"sbar", sbar.PselFor(2), 64, sbar.AuditInvariants, "thread 2 psel value 64 outside [0,63]"},
		{"cbs-local", cbs.Psel(5), -1, cbs.AuditInvariants, "psel[5] value -1 outside [0,63]"},
	} {
		if got := c.audit(); len(got) != 0 {
			t.Fatalf("%s: fresh engine reports %q", c.name, got)
		}
		c.psel.value = c.value
		if got := c.audit(); len(got) != 1 || got[0] != c.want {
			t.Errorf("%s: AuditInvariants = %q, want [%q]", c.name, got, c.want)
		}
	}
}

// quickCheck adapts testing/quick with a bounded count.
func quickCheck(f any, count int) error {
	return quick.Check(f, &quick.Config{MaxCount: count})
}
