package mshr

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mlpcache/internal/simerr"
)

// free is the test-side Free wrapper: a protocol error fails the test.
func free(t *testing.T, m *MSHR, block, cycle uint64) float64 {
	t.Helper()
	cost, err := m.Free(block, cycle)
	if err != nil {
		t.Fatalf("Free(%#x, %d): %v", block, cycle, err)
	}
	return cost
}

func TestIsolatedMissCostEqualsLifetime(t *testing.T) {
	m := New(Config{Entries: 32})
	m.Allocate(1, true, 100)
	for c := uint64(101); c <= 544; c++ {
		m.Tick(c)
	}
	cost := free(t, m, 1, 544)
	if cost != 444 {
		t.Fatalf("isolated cost = %v, want 444", cost)
	}
}

func TestTwoParallelMissesSplitTheCost(t *testing.T) {
	m := New(Config{Entries: 32})
	m.Allocate(1, true, 0)
	m.Allocate(2, true, 0)
	c1 := free(t, m, 1, 444)
	c2 := free(t, m, 2, 444)
	if math.Abs(c1-222) > 1e-9 || math.Abs(c2-222) > 1e-9 {
		t.Fatalf("parallel costs = %v, %v; want 222 each", c1, c2)
	}
}

func TestStaggeredOverlap(t *testing.T) {
	// Miss A alone for 100 cycles, then B joins for 100 cycles, then A
	// retires: A = 100·1 + 100·½ = 150.
	m := New(Config{Entries: 32})
	m.Allocate(1, true, 0)
	m.Allocate(2, true, 100)
	if got := free(t, m, 1, 200); math.Abs(got-150) > 1e-9 {
		t.Fatalf("A cost = %v, want 150", got)
	}
	// B continues alone for 50 more: 100·½ + 50 = 100.
	if got := free(t, m, 2, 250); math.Abs(got-100) > 1e-9 {
		t.Fatalf("B cost = %v, want 100", got)
	}
}

func TestMergeIsNotPrimary(t *testing.T) {
	m := New(Config{Entries: 4})
	primary, full := m.Allocate(7, true, 0)
	if !primary || full {
		t.Fatalf("first allocation: primary=%v full=%v", primary, full)
	}
	primary, full = m.Allocate(7, true, 10)
	if primary || full {
		t.Fatalf("merge: primary=%v full=%v", primary, full)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after merge, want 1", m.Len())
	}
}

func TestFullRejects(t *testing.T) {
	m := New(Config{Entries: 2})
	m.Allocate(1, true, 0)
	m.Allocate(2, true, 0)
	if !m.Full() {
		t.Fatal("expected full")
	}
	if _, full := m.Allocate(3, true, 0); !full {
		t.Fatal("allocation into a full file must report full")
	}
	free(t, m, 1, 10)
	if m.Full() {
		t.Fatal("still full after Free")
	}
	if primary, full := m.Allocate(3, true, 10); !primary || full {
		t.Fatal("allocation after Free should succeed")
	}
}

func TestFreeUnknownReturnsTypedError(t *testing.T) {
	m := New(Config{Entries: 2})
	if _, err := m.Free(42, 0); !errors.Is(err, simerr.ErrMSHRLeak) {
		t.Fatalf("Free of unknown block: err = %v, want ErrMSHRLeak", err)
	}
}

func TestDoubleFreeReturnsTypedError(t *testing.T) {
	m := New(Config{Entries: 2})
	m.Allocate(7, true, 0)
	free(t, m, 7, 100)
	_, err := m.Free(7, 101)
	if !errors.Is(err, simerr.ErrMSHRLeak) {
		t.Fatalf("double free: err = %v, want ErrMSHRLeak", err)
	}
	// The failed free must not corrupt state: a fresh allocate works.
	if primary, full := m.Allocate(7, true, 102); !primary || full {
		t.Fatal("allocate after failed double free should succeed")
	}
	if violations := m.AuditInvariants(); len(violations) != 0 {
		t.Fatalf("state corrupted after double free: %v", violations)
	}
}

func TestSetCapacityThrottles(t *testing.T) {
	m := New(Config{Entries: 4})
	m.Allocate(1, true, 0)
	m.Allocate(2, true, 0)
	m.Allocate(3, true, 0)
	if err := m.SetCapacity(2); err != nil {
		t.Fatal(err)
	}
	if !m.Full() {
		t.Fatal("throttled file with 3 in flight must report full at capacity 2")
	}
	// In-flight entries above the new capacity still complete.
	free(t, m, 3, 50)
	free(t, m, 2, 60)
	if m.Full() {
		t.Fatal("one of two capacity slots in use; must not be full")
	}
	if primary, full := m.Allocate(4, true, 70); !primary || full {
		t.Fatal("allocation under the throttled capacity should succeed")
	}
	if primary, full := m.Allocate(5, true, 80); primary || !full {
		t.Fatal("allocation beyond the throttled capacity must report full")
	}
	// Clamp: capacity cannot exceed the configured entries.
	if err := m.SetCapacity(1000); err != nil {
		t.Fatal(err)
	}
	if m.Capacity() != 4 {
		t.Fatalf("Capacity = %d after over-sized SetCapacity, want 4", m.Capacity())
	}
	if err := m.SetCapacity(0); !errors.Is(err, simerr.ErrBadConfig) {
		t.Fatalf("SetCapacity(0): err = %v, want ErrBadConfig", err)
	}
}

func TestAuditInvariantsClean(t *testing.T) {
	for _, adders := range []int{0, 4} {
		m := New(Config{Entries: 8, Adders: adders})
		r := rand.New(rand.NewSource(11))
		inflight := []uint64{}
		next := uint64(0)
		for cycle := uint64(1); cycle <= 5000; cycle++ {
			m.Tick(cycle)
			if r.Intn(10) == 0 && !m.Full() {
				m.Allocate(next, r.Intn(4) > 0, cycle)
				inflight = append(inflight, next)
				next++
			}
			if r.Intn(12) == 0 && len(inflight) > 0 {
				free(t, m, inflight[0], cycle)
				inflight = inflight[1:]
			}
			if cycle%97 == 0 {
				if v := m.AuditInvariants(); len(v) != 0 {
					t.Fatalf("adders=%d cycle=%d: %v", adders, cycle, v)
				}
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{},
		{Entries: -1},
		{Entries: 4, Adders: -2},
	} {
		if err := bad.Validate(); !errors.Is(err, simerr.ErrBadConfig) {
			t.Fatalf("Validate(%+v) = %v, want ErrBadConfig", bad, err)
		}
	}
	if err := (Config{Entries: 32, Adders: 4}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestPendingAndCost(t *testing.T) {
	m := New(Config{Entries: 4})
	m.Allocate(9, true, 0)
	if !m.Pending(9) || m.Pending(8) {
		t.Fatal("Pending wrong")
	}
	if cost, ok := m.Cost(9, 50); !ok || math.Abs(cost-50) > 1e-9 {
		t.Fatalf("Cost = %v,%v; want 50,true", cost, ok)
	}
	if _, ok := m.Cost(8, 50); ok {
		t.Fatal("Cost of absent block reported ok")
	}
}

func TestNonDemandAccruesNothing(t *testing.T) {
	m := New(Config{Entries: 4})
	m.Allocate(1, false, 0)
	if m.OutstandingDemand() != 0 {
		t.Fatal("non-demand entry counted as demand")
	}
	if cost := free(t, m, 1, 100); cost != 0 {
		t.Fatalf("non-demand cost = %v, want 0", cost)
	}
}

func TestDemandUpgradeStartsCharging(t *testing.T) {
	m := New(Config{Entries: 4})
	// A demand miss outstanding from cycle 0 runs the cost clock before
	// the upgrade, so a cost charged from allocation would show.
	m.Allocate(2, true, 0)
	m.Allocate(1, false, 0)
	m.Allocate(1, true, 100) // demand merge upgrades
	if m.OutstandingDemand() != 2 {
		t.Fatal("upgrade did not mark demand")
	}
	// Cycles 100–200 are shared two ways.
	if cost := free(t, m, 1, 200); math.Abs(cost-50) > 1e-9 {
		t.Fatalf("upgraded cost = %v, want 50 (charged from upgrade)", cost)
	}
}

// Property (cost conservation): with only demand misses, the total cost
// accrued across all entries equals the number of cycles during which at
// least one demand miss was outstanding — Algorithm 1 hands out exactly
// one cycle of cost per busy cycle.
func TestCostConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New(Config{Entries: 8})
		inflight := map[uint64]bool{}
		var total float64
		var busy uint64
		cycle := uint64(0)
		for step := 0; step < 400; step++ {
			cycle++
			if m.OutstandingDemand() > 0 {
				busy++
			}
			m.Tick(cycle)
			switch r.Intn(3) {
			case 0:
				b := uint64(r.Intn(20))
				if !m.Full() || inflight[b] {
					if primary, full := m.Allocate(b, true, cycle); primary && !full {
						inflight[b] = true
					}
				}
			case 1:
				for b := range inflight {
					c, err := m.Free(b, cycle)
					if err != nil {
						return false
					}
					total += c
					delete(inflight, b)
					break
				}
			}
			if len(m.AuditInvariants()) != 0 {
				return false
			}
		}
		for b := range inflight {
			c, err := m.Free(b, cycle)
			if err != nil {
				return false
			}
			total += c
		}
		return math.Abs(total-float64(busy)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAuditNamesCostNotConserved corrupts one outstanding entry's
// cost-clock base, moving it back by 10 (the entry has been charged 10
// cycles that no busy cycle paid for) or making it NaN, and checks that
// the audit names exactly that violation.
func TestAuditNamesCostNotConserved(t *testing.T) {
	for _, corrupt := range []func(float64) float64{
		func(b float64) float64 { return b - 10 },
		func(float64) float64 { return math.NaN() },
	} {
		m := New(Config{Entries: 4})
		m.Allocate(1, true, 0)
		m.Allocate(2, true, 100)
		free(t, m, 1, 300)
		if v := m.AuditInvariants(); len(v) != 0 {
			t.Fatalf("intact file reports %v", v)
		}
		i, _ := m.index.Get(2)
		m.entries[i].base = corrupt(m.entries[i].base)
		v := m.AuditInvariants()
		if len(v) != 1 || !strings.Contains(v[0], "cost not conserved") {
			t.Fatalf("audit reports %q, want one cost-conservation violation", v)
		}
	}
}

// The 4-adder time-shared approximation must track the exact computation
// closely (the paper reports a negligible difference).
func TestAdderSharingApproximation(t *testing.T) {
	run := func(adders int) (costs []float64) {
		m := New(Config{Entries: 32, Adders: adders})
		r := rand.New(rand.NewSource(5))
		inflight := []uint64{}
		next := uint64(0)
		for cycle := uint64(1); cycle <= 20_000; cycle++ {
			m.Tick(cycle)
			if r.Intn(50) == 0 && !m.Full() {
				m.Allocate(next, true, cycle)
				inflight = append(inflight, next)
				next++
			}
			if r.Intn(60) == 0 && len(inflight) > 0 {
				c, _ := m.Free(inflight[0], cycle)
				costs = append(costs, c)
				inflight = inflight[1:]
			}
		}
		for _, b := range inflight {
			c, _ := m.Free(b, 20_000)
			costs = append(costs, c)
		}
		return costs
	}
	exact := run(0)
	shared := run(4)
	if len(exact) != len(shared) {
		t.Fatalf("run shapes differ: %d vs %d", len(exact), len(shared))
	}
	var sumE, sumS float64
	for i := range exact {
		sumE += exact[i]
		sumS += shared[i]
	}
	if sumE == 0 {
		t.Fatal("degenerate run")
	}
	rel := math.Abs(sumS-sumE) / sumE
	if rel > 0.05 {
		t.Fatalf("adder sharing deviates %.1f%% in aggregate cost, want <= 5%%", 100*rel)
	}
}

func TestPeakTracking(t *testing.T) {
	m := New(Config{Entries: 8})
	for b := uint64(0); b < 5; b++ {
		m.Allocate(b, true, 0)
	}
	free(t, m, 0, 10)
	if m.Peak != 5 {
		t.Fatalf("Peak = %d, want 5", m.Peak)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}
