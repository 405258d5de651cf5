package audit

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mlpcache/internal/cache"
	"mlpcache/internal/simerr"
)

func TestCleanReport(t *testing.T) {
	a := New(10, Func("noop", func(uint64, func(string)) {}))
	for cycle := uint64(1); cycle <= 100; cycle++ {
		a.MaybeCheck(cycle)
	}
	rep := a.Report()
	if rep.Checks != 10 {
		t.Fatalf("Checks = %d, want 10", rep.Checks)
	}
	if !rep.Ok() || rep.Err() != nil {
		t.Fatalf("clean run not ok: %v", rep.Err())
	}
}

func TestViolationsSurfaceAsErrInvariant(t *testing.T) {
	a := New(5, Func("bad", func(_ uint64, report func(string)) {
		report("broken thing")
	}))
	a.MaybeCheck(5)
	rep := a.Report()
	if rep.Ok() {
		t.Fatal("violating run reported ok")
	}
	err := rep.Err()
	if !errors.Is(err, simerr.ErrInvariant) {
		t.Fatalf("Err = %v, want ErrInvariant", err)
	}
	if !strings.Contains(err.Error(), "broken thing") {
		t.Fatalf("Err does not quote the first violation: %v", err)
	}
	if got := rep.Violations[0]; got.Checker != "bad" || got.Cycle != 5 {
		t.Fatalf("violation = %+v", got)
	}
}

func TestRetentionCap(t *testing.T) {
	a := New(1, Func("noisy", func(_ uint64, report func(string)) {
		for i := 0; i < 10; i++ {
			report(fmt.Sprintf("v%d", i))
		}
	}))
	for cycle := uint64(1); cycle <= 100; cycle++ {
		a.MaybeCheck(cycle)
	}
	rep := a.Report()
	if len(rep.Violations) != maxViolations {
		t.Fatalf("retained %d violations, want %d", len(rep.Violations), maxViolations)
	}
	if want := 10*100 - maxViolations; rep.Dropped != want {
		t.Fatalf("Dropped = %d, want %d", rep.Dropped, want)
	}
}

// Fast-forward skips cycles, so MaybeCheck must trigger on any cycle at
// or past the deadline, then re-arm past the observed cycle.
func TestMaybeCheckSurvivesFastForward(t *testing.T) {
	a := New(100, Func("noop", func(uint64, func(string)) {}))
	a.MaybeCheck(50)     // before first deadline: no pass
	a.MaybeCheck(10_000) // jumped far past several deadlines: one pass
	a.MaybeCheck(10_001) // re-armed past the jump: no pass
	if got := a.Report().Checks; got != 1 {
		t.Fatalf("Checks = %d, want 1 (one pass per deadline crossing)", got)
	}
	a.MaybeCheck(10_100)
	if got := a.Report().Checks; got != 2 {
		t.Fatalf("Checks = %d after next deadline, want 2", got)
	}
}

func TestStringsAdapter(t *testing.T) {
	calls := 0
	a := New(1, Strings("mshr", func() []string {
		calls++
		if calls == 2 {
			return []string{"leak A", "leak B"}
		}
		return nil
	}))
	a.MaybeCheck(1)
	a.MaybeCheck(2)
	rep := a.Report()
	if len(rep.Violations) != 2 {
		t.Fatalf("got %d violations, want 2", len(rep.Violations))
	}
	if rep.Violations[0].Detail != "leak A" || rep.Violations[0].Checker != "mshr" {
		t.Fatalf("violation = %+v", rep.Violations[0])
	}
}

// TestRecencyPermutationOnLiveCache audits a cache after every access
// of a mix that also invalidates recently filled blocks and demotes
// lines, the two operations that move a line down the LRU stack.
func TestRecencyPermutationOnLiveCache(t *testing.T) {
	c := cache.New(cache.Config{Sets: 128, Assoc: 4, BlockBytes: 64}, cache.NewLRU())
	a := New(1, RecencyPermutation("l2-recency", c), CostQBound("l2-costq", c, 7))
	sets := uint64(c.Config().Sets)
	for i := uint64(0); i < 4096; i++ {
		addr := (i * 2654435761) % (1 << 20)
		switch i % 8 {
		case 3, 6: // drop or demote a line of addr's set, whatever its position
			set := c.SetOf(addr)
			view := c.ViewSet(set)
			w := int(i/8) % view.Ways()
			ln := view.Line(w)
			switch {
			case !ln.Valid:
			case i%8 == 3:
				c.Invalidate((ln.Tag*sets + uint64(set)) * 64)
			default:
				view.Demote(w)
			}
		default:
			if !c.Probe(addr, false) {
				c.Fill(addr, uint8(i%8), false)
			}
		}
		a.MaybeCheck(i + 1)
	}
	if err := a.Report().Err(); err != nil {
		t.Fatalf("live LRU cache violates invariants: %v", err)
	}
}

func TestCostQBoundCatchesOversizedCost(t *testing.T) {
	c := cache.New(cache.Config{Sets: 4, Assoc: 2, BlockBytes: 64}, cache.NewLRU())
	c.Fill(0, 9, false) // 9 > 7: would not fit the 3-bit field
	a := New(1, CostQBound("costq", c, 7))
	a.CheckNow(1)
	if a.Report().Ok() {
		t.Fatal("oversized cost_q not reported")
	}
}
