package blockmap

import (
	"math/rand"
	"testing"
)

// TestRandomizedAgainstMap drives a Table and a Go map with the same
// random operation stream and demands identical observable state
// throughout. Block numbers are drawn from a small universe so inserts,
// overwrites, deletes of absent keys, and probe-run collisions all occur
// constantly; the small table start forces several growths.
func TestRandomizedAgainstMap(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		tab := New[int](2)
		ref := make(map[uint64]int)
		// A universe of 256 keys over 200k ops keeps the table churning.
		for op := 0; op < 200_000; op++ {
			block := uint64(rng.Intn(256)) * 64 // block numbers share low zero bits, like real addresses
			switch rng.Intn(3) {
			case 0:
				v := rng.Int()
				tab.Put(block, v)
				ref[block] = v
			case 1:
				_, wantOK := ref[block]
				gotOK := tab.Delete(block)
				delete(ref, block)
				if gotOK != wantOK {
					t.Fatalf("seed %d op %d: Delete(%#x) = %v, want %v", seed, op, block, gotOK, wantOK)
				}
			default:
				got, gotOK := tab.Get(block)
				want, wantOK := ref[block]
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("seed %d op %d: Get(%#x) = %v,%v want %v,%v", seed, op, block, got, gotOK, want, wantOK)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, tab.Len(), len(ref))
			}
		}
		// Full sweep: every surviving key agrees, Range visits each once.
		seen := make(map[uint64]int)
		tab.Range(func(block uint64, v int) bool {
			seen[block] = v
			return true
		})
		if len(seen) != len(ref) {
			t.Fatalf("seed %d: Range visited %d entries, want %d", seed, len(seen), len(ref))
		}
		for block, want := range ref {
			if got, ok := seen[block]; !ok || got != want {
				t.Fatalf("seed %d: Range saw %#x = %v,%v want %v", seed, block, got, ok, want)
			}
		}
	}
}

// TestZeroKey checks that block 0 — a legal block number — round-trips;
// the empty-slot marker must not be confused with a stored zero key.
func TestZeroKey(t *testing.T) {
	tab := New[string](4)
	tab.Put(0, "zero")
	if v, ok := tab.Get(0); !ok || v != "zero" {
		t.Fatalf("Get(0) = %q,%v want zero,true", v, ok)
	}
	if !tab.Delete(0) {
		t.Fatal("Delete(0) = false, want true")
	}
	if _, ok := tab.Get(0); ok {
		t.Fatal("Get(0) after delete reports present")
	}
}

// TestFixedPopulationNeverGrows verifies the New sizing contract: a
// population within the hint stays at the initial backing size, so
// latency-sensitive users (the MSHR index) see no mid-run rehash.
func TestFixedPopulationNeverGrows(t *testing.T) {
	const entries = 32
	tab := New[int](entries)
	slots := len(tab.blocks)
	rng := rand.New(rand.NewSource(9))
	live := map[uint64]bool{}
	for op := 0; op < 100_000; op++ {
		if len(live) < entries && (len(live) == 0 || rng.Intn(2) == 0) {
			b := rng.Uint64()
			tab.Put(b, op)
			live[b] = true
		} else {
			for b := range live {
				tab.Delete(b)
				delete(live, b)
				break
			}
		}
	}
	if len(tab.blocks) != slots {
		t.Fatalf("table grew from %d to %d slots despite bounded population", slots, len(tab.blocks))
	}
}

func BenchmarkPutGetDelete(b *testing.B) {
	tab := New[int](32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := uint64(i) & 1023
		tab.Put(block, i)
		if _, ok := tab.Get(block); !ok {
			b.Fatal("lost key")
		}
		if i&1 == 1 {
			tab.Delete(block - 1)
		}
	}
}
