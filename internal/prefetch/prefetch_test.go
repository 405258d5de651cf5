package prefetch

import (
	"testing"
	"testing/quick"
)

func TestStrideDetection(t *testing.T) {
	p := New(Config{Streams: 4, Degree: 2, Distance: 1})
	// Three accesses with stride 1: confirmation on the third.
	if out := p.Observe(100); out != nil {
		t.Fatalf("first access issued %v", out)
	}
	if out := p.Observe(101); out != nil {
		t.Fatalf("second access issued %v", out)
	}
	if out := p.Observe(102); out != nil {
		t.Fatalf("third access issued %v (confidence threshold)", out)
	}
	out := p.Observe(103)
	if len(out) != 2 || out[0] != 104 || out[1] != 105 {
		t.Fatalf("confirmed stride issued %v, want [104 105]", out)
	}
	if p.Stats().Confirms != 1 {
		t.Fatalf("confirms = %d", p.Stats().Confirms)
	}
}

func TestDistanceOffsetsWindow(t *testing.T) {
	p := New(Config{Streams: 4, Degree: 2, Distance: 10})
	for b := uint64(0); b < 4; b++ {
		p.Observe(b)
	}
	out := p.Observe(4)
	if len(out) != 2 || out[0] != 14 || out[1] != 15 {
		t.Fatalf("distance-10 window issued %v, want [14 15]", out)
	}
}

func TestNegativeStride(t *testing.T) {
	p := New(Config{Streams: 4, Degree: 1, Distance: 1})
	for b := uint64(100); b > 96; b-- {
		p.Observe(b)
	}
	out := p.Observe(96)
	if len(out) != 1 || out[0] != 95 {
		t.Fatalf("negative stride issued %v, want [95]", out)
	}
}

func TestNegativeStrideClampsAtZero(t *testing.T) {
	p := New(Config{Streams: 4, Degree: 4, Distance: 1})
	p.Observe(3)
	p.Observe(2)
	p.Observe(1)
	out := p.Observe(0)
	for _, b := range out {
		if int64(b) < 0 {
			t.Fatalf("issued negative block %d", b)
		}
	}
}

func TestRandomAccessesStayQuiet(t *testing.T) {
	p := New(Config{Streams: 8, Degree: 2, Distance: 4})
	// A pseudo-random walk in one region: strides never repeat enough
	// to confirm.
	seq := []uint64{5, 93, 17, 410, 2, 777, 39, 512, 8, 250}
	issued := 0
	for _, b := range seq {
		issued += len(p.Observe(b))
	}
	if issued != 0 {
		t.Fatalf("random walk triggered %d prefetches", issued)
	}
}

func TestStreamTableVictimization(t *testing.T) {
	p := New(Config{Streams: 2, Degree: 1, Distance: 1})
	// Three interleaved regions with only two table entries: one stream
	// keeps getting evicted, the other two still confirm eventually.
	regionA, regionB, regionC := uint64(0), uint64(1<<20), uint64(2<<20)
	issued := 0
	for i := uint64(0); i < 10; i++ {
		issued += len(p.Observe(regionA + i))
		issued += len(p.Observe(regionB + i))
		issued += len(p.Observe(regionC + i)) // evicts A or B each round
	}
	// Correctness here is just "no panic, monotone stats"; with only
	// two entries and three streams thrashing the table, confirmations
	// are rare but the structure must stay sound.
	if p.Stats().Trains != 30 {
		t.Fatalf("trains = %d, want 30", p.Stats().Trains)
	}
	_ = issued
}

// Property: Observe never issues more than Degree blocks, never issues
// block numbers below zero, and issued blocks always continue the
// confirmed stride.
func TestObserveProperty(t *testing.T) {
	f := func(seed uint8, strideRaw int8) bool {
		stride := int64(strideRaw%16) + 1 // positive strides 1..16
		p := New(Config{Streams: 4, Degree: 3, Distance: 5})
		block := uint64(seed)*64 + 1000
		for step := 0; step < 20; step++ {
			out := p.Observe(block)
			if len(out) > 3 {
				return false
			}
			for i, b := range out {
				want := int64(block) + stride*int64(5+i)
				if int64(b) != want {
					return false
				}
			}
			block = uint64(int64(block) + stride)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Streams: 0})
}
