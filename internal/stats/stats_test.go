package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramPaperBinning(t *testing.T) {
	h := NewHistogram(60, 8) // the Figure 2 axes
	for _, v := range []float64{0, 59.9, 60, 119, 420, 444, 9999} {
		h.Add(v)
	}
	bins := h.Bins()
	if bins[0] != 2 || bins[1] != 2 || bins[7] != 3 {
		t.Fatalf("bins = %v", bins)
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.BinLabel(0) != "0-59" || h.BinLabel(7) != "420+" {
		t.Fatalf("labels: %q %q", h.BinLabel(0), h.BinLabel(7))
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram(60, 8)
	h.Add(-5)
	if h.Bins()[0] != 1 {
		t.Fatal("negative sample should land in bin 0")
	}
}

func TestHistogramPercentAndMean(t *testing.T) {
	h := NewHistogram(10, 2)
	h.Add(5)
	h.Add(5)
	h.Add(100)
	h.Add(200)
	pct := h.Percent()
	if pct[0] != 50 || pct[1] != 50 {
		t.Fatalf("percent = %v", pct)
	}
	if got := h.Mean(); math.Abs(got-77.5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	h.Reset()
	if h.Total() != 0 || h.Mean() != 0 {
		t.Fatal("reset failed")
	}
	if p := h.Percent(); p[0] != 0 {
		t.Fatal("empty percent should be zero")
	}
}

// Property: percentages always sum to ~100 for non-empty histograms and
// every sample lands in exactly one bin.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram(60, 8)
		for _, v := range vals {
			h.Add(math.Abs(v))
		}
		var binSum uint64
		for _, b := range h.Bins() {
			binSum += b
		}
		if binSum != uint64(len(vals)) {
			return false
		}
		var pctSum float64
		for _, p := range h.Percent() {
			pctSum += p
		}
		return math.Abs(pctSum-100) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramSparkline(t *testing.T) {
	h := NewHistogram(60, 8)
	if got := len([]rune(h.Sparkline())); got != 8 {
		t.Fatalf("empty sparkline has %d runes, want 8", got)
	}
	h.Add(444)
	s := []rune(h.Sparkline())
	if s[7] != '█' {
		t.Fatalf("full bin should render as █, got %q", string(s[7]))
	}
}

func TestHistogramSingleBin(t *testing.T) {
	// A one-bin histogram is all overflow bin: every sample lands in it,
	// its label is the bare overflow form, and the sparkline is one full
	// block once anything is recorded.
	h := NewHistogram(60, 1)
	if got := h.BinLabel(0); got != "0+" {
		t.Fatalf("single-bin label = %q, want \"0+\"", got)
	}
	if got := len([]rune(h.Sparkline())); got != 1 {
		t.Fatalf("empty single-bin sparkline has %d runes, want 1", got)
	}
	h.Add(-5)
	h.Add(0)
	h.Add(1e9)
	if h.Total() != 3 || h.Bins()[0] != 3 {
		t.Fatalf("total=%d bins=%v, want all 3 samples in the one bin", h.Total(), h.Bins())
	}
	if got := h.Sparkline(); got != "█" {
		t.Fatalf("loaded single-bin sparkline = %q, want full block", got)
	}
	if pct := h.Percent(); pct[0] != 100 {
		t.Fatalf("single-bin percent = %v, want [100]", pct)
	}
}

func TestHistogramSparklineUniform(t *testing.T) {
	// Equal counts in every bin must render as a flat line of full
	// blocks (each bin is at the maximum).
	h := NewHistogram(10, 4)
	for i := 0; i < 4; i++ {
		h.Add(float64(i) * 10)
	}
	if got := h.Sparkline(); got != "████" {
		t.Fatalf("uniform sparkline = %q, want \"████\"", got)
	}
}

func TestHistogramWidthAccessor(t *testing.T) {
	// Width feeds the metrics registry's histogram snapshots; it must
	// echo the constructor argument.
	if got := NewHistogram(60, 8).Width(); got != 60 {
		t.Fatalf("Width() = %v, want 60", got)
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(0, 8)
}

func TestSeriesLenAt(t *testing.T) {
	// Len/At are the SeriesSource view the metrics registry snapshots.
	var s Series
	if s.Len() != 0 {
		t.Fatalf("empty Len = %d", s.Len())
	}
	s.Add(100, 1.5)
	s.Add(200, 0.5)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if i, v := s.At(1); i != 200 || v != 0.5 {
		t.Fatalf("At(1) = %d %v, want 200 0.5", i, v)
	}
}
