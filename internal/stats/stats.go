// Package stats provides the small statistical containers the simulator
// and the experiment harness share: fixed-bin histograms (the paper's
// 60-cycle mlp-cost bins) and instruction-indexed time series
// (Figure 11).
package stats

import (
	"fmt"
	"math"
	"strings"

	"mlpcache/internal/simerr"
)

// Histogram counts samples into bins of fixed width; the last bin is an
// overflow bin collecting everything at or above its lower edge. With
// width 60 and 8 bins it reproduces the paper's Figure 2 axes: bins
// [0,60), [60,120), ... [360,420), and 420+.
type Histogram struct {
	width  float64
	counts []uint64
	total  uint64
	sum    float64
}

// NewHistogram returns a histogram with the given bin width and bin count
// (the final bin is the overflow bin). It panics on non-positive
// parameters.
func NewHistogram(width float64, bins int) *Histogram {
	if width <= 0 || bins <= 0 {
		panic(simerr.New(simerr.ErrBadConfig,
			"stats: histogram needs positive width and bins, got width=%v bins=%d", width, bins))
	}
	return &Histogram{width: width, counts: make([]uint64, bins)}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	b := int(v / h.width)
	if b < 0 {
		b = 0
	}
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.total++
	h.sum += v
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Width returns the bin width.
func (h *Histogram) Width() float64 { return h.width }

// Mean returns the mean of all recorded samples (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Bins returns the raw per-bin counts. The returned slice is a copy.
func (h *Histogram) Bins() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Percent returns each bin's share of the total in percent. All zeros if
// no samples were recorded.
func (h *Histogram) Percent() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = 100 * float64(c) / float64(h.total)
	}
	return out
}

// BinLabel renders the half-open range of bin i ("0-59", "420+").
func (h *Histogram) BinLabel(i int) string {
	lo := float64(i) * h.width
	if i == len(h.counts)-1 {
		return fmt.Sprintf("%.0f+", lo)
	}
	return fmt.Sprintf("%.0f-%.0f", lo, lo+h.width-1)
}

// Reset discards all samples, keeping the binning.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
}

// Sparkline renders the histogram as a one-line unicode bar chart, useful
// in terminal output from cmd/mlpexp.
func (h *Histogram) Sparkline() string {
	const ramp = " ▁▂▃▄▅▆▇█"
	var max uint64
	for _, c := range h.counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return strings.Repeat(" ", len(h.counts))
	}
	var b strings.Builder
	for _, c := range h.counts {
		idx := int(math.Round(float64(c) / float64(max) * 8))
		b.WriteRune([]rune(ramp)[idx])
	}
	return b.String()
}

// Point is one sample of a time series, indexed by retired instructions.
type Point struct {
	Instructions uint64
	Value        float64
}

// Series is an instruction-indexed time series (e.g. IPC over the run).
type Series struct {
	Name   string
	Points []Point
}

// Add appends one point.
func (s *Series) Add(instructions uint64, value float64) {
	s.Points = append(s.Points, Point{Instructions: instructions, Value: value})
}

// Len returns the number of points in the series.
func (s *Series) Len() int { return len(s.Points) }

// At returns the i'th point as (instruction index, value).
func (s *Series) At(i int) (uint64, float64) {
	p := s.Points[i]
	return p.Instructions, p.Value
}
