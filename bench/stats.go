package main

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// percentile returns the p-th percentile (0..100) of an ascending slice by
// linear interpolation between the two nearest ranks. An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return percentile(s, 50)
}

// tailLadder lists the tail percentiles a timing may be reported at, in
// tenths of a percent.
var tailLadder = []int{750, 900, 950, 990, 999}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supportedTail returns the highest percentile of tailLadder that still has
// at least minBeyond of the n samples beyond it, or 0 when even the lowest
// rung has too few: a tail read from fewer samples is one outlier, not a
// distribution.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n*(1000-p) >= minBeyond*1000 {
			best = float64(p) / 10
		}
	}
	return best
}

// timing summarises one set of duration samples the way every timing of the
// report is printed: median, the highest supported tail, and the count.
type timing struct {
	N      int     `json:"samples"`
	P50    float64 `json:"p50_ms"`
	TailP  float64 `json:"tail_percentile"`
	TailMS float64 `json:"tail_ms"`
}

// samples collects durations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

func (s samples) sorted() []float64 {
	out := slices.Clone([]float64(s))
	slices.Sort(out)
	return out
}

func (s samples) timing() timing {
	sorted := s.sorted()
	t := timing{N: len(sorted), P50: percentile(sorted, 50), TailP: supportedTail(len(sorted))}
	if t.TailP > 0 {
		t.TailMS = percentile(sorted, t.TailP)
	}
	return t
}

func (s samples) sum() float64 {
	total := 0.0
	for _, v := range s {
		total += v
	}
	return total
}

// histogram is a fixed-size log-scale histogram of nanosecond durations:
// eight sub-buckets per power of two, so a quantile read from it is within
// about 6% of the true value. The tracing handler keeps one per node for
// the event-handling spans, where a full sample list would not fit.
type histogram struct {
	buckets [histBuckets]uint32
}

const (
	histSubBits = 3
	histBuckets = 40 << histSubBits // covers up to 2^40 ns (~18 min)
)

func histIndex(ns int64) int {
	if ns < 1<<histSubBits {
		return int(max(ns, 0))
	}
	exp := 63 - bits.LeadingZeros64(uint64(ns))
	sub := int(ns>>(uint(exp)-histSubBits)) & (1<<histSubBits - 1)
	idx := (exp-histSubBits+1)<<histSubBits + sub
	return min(idx, histBuckets-1)
}

// histLower is the smallest duration that falls into bucket idx.
func histLower(idx int) int64 {
	if idx < 1<<histSubBits {
		return int64(idx)
	}
	exp := idx>>histSubBits + histSubBits - 1
	sub := int64(idx & (1<<histSubBits - 1))
	return 1<<uint(exp) + sub<<(uint(exp)-histSubBits)
}

func (h *histogram) add(ns int64) { h.buckets[histIndex(ns)]++ }

func (h *histogram) merge(o *histogram) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

func (h *histogram) count() int64 {
	var n int64
	for _, c := range h.buckets {
		n += int64(c)
	}
	return n
}

// quantile returns the lower bound of the bucket holding the p-th percentile.
func (h *histogram) quantile(p float64) int64 {
	total := h.count()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(total)))
	var seen int64
	for i, c := range h.buckets {
		seen += int64(c)
		if seen >= rank {
			return histLower(i)
		}
	}
	return histLower(histBuckets - 1)
}
