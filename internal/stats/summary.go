package stats

import (
	"math"
	"sort"
)

// Summary accumulates a stream of float64 observations and answers
// descriptive queries (count, mean, variance, min, max, median, quantiles).
// Observations are retained, so memory grows linearly with the stream: 8
// bytes per observation, which the dataset streamer pays per reading.
type Summary struct {
	values []float64
	sum    float64
	sumSq  float64
	sorted bool
}

// NewSummary returns an empty summary.
func NewSummary() *Summary { return &Summary{} }

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.values = append(s.values, v)
	s.sum += v
	s.sumSq += v * v
	s.sorted = false
}

// AddAll records a batch of observations.
func (s *Summary) AddAll(vs []float64) {
	for _, v := range vs {
		s.Add(v)
	}
}

// Count returns the number of observations recorded so far.
func (s *Summary) Count() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Variance returns the population variance, or 0 for fewer than two samples.
func (s *Summary) Variance() float64 {
	n := float64(len(s.values))
	if n < 2 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/n - m*m
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or +Inf for an empty summary.
func (s *Summary) Min() float64 {
	if len(s.values) == 0 {
		return math.Inf(1)
	}
	s.ensureSorted()
	return s.values[0]
}

// Max returns the largest observation, or -Inf for an empty summary.
func (s *Summary) Max() float64 {
	if len(s.values) == 0 {
		return math.Inf(-1)
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

// Median returns the 0.5 quantile.
func (s *Summary) Median() float64 { return s.Quantile(0.5) }

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics. It returns 0 for an empty summary.
func (s *Summary) Quantile(q float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min()
	}
	if q >= 1 {
		return s.Max()
	}
	s.ensureSorted()
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.values[lo]
	}
	frac := pos - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Median returns the median of a slice without mutating it.
func Median(vs []float64) float64 {
	s := NewSummary()
	s.AddAll(vs)
	return s.Median()
}

// Mean returns the arithmetic mean of a slice (0 for an empty slice).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range vs {
		total += v
	}
	return total / float64(len(vs))
}
