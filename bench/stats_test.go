package main

import (
	"math"
	"testing"
	"time"
)

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {39, 0}, // fewer than ten samples beyond p75: no tail at all
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestTimingReportsMedianAndSupportedTail(t *testing.T) {
	var s samples
	for i := 1; i <= 200; i++ {
		s.add(time.Duration(i) * time.Millisecond)
	}
	got := s.timing()
	if got.N != 200 || got.TailP != 95 {
		t.Fatalf("timing of 200 samples = %+v, want n=200 and the p95 tail", got)
	}
	if math.Abs(got.P50-100.5) > 1e-9 || math.Abs(got.TailMS-190.05) > 1e-9 {
		t.Errorf("p50 = %g, p95 = %g; want 100.5 and 190.05", got.P50, got.TailMS)
	}
	if few := s[:12].timing(); few.TailP != 0 || few.TailMS != 0 || few.P50 == 0 {
		t.Errorf("timing of 12 samples = %+v, want a median and no tail", few)
	}
}

func TestHistogramQuantileWithinABucket(t *testing.T) {
	var h histogram
	for ns := int64(1); ns <= 100_000; ns++ {
		h.add(ns)
	}
	for _, p := range []float64{50, 99} {
		exact := p / 100 * 100_000
		got := float64(h.quantile(p))
		if got > exact || got < exact*(1-1.0/(1<<histSubBits)) {
			t.Errorf("p%g = %g, want within one bucket below %g", p, got, exact)
		}
	}
	if h.count() != 100_000 {
		t.Errorf("count = %d", h.count())
	}
}
