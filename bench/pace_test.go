package main

import (
	"testing"
	"time"
)

// A server that stalls on one request must show up in the latency of the
// requests queued behind it, not in a stretched schedule: the pacer keeps the
// due times it would have had anyway and sends the backlog back to back.
func TestPaceChargesAStallToLatency(t *testing.T) {
	const (
		n        = 40
		interval = 5 * time.Millisecond
		stall    = 60 * time.Millisecond
		stalled  = 10
	)
	start := time.Now()
	latency := make([]time.Duration, n)
	dues := make([]time.Time, n)
	worst := pace(n, interval, start, func(i int, due time.Time) {
		if i == stalled {
			time.Sleep(stall) // the fake server hangs on this request
		}
		dues[i] = due
		latency[i] = time.Since(due)
	})
	elapsed := time.Since(start)

	for i, due := range dues {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Fatalf("request %d was due at +%v, want +%v: the schedule moved", i, due.Sub(start), want.Sub(start))
		}
	}
	// The schedule ends at (n-1)·interval whether or not a request stalled.
	if limit := time.Duration(n-1)*interval + stall/2; elapsed > limit {
		t.Errorf("run took %v, want under %v: the pacer slowed down instead of catching up", elapsed, limit)
	}
	if latency[stalled] < stall {
		t.Errorf("stalled request's latency = %v, want at least the stall of %v", latency[stalled], stall)
	}
	// The request due right after the stall began waited for almost all of it.
	if next := latency[stalled+1]; next < stall-2*interval {
		t.Errorf("latency of the request behind the stall = %v, want about %v", next, stall-interval)
	}
	if worst < stall-2*interval {
		t.Errorf("worst lateness = %v, want about %v", worst, stall-interval)
	}
	if late := latency[n-1]; late > stall/2 {
		t.Errorf("last request still %v late: the backlog was not caught up", late)
	}
}
