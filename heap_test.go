package sensorcq

import (
	"fmt"
	"runtime"
	"testing"
)

// liveHeap returns the bytes the heap holds after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestLiveHeapTracksLiveSubscriptions churns registrations through the
// walkthrough network: each cycle subscribes the two-reading walkthrough
// query at node 5, publishes one lone reading of sensor a (one quiescent
// round; it completes no match, and its timestamp moves on far enough for
// the windows to prune the last one), and unsubscribes. Nothing is
// registered after a cycle, so the live heap must not grow with the cycle
// count: the slope between two forced-GC readings, taken after a warm-up,
// must stay under slopeBound bytes per cycle, on every approach and both
// engines.
//
// The reused-ID row registers the same ID every cycle. The fresh-ID row
// draws a new ID each time; it is asserted for Filter-Split-Forward and
// distributed multi-join only, which propagate events per neighbour. Naive,
// operator placement and centralized keep a forwarding key per operator ID
// ever registered (ROADMAP, finding 14), so their fresh-ID slopes are only
// logged (-v).
func TestLiveHeapTracksLiveSubscriptions(t *testing.T) {
	const warmup, cycles, slopeBound = 300, 2500, 64
	freshAsserted := map[Approach]bool{FilterSplitForward: true, MultiJoin: true}
	for _, approach := range Approaches() {
		for _, concurrent := range []bool{false, true} {
			for _, fresh := range []bool{false, true} {
				name := fmt.Sprintf("%s/concurrent=%v/fresh-ids=%v", approach, concurrent, fresh)
				t.Run(name, func(t *testing.T) {
					sys, err := NewSystem(buildWalkthroughDeployment(t), Config{Approach: approach, Seed: 1, Concurrent: concurrent})
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					seq := uint64(0)
					cycle := func() {
						seq++
						id := SubscriptionID("q")
						if fresh {
							id = SubscriptionID(fmt.Sprintf("q%d", seq))
						}
						if _, err := sys.Subscribe(5, walkthroughSub(t, id)); err != nil {
							t.Fatal(err)
						}
						ev := Event{Seq: seq, Sensor: "a", Attr: AmbientTemperature, Value: 60, Time: Timestamp(1000 * seq)}
						if err := sys.PublishBatch([]Event{ev}); err != nil {
							t.Fatal(err)
						}
						if err := sys.Unsubscribe(id); err != nil {
							t.Fatal(err)
						}
					}
					for i := 0; i < warmup; i++ {
						cycle()
					}
					before := liveHeap()
					for i := 0; i < cycles; i++ {
						cycle()
					}
					slope := float64(liveHeap()-before) / cycles
					t.Logf("%.1f live bytes per cycle", slope)
					if (!fresh || freshAsserted[approach]) && slope > slopeBound {
						t.Errorf("the live heap grows by %.1f bytes per subscribe/publish/unsubscribe cycle, allowed %d", slope, slopeBound)
					}
				})
			}
		}
	}
}
