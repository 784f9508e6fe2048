package sensorcq

// The allocation contracts of the hot paths, as ordinary tests: each shares
// its set-up with the layer benchmark of the same name (bench_test.go) and
// fails when the measured operation allocates at all. testing.AllocsPerRun
// reports the whole-number average over its runs, so one stray allocation of
// the runtime's does not trip a contract, while anything the operation itself
// allocates reads at least 1.

import (
	"fmt"
	"runtime"
	"testing"

	"sensorcq/internal/subsume"
)

// TestReplaySteadyStateAllocatesNothing is the zero-alloc steady state of the
// dispatch → match → forward → deliver path: a warmed-up windowed replay on
// the sequential engine, delivery record preallocated, allocates nothing.
func TestReplaySteadyStateAllocatesNothing(t *testing.T) {
	const runs = 32
	eng, replayOnce, _ := steadyStateReplay(t, true)
	// AllocsPerRun replays once more than it measures.
	eng.Preallocate(runs + 2)
	if n := testing.AllocsPerRun(runs, replayOnce); n != 0 {
		t.Errorf("the steady state allocates %.1f times per replay, want 0", n)
	}
	if n := eng.Metrics().DroppedMessages(); n != 0 {
		t.Errorf("dropped %d messages", n)
	}
	if len(eng.Deliveries()) == 0 {
		t.Error("the replays delivered nothing: the delivery path was not measured")
	}
}

// TestComplexMatchGatherAllocatesNothing: one trigger against a 300-event
// window and 64 candidate operators — partition, gather, enumerate — runs
// out of the match scratch.
func TestComplexMatchGatherAllocatesNothing(t *testing.T) {
	gather, _ := complexMatchGather(t, 64, 300)
	if n := testing.AllocsPerRun(100, gather); n != 0 {
		t.Errorf("one trigger allocates %.1f times, want 0", n)
	}
}

// TestSetCheckerSubsumedAllocatesNothing: a set-filter decision, whether one
// member decides it or the candidate's box is sampled to the end, runs out of
// the checker's scratch.
func TestSetCheckerSubsumedAllocatesNothing(t *testing.T) {
	candidate, cases := setCheckerCases(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checker := subsume.NewSetChecker(0.02, 1)
			if !checker.Subsumed(candidate, tc.set) {
				t.Fatal("candidate not subsumed")
			}
			n := testing.AllocsPerRun(100, func() { checker.Subsumed(candidate, tc.set) })
			if n != 0 {
				t.Errorf("one decision allocates %.1f times, want 0", n)
			}
		})
	}
}

// TestReexposeAllocatesNothing: retracting a covering operator — gathering
// the operators it supported, re-deciding them, promoting and re-indexing
// the exposed ones — allocates nothing, with one comparability class and with
// sixteen. Successive groups lose their wide subscription in turn; putting a
// group back allocates (it registers eight subscriptions) and is not counted,
// which is why this contract brackets the retraction itself instead of using
// testing.AllocsPerRun. It takes the same whole-number average: the table's
// lists lose operators at one end and gain them at the other, so one of them
// regrows every few dozen retractions, which is not a cost per retraction.
func TestReexposeAllocatesNothing(t *testing.T) {
	const runs = 32
	for _, classes := range []int{1, 16} {
		t.Run(fmt.Sprintf("classes=%d", classes), func(t *testing.T) {
			f := newReexposeFixture(t, 1000, classes)
			retractions := func() (mallocs uint64) {
				var ms runtime.MemStats
				for g := 0; g < runs; g++ {
					runtime.ReadMemStats(&ms)
					before := ms.Mallocs
					f.retract(t, g)
					runtime.ReadMemStats(&ms)
					mallocs += ms.Mallocs - before
					f.restore(t, g)
				}
				return mallocs
			}
			// Once over the same groups first: every class's lists reach
			// their working capacity.
			retractions()
			if n := retractions(); n/runs != 0 {
				t.Errorf("%d retractions allocate %d times, want 0", runs, n)
			}
		})
	}
}

// TestAdvertisementFloodRetainedHeap pins what set-up at width leaves
// behind: after the advertisement flood of a 1000-node, 250-sensor network on
// the concurrent engine (attach, Flush, Trim, as NewSystem runs them), the
// network retains at most 10 bytes per advertisement message: a sensor costs
// each node one bit, in the bitset of the origin it arrived from, and no
// more, and the network's registry keeps its attribute type and location
// once; the rest is the nodes' and the engine's own state.
// floodOnce checks the message count itself, sensors × (nodes − 1).
func TestAdvertisementFloodRetainedHeap(t *testing.T) {
	const nodes, allowed = 1000, 10
	dep, factory := floodDeployment(t, nodes)
	nop := func() {}
	live, messages := floodOnce(t, dep, factory, nop, nop)
	if live > allowed*messages {
		t.Errorf("the flooded network retains %d bytes for %d advertisement messages (%d each), allowed %d each",
			live, messages, live/messages, allowed)
	}
	if live <= 0 {
		t.Errorf("the flooded network retains %d bytes: the heap readings do not bracket it", live)
	}
	t.Logf("%d retained bytes per advertisement message", live/messages)
}
