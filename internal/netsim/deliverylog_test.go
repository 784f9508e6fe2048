// Tests for the one delivery record both engines share (deliverylog.go): the
// log, its per-subscription index, the read-time views Metrics serves from
// it, eviction and the push observer must behave alike on both engines.
package netsim_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sensorcq/internal/experiment"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
)

// deliveryRun is one engine's replay of the shared trace, with what the
// push observer saw on the way.
type deliveryRun struct {
	name     string
	rt       netsim.Runtime
	observed []netsim.Delivery
}

// TestEnginesDeliverAlike replays one trace on the sequential engine and on
// the concurrent engine at every swept pool size and requires the same
// delivery record from all of them, through every way of reading it.
func TestEnginesDeliverAlike(t *testing.T) {
	w, err := experiment.BuildWorkload(conformanceScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	pipelined := netsim.ReplayOptions{Mode: netsim.Pipelined}
	record := func(name string, concurrent bool, workers int) *deliveryRun {
		run := &deliveryRun{name: name, rt: start(t, w, experiment.FilterSplitForward, concurrent, workers, pipelined)}
		var mu sync.Mutex
		run.rt.SetDeliveryObserver(func(d netsim.Delivery) {
			mu.Lock()
			run.observed = append(run.observed, d)
			mu.Unlock()
		})
		replay(t, run.rt, w, tracePlan{}, pipelined)
		return run
	}
	seq := record("sequential", false, 0)
	runs := []*deliveryRun{seq}
	for _, wc := range workerCounts() {
		runs = append(runs, record(fmt.Sprintf("concurrent/workers=%d", wc), true, wc))
	}

	// The sequential log is in dispatch order: exactly what the observer saw.
	if got := seq.rt.Deliveries(); !reflect.DeepEqual(got, seq.observed) {
		t.Errorf("sequential Deliveries() is not in dispatch order (%d logged, %d observed)", len(got), len(seq.observed))
	}
	want := deliveryMultiset(seq.rt.Deliveries())
	if len(want) == 0 {
		t.Fatal("workload produced no deliveries; the check is vacuous")
	}

	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			log := run.rt.Deliveries()
			assertSameMultiset(t, "Deliveries() vs sequential", deliveryMultiset(log), want)
			// The observer saw every delivery exactly once.
			assertSameMultiset(t, "observer vs Deliveries()", deliveryMultiset(run.observed), deliveryMultiset(log))

			scanned := map[model.SubscriptionID][]netsim.Delivery{}
			for _, d := range log {
				scanned[d.SubID] = append(scanned[d.SubID], d)
			}
			checkViews := func(id model.SubscriptionID, scan []netsim.Delivery) {
				t.Helper()
				assertSameMultiset(t, fmt.Sprintf("DeliveriesFor(%s) vs log scan", id),
					deliveryMultiset(run.rt.DeliveriesFor(id)), deliveryMultiset(scan))
				seqs := map[uint64]bool{}
				for _, d := range scan {
					for _, e := range d.Events {
						seqs[e.Seq] = true
					}
				}
				if got := run.rt.Metrics().DeliveredSeqs(id); !reflect.DeepEqual(got, seqs) {
					t.Errorf("DeliveredSeqs(%s) = %v, log scan implies %v", id, got, seqs)
				}
			}
			var evicted model.SubscriptionID
			for _, p := range w.Placed {
				checkViews(p.Sub.ID, scanned[p.Sub.ID])
				if evicted == "" && len(scanned[p.Sub.ID]) > 0 {
					evicted = p.Sub.ID
				}
			}

			// Eviction empties every per-subscription view of the one ID and
			// nothing else.
			run.rt.EvictDeliveries(evicted)
			checkViews(evicted, nil)
			after := run.rt.Deliveries()
			if run == seq {
				if !reflect.DeepEqual(after, log) {
					t.Error("eviction changed the sequential log")
				}
			} else {
				assertSameMultiset(t, "Deliveries() after eviction", deliveryMultiset(after), deliveryMultiset(log))
			}
			for _, p := range w.Placed {
				if p.Sub.ID != evicted {
					checkViews(p.Sub.ID, scanned[p.Sub.ID])
				}
			}
		})
	}
}

func assertSameMultiset(t *testing.T, label string, got, want map[string]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: delivery %q: got %d, want %d", label, k, got[k], n)
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: unexpected delivery %q x%d", label, k, n)
		}
	}
}
