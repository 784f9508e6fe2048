// Unsubscription conformance: retracting a subscription mid-trace must
// behave identically across both engines and every delivery mode — the
// retracted subscription receives nothing after the retraction, the
// survivors' per-round delivery multisets are unchanged between variants,
// the traffic totals (including the retraction control traffic) agree, and
// the run forwards strictly fewer data units than the same trace replayed
// without the retraction.
package netsim_test

import (
	"context"
	"fmt"
	"testing"

	"sensorcq/internal/experiment"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
)

// churnPlan selects the subscriptions retracted between the two batches of
// the conformance scenario: half of the subscriptions that received
// deliveries after the churn point in the churn-free probe run (in placement
// order), so the retraction provably sheds traffic, plus every subscription
// that received nothing at all (retracting those must be a harmless state
// cleanup). Returns nil when no subscription has post-churn deliveries —
// the retraction check would be vacuous.
func churnPlan(w *experiment.Workload, probe netsim.Runtime, churnRound int) map[model.SubscriptionID]bool {
	postChurn := map[model.SubscriptionID]bool{}
	delivered := map[model.SubscriptionID]bool{}
	for _, d := range probe.Deliveries() {
		delivered[d.SubID] = true
		if d.Round > churnRound {
			postChurn[d.SubID] = true
		}
	}
	if len(postChurn) == 0 {
		return nil
	}
	retract := map[model.SubscriptionID]bool{}
	n := 0
	for _, p := range w.Placed {
		if postChurn[p.Sub.ID] {
			if n%2 == 0 {
				retract[p.Sub.ID] = true
			}
			n++
		} else if !delivered[p.Sub.ID] {
			retract[p.Sub.ID] = true
		}
	}
	return retract
}

// driveRoundsWithChurn replays the workload like driveRounds, but retracts
// the planned subscriptions after the first batch's rounds have drained:
// sensors, all subscriptions, batch-0 rounds, unsubscribe, remaining
// batches.
func driveRoundsWithChurn(t *testing.T, rt netsim.Runtime, w *experiment.Workload, opts netsim.ReplayOptions, retract map[model.SubscriptionID]bool) {
	t.Helper()
	attachAndSubscribe(t, rt, w)
	if err := rt.ReplayRounds(w.PublicationRounds(0), opts); err != nil {
		t.Fatal(err)
	}
	rt.Flush()
	for _, p := range w.Placed {
		if !retract[p.Sub.ID] {
			continue
		}
		if err := rt.Unsubscribe(p.Node, p.Sub.ID); err != nil {
			t.Fatal(err)
		}
		rt.Flush()
	}
	for b := 1; b < w.Scenario.Batches; b++ {
		if err := rt.ReplayRounds(w.PublicationRounds(b), opts); err != nil {
			t.Fatal(err)
		}
	}
	rt.Flush()
}

// attachAndSubscribe is the shared preamble of the replay drivers: sensors
// in sorted order, then every subscription propagated to quiescence.
func attachAndSubscribe(t *testing.T, rt netsim.Runtime, w *experiment.Workload) {
	t.Helper()
	sensors := sortedSensors(w)
	for _, sensor := range sensors {
		if err := rt.AttachSensor(w.Deployment.SensorHost[sensor.ID], sensor); err != nil {
			t.Fatal(err)
		}
		rt.Flush()
	}
	for _, p := range w.Placed {
		if err := rt.SubscribeContext(context.Background(), p.Node, p.Sub.Clone()); err != nil {
			t.Fatal(err)
		}
	}
}

func sortedSensors(w *experiment.Workload) []model.Sensor {
	sensors := make([]model.Sensor, len(w.Deployment.Sensors))
	copy(sensors, w.Deployment.Sensors)
	for i := 1; i < len(sensors); i++ {
		for j := i; j > 0 && sensors[j].ID < sensors[j-1].ID; j-- {
			sensors[j], sensors[j-1] = sensors[j-1], sensors[j]
		}
	}
	return sensors
}

// TestUnsubscribeConformanceAllApproaches is the retraction extension of the
// per-round oracle: for every approach, a trace replayed with a mid-trace
// unsubscription of half the population must produce — on both engines under
// quiescent, pipelined and windowed (lag 0/1/2) replay — the sequential
// quiescent run's traffic totals (including unsubscription control traffic)
// and per-round delivery multisets, zero deliveries for the retracted
// subscriptions after the retraction round, no dropped messages, and
// strictly less event traffic than the same trace without the retraction.
func TestUnsubscribeConformanceAllApproaches(t *testing.T) {
	for _, seed := range []int64{11, 42} {
		w, err := experiment.BuildWorkload(conformanceScenario(seed))
		if err != nil {
			t.Fatal(err)
		}
		churnRound := w.Scenario.RoundsPerBatch // retraction happens after this round
		for _, id := range experiment.All() {
			id := id
			t.Run(fmt.Sprintf("%s/seed=%d", id, seed), func(t *testing.T) {
				newRuntime := func(concurrent bool, workers int, opts netsim.ReplayOptions) netsim.Runtime {
					factory, err := experiment.FactoryForSpec(id, experiment.FactorySpec{
						Seed:           seed + 7,
						ValidityFactor: netsim.RequiredValidityFactor(opts.Mode, opts.Lag),
					})
					if err != nil {
						t.Fatal(err)
					}
					if concurrent {
						return netsim.NewConcurrentEngineWorkers(w.Deployment.Graph, factory, workers)
					}
					return netsim.NewEngine(w.Deployment.Graph, factory)
				}

				// Reference run without the retraction: the churn run must
				// forward strictly fewer data units than this, and it tells
				// us which subscriptions have post-churn deliveries to shed.
				noChurn := newRuntime(false, 0, netsim.ReplayOptions{Mode: netsim.Quiescent})
				driveRounds(t, noChurn, w, netsim.ReplayOptions{Mode: netsim.Quiescent})
				retract := churnPlan(w, noChurn, churnRound)
				if retract == nil {
					t.Fatalf("no subscription has post-churn deliveries; the retraction check is vacuous")
				}

				baseline := newRuntime(false, 0, netsim.ReplayOptions{Mode: netsim.Quiescent})
				driveRoundsWithChurn(t, baseline, w, netsim.ReplayOptions{Mode: netsim.Quiescent}, retract)
				base := baseline.Metrics().Snapshot()
				if base.UnsubscriptionLoad == 0 {
					t.Errorf("retraction generated no unsubscription traffic")
				}
				if got, ref := base.EventLoad, noChurn.Metrics().Snapshot().EventLoad; got >= ref {
					t.Errorf("event load with churn = %d, want < %d (retraction must shed event traffic)", got, ref)
				}
				for _, d := range baseline.Deliveries() {
					if d.Round > churnRound && retract[d.SubID] {
						t.Fatalf("retracted subscription %s delivered in round %d (after retraction)", d.SubID, d.Round)
					}
				}
				// Survivors keep exactly the deliveries of the churn-free
				// run: under every propagation policy the retraction must
				// not disturb queries that remain registered.
				surviving := func(ds []netsim.Delivery) []netsim.Delivery {
					var out []netsim.Delivery
					for _, d := range ds {
						if !retract[d.SubID] {
							out = append(out, d)
						}
					}
					return out
				}
				assertSamePerRoundDeliveries(t, "survivors-vs-no-churn",
					surviving(noChurn.Deliveries()), surviving(baseline.Deliveries()))

				for _, v := range conformanceVariants {
					for _, run := range variantRuns(v.name, v.concurrent) {
						rt := newRuntime(v.concurrent, run.workers, v.opts)
						if conc, ok := rt.(*netsim.ConcurrentEngine); ok {
							defer conc.Close()
						}
						driveRoundsWithChurn(t, rt, w, v.opts, retract)
						assertSameTraffic(t, run.name, base, rt.Metrics().Snapshot())
						if got, want := rt.Metrics().Snapshot().UnsubscriptionLoad, base.UnsubscriptionLoad; got != want {
							t.Errorf("%s: unsubscription load = %d, want %d", run.name, got, want)
						}
						assertSamePerRoundDeliveries(t, run.name, baseline.Deliveries(), rt.Deliveries())
						for _, d := range rt.Deliveries() {
							if d.Round > churnRound && retract[d.SubID] {
								t.Errorf("%s: retracted subscription %s delivered in round %d", run.name, d.SubID, d.Round)
							}
						}
						if n := rt.Metrics().DroppedMessages(); n != 0 {
							t.Errorf("%s dropped %d messages", run.name, n)
						}
						if wm, want := rt.Watermark(), w.Scenario.Batches*w.Scenario.RoundsPerBatch; wm != want {
							t.Errorf("%s: final watermark = %d, want %d", run.name, wm, want)
						}
					}
				}
			})
		}
	}
}

// TestDeliveriesForMatchesLogScan cross-checks the per-subscription delivery
// maps both engines serve DeliveriesFor from against a scan over the full
// log, on a real workload.
func TestDeliveriesForMatchesLogScan(t *testing.T) {
	w, err := experiment.BuildWorkload(conformanceScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, concurrent := range []bool{false, true} {
		name := "sequential"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			factory, err := experiment.FactoryForSpec(experiment.FilterSplitForward, experiment.FactorySpec{Seed: 49})
			if err != nil {
				t.Fatal(err)
			}
			var rt netsim.Runtime
			if concurrent {
				conc := netsim.NewConcurrentEngineWorkers(w.Deployment.Graph, factory, 0)
				defer conc.Close()
				rt = conc
			} else {
				rt = netsim.NewEngine(w.Deployment.Graph, factory)
			}
			driveRounds(t, rt, w, netsim.ReplayOptions{Mode: netsim.Pipelined})

			scanned := map[model.SubscriptionID][]netsim.Delivery{}
			for _, d := range rt.Deliveries() {
				scanned[d.SubID] = append(scanned[d.SubID], d)
			}
			if len(scanned) == 0 {
				t.Fatal("workload produced no deliveries; the check is vacuous")
			}
			for _, p := range w.Placed {
				got := deliveryMultiset(rt.DeliveriesFor(p.Sub.ID))
				want := deliveryMultiset(scanned[p.Sub.ID])
				if len(got) != len(want) {
					t.Fatalf("sub %s: DeliveriesFor multiset size %d, scan %d", p.Sub.ID, len(got), len(want))
				}
				for k, n := range want {
					if got[k] != n {
						t.Errorf("sub %s: delivery %q: DeliveriesFor=%d scan=%d", p.Sub.ID, k, got[k], n)
					}
				}
			}
		})
	}
}
