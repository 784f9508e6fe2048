// Unsubscription conformance: retracting a subscription mid-trace must
// behave identically across both engines and every delivery mode — the
// retracted subscription receives nothing after the retraction, the
// survivors' per-round delivery multisets are unchanged between variants,
// the traffic totals (including the retraction control traffic) agree, and
// the run forwards strictly fewer data units than the same trace replayed
// without the retraction.
package netsim_test

import (
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

// churnTrace is the unsubscription suite's trace plan: the plain trace with
// churnPlan's retraction set unsubscribed after the first batch. Against a
// churn-free run of the same approach, the baseline must send retraction
// traffic, forward strictly fewer data units and give the survivors exactly
// the churn-free deliveries; no run may deliver to a retracted subscription
// after the churn round.
func churnTrace(t *testing.T, id experiment.ApproachID, w *experiment.Workload) tracePlan {
	churnRound := w.Scenario.RoundsPerBatch // retraction happens after this round
	noChurn := start(t, w, id, false, 0, quiescent)
	replay(t, noChurn, w, tracePlan{}, quiescent)
	retract := churnPlan(w, noChurn, churnRound)
	if retract == nil {
		t.Fatalf("no subscription has post-churn deliveries; the retraction check is vacuous")
	}
	checkRun := func(t *testing.T, label string, rt netsim.Runtime) {
		for _, d := range rt.Deliveries() {
			if d.Round > churnRound && retract[d.SubID] {
				t.Errorf("%s: retracted subscription %s delivered in round %d", label, d.SubID, d.Round)
			}
		}
	}
	surviving := func(ds []netsim.Delivery) []netsim.Delivery {
		var out []netsim.Delivery
		for _, d := range ds {
			if !retract[d.SubID] {
				out = append(out, d)
			}
		}
		return out
	}
	return tracePlan{retract: retract, checkRun: checkRun, checkBaseline: func(t *testing.T, base netsim.Runtime) {
		snap := base.Metrics().Snapshot()
		if snap.UnsubscriptionLoad == 0 {
			t.Errorf("retraction generated no unsubscription traffic")
		}
		if got, ref := snap.EventLoad, noChurn.Metrics().Snapshot().EventLoad; got >= ref {
			t.Errorf("event load with churn = %d, want < %d (retraction must shed event traffic)", got, ref)
		}
		checkRun(t, "baseline", base)
		// Survivors keep exactly the deliveries of the churn-free run: under
		// every propagation policy the retraction must not disturb queries
		// that remain registered.
		assertSamePerRoundDeliveries(t, "survivors-vs-no-churn",
			surviving(noChurn.Deliveries()), surviving(base.Deliveries()))
	}}
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
	runConformance(t, conformanceRow{
		scenario: conformanceScenario, seeds: []int64{11, 42}, plan: churnTrace,
		variants: replayVariants, workers: workerCounts(),
	})
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
			pipelined := netsim.ReplayOptions{Mode: netsim.Pipelined}
			rt := start(t, w, experiment.FilterSplitForward, concurrent, 0, pipelined)
			replay(t, rt, w, tracePlan{}, pipelined)

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
