package experiment

import (
	"context"
	"sort"
	"testing"

	"sensorcq/internal/core"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/oracle"
	"sensorcq/internal/subsume"
)

// TestFSFRecallTrafficTradeoff is the Fig. 12 regression: running
// Filter-Split-Forward with increasingly permissive set-filter error
// probabilities must trade recall for traffic monotonically. Error
// probability 0 is realised by the exact set-subsumption checker, under
// which filtering loses nothing: a correctly detected covered subscription
// has every complex event matched by some member of the covering set.
//
// The exact-checker run is the baseline rather than absolute recall 1:
// the distributed protocols gate event forwarding on operator completeness
// within each subtree (Algorithm 5), so on dense workloads whose group
// regions span several subtrees even the deterministic approaches miss
// cross-subtree combinations the global oracle finds. Fig. 12 reports the
// additional, filter-induced degradation — which is what this test pins.
func TestFSFRecallTrafficTradeoff(t *testing.T) {
	// Few groups and a fixed five-attribute signature concentrate many
	// comparable subscriptions per (group, signature) population, which is
	// what makes the probabilistic set filter actually fire (and
	// occasionally err) instead of trivially answering "not subsumed".
	s := Scenario{
		Name:           "recall-regression",
		TotalNodes:     40,
		SensorNodes:    25,
		Groups:         2,
		Batches:        2,
		BatchSize:      50,
		MinAttrs:       5,
		MaxAttrs:       5,
		RoundsPerBatch: 4,
		RoundInterval:  1800,
		Seed:           205,
	}
	w, err := BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	var events []model.Event
	for _, segment := range w.Segments {
		events = append(events, segment...)
	}
	subs := w.SubscriptionsUpTo(s.Batches - 1)
	exp := oracle.Compute(subs, events)
	if exp.TotalExpected() == 0 {
		t.Fatal("oracle expects no deliveries; the regression is vacuous")
	}

	type outcome struct {
		recall float64
		load   int64
	}
	run := func(factory netsim.HandlerFactory) outcome {
		engine := netsim.NewEngine(w.Deployment.Graph, factory)
		sensors := make([]model.Sensor, len(w.Deployment.Sensors))
		copy(sensors, w.Deployment.Sensors)
		sort.Slice(sensors, func(i, j int) bool { return sensors[i].ID < sensors[j].ID })
		for _, sensor := range sensors {
			if err := engine.AttachSensor(w.Deployment.SensorHost[sensor.ID], sensor); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range w.Placed {
			if err := engine.SubscribeContext(context.Background(), p.Node, p.Sub.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		batch := make([]netsim.Publication, len(events))
		for i, ev := range events {
			batch[i] = netsim.Publication{Node: w.Deployment.SensorHost[ev.Sensor], Event: ev}
		}
		if err := engine.ReplayRounds([][]netsim.Publication{batch}, netsim.ReplayOptions{}); err != nil {
			t.Fatal(err)
		}
		return outcome{
			recall: exp.Recall(engine.Metrics().DeliveredSeqs),
			load:   engine.Metrics().Snapshot().EventLoad,
		}
	}

	exact := run(core.NewFactory(core.Config{
		Name:        "filter-split-forward/exact",
		Checker:     core.SharedChecker(subsume.ExactChecker{}),
		Split:       core.SplitSimple,
		Propagation: core.PerNeighbor,
	}))
	fsfWithError := func(p float64) netsim.HandlerFactory {
		factory, err := FactoryForSpec(FilterSplitForward, FactorySpec{Seed: s.Seed + 7, SetFilterError: p})
		if err != nil {
			t.Fatal(err)
		}
		return factory
	}
	p01 := run(fsfWithError(0.01))
	// Since event forwarding enumerates every completed match, a falsely
	// subsumed operator only loses events that no member of its covering set
	// matches — low error probabilities mostly drop near-covered operators
	// whose uncovered volume sees no events on this trace, so the observable
	// degradation starts at a much more permissive setting than before.
	p40 := run(fsfWithError(0.4))

	t.Logf("recall: exact=%.4f p=0.01=%.4f p=0.4=%.4f", exact.recall, p01.recall, p40.recall)
	t.Logf("event load: exact=%d p=0.01=%d p=0.4=%d", exact.load, p01.load, p40.load)

	if exact.recall < 0.5 {
		t.Errorf("exact-checker baseline recall = %.4f; workload looks degenerate", exact.recall)
	}
	// Recall may only degrade as the filter gets more permissive.
	if p01.recall > exact.recall+1e-9 {
		t.Errorf("recall(p=0.01)=%.4f exceeds recall(exact)=%.4f", p01.recall, exact.recall)
	}
	if p40.recall > p01.recall+1e-9 {
		t.Errorf("recall(p=0.4)=%.4f exceeds recall(p=0.01)=%.4f", p40.recall, p01.recall)
	}
	// The test must not pass vacuously: on this seed the permissive filter
	// does make false-positive coverage decisions and loses events.
	if p40.recall >= exact.recall {
		t.Errorf("recall(p=0.4)=%.4f did not degrade below the exact baseline %.4f; the trade-off is not exercised", p40.recall, exact.recall)
	}
	// Traffic shrinks as the filter gets more permissive — the other side
	// of the Fig. 12 trade-off. Dropping an operator changes the filter
	// sets downstream decisions are made against, so per-seed totals are
	// monotone only up to that second-order effect; allow 2% for it.
	if p01.load > exact.load {
		t.Errorf("event load(p=0.01)=%d exceeds load(exact)=%d", p01.load, exact.load)
	}
	if float64(p40.load) > float64(p01.load)*1.02 {
		t.Errorf("event load(p=0.4)=%d exceeds load(p=0.01)=%d beyond tolerance", p40.load, p01.load)
	}
	if p40.load > exact.load {
		t.Errorf("event load(p=0.4)=%d exceeds load(exact)=%d", p40.load, exact.load)
	}
}
