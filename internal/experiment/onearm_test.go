package experiment

import (
	"fmt"
	"sort"
	"testing"

	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
)

// replacedArms measures one approach the two ways runApproach used to before
// it had a single measurement arm: when the mode drains between rounds, by
// snapshot differences around each batch's replay, recall read right after
// it; when it is windowed, by lineage-round sums after the closing flush. It
// is the oracle the one arm is pinned against, so it shares no measurement
// code with runApproach.
func replacedArms(t *testing.T, w *Workload, id ApproachID, o Options) []SeriesPoint {
	t.Helper()
	s := w.Scenario
	factory, err := FactoryForSpec(id, FactorySpec{
		Seed:           s.Seed + 7,
		SetFilterError: s.SetFilterError,
		ValidityFactor: netsim.RequiredValidityFactor(o.Delivery, o.Lag),
	})
	if err != nil {
		t.Fatal(err)
	}
	var engine netsim.Runtime
	if o.Concurrent {
		conc := netsim.NewConcurrentEngineWorkers(w.Deployment.Graph, factory, o.Workers)
		defer conc.Close()
		engine = conc
	} else {
		engine = netsim.NewEngine(w.Deployment.Graph, factory)
	}
	sensors := append([]model.Sensor(nil), w.Deployment.Sensors...)
	sort.Slice(sensors, func(i, j int) bool { return sensors[i].ID < sensors[j].ID })
	for _, sensor := range sensors {
		if err := engine.AttachSensor(w.Deployment.SensorHost[sensor.ID], sensor); err != nil {
			t.Fatal(err)
		}
		engine.Flush()
	}

	windowed := o.Delivery == netsim.Windowed
	var points []SeriesPoint
	var lo, hi, boundary []int
	replayed := 0
	for b := 0; b < s.Batches; b++ {
		batch := w.Placed[b*s.BatchSize : (b+1)*s.BatchSize]
		boundary = append(boundary, replayed)
		for _, p := range batch {
			if err := engine.Subscribe(p.Node, p.Sub); err != nil {
				t.Fatal(err)
			}
			if !windowed || b == 0 {
				engine.Flush()
			}
		}
		rounds := w.PublicationRounds(b)
		lo = append(lo, replayed+1)
		replayed += len(rounds)
		hi = append(hi, replayed)
		before := engine.Metrics().Snapshot()
		if err := engine.ReplayRounds(rounds, netsim.ReplayOptions{Mode: o.Delivery, Lag: o.Lag, KeepOpen: windowed}); err != nil {
			t.Fatal(err)
		}
		point := SeriesPoint{InjectedQueries: (b + 1) * s.BatchSize}
		if !windowed {
			after := engine.Metrics().Snapshot()
			point.SubscriptionLoad = after.SubscriptionLoad
			point.EventLoad = after.EventLoad - before.EventLoad
			point.Recall = batchRecall(w, b, o, engine)
		}
		points = append(points, point)
		for _, p := range batch[:churnCount(len(batch), o.Churn)] {
			if err := engine.Unsubscribe(p.Node, p.Sub.ID); err != nil {
				t.Fatal(err)
			}
			if !windowed {
				engine.Flush()
			}
		}
	}
	if windowed {
		engine.Flush()
		for b := range points {
			points[b].EventLoad = engine.Metrics().EventLoadForRounds(lo[b], hi[b])
			points[b].SubscriptionLoad = engine.Metrics().SubscriptionLoadForRounds(0, boundary[b])
			points[b].Recall = batchRecall(w, b, o, engine)
		}
	}
	return points
}

// TestOneArmSeriesMatchesReplacedArms pins runApproach's single measurement
// arm at quick scale, for all five approaches, every delivery mode, churn 0
// and 0.5 and both engines:
//
//   - wherever a run is reproducible (the sequential engine in every mode,
//     the concurrent engine under quiescent delivery) the series equals the
//     replaced arms' in every field;
//   - under concurrent pipelined delivery the event load of a round depends
//     on the interleaving within it, so subscription load and recall are
//     pinned against the replaced arm;
//   - the quiescent series is the same on both engines, and subscription load
//     and recall are the same under quiescent and pipelined delivery;
//   - a concurrent windowed run overlaps batches in real time and is not
//     reproducible in any field but its first batch's subscription load
//     (batch 0 subscribes to quiescence in every mode), so beyond that only
//     the shape of its series is checked.
func TestOneArmSeriesMatchesReplacedArms(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run skipped in -short mode")
	}
	sameLoadAndRecall := func(a, b SeriesPoint) bool {
		return a.SubscriptionLoad == b.SubscriptionLoad && a.Recall == b.Recall
	}
	type mode struct {
		delivery netsim.DeliveryMode
		lag      int
	}
	modes := []mode{{netsim.Quiescent, 0}, {netsim.Pipelined, 0}, {netsim.Windowed, 0}, {netsim.Windowed, 2}}
	// The small scenario runs the four distributed approaches; the medium one
	// is the smallest with the centralized baseline, and runs only that.
	for _, tc := range []struct {
		s          Scenario
		approaches []ApproachID
	}{
		{QuickScale(SmallScale()), AllDistributed()},
		{QuickScale(MediumScale()), []ApproachID{Centralized}},
	} {
		w, err := BuildWorkload(tc.s)
		if err != nil {
			t.Fatal(err)
		}
		for _, churn := range []float64{0, 0.5} {
			for _, id := range tc.approaches {
				// base is the sequential quiescent series (the first run of
				// the loops below) every other run is compared with.
				var base []SeriesPoint
				for _, m := range modes {
					for _, concurrent := range []bool{false, true} {
						o := Options{ComputeRecall: true, Concurrent: concurrent, Workers: 2, Delivery: m.delivery, Lag: m.lag, Churn: churn}
						label := fmt.Sprintf("%s/%s/churn=%g/%v-lag%d/concurrent=%v", tc.s.Name, id, churn, m.delivery, m.lag, concurrent)
						series, err := runApproach(w, id, o)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						got := series.Points
						if len(got) != tc.s.Batches {
							t.Fatalf("%s: %d points, want %d", label, len(got), tc.s.Batches)
						}
						if base == nil {
							base = got
						}
						windowed := m.delivery == netsim.Windowed
						reproducible := !concurrent || m.delivery == netsim.Quiescent
						var want []SeriesPoint
						if reproducible || !windowed {
							want = replacedArms(t, w, id, o)
						}
						for b, p := range got {
							switch {
							case reproducible && p != want[b]:
								t.Errorf("%s batch %d: one arm %+v, replaced arm %+v", label, b, p, want[b])
							case want != nil && !sameLoadAndRecall(p, want[b]):
								t.Errorf("%s batch %d: one arm %+v, replaced arm %+v (subscription load, recall)", label, b, p, want[b])
							}
							switch {
							case m.delivery == netsim.Quiescent && p != base[b]:
								t.Errorf("%s batch %d: %+v, sequential quiescent %+v", label, b, p, base[b])
							case !windowed && !sameLoadAndRecall(p, base[b]):
								t.Errorf("%s batch %d: %+v, sequential quiescent %+v (subscription load, recall)", label, b, p, base[b])
							case b == 0 && p.SubscriptionLoad != base[0].SubscriptionLoad:
								t.Errorf("%s: batch-0 subscription load %d, sequential quiescent %d", label, p.SubscriptionLoad, base[0].SubscriptionLoad)
							}
							if p.InjectedQueries != (b+1)*tc.s.BatchSize || p.EventLoad <= 0 || p.Recall < 0 || p.Recall > 1 ||
								(b > 0 && p.SubscriptionLoad < got[b-1].SubscriptionLoad) {
								t.Errorf("%s batch %d: malformed point %+v", label, b, p)
							}
						}
					}
				}
			}
		}
	}
}
