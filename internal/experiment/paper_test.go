package experiment

import (
	"context"
	"testing"

	"sensorcq/internal/core"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/subsume"
	"sensorcq/internal/topology"
)

// paperRun is one scenario of the paper's evaluation at cqexp's default
// scale, with what the claims below read from it.
type paperRun struct {
	s      Scenario
	series map[ApproachID][]SeriesPoint
	final  map[ApproachID]SeriesPoint
	// filter tallies Filter-Split-Forward's set-filter decisions.
	filter setFilterCount
	// perNeighbor and perSubscription are the event loads of two pairwise,
	// simply split configurations that differ only in event propagation.
	perNeighbor, perSubscription int64
}

// paperClaims are the rows of TestPaperEvaluation: each claim of Section VI
// the reproduction pins, checked on every scenario.
var paperClaims = []struct {
	name  string
	check func(t *testing.T, r *paperRun)
}{
	// Figs. 4, 6, 8 and 10: set filtering forwards the fewest queries and
	// naive the most; the load only grows as batches are injected.
	{"fig4-6-8-10/subscription-load", func(t *testing.T, r *paperRun) {
		fsf, op, naive := r.final[FilterSplitForward], r.final[OperatorPlacement], r.final[Naive]
		if !(fsf.SubscriptionLoad <= op.SubscriptionLoad && op.SubscriptionLoad <= naive.SubscriptionLoad && fsf.SubscriptionLoad < naive.SubscriptionLoad) {
			t.Errorf("want fsf <= operator placement <= naive, fsf < naive: %d, %d, %d",
				fsf.SubscriptionLoad, op.SubscriptionLoad, naive.SubscriptionLoad)
		}
		for id, points := range r.series {
			for i := 1; i < len(points); i++ {
				if points[i].SubscriptionLoad < points[i-1].SubscriptionLoad {
					t.Errorf("%s: cumulative subscription load fell at batch %d", id, i)
				}
			}
		}
	}},
	// Figs. 5, 7, 9 and 11: Filter-Split-Forward forwards the fewest data
	// units of the distributed approaches, and none forwards more than naive.
	{"fig5-7-9-11/event-load", func(t *testing.T, r *paperRun) {
		fsf, naive := r.final[FilterSplitForward], r.final[Naive]
		for _, id := range []ApproachID{Naive, OperatorPlacement, MultiJoin} {
			if p := r.final[id]; fsf.EventLoad >= p.EventLoad {
				t.Errorf("fsf event load %d not below %s's %d", fsf.EventLoad, id, p.EventLoad)
			}
			if p := r.final[id]; p.EventLoad > naive.EventLoad {
				t.Errorf("%s event load %d above naive's %d", id, p.EventLoad, naive.EventLoad)
			}
		}
	}},
	// Figs. 6 and 7, the only ones with the centralized baseline: it forwards
	// each query once, towards the centre, but ships every matching reading
	// there, so Filter-Split-Forward beats it on event load.
	{"fig6-7/centralized", func(t *testing.T, r *paperRun) {
		if !r.s.IncludeCentralized {
			t.Skip("the paper runs the centralized baseline in the medium scenario only")
		}
		c, fsf := r.final[Centralized], r.final[FilterSplitForward]
		for _, id := range AllDistributed() {
			if p := r.final[id]; c.SubscriptionLoad >= p.SubscriptionLoad {
				t.Errorf("centralized subscription load %d not below %s's %d", c.SubscriptionLoad, id, p.SubscriptionLoad)
			}
		}
		if fsf.EventLoad >= c.EventLoad {
			t.Errorf("fsf event load %d not below centralized's %d", fsf.EventLoad, c.EventLoad)
		}
	}},
	// Table II's event-propagation column on its own: deduplicating result
	// sets per link forwards fewer data units than one result set per query.
	{"table2/link-dedup", func(t *testing.T, r *paperRun) {
		t.Logf("event load: per-neighbour %d, per-subscription %d", r.perNeighbor, r.perSubscription)
		if r.perNeighbor >= r.perSubscription {
			t.Errorf("per-neighbour event load %d not below per-subscription %d", r.perNeighbor, r.perSubscription)
		}
	}},
	// Fig. 12, as ROADMAP.md finding 5 answers it: the set filter fires
	// beyond what pairwise covering finds and its verdicts are sometimes
	// wrong, but the gaps it misses are so small that almost no complex event
	// falls into them, and the few that do are still delivered, carried by
	// other forwarded matches — so recall stays at 100 % at the default error
	// probability, for every approach and batch.
	{"fig12/recall", func(t *testing.T, r *paperRun) {
		f := r.filter
		t.Logf("set-filter decisions: %d checked, %d subsumed, %d by a union only, %d false positives",
			f.checked, f.subsumed, f.unions, f.falsePositives)
		if f.unions == 0 || f.falsePositives == 0 {
			t.Errorf("the set filter no longer fires (%d union verdicts) or errs (%d false positives): revisit finding 5", f.unions, f.falsePositives)
		}
		for id, points := range r.series {
			for i, p := range points {
				if p.Recall != 1 {
					t.Errorf("%s batch %d: recall %.4f, want 1", id, i, p.Recall)
				}
			}
		}
	}},
}

// TestPaperEvaluation is the paper's evaluation (Section VI) as one checked
// table: every claim of paperClaims on each of the four scenarios, at cqexp's
// default scale. Quick scale is too small for the orderings: there,
// distributed multi-join forwards more data units than naive on both large
// scenarios.
func TestPaperEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run skipped in -short mode")
	}
	for _, s := range AllScenarios() {
		s = s.Scale(1, 0.4, 0.5)
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			r := runPaperScenario(t, s)
			for _, claim := range paperClaims {
				t.Run(claim.name, func(t *testing.T) { claim.check(t, r) })
			}
		})
	}
}

// runPaperScenario runs the scenario's approaches as cqexp does, then the
// set-filter tally and the link-dedup ablation on networks holding every
// subscription of the same (regenerated) workload.
func runPaperScenario(t *testing.T, s Scenario) *paperRun {
	res, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &paperRun{s: s, series: map[ApproachID][]SeriesPoint{}, final: map[ApproachID]SeriesPoint{}}
	for _, series := range res.Approaches {
		if len(series.Points) != s.Batches {
			t.Fatalf("%s has %d points, want %d", series.Approach, len(series.Points), s.Batches)
		}
		r.series[series.Approach] = series.Points
		r.final[series.Approach] = series.Final()
	}
	want := AllDistributed()
	if s.IncludeCentralized {
		want = All()
	}
	for _, id := range want {
		if _, ok := r.final[id]; !ok {
			t.Fatalf("no series for %s", id)
		}
	}

	w, err := BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ConfigFor(FilterSplitForward, FactorySpec{Seed: s.Seed + 7, SetFilterError: s.SetFilterError})
	if err != nil {
		t.Fatal(err)
	}
	perNode := cfg.Checker
	cfg.Checker = func(node topology.NodeID) subsume.Checker {
		return countingChecker{Checker: perNode(node), n: &r.filter}
	}
	subscribeAll(t, w, core.NewFactory(cfg))

	for _, propagation := range []core.EventPropagation{core.PerNeighbor, core.PerSubscription} {
		rt := subscribeAll(t, w, core.NewFactory(core.Config{
			Name:        "pairwise/" + propagation.String(),
			Checker:     core.SharedChecker(subsume.PairwiseChecker{}),
			Propagation: propagation,
		}))
		if err := rt.ReplayRounds(publicationRounds(w.Deployment, w.Trace.ByRound), netsim.ReplayOptions{}); err != nil {
			t.Fatal(err)
		}
		if propagation == core.PerNeighbor {
			r.perNeighbor = rt.Metrics().Snapshot().EventLoad
		} else {
			r.perSubscription = rt.Metrics().Snapshot().EventLoad
		}
	}
	return r
}

// subscribeAll builds the workload's network on the sequential engine and
// registers every subscription. Set-filter verdicts depend only on the
// candidate and the operators stored before it, so this network makes the
// decisions a batch-by-batch run makes.
func subscribeAll(t *testing.T, w *Workload, factory netsim.HandlerFactory) netsim.Runtime {
	t.Helper()
	rt := netsim.NewEngine(w.Deployment.Graph, factory)
	t.Cleanup(func() { rt.Close() })
	for _, sensor := range w.Deployment.Sensors {
		if err := rt.AttachSensor(w.Deployment.SensorHost[sensor.ID], sensor); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range w.Placed {
		if err := rt.SubscribeContext(context.Background(), p.Node, p.Sub); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// setFilterCount tallies set-filter decisions: candidates checked,
// "subsumed" verdicts, those no single member explains (covered by a union
// only), and false positives — "subsumed" verdicts subsume.ExactChecker
// rejects for the same candidate and set.
type setFilterCount struct{ checked, subsumed, unions, falsePositives int }

// countingChecker passes every verdict through and counts it. The counter is
// shared by all nodes, which the sequential engine runs one at a time.
type countingChecker struct {
	subsume.Checker
	n *setFilterCount
}

func (c countingChecker) Subsumed(candidate *model.Subscription, set []*model.Subscription) bool {
	c.n.checked++
	subsumed := c.Checker.Subsumed(candidate, set)
	if subsumed {
		c.n.subsumed++
		if !subsume.PairwiseCovered(candidate, set) {
			c.n.unions++
		}
		if !(subsume.ExactChecker{}).Subsumed(candidate, set) {
			c.n.falsePositives++
		}
	}
	return subsumed
}
