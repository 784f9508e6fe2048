package experiment

import (
	"testing"

	"sensorcq/internal/netsim"
)

func TestScenarioDefinitionsMatchPaper(t *testing.T) {
	small := SmallScale()
	if small.TotalNodes != 60 || small.SensorNodes != 50 || small.Groups != 10 {
		t.Error("small-scale network shape wrong")
	}
	if small.TotalSubscriptions() != 1000 || small.MinAttrs != 3 || small.MaxAttrs != 5 {
		t.Error("small-scale workload wrong")
	}
	medium := MediumScale()
	if medium.TotalNodes != 100 || medium.SensorNodes != 50 || !medium.IncludeCentralized {
		t.Error("medium-scale definition wrong")
	}
	if medium.TotalSubscriptions() != 900 || medium.MinAttrs != 5 {
		t.Error("medium-scale workload wrong")
	}
	ln := LargeScaleNetwork()
	if ln.TotalNodes != 200 || ln.SensorNodes != 50 || ln.Groups != 10 {
		t.Error("large-scale-network definition wrong")
	}
	ls := LargeScaleSources()
	if ls.TotalNodes != 200 || ls.SensorNodes != 100 || ls.Groups != 20 {
		t.Error("large-scale-sources definition wrong")
	}
	if len(AllScenarios()) != 4 {
		t.Error("expected 4 scenarios")
	}
	for _, s := range AllScenarios() {
		if err := s.Validate(); err != nil {
			t.Errorf("scenario %s invalid: %v", s.Name, err)
		}
	}
}

func TestScenarioScaleAndValidate(t *testing.T) {
	s := SmallScale().Scale(0.5, 0.1, 0.5)
	if s.Batches != 5 || s.BatchSize != 10 || s.RoundsPerBatch != 4 {
		t.Errorf("scaled scenario = %+v", s)
	}
	if s.TotalNodes != 60 {
		t.Error("network shape must not be scaled")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled scenario invalid: %v", err)
	}
	bad := Scenario{}
	if err := bad.Validate(); err == nil {
		t.Error("empty scenario should be invalid")
	}
	q := QuickScale(MediumScale())
	if q.Batches != 4 || q.BatchSize != 25 || q.RoundsPerBatch != 3 {
		t.Error("QuickScale wrong")
	}
}

func TestFactoryForAllApproaches(t *testing.T) {
	for _, id := range All() {
		f, err := FactoryForSpec(id, FactorySpec{Seed: 1})
		if err != nil || f == nil {
			t.Errorf("FactoryForSpec(%s) failed: %v", id, err)
		}
	}
	if _, err := FactoryForSpec("bogus", FactorySpec{Seed: 1}); err == nil {
		t.Error("unknown approach should fail")
	}
	if len(All()) != 5 || len(AllDistributed()) != 4 {
		t.Error("approach lists wrong")
	}
}

func TestBuildWorkloadSegments(t *testing.T) {
	s := QuickScale(SmallScale())
	w, err := BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Segments) != s.Batches {
		t.Fatalf("segments = %d, want %d", len(w.Segments), s.Batches)
	}
	for b, seg := range w.Segments {
		if len(seg) != s.RoundsPerBatch*s.SensorNodes {
			t.Errorf("segment %d has %d events, want %d", b, len(seg), s.RoundsPerBatch*s.SensorNodes)
		}
	}
	if len(w.Placed) != s.TotalSubscriptions() {
		t.Errorf("placed subscriptions = %d", len(w.Placed))
	}
	if got := len(w.SubscriptionsUpTo(1)); got != 2*s.BatchSize {
		t.Errorf("SubscriptionsUpTo(1) = %d", got)
	}
}

// TestQuickSmallScaleRun is the integration test of the whole pipeline: it
// runs a scaled-down version of the small-scale experiment for all four
// distributed approaches and checks the orderings the paper reports.
func TestQuickSmallScaleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run skipped in -short mode")
	}
	s := QuickScale(SmallScale())
	res, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Approaches) != 4 {
		t.Fatalf("expected 4 approaches, got %d", len(res.Approaches))
	}
	get := func(id ApproachID) SeriesPoint {
		series := res.SeriesFor(id)
		if series == nil {
			t.Fatalf("missing series for %s", id)
		}
		if len(series.Points) != s.Batches {
			t.Fatalf("%s has %d points, want %d", id, len(series.Points), s.Batches)
		}
		return series.Final()
	}
	naiveF := get(Naive)
	opF := get(OperatorPlacement)
	mjF := get(MultiJoin)
	fsfF := get(FilterSplitForward)

	// Subscription load ordering (Fig. 4): naive is worst, FSF best.
	if !(fsfF.SubscriptionLoad <= opF.SubscriptionLoad && opF.SubscriptionLoad <= naiveF.SubscriptionLoad) {
		t.Errorf("subscription load ordering violated: fsf=%d op=%d naive=%d",
			fsfF.SubscriptionLoad, opF.SubscriptionLoad, naiveF.SubscriptionLoad)
	}
	if fsfF.SubscriptionLoad >= naiveF.SubscriptionLoad {
		t.Errorf("FSF should forward strictly fewer subscriptions than naive: %d vs %d",
			fsfF.SubscriptionLoad, naiveF.SubscriptionLoad)
	}
	// Event load ordering (Fig. 5): naive worst, FSF best.
	if !(fsfF.EventLoad <= mjF.EventLoad && mjF.EventLoad <= naiveF.EventLoad) {
		t.Errorf("event load ordering violated: fsf=%d mj=%d naive=%d",
			fsfF.EventLoad, mjF.EventLoad, naiveF.EventLoad)
	}
	if !(opF.EventLoad <= naiveF.EventLoad) {
		t.Errorf("operator placement should not exceed naive event load: %d vs %d",
			opF.EventLoad, naiveF.EventLoad)
	}
	// Loads grow with the number of injected subscriptions.
	series := res.SeriesFor(Naive)
	for i := 1; i < len(series.Points); i++ {
		if series.Points[i].SubscriptionLoad < series.Points[i-1].SubscriptionLoad {
			t.Error("cumulative subscription load must be non-decreasing")
		}
	}
	// Recall: deterministic approaches stay essentially perfect; FSF stays
	// above the ~93% the paper reports.
	for _, id := range []ApproachID{Naive, OperatorPlacement, MultiJoin} {
		if r := get(id).Recall; r < 0.97 {
			t.Errorf("%s recall = %.3f, want ~1", id, r)
		}
	}
	if r := fsfF.Recall; r < 0.90 {
		t.Errorf("FSF recall = %.3f, want >= 0.90", r)
	}
}

// TestChurnRun exercises the subscription-churn option: retracting half of
// each batch after its segment replayed must keep the run valid (recall in
// range against the surviving population) and must shed event traffic on
// later batches compared to a churn-free run of the same workload.
func TestChurnRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run skipped in -short mode")
	}
	s := QuickScale(SmallScale())
	w, err := BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Approaches = []ApproachID{OperatorPlacement, FilterSplitForward}
	steady, err := RunOnWorkload(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Churn = 0.5
	churned, err := RunOnWorkload(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range opts.Approaches {
		base := steady.SeriesFor(id)
		got := churned.SeriesFor(id)
		if base == nil || got == nil || len(got.Points) != s.Batches {
			t.Fatalf("%s: missing series", id)
		}
		for i, p := range got.Points {
			if p.Recall < 0 || p.Recall > 1 {
				t.Errorf("%s batch %d: recall %f out of range", id, i, p.Recall)
			}
		}
		// The first batch replays before any retraction, so its event load
		// matches the steady run; the final batch runs against roughly half
		// the population and must be strictly cheaper.
		if got.Points[0].EventLoad != base.Points[0].EventLoad {
			t.Errorf("%s: batch-0 event load %d differs from churn-free %d",
				id, got.Points[0].EventLoad, base.Points[0].EventLoad)
		}
		if got.Final().EventLoad >= base.Final().EventLoad {
			t.Errorf("%s: final event load %d not below churn-free %d",
				id, got.Final().EventLoad, base.Final().EventLoad)
		}
	}
	opts.Churn = 1.5
	if _, err := RunOnWorkload(w, opts); err == nil {
		t.Error("churn outside [0,1] should be rejected")
	}
}

// TestWindowedRunSpansBatches pins that the harness measures the same
// experiment in every delivery mode: each batch's subscriptions and
// retractions propagate to quiescence and each replay ends with a flush, so
// overlapping up to three rounds in flight (Windowed, lag 2) changes neither
// the traffic nor the recall of any batch — on the sequential engine and on
// the concurrent one.
func TestWindowedRunSpansBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run skipped in -short mode")
	}
	s := QuickScale(SmallScale())
	w, err := BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Approaches = []ApproachID{OperatorPlacement, FilterSplitForward}
	quiescent, err := RunOnWorkload(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Delivery = netsim.Windowed
	opts.Lag = 2
	for _, concurrent := range []bool{false, true} {
		opts.Concurrent, opts.Workers = concurrent, 2
		windowed, err := RunOnWorkload(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range opts.Approaches {
			series, base := windowed.SeriesFor(id), quiescent.SeriesFor(id)
			if series == nil || base == nil || len(series.Points) != s.Batches || len(base.Points) != s.Batches {
				t.Fatalf("%s concurrent=%v: missing or truncated series", id, concurrent)
			}
			for i, p := range series.Points {
				if p != base.Points[i] {
					t.Errorf("%s concurrent=%v batch %d: windowed %+v, quiescent %+v", id, concurrent, i, p, base.Points[i])
				}
			}
		}
	}
}

// TestLagSweepIsConformant is cqexp -lagsweep without the command: on each
// of the four scenarios, the final Filter-Split-Forward point (subscription
// load, event load, recall) is the same at every windowed lag, on both
// engines. The lag trades overlap for parallelism, never results.
func TestLagSweepIsConformant(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run skipped in -short mode")
	}
	for _, s := range AllScenarios() {
		s = QuickScale(s)
		w, err := BuildWorkload(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, concurrent := range []bool{false, true} {
			var base SeriesPoint
			for i, lag := range []int{0, 1, 2, 4} {
				res, err := RunOnWorkload(w, Options{
					Approaches:    []ApproachID{FilterSplitForward},
					ComputeRecall: true,
					Concurrent:    concurrent,
					Workers:       2,
					Delivery:      netsim.Windowed,
					Lag:           lag,
				})
				if err != nil {
					t.Fatalf("%s concurrent=%v lag %d: %v", s.Name, concurrent, lag, err)
				}
				final := res.Approaches[0].Final()
				if i == 0 {
					base = final
				} else if final != base {
					t.Errorf("%s concurrent=%v: lag %d ends at %+v, lag 0 at %+v", s.Name, concurrent, lag, final, base)
				}
			}
		}
	}
}
