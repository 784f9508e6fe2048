package sensorcq

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// buildWalkthroughDeployment reproduces the paper's six-node walkthrough
// topology through the public API.
func buildWalkthroughDeployment(t *testing.T) *Deployment {
	t.Helper()
	dep, err := NewTopology(6).
		Link(5, 4).Link(4, 3).Link(3, 0).Link(3, 1).Link(4, 2).
		PlaceSensor(0, Sensor{ID: "a", Attr: AmbientTemperature}).
		PlaceSensor(1, Sensor{ID: "b", Attr: RelativeHumidity}).
		PlaceSensor(2, Sensor{ID: "c", Attr: WindSpeed}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestTopologyBuilderErrors(t *testing.T) {
	if _, err := NewTopology(3).Link(0, 1).Build(); err == nil {
		t.Error("disconnected topology should fail")
	}
	if _, err := NewTopology(2).Link(0, 5).Build(); err == nil {
		t.Error("out-of-range link should fail")
	}
	if _, err := NewTopology(2).Link(-1, 0).Build(); err == nil {
		t.Error("negative node link should fail")
	}
	if _, err := NewTopology(2).Link(0, 0).Build(); err == nil {
		t.Error("self-link should fail")
	}
	if _, err := NewTopology(3).Link(0, 1).Link(1, 2).Link(2, 0).Build(); err == nil {
		t.Error("cyclic topology should fail (the network must be acyclic)")
	}
	if _, err := NewTopology(2).Link(0, 1).
		PlaceSensor(0, Sensor{ID: "x", Attr: WindSpeed}).
		PlaceSensor(1, Sensor{ID: "x", Attr: WindSpeed}).Build(); err == nil {
		t.Error("duplicate sensor placement should fail")
	}
	// A builder error is sticky: later stages keep reporting it and Build
	// never partially succeeds.
	b := NewTopology(2).Link(0, 9).PlaceSensor(0, Sensor{ID: "y", Attr: WindSpeed})
	if _, err := b.Build(); err == nil {
		t.Error("builder should carry the first error through chained calls")
	}
}

func TestSystemEndToEndFSF(t *testing.T) {
	dep := buildWalkthroughDeployment(t)
	sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	if sys.Approach() != FilterSplitForward || sys.Deployment() != dep {
		t.Error("accessors wrong")
	}

	sub, err := NewIdentifiedSubscription("alert", []SensorFilter{
		{Sensor: "a", Attr: AmbientTemperature, Range: NewInterval(50, 80)},
		{Sensor: "b", Attr: RelativeHumidity, Range: NewInterval(10, 30)},
	}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Subscribe(5, sub); err != nil {
		t.Fatal(err)
	}
	if got := sys.Traffic().SubscriptionLoad; got != 4 {
		t.Errorf("subscription load = %d, want 4", got)
	}

	events := []Event{
		{Seq: 1, Sensor: "a", Attr: AmbientTemperature, Value: 60, Time: 10},
		{Seq: 2, Sensor: "b", Attr: RelativeHumidity, Value: 20, Time: 12},
	}
	if err := sys.PublishBatch(events); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.DeliveriesFor("alert")); got != 1 {
		t.Fatalf("deliveries = %d, want 1", got)
	}
	seqs := sys.DeliveredEventSeqs("alert")
	if !seqs[1] || !seqs[2] {
		t.Errorf("delivered seqs = %v", seqs)
	}
	if sys.Traffic().EventLoad == 0 {
		t.Error("event load should be non-zero")
	}
	if err := sys.Publish(Event{Seq: 3, Sensor: "nope", Attr: WindSpeed}); err == nil {
		t.Error("publishing for an unknown sensor should fail")
	}
}

func TestSystemConcurrentRuntime(t *testing.T) {
	dep := buildWalkthroughDeployment(t)
	sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sub, err := NewAbstractSubscription("q", []AttributeFilter{
		{Attr: AmbientTemperature, Range: NewInterval(0, 100)},
	}, Everywhere(), 30, NoSpatialConstraint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Subscribe(5, sub); err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(Event{Seq: 1, Sensor: "a", Attr: AmbientTemperature, Value: 50, Time: 1}); err != nil {
		t.Fatal(err)
	}
	if len(sys.DeliveriesFor("q")) != 1 {
		t.Error("concurrent runtime should deliver the matching event")
	}
}

func TestSystemDefaultsAndErrors(t *testing.T) {
	if _, err := NewSystem(nil, Config{}); err == nil {
		t.Error("nil deployment should fail")
	}
	dep := buildWalkthroughDeployment(t)
	sys, err := NewSystem(dep, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Approach() != FilterSplitForward {
		t.Error("default approach should be FilterSplitForward")
	}
	if _, err := NewSystem(dep, Config{Approach: "bogus"}); err == nil {
		t.Error("unknown approach should fail")
	}
	for _, p := range []float64{-0.01, 1, 1.5, math.NaN()} {
		if _, err := NewSystem(dep, Config{SetFilterError: p}); err == nil {
			t.Errorf("set-filter error %g should fail, not fall back to the default", p)
		}
	}
	// Replay settings every ReplayRounds would reject fail here, before the
	// advertisement flood.
	for _, cfg := range []Config{
		{Delivery: Windowed, Lag: 1000},
		{Delivery: DeliveryMode(9)},
	} {
		if _, err := NewSystem(dep, cfg); err == nil {
			t.Errorf("delivery %v with lag %d should fail", cfg.Delivery, cfg.Lag)
		}
	}
	if _, err := sys.Subscribe(99, nil); err == nil {
		t.Error("subscribing nil at an unknown node should fail")
	}
}

// TestSubscribeRejectsInvalidAggregate registers aggregate queries that
// never went through NewAggregateSubscription's checks. A zero window would
// divide by zero inside the network — on a worker goroutine, which kills the
// process, on the concurrent engine — so Subscribe must reject each of them
// on both engines, and the system must stay usable.
func TestSubscribeRejectsInvalidAggregate(t *testing.T) {
	abstract := func(t *testing.T, attrs ...AttributeType) *Subscription {
		t.Helper()
		var filters []AttributeFilter
		for _, a := range attrs {
			filters = append(filters, AttributeFilter{Attr: a, Range: NewInterval(0, 100)})
		}
		sub, err := NewAbstractSubscription("agg", filters, Everywhere(), 30, NoSpatialConstraint)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	cases := []struct {
		name  string
		build func(t *testing.T) *Subscription
	}{
		{"zero window", func(t *testing.T) *Subscription {
			sub := abstract(t, AmbientTemperature)
			sub.Aggregate = &AggregateSpec{Func: AggSum}
			return sub
		}},
		{"two filters", func(t *testing.T) *Subscription {
			sub := abstract(t, AmbientTemperature, RelativeHumidity)
			sub.Aggregate = &AggregateSpec{Func: AggSum, WindowRounds: 2}
			return sub
		}},
		{"identified", func(t *testing.T) *Subscription {
			sub := walkthroughSub(t, "agg")
			sub.Aggregate = &AggregateSpec{Func: AggSum, WindowRounds: 2}
			return sub
		}},
	}
	for _, concurrent := range []bool{false, true} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/concurrent=%v", tc.name, concurrent), func(t *testing.T) {
				sys, err := NewSystem(buildWalkthroughDeployment(t), Config{Seed: 1, Concurrent: concurrent})
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				if _, err := sys.Subscribe(5, tc.build(t)); err == nil {
					t.Fatal("Subscribe accepted an invalid aggregate query")
				}
				if n := len(sys.Handles()); n != 0 {
					t.Errorf("%d handles after a rejected Subscribe, want 0", n)
				}
				if err := sys.ReplayRounds([][]Event{matchingPair(1, 100), matchingPair(3, 200)}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestGeneratorsThroughFacade(t *testing.T) {
	dep, err := GenerateDeployment(DeploymentConfig{
		TotalNodes: 30, SensorNodes: 20, Groups: 4,
		Attributes: DefaultAttributes(), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := GenerateTrace(dep, TraceConfig{Rounds: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if trace.NumEvents() != 100 {
		t.Errorf("trace events = %d, want 100", trace.NumEvents())
	}
	subs, err := GenerateWorkload(dep, trace, WorkloadConfig{Count: 12, MinAttrs: 3, MaxAttrs: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 12 {
		t.Errorf("workload size = %d", len(subs))
	}
	if len(DefaultAttributeProfiles()) != 5 {
		t.Error("expected 5 default profiles")
	}
	if len(Approaches()) != 5 || len(AllScenarios()) != 4 {
		t.Error("registry sizes wrong")
	}
}

func TestRunExperimentThroughFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short mode")
	}
	s := QuickScale(SmallScaleScenario())
	s.Batches = 2
	s.BatchSize = 15
	res, err := RunExperiment(s, &ExperimentOptions{
		Approaches:    []Approach{OperatorPlacement, FilterSplitForward},
		ComputeRecall: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	if err := WriteReport(&table, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "filter-split-forward") {
		t.Error("report should mention filter-split-forward")
	}
	var csv strings.Builder
	if err := WriteReportCSV(&csv, res); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(csv.String()), "\n")) != 1+2*2 {
		t.Errorf("unexpected CSV size:\n%s", csv.String())
	}
}
