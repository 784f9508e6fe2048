// Table II of the paper: the four distributed approaches differ exactly in
// their subscription filtering, subscription splitting and event propagation
// policies, and every approach's factory, the centralized baseline's
// included, builds nodes that deliver.
package experiment_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sensorcq/internal/core"
	"sensorcq/internal/experiment"
	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/subsume"
	"sensorcq/internal/topology"
)

// configFor returns the approach's Table II row as the harness builds it.
func configFor(t *testing.T, id experiment.ApproachID, seed int64) core.Config {
	t.Helper()
	cfg, err := experiment.ConfigFor(id, experiment.FactorySpec{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// factoryFor returns the approach's handler factory as the harness builds it.
func factoryFor(t *testing.T, id experiment.ApproachID, seed int64) netsim.HandlerFactory {
	t.Helper()
	factory, err := experiment.FactoryForSpec(id, experiment.FactorySpec{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return factory
}

// rangeSub is a one-filter subscription on sensor a's temperature.
func rangeSub(t *testing.T, id string, lo, hi float64) *model.Subscription {
	t.Helper()
	sub, err := model.NewIdentifiedSubscription(model.SubscriptionID(id), []model.SensorFilter{
		{Sensor: "a", Attr: model.AmbientTemperature, Range: geom.NewInterval(lo, hi)},
	}, 30)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// property is one of a Table II row's defining behaviours, run as a subtest
// under its name.
type property struct {
	name  string
	check func(t *testing.T, cfg core.Config)
}

func TestTableIIApproachMatrix(t *testing.T) {
	rows := []struct {
		id experiment.ApproachID
		// checker is the type of the row's subscription checker, "" for the
		// centralized baseline, which is a handler of its own and has no row.
		checker string
		// shared reports whether every node gets the same checker; an
		// unshared one is built afresh per call, even for the same node.
		shared      bool
		split       core.SplitPolicy
		propagation core.EventPropagation
		properties  []property
		// setFilterErrors are the set-filter error probabilities the
		// delivery smoke run builds the factory with; nil runs it once at 0.
		setFilterErrors []float64
	}{
		{id: experiment.Centralized},
		{
			id: experiment.Naive, checker: "subsume.NoneChecker", shared: true,
			split: core.SplitSimple, propagation: core.PerSubscription,
			// Even a subscription identical to a stored one is not subsumed,
			// so every subscription travels and is evaluated separately.
			properties: []property{{"none-checker-never-filters", func(t *testing.T, cfg core.Config) {
				q := rangeSub(t, "q", 0, 100)
				if cfg.Checker(0).Subsumed(q, []*model.Subscription{q.Clone()}) {
					t.Error("the naive checker filtered an identical subscription")
				}
			}}},
		},
		{
			id: experiment.OperatorPlacement, checker: "subsume.PairwiseChecker", shared: true,
			split: core.SplitSimple, propagation: core.PerSubscription,
			properties: []property{
				// A subscription nested in a stored one shares its operators; a
				// straddling one does not, and neither does the reverse direction.
				{"pairwise-covering-shares", func(t *testing.T, cfg core.Config) {
					c := cfg.Checker(0)
					wide, narrow, straddle := rangeSub(t, "wide", 0, 100), rangeSub(t, "narrow", 40, 60), rangeSub(t, "straddle", 50, 150)
					if !c.Subsumed(narrow, []*model.Subscription{wide}) {
						t.Error("nested subscription not covered")
					}
					if c.Subsumed(straddle, []*model.Subscription{wide}) {
						t.Error("straddling subscription covered")
					}
					if c.Subsumed(wide, []*model.Subscription{narrow}) {
						t.Error("wide subscription covered by the narrow one")
					}
				}},
				// Operator placement routes subscriptions with the multi-join
				// row's checker; it differs in storing whole multi-joins.
				{"shares-routing-with-multi-join", func(t *testing.T, cfg core.Config) {
					mj := configFor(t, experiment.MultiJoin, 7)
					if got, want := fmt.Sprintf("%T", cfg.Checker(0)), fmt.Sprintf("%T", mj.Checker(0)); got != want {
						t.Errorf("checker = %s, want the multi-join row's %s", got, want)
					}
					if cfg.Split == mj.Split {
						t.Errorf("split = %v, the multi-join row's; want whole multi-joins stored", cfg.Split)
					}
				}},
			},
		},
		{
			id: experiment.MultiJoin, checker: "subsume.PairwiseChecker", shared: true,
			split: core.SplitBinaryJoin, propagation: core.PerNeighbor,
			// The ring pairing: a k-attribute multi-join (k >= 3) splits into
			// k binary joins rooted at the parent; a binary join stays whole.
			properties: []property{{"ring-pairing-decomposition", func(t *testing.T, _ core.Config) {
				filters := []model.AttributeFilter{
					{Attr: model.AmbientTemperature, Range: geom.NewInterval(0, 10)},
					{Attr: model.RelativeHumidity, Range: geom.NewInterval(20, 30)},
					{Attr: model.WindSpeed, Range: geom.NewInterval(1, 5)},
				}
				for k, want := range map[int]int{3: 3, 2: 1} {
					sub, err := model.NewAbstractSubscription(model.SubscriptionID(fmt.Sprint("q", k)), filters[:k], geom.WholePlane(), 30, model.NoSpatialConstraint)
					if err != nil {
						t.Fatal(err)
					}
					joins := sub.SplitBinaryJoins()
					if len(joins) != want {
						t.Fatalf("%d-attribute subscription split into %d operators, want %d", k, len(joins), want)
					}
					for i, j := range joins {
						if j.NumFilters() != 2 || j.Root != sub.ID {
							t.Errorf("%d-attribute operator %d: %d filters rooted at %q, want 2 rooted at %q", k, i, j.NumFilters(), j.Root, sub.ID)
						}
					}
				}
			}}},
		},
		{
			id: experiment.FilterSplitForward, checker: "*subsume.SetChecker", shared: false,
			split: core.SplitSimple, propagation: core.PerNeighbor,
			// The set filter detects a cover by a union of stored
			// subscriptions that pairwise covering misses.
			properties: []property{{"set-checker-detects-set-covers", func(t *testing.T, cfg core.Config) {
				candidate := rangeSub(t, "cand", 10, 90)
				union := []*model.Subscription{rangeSub(t, "left", 0, 55), rangeSub(t, "right", 45, 100)}
				if !cfg.Checker(0).Subsumed(candidate, union) {
					t.Error("set cover not detected: [10,90] is inside [0,55] ∪ [45,100]")
				}
				if (subsume.PairwiseChecker{}).Subsumed(candidate, union) {
					t.Error("pairwise covering detected the set cover; the row shows nothing")
				}
			}}},
			setFilterErrors: []float64{0, 0.01, 0.1},
		},
	}

	var ids []experiment.ApproachID
	for _, row := range rows {
		ids = append(ids, row.id)
	}
	if !slices.Equal(experiment.All(), ids) || !slices.Equal(experiment.AllDistributed(), ids[1:]) {
		t.Errorf("All() = %v, AllDistributed() = %v, want the table's rows %v", experiment.All(), experiment.AllDistributed(), ids)
	}

	for _, row := range rows {
		t.Run(string(row.id), func(t *testing.T) {
			if row.checker != "" {
				cfg := configFor(t, row.id, 7)
				t.Run("config", func(t *testing.T) {
					if cfg.Name != string(row.id) {
						t.Errorf("config name = %q, want %q", cfg.Name, row.id)
					}
					if err := cfg.Validate(); err != nil {
						t.Fatalf("config invalid: %v", err)
					}
					if got := fmt.Sprintf("%T", cfg.Checker(0)); got != row.checker {
						t.Errorf("checker = %s, want %s", got, row.checker)
					}
					if cfg.Split != row.split {
						t.Errorf("split = %v, want %v", cfg.Split, row.split)
					}
					if cfg.Propagation != row.propagation {
						t.Errorf("propagation = %v, want %v", cfg.Propagation, row.propagation)
					}
				})
				t.Run("checker-instances", func(t *testing.T) {
					a, b, c := cfg.Checker(1), cfg.Checker(2), cfg.Checker(1)
					if row.shared {
						if a != b || a != c {
							t.Error("nodes do not share one checker")
						}
					} else if a == b || a == c {
						t.Error("the checker factory handed out one instance twice")
					}
				})
				for _, p := range row.properties {
					t.Run(p.name, func(t *testing.T) { p.check(t, cfg) })
				}
			}
			t.Run("delivery", func(t *testing.T) {
				setFilterErrors := row.setFilterErrors
				if setFilterErrors == nil {
					setFilterErrors = []float64{0}
				}
				for _, p := range setFilterErrors {
					deliversPair(t, row.id, experiment.FactorySpec{Seed: 7, SetFilterError: p})
				}
			})
		})
	}
}

// TestFactoriesProduceHandlers checks the handler each factory builds, FSF's
// at every set-filter error: a *core.Node named after the approach for the
// distributed approaches, a handler of its own for the centralized baseline.
func TestFactoriesProduceHandlers(t *testing.T) {
	for _, id := range experiment.All() {
		for _, p := range []float64{0, 0.01, 0.1} {
			factory, err := experiment.FactoryForSpec(id, experiment.FactorySpec{Seed: 7, SetFilterError: p})
			if err != nil {
				t.Fatal(err)
			}
			h := factory(3)
			node, ok := h.(*core.Node)
			switch {
			case h == nil:
				t.Errorf("%s factory at set-filter error %v built a nil handler", id, p)
			case id == experiment.Centralized && ok:
				t.Errorf("the centralized factory built a *core.Node, want the baseline's own handler")
			case id != experiment.Centralized && (!ok || node.Name() != string(id)):
				t.Errorf("%s factory at set-filter error %v built a %T, want a *core.Node named %q", id, p, h, id)
			}
		}
	}
}

// deliversPair builds the approach's nodes on a three-node line — sensor a at
// node 0, the subscriber at node 1, sensor b at node 2 — and checks that one
// matching (a, b) pair is delivered exactly once, at the subscriber, with
// both readings.
func deliversPair(t *testing.T, id experiment.ApproachID, spec experiment.FactorySpec) {
	t.Helper()
	factory, err := experiment.FactoryForSpec(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	g := topology.NewGraph(3)
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	e := netsim.NewEngine(g, factory)
	defer e.Close()
	if err := e.AttachSensor(0, model.Sensor{ID: "a", Attr: model.AmbientTemperature}); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachSensor(2, model.Sensor{ID: "b", Attr: model.RelativeHumidity}); err != nil {
		t.Fatal(err)
	}
	sub, err := model.NewIdentifiedSubscription("q", []model.SensorFilter{
		{Sensor: "a", Attr: model.AmbientTemperature, Range: geom.NewInterval(50, 80)},
		{Sensor: "b", Attr: model.RelativeHumidity, Range: geom.NewInterval(10, 30)},
	}, 30)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := e.SubscribeContext(ctx, 1, sub); err != nil {
		t.Fatal(err)
	}
	if err := e.PublishContext(ctx, 0, model.Event{Seq: 1, Sensor: "a", Attr: model.AmbientTemperature, Value: 60, Time: 100}); err != nil {
		t.Fatal(err)
	}
	if err := e.PublishContext(ctx, 2, model.Event{Seq: 2, Sensor: "b", Attr: model.RelativeHumidity, Value: 20, Time: 110}); err != nil {
		t.Fatal(err)
	}
	if d := e.DeliveriesFor("q"); len(d) != 1 || d[0].Node != 1 || len(d[0].Events) != 2 {
		t.Errorf("%+v: deliveries %+v, want one at node 1 with 2 events", spec, d)
	}
}
