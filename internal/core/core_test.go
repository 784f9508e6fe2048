package core

import (
	"context"
	"testing"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/subsume"
	"sensorcq/internal/topology"
)

// The tests in this file replay the paper's running example (Table I /
// Figure 3) on the six-node network sketched in Section V:
//
//	  n0(sensor a)   n1(sensor b)
//	         \        /
//	          n3 ---- n4 ---- n5 (user)
//	                   |
//	              n2(sensor c)
//
// Sensors a, b, c are identified sensors; the user at n5 registers the three
// subscriptions of Table I in order.

const (
	nodeSensorA = topology.NodeID(0)
	nodeSensorB = topology.NodeID(1)
	nodeSensorC = topology.NodeID(2)
	nodeHubAB   = topology.NodeID(3)
	nodeHubMain = topology.NodeID(4)
	nodeUser    = topology.NodeID(5)
)

func figure3Graph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(6)
	edges := [][2]topology.NodeID{
		{nodeUser, nodeHubMain},
		{nodeHubMain, nodeHubAB},
		{nodeHubAB, nodeSensorA},
		{nodeHubAB, nodeSensorB},
		{nodeHubMain, nodeSensorC},
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func sensorNamed(id model.SensorID, attr model.AttributeType) model.Sensor {
	return model.Sensor{ID: id, Attr: attr, Location: geom.Point2D{}}
}

func tableISub(t *testing.T, id string, ranges map[model.SensorID][2]float64) *model.Subscription {
	t.Helper()
	attrs := map[model.SensorID]model.AttributeType{
		"a": model.AmbientTemperature,
		"b": model.RelativeHumidity,
		"c": model.WindSpeed,
	}
	var filters []model.SensorFilter
	for d, r := range ranges {
		filters = append(filters, model.SensorFilter{Sensor: d, Attr: attrs[d], Range: geom.NewInterval(r[0], r[1])})
	}
	s, err := model.NewIdentifiedSubscription(model.SubscriptionID(id), filters, 30)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sub1(t *testing.T) *model.Subscription {
	return tableISub(t, "s1", map[model.SensorID][2]float64{"a": {50, 80}, "b": {10, 30}})
}
func sub2(t *testing.T) *model.Subscription {
	return tableISub(t, "s2", map[model.SensorID][2]float64{"b": {20, 40}, "c": {2, 20}})
}
func sub3(t *testing.T) *model.Subscription {
	return tableISub(t, "s3", map[model.SensorID][2]float64{"a": {55, 75}, "b": {15, 35}, "c": {5, 15}})
}

// setupFigure3 builds an engine with the given factory, attaches the three
// sensors and returns the engine.
func setupFigure3(t *testing.T, factory netsim.HandlerFactory) *netsim.Engine {
	t.Helper()
	e := netsim.NewEngine(figure3Graph(t), factory)
	attach := func(node topology.NodeID, id model.SensorID, attr model.AttributeType) {
		if err := e.AttachSensor(node, sensorNamed(id, attr)); err != nil {
			t.Fatal(err)
		}
	}
	attach(nodeSensorA, "a", model.AmbientTemperature)
	attach(nodeSensorB, "b", model.RelativeHumidity)
	attach(nodeSensorC, "c", model.WindSpeed)
	return e
}

func publish(t *testing.T, e *netsim.Engine, node topology.NodeID, seq uint64, sensor model.SensorID, attr model.AttributeType, value float64, ts model.Timestamp) {
	t.Helper()
	if err := e.PublishContext(context.Background(), node, model.Event{Seq: seq, Sensor: sensor, Attr: attr, Value: value, Time: ts}); err != nil {
		t.Fatal(err)
	}
}

func coreNode(t *testing.T, e *netsim.Engine, id topology.NodeID) *Node {
	t.Helper()
	n, ok := e.Handler(id).(*Node)
	if !ok {
		t.Fatalf("handler of node %d is not a core.Node", id)
	}
	return n
}

func fsfFactory() netsim.HandlerFactory { return NewFactory(NewFSFConfig(DefaultSetFilterError, 1)) }

func TestAdvertisementFlooding(t *testing.T) {
	e := setupFigure3(t, fsfFactory())
	// Each of the 3 advertisements floods the whole 6-node tree: 5 links each.
	if got := e.Metrics().Snapshot().AdvertisementLoad; got != 15 {
		t.Errorf("advertisement load = %d, want 15", got)
	}
	// Every node knows every sensor.
	for n := topology.NodeID(0); n < 6; n++ {
		advs := coreNode(t, e, n).Advertisements()
		for _, s := range []model.SensorID{"a", "b", "c"} {
			if !advs.Known(s) {
				t.Errorf("node %d does not know sensor %s", n, s)
			}
		}
	}
}

func TestFigure3Walkthrough(t *testing.T) {
	e := setupFigure3(t, fsfFactory())

	// s1: user -> hubMain -> hubAB -> {sensorA, sensorB} = 4 forwarded ops.
	if err := e.SubscribeContext(context.Background(), nodeUser, sub1(t)); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Snapshot().SubscriptionLoad; got != 4 {
		t.Errorf("subscription load after s1 = %d, want 4", got)
	}
	// s2: user -> hubMain, then hubMain -> {hubAB, sensorC}, hubAB -> sensorB
	// = 4 more.
	if err := e.SubscribeContext(context.Background(), nodeUser, sub2(t)); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Snapshot().SubscriptionLoad; got != 8 {
		t.Errorf("subscription load after s2 = %d, want 8", got)
	}
	// s3: user -> hubMain, hubMain -> {hubAB (a,b), sensorC (c)}, hubAB ->
	// {sensorA, sensorB} = 5 more; the leaf operators are detected as covered
	// and stored without further forwarding.
	if err := e.SubscribeContext(context.Background(), nodeUser, sub3(t)); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Snapshot().SubscriptionLoad; got != 13 {
		t.Errorf("subscription load after s3 = %d, want 13", got)
	}

	// Sensor C's node received fc,2 (uncovered) and fc,3 (covered by fc,2).
	cTable := coreNode(t, e, nodeSensorC).Subscriptions(nodeHubMain)
	if got := len(cTable.Uncovered()); got != 1 {
		t.Errorf("sensor-c node has %d uncovered operators, want 1", got)
	}
	if got := len(cTable.Covered()); got != 1 {
		t.Errorf("sensor-c node has %d covered operators, want 1", got)
	}
	// Sensor B's node received fb,1 and fb,2 (uncovered) and fb,3 — which is
	// only covered by their UNION, the case set filtering handles and
	// pairwise covering cannot.
	bTable := coreNode(t, e, nodeSensorB).Subscriptions(nodeHubAB)
	if got := len(bTable.Uncovered()); got != 2 {
		t.Errorf("sensor-b node has %d uncovered operators, want 2", got)
	}
	if got := len(bTable.Covered()); got != 1 {
		t.Errorf("sensor-b node has %d covered operators, want 1 (set subsumption)", got)
	}
	// Sensor A's node: fa,1 uncovered, fa,3 covered pairwise.
	aTable := coreNode(t, e, nodeSensorA).Subscriptions(nodeHubAB)
	if len(aTable.Uncovered()) != 1 || len(aTable.Covered()) != 1 {
		t.Error("sensor-a node operator tables wrong")
	}
	// The user node keeps all three local subscriptions for delivery.
	if got := len(coreNode(t, e, nodeUser).LocalSubscriptions()); got != 3 {
		t.Errorf("user node has %d local subscriptions, want 3", got)
	}
}

func TestTableIIOperatorPlacementStoresMoreUncovered(t *testing.T) {
	// With pairwise covering only, sensor B's third operator is NOT detected
	// as covered (it needs the union of the first two).
	pairwise := NewFactory(Config{
		Name:        "operator-placement",
		Checker:     SharedChecker(subsume.PairwiseChecker{}),
		Split:       SplitSimple,
		Propagation: PerSubscription,
	})
	e := setupFigure3(t, pairwise)
	for _, s := range []*model.Subscription{sub1(t), sub2(t), sub3(t)} {
		if err := e.SubscribeContext(context.Background(), nodeUser, s); err != nil {
			t.Fatal(err)
		}
	}
	bTable := coreNode(t, e, nodeSensorB).Subscriptions(nodeHubAB)
	if got := len(bTable.Uncovered()); got != 3 {
		t.Errorf("pairwise filtering should leave 3 uncovered operators at sensor b, got %d", got)
	}
	if got := len(bTable.Covered()); got != 0 {
		t.Errorf("pairwise filtering should find no covered operator at sensor b, got %d", got)
	}
}

func TestEventPropagationFSFTableIExample(t *testing.T) {
	e := setupFigure3(t, fsfFactory())
	for _, s := range []*model.Subscription{sub1(t), sub2(t), sub3(t)} {
		if err := e.SubscribeContext(context.Background(), nodeUser, s); err != nil {
			t.Fatal(err)
		}
	}
	evBase := e.Metrics().Snapshot().EventLoad

	publish(t, e, nodeSensorA, 1, "a", model.AmbientTemperature, 60, 10)
	publish(t, e, nodeSensorB, 2, "b", model.RelativeHumidity, 25, 11)
	publish(t, e, nodeSensorC, 3, "c", model.WindSpeed, 10, 12)

	// Per-neighbour forwarding: a:0->3 (1), b:1->3 (1), {a,b}:3->4 (2),
	// {a,b}:4->5 (2), c:2->4 (1), c:4->5 (1)  =>  8 data units.
	if got := e.Metrics().Snapshot().EventLoad - evBase; got != 8 {
		t.Errorf("FSF event load = %d, want 8", got)
	}
	// All three users received their complex events with full recall.
	for sub, want := range map[model.SubscriptionID][]uint64{
		"s1": {1, 2},
		"s2": {2, 3},
		"s3": {1, 2, 3},
	} {
		got := e.Metrics().DeliveredSeqs(sub)
		if len(got) != len(want) {
			t.Errorf("%s delivered %d events, want %d", sub, len(got), len(want))
			continue
		}
		for _, seq := range want {
			if !got[seq] {
				t.Errorf("%s missing event %d", sub, seq)
			}
		}
	}
}

func TestEventPropagationPerSubscriptionDuplicates(t *testing.T) {
	// The same scenario under the operator-placement configuration must
	// produce strictly more event traffic: per-subscription result sets
	// re-send the same reading once per overlapping operator.
	run := func(factory netsim.HandlerFactory) int64 {
		e := setupFigure3(t, factory)
		for _, s := range []*model.Subscription{sub1(t), sub2(t), sub3(t)} {
			if err := e.SubscribeContext(context.Background(), nodeUser, s); err != nil {
				t.Fatal(err)
			}
		}
		base := e.Metrics().Snapshot().EventLoad
		publish(t, e, nodeSensorA, 1, "a", model.AmbientTemperature, 60, 10)
		publish(t, e, nodeSensorB, 2, "b", model.RelativeHumidity, 25, 11)
		publish(t, e, nodeSensorC, 3, "c", model.WindSpeed, 10, 12)
		return e.Metrics().Snapshot().EventLoad - base
	}

	fsfLoad := run(fsfFactory())
	opLoad := run(NewFactory(Config{
		Name:        "operator-placement",
		Checker:     SharedChecker(subsume.PairwiseChecker{}),
		Split:       SplitSimple,
		Propagation: PerSubscription,
	}))
	naiveLoad := run(NewFactory(Config{
		Name:        "naive",
		Checker:     SharedChecker(subsume.NoneChecker{}),
		Split:       SplitSimple,
		Propagation: PerSubscription,
	}))
	if !(fsfLoad < opLoad) {
		t.Errorf("FSF load (%d) should be below operator placement (%d)", fsfLoad, opLoad)
	}
	if !(opLoad <= naiveLoad) {
		t.Errorf("operator placement load (%d) should not exceed naive (%d)", opLoad, naiveLoad)
	}
	// Recall is perfect for all three deterministic runs in this scenario.
}

func TestMultiJoinFalsePositiveTraffic(t *testing.T) {
	// Only the 3-way subscription s3 is registered. Sensor c's reading is out
	// of range, so no complex event exists. The binary-join approach still
	// forwards the (a,b) pair all the way to the user (false positives); FSF
	// stops them at the node where the full correlation is known to fail.
	scenario := func(factory netsim.HandlerFactory) (int64, int) {
		e := setupFigure3(t, factory)
		if err := e.SubscribeContext(context.Background(), nodeUser, sub3(t)); err != nil {
			t.Fatal(err)
		}
		base := e.Metrics().Snapshot().EventLoad
		publish(t, e, nodeSensorA, 1, "a", model.AmbientTemperature, 60, 10)
		publish(t, e, nodeSensorB, 2, "b", model.RelativeHumidity, 25, 11)
		publish(t, e, nodeSensorC, 3, "c", model.WindSpeed, 99, 12) // out of range
		return e.Metrics().Snapshot().EventLoad - base, len(e.DeliveriesFor("s3"))
	}

	fsfLoad, fsfDeliveries := scenario(fsfFactory())
	mjLoad, mjDeliveries := scenario(NewFactory(Config{
		Name:        "multi-join",
		Checker:     SharedChecker(subsume.PairwiseChecker{}),
		Split:       SplitBinaryJoin,
		Propagation: PerNeighbor,
	}))

	if fsfDeliveries != 0 || mjDeliveries != 0 {
		t.Fatalf("no complex event should be delivered (fsf=%d, mj=%d)", fsfDeliveries, mjDeliveries)
	}
	if !(mjLoad > fsfLoad) {
		t.Errorf("multi-join false positives should inflate event load: multi-join=%d fsf=%d", mjLoad, fsfLoad)
	}
}

func TestMultiJoinStillDeliversTrueMatches(t *testing.T) {
	e := setupFigure3(t, NewFactory(Config{
		Name:        "multi-join",
		Checker:     SharedChecker(subsume.PairwiseChecker{}),
		Split:       SplitBinaryJoin,
		Propagation: PerNeighbor,
	}))
	if err := e.SubscribeContext(context.Background(), nodeUser, sub3(t)); err != nil {
		t.Fatal(err)
	}
	publish(t, e, nodeSensorA, 1, "a", model.AmbientTemperature, 60, 10)
	publish(t, e, nodeSensorB, 2, "b", model.RelativeHumidity, 25, 11)
	publish(t, e, nodeSensorC, 3, "c", model.WindSpeed, 10, 12)
	got := e.Metrics().DeliveredSeqs("s3")
	for _, seq := range []uint64{1, 2, 3} {
		if !got[seq] {
			t.Errorf("multi-join user missing event %d", seq)
		}
	}
}

func TestSubscriptionWithoutSourcesIsNotForwarded(t *testing.T) {
	e := setupFigure3(t, fsfFactory())
	missing := tableISub(t, "sx", map[model.SensorID][2]float64{"a": {0, 100}, "z": {0, 100}})
	before := e.Metrics().Snapshot().SubscriptionLoad
	if err := e.SubscribeContext(context.Background(), nodeUser, missing); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Snapshot().SubscriptionLoad - before; got != 0 {
		t.Errorf("subscription without sources was forwarded %d times", got)
	}
	// It is still stored locally for (never-occurring) delivery.
	if len(coreNode(t, e, nodeUser).LocalSubscriptions()) != 1 {
		t.Error("unanswerable subscription should still be stored locally")
	}
}

func TestDuplicateSubscriptionIgnored(t *testing.T) {
	e := setupFigure3(t, fsfFactory())
	s := sub1(t)
	if err := e.SubscribeContext(context.Background(), nodeUser, s); err != nil {
		t.Fatal(err)
	}
	load := e.Metrics().Snapshot().SubscriptionLoad
	if err := e.SubscribeContext(context.Background(), nodeUser, s); err != nil {
		t.Fatal(err)
	}
	if e.Metrics().Snapshot().SubscriptionLoad != load {
		t.Error("re-registering the same subscription should not generate traffic")
	}
	if got := len(coreNode(t, e, nodeUser).LocalSubscriptions()); got != 1 {
		t.Errorf("local subscriptions = %d, want 1", got)
	}
}

func TestEventsWithoutSubscribersAreDropped(t *testing.T) {
	e := setupFigure3(t, fsfFactory())
	publish(t, e, nodeSensorA, 1, "a", model.AmbientTemperature, 60, 10)
	if got := e.Metrics().Snapshot().EventLoad; got != 0 {
		t.Errorf("events without any subscription generated %d data units", got)
	}
}

func TestOutOfRangeEventsFilteredAtSource(t *testing.T) {
	e := setupFigure3(t, fsfFactory())
	if err := e.SubscribeContext(context.Background(), nodeUser, sub1(t)); err != nil {
		t.Fatal(err)
	}
	base := e.Metrics().Snapshot().EventLoad
	publish(t, e, nodeSensorA, 1, "a", model.AmbientTemperature, 200, 10) // outside [50,80]
	if got := e.Metrics().Snapshot().EventLoad - base; got != 0 {
		t.Errorf("out-of-range reading generated %d data units", got)
	}
}

func TestTemporalCorrelationWindow(t *testing.T) {
	e := setupFigure3(t, fsfFactory())
	if err := e.SubscribeContext(context.Background(), nodeUser, sub1(t)); err != nil {
		t.Fatal(err)
	}
	// a and b are too far apart in time (δt = 30) to correlate.
	publish(t, e, nodeSensorA, 1, "a", model.AmbientTemperature, 60, 10)
	publish(t, e, nodeSensorB, 2, "b", model.RelativeHumidity, 25, 100)
	if got := len(e.DeliveriesFor("s1")); got != 0 {
		t.Errorf("uncorrelated events delivered %d complex events", got)
	}
	// A later a reading inside the window completes the match.
	publish(t, e, nodeSensorA, 3, "a", model.AmbientTemperature, 61, 110)
	if got := len(e.DeliveriesFor("s1")); got != 1 {
		t.Errorf("correlated events delivered %d complex events, want 1", got)
	}
	seqs := e.Metrics().DeliveredSeqs("s1")
	if !seqs[2] || !seqs[3] || seqs[1] {
		t.Errorf("delivered seqs = %v, want {2,3}", seqs)
	}
}

func TestConcurrentEngineSameTraffic(t *testing.T) {
	seq := setupFigure3(t, fsfFactory())
	conc := netsim.NewConcurrentEngineWorkers(figure3Graph(t), fsfFactory(), 0)
	defer conc.Close()
	for _, s := range []struct {
		node topology.NodeID
		id   model.SensorID
		attr model.AttributeType
	}{
		{nodeSensorA, "a", model.AmbientTemperature},
		{nodeSensorB, "b", model.RelativeHumidity},
		{nodeSensorC, "c", model.WindSpeed},
	} {
		if err := conc.AttachSensor(s.node, sensorNamed(s.id, s.attr)); err != nil {
			t.Fatal(err)
		}
		conc.Flush()
	}
	for _, s := range []*model.Subscription{sub1(t), sub2(t), sub3(t)} {
		if err := seq.SubscribeContext(context.Background(), nodeUser, s.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := conc.SubscribeContext(context.Background(), nodeUser, s.Clone()); err != nil {
			t.Fatal(err)
		}
		conc.Flush()
	}
	events := []model.Event{
		{Seq: 1, Sensor: "a", Attr: model.AmbientTemperature, Value: 60, Time: 10},
		{Seq: 2, Sensor: "b", Attr: model.RelativeHumidity, Value: 25, Time: 11},
		{Seq: 3, Sensor: "c", Attr: model.WindSpeed, Value: 10, Time: 12},
	}
	nodes := []topology.NodeID{nodeSensorA, nodeSensorB, nodeSensorC}
	for i, ev := range events {
		if err := seq.PublishContext(context.Background(), nodes[i], ev); err != nil {
			t.Fatal(err)
		}
		if err := conc.PublishContext(context.Background(), nodes[i], ev); err != nil {
			t.Fatal(err)
		}
		conc.Flush()
	}
	if a, b := seq.Metrics().Snapshot().SubscriptionLoad, conc.Metrics().Snapshot().SubscriptionLoad; a != b {
		t.Errorf("subscription load differs: sequential=%d concurrent=%d", a, b)
	}
	if a, b := seq.Metrics().Snapshot().EventLoad, conc.Metrics().Snapshot().EventLoad; a != b {
		t.Errorf("event load differs: sequential=%d concurrent=%d", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("empty config should be invalid")
	}
	if err := (Config{Name: "x"}).Validate(); err == nil {
		t.Error("config without checker should be invalid")
	}
	if err := NewFSFConfig(0.01, 1).Validate(); err != nil {
		t.Errorf("FSF config should be valid: %v", err)
	}
	assertPanics(t, func() { NewFactory(Config{}) })
	if SplitSimple.String() != "simple" || SplitBinaryJoin.String() != "binary-join" {
		t.Error("SplitPolicy String wrong")
	}
	if PerNeighbor.String() != "per-neighbor" || PerSubscription.String() != "per-subscription" {
		t.Error("EventPropagation String wrong")
	}
	n := NewNode(3, NewFSFConfig(0.01, 1))
	if n.Self() != 3 || n.Name() != "filter-split-forward" {
		t.Error("node accessors wrong")
	}
	if n.Window() == nil || n.Advertisements() == nil || n.Subscriptions(3) == nil {
		t.Error("store accessors should not be nil")
	}
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

// coverAll files every operator as covered, even against an empty set: a
// node running it stores what its neighbours send without ever registering
// an operator for per-neighbour matching.
type coverAll struct{}

func (coverAll) Subsumed(*model.Subscription, []*model.Subscription) bool { return true }
func (coverAll) Name() string                                             { return "cover-all" }

// TestEventSkipsOriginsWithNothingToStab pins the origin skip rule of
// processEvent: when sensor a's node holds operators from its one neighbour
// but none of them is registered for matching — all retracted, or all
// covered under per-neighbour propagation — a reading costs that origin no
// index stab and sends nothing. Per-subscription propagation matches covered
// operators too, and a live operator is matched under either policy: those
// controls stab once and forward the reading.
func TestEventSkipsOriginsWithNothingToStab(t *testing.T) {
	checker := func(coverAtA bool) func(topology.NodeID) subsume.Checker {
		return func(node topology.NodeID) subsume.Checker {
			if coverAtA && node == nodeSensorA {
				return coverAll{}
			}
			return subsume.PairwiseChecker{}
		}
	}
	cases := []struct {
		name        string
		propagation EventPropagation
		coverAtA    bool // sensor a's node files every operator covered
		retract     bool // s1 is retracted before the reading
		wantStab    bool
	}{
		{"live/per-neighbour", PerNeighbor, false, false, true},
		{"live/per-subscription", PerSubscription, false, false, true},
		{"retracted/per-neighbour", PerNeighbor, false, true, false},
		{"retracted/per-subscription", PerSubscription, false, true, false},
		{"covered/per-neighbour", PerNeighbor, true, false, false},
		{"covered/per-subscription", PerSubscription, true, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := setupFigure3(t, NewFactory(Config{Name: c.name, Checker: checker(c.coverAtA), Propagation: c.propagation}))
			if err := e.SubscribeContext(context.Background(), nodeUser, sub1(t)); err != nil {
				t.Fatal(err)
			}
			if c.retract {
				if err := e.Unsubscribe(nodeUser, "s1"); err != nil {
					t.Fatal(err)
				}
			}
			n := coreNode(t, e, nodeSensorA)
			if stored := n.Subscriptions(nodeHubAB).Len(); (stored == 0) != c.retract {
				t.Fatalf("sensor a's node stores %d operators from its neighbour", stored)
			}
			// The local delivery index is stabbed by every reading; what is
			// left are the stabs of the neighbours' matchers.
			originStabs := func() int64 { return n.IndexStats().Lookups - n.localIdx.Stats().Lookups }
			stabs, load := originStabs(), e.Metrics().Snapshot().EventLoad
			publish(t, e, nodeSensorA, 1, "a", model.AmbientTemperature, 60, 10) // inside s1's [50,80]
			gotStabs, sent := originStabs()-stabs, e.Metrics().Snapshot().EventLoad-load
			if c.wantStab && (gotStabs != 1 || sent == 0) {
				t.Errorf("the reading made %d origin stabs and sent %d units, want 1 stab and a forward", gotStabs, sent)
			}
			if !c.wantStab && (gotStabs != 0 || sent != 0) {
				t.Errorf("the reading made %d origin stabs and sent %d units, want none", gotStabs, sent)
			}
		})
	}
}

// TestForwardingKeysStayDistinctAndStable pins the node-wide key counter:
// the link keys of different origins and the per-operator keys of the same
// operator ID under different origins are all distinct, and asking again —
// as a re-registered operator does — returns the key drawn the first time.
func TestForwardingKeysStayDistinctAndStable(t *testing.T) {
	n := NewNode(0, Config{Name: "keys", Checker: SharedChecker(subsume.NoneChecker{}), Propagation: PerSubscription})
	a, b := n.record(2), n.record(1)
	if n.record(2) != a || n.origins[0] != b || n.origins[1] != a {
		t.Fatal("records must be found again and kept in origin ID order")
	}
	keys := []uint32{a.linkKey, b.linkKey, n.opKey(a, "q"), n.opKey(b, "q"), n.opKey(a, "r")}
	seen := map[uint32]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("keys %v are not distinct", keys)
		}
		seen[k] = true
	}
	if n.opKey(a, "q") != keys[2] || n.opKey(b, "q") != keys[3] {
		t.Error("an operator's key must stay the same for the node's lifetime")
	}
}
