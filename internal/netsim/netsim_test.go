package netsim

import (
	"context"
	"fmt"
	"testing"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// floodHandler is a toy protocol used to exercise the engines: it floods
// advertisements and events to every neighbour except the sender, forwards
// subscriptions towards node 0, and delivers every event it sees to a local
// user subscription called "sink" when running on node 0.
type floodHandler struct {
	ctx      *Context
	node     topology.NodeID
	seen     map[uint64]bool
	advSeen  map[model.SensorID]bool
	received []model.Event
}

func newFloodHandler(node topology.NodeID) Handler {
	return &floodHandler{node: node, seen: map[uint64]bool{}, advSeen: map[model.SensorID]bool{}}
}

func (h *floodHandler) Init(ctx *Context)                                      { h.ctx = ctx }
func (h *floodHandler) LocalSubscribe(ctx *Context, s *model.Subscription)     {}
func (h *floodHandler) LocalUnsubscribe(ctx *Context, id model.SubscriptionID) {}

func (h *floodHandler) LocalSensor(ctx *Context, sensor model.Sensor) {
	h.HandleAdvertisement(ctx, h.node, registered(ctx, sensor))
}

// registered returns the advertisement of an attached sensor, under the ref
// the network's registry gave it.
func registered(ctx *Context, sensor model.Sensor) model.Advertisement {
	ref, ok := ctx.Sensors().Lookup(sensor.ID)
	if !ok {
		panic(fmt.Sprintf("sensor %q is not registered", sensor.ID))
	}
	return ctx.Sensors().Advertisement(ref)
}

func (h *floodHandler) LocalPublish(ctx *Context, ev model.Event) {
	h.HandleEvent(ctx, h.node, ev)
}

func (h *floodHandler) HandleAdvertisement(ctx *Context, from topology.NodeID, adv model.Advertisement) {
	if h.advSeen[adv.Sensor] {
		return
	}
	h.advSeen[adv.Sensor] = true
	for _, nb := range ctx.Neighbors() {
		if nb != from {
			ctx.SendAdvertisement(nb, adv)
		}
	}
}

func (h *floodHandler) HandleSubscription(ctx *Context, from topology.NodeID, sub *model.Subscription) {
}

func (h *floodHandler) HandleUnsubscription(ctx *Context, from topology.NodeID, id model.SubscriptionID) {
}

func (h *floodHandler) HandleEvent(ctx *Context, from topology.NodeID, ev model.Event) {
	if h.seen[ev.Seq] {
		return
	}
	h.seen[ev.Seq] = true
	h.received = append(h.received, ev)
	if ctx.Self() == 0 {
		ctx.DeliverToUser("sink", model.ComplexEvent{ev})
	}
	for _, nb := range ctx.Neighbors() {
		if nb != from {
			ctx.SendEvent(nb, ev)
		}
	}
}

func lineGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(topology.NodeID(i-1), topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func testEvent(seq uint64) model.Event {
	return model.Event{Seq: seq, Sensor: "d1", Attr: model.WindSpeed, Value: 1, Time: model.Timestamp(seq)}
}

func TestSequentialEngineFloodCounts(t *testing.T) {
	g := lineGraph(t, 5)
	e := NewEngine(g, newFloodHandler)

	sensor := model.Sensor{ID: "d1", Attr: model.WindSpeed, Location: geom.Point2D{}}
	if err := e.AttachSensor(4, sensor); err != nil {
		t.Fatal(err)
	}
	// Advertisement flooding on a 5-node line crosses 4 links.
	if got := e.Metrics().Snapshot().AdvertisementLoad; got != 4 {
		t.Errorf("advertisement load = %d, want 4", got)
	}
	if err := e.PublishContext(context.Background(), 4, testEvent(1)); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Snapshot().EventLoad; got != 4 {
		t.Errorf("event load = %d, want 4", got)
	}
	// The event reached node 0 and was delivered to the sink user.
	if got := len(e.DeliveriesFor("sink")); got != 1 {
		t.Errorf("deliveries = %d, want 1", got)
	}
	if seqs := e.Metrics().DeliveredSeqs("sink"); !seqs[1] {
		t.Error("delivered seq set should contain event 1")
	}
	if len(e.Deliveries()) != 1 || e.Deliveries()[0].Node != 0 {
		t.Error("Deliveries() should report the node-0 delivery")
	}
	if got := e.DeliveriesFor("sink"); len(got) != 1 || got[0].SubID != "sink" {
		t.Errorf("DeliveriesFor(sink) = %v", got)
	}
}

// TestAttachSensorNumbersSensorsPerNetwork pins the registry's numbering on
// both engines: refs are dense in attach order, re-attaching an ID with the
// same contents keeps its ref (and advertises it again from the new node),
// and an attach that fails — bad node, or the same ID with other contents —
// numbers nothing and queues nothing.
func TestAttachSensorNumbersSensorsPerNetwork(t *testing.T) {
	for _, rt := range []Runtime{NewEngine(lineGraph(t, 4), newFloodHandler), NewConcurrentEngineWorkers(lineGraph(t, 4), newFloodHandler, 2)} {
		sensors := rt.Handler(0).(*floodHandler).ctx.Sensors()
		attach := []model.Sensor{
			{ID: "d0", Attr: model.WindSpeed, Location: geom.Point2D{X: 1}},
			{ID: "d1", Attr: model.RelativeHumidity, Location: geom.Point2D{X: 2}},
			{ID: "d2", Attr: model.WindSpeed, Location: geom.Point2D{X: 3}},
		}
		for i, s := range attach {
			if err := rt.AttachSensor(topology.NodeID(i), s); err != nil {
				t.Fatal(err)
			}
			rt.Flush() // the concurrent engine only queues an attach
		}
		if err := rt.AttachSensor(3, attach[1]); err != nil {
			t.Errorf("re-attaching %s with the same contents: %v", attach[1].ID, err)
		}
		if err := rt.AttachSensor(9, model.Sensor{ID: "d3"}); err == nil {
			t.Error("attaching to an unknown node should fail")
		}
		if err := rt.AttachSensor(3, model.Sensor{ID: "d2", Attr: model.WindSpeed, Location: geom.Point2D{X: 4}}); err == nil {
			t.Error("re-attaching d2 at another location should fail")
		}
		rt.Flush()
		if ref, ok := sensors.Lookup("d3"); ok {
			t.Errorf("d3 got ref %d on a failed attach", ref)
		}
		for i, s := range attach {
			ref, ok := sensors.Lookup(s.ID)
			if !ok || ref != model.SensorRef(i) {
				t.Errorf("%s has ref %d (registered %v), want %d", s.ID, ref, ok, i)
			}
			want := model.Advertisement{Ref: model.SensorRef(i), Sensor: s.ID, Attr: s.Attr, Location: s.Location}
			if got := sensors.Advertisement(model.SensorRef(i)); got != want {
				t.Errorf("ref %d reads %v, want %v", i, got, want)
			}
		}
		// Each of the three sensors floods the 4-node line once; node 3 has
		// already heard of the re-attached d1, so it sends nothing.
		if got := rt.Metrics().Snapshot().AdvertisementLoad; got != 3*3 {
			t.Errorf("advertisement load = %d, want %d", got, 3*3)
		}
		rt.Close()
	}
}

func TestEngineRejectsInvalidInput(t *testing.T) {
	g := lineGraph(t, 3)
	e := NewEngine(g, newFloodHandler)
	if err := e.PublishContext(context.Background(), 99, testEvent(1)); err == nil {
		t.Error("publishing at an unknown node should fail")
	}
	if err := e.AttachSensor(-1, model.Sensor{}); err == nil {
		t.Error("attaching to an unknown node should fail")
	}
	bad := &model.Subscription{ID: "x"}
	if err := e.SubscribeContext(context.Background(), 0, bad); err == nil {
		t.Error("invalid subscriptions should be rejected")
	}
	if e.Handler(0) == nil || e.Handler(99) != nil {
		t.Error("Handler accessor wrong")
	}
}

func TestContextSendValidation(t *testing.T) {
	g := lineGraph(t, 3)
	e := NewEngine(g, newFloodHandler)
	ctx := e.ctxs[0]
	if ctx.Self() != 0 {
		t.Error("Self wrong")
	}
	if !ctx.IsNeighbor(1) || ctx.IsNeighbor(2) {
		t.Error("IsNeighbor wrong")
	}
	if ctx.Graph() != g {
		t.Error("Graph accessor wrong")
	}
	assertPanics(t, func() { ctx.SendEvent(2, testEvent(1)) }, "send to non-neighbour")
	assertPanics(t, func() { ctx.SendEvent(0, testEvent(1)) }, "send to self")
	assertPanics(t, func() { ctx.SendSubscription(1, nil) }, "nil subscription")
}

func assertPanics(t *testing.T, fn func(), name string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s should panic", name)
		}
	}()
	fn()
}

func TestMetricsSnapshotAndLinks(t *testing.T) {
	g := lineGraph(t, 4)
	e := NewEngine(g, newFloodHandler)
	before := e.Metrics().Snapshot()
	_ = e.PublishContext(context.Background(), 3, testEvent(7))
	after := e.Metrics().Snapshot()
	if ev, sub := after.EventLoad-before.EventLoad, after.SubscriptionLoad-before.SubscriptionLoad; ev != 3 || sub != 0 {
		t.Errorf("snapshot difference: event load %d, subscription load %d, want 3, 0", ev, sub)
	}
}

func TestConcurrentEngineMatchesSequential(t *testing.T) {
	g := lineGraph(t, 8)
	seq := NewEngine(g, newFloodHandler)
	conc := NewConcurrentEngineWorkers(g, newFloodHandler, 0)
	defer conc.Close()

	sensor := model.Sensor{ID: "d1", Attr: model.WindSpeed}
	if err := seq.AttachSensor(7, sensor); err != nil {
		t.Fatal(err)
	}
	if err := conc.AttachSensor(7, sensor); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		if err := seq.PublishContext(context.Background(), 7, testEvent(i)); err != nil {
			t.Fatal(err)
		}
		if err := conc.PublishContext(context.Background(), 7, testEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	conc.Flush()
	if a, b := seq.Metrics().Snapshot().EventLoad, conc.Metrics().Snapshot().EventLoad; a != b {
		t.Errorf("event load differs: sequential=%d concurrent=%d", a, b)
	}
	if a, b := seq.Metrics().Snapshot().AdvertisementLoad, conc.Metrics().Snapshot().AdvertisementLoad; a != b {
		t.Errorf("advertisement load differs: sequential=%d concurrent=%d", a, b)
	}
	if a, b := len(seq.DeliveriesFor("sink")), len(conc.DeliveriesFor("sink")); a != b {
		t.Errorf("deliveries differ: sequential=%d concurrent=%d", a, b)
	}
	if len(conc.Deliveries()) != 20 {
		t.Errorf("concurrent deliveries = %d, want 20", len(conc.Deliveries()))
	}
}

func TestConcurrentEngineCloseRejectsWork(t *testing.T) {
	g := lineGraph(t, 3)
	e := NewConcurrentEngineWorkers(g, newFloodHandler, 0)
	e.Flush()
	e.Close()
	e.Close() // idempotent
	if err := e.PublishContext(context.Background(), 0, testEvent(1)); err == nil {
		t.Error("publishing after Close should fail")
	}
	if err := e.PublishContext(context.Background(), 42, testEvent(1)); err == nil {
		t.Error("unknown node should fail")
	}
	bad := &model.Subscription{ID: "x"}
	if err := e.SubscribeContext(context.Background(), 0, bad); err == nil {
		t.Error("invalid subscription should fail")
	}
}

func TestMessageKindString(t *testing.T) {
	if KindAdvertisement.String() != "advertisement" ||
		KindSubscription.String() != "subscription" ||
		KindEvent.String() != "event" {
		t.Error("MessageKind.String() wrong")
	}
	if MessageKind(9).String() != "kind(9)" {
		t.Error("unknown kind rendering wrong")
	}
}
