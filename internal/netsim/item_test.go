package netsim

import (
	"context"
	"reflect"
	"testing"
	"unsafe"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// TestQueuedItemSize pins the size of the one record every message and
// injection of every workload is copied as — into a mailbox or the FIFO
// queue, out into a burst, and again whenever one of those arrays grows. It
// was 368 bytes while it held each payload shape side by side (and the
// injection payloads a second time); a 4000-node advertisement flood moves
// four million of them, and set-up time followed the size.
func TestQueuedItemSize(t *testing.T) {
	if size := unsafe.Sizeof(queued{}); size > 160 {
		t.Errorf("queued is %d bytes, want at most 160: a payload belongs in the slot of its type, not in a field of its own", size)
	}
}

// relayHandler records every call it receives and passes each local
// injection on to node 1 as the matching link message.
type relayHandler struct {
	calls []recordedCall
}

type recordedCall struct {
	method string
	from   topology.NodeID
	arg    any
}

func (h *relayHandler) record(method string, from topology.NodeID, arg any) {
	h.calls = append(h.calls, recordedCall{method, from, arg})
}

func (h *relayHandler) Init(*Context) {}
func (h *relayHandler) LocalSensor(ctx *Context, sensor model.Sensor) {
	h.record("LocalSensor", ctx.Self(), sensor)
	ctx.SendAdvertisement(1, registered(ctx, sensor))
}
func (h *relayHandler) LocalSubscribe(ctx *Context, sub *model.Subscription) {
	h.record("LocalSubscribe", ctx.Self(), sub)
	ctx.SendSubscription(1, sub)
	ctx.SendPartialAggregate(1, &PartialAggregate{SubID: sub.ID, Window: 3}, 2)
}
func (h *relayHandler) LocalUnsubscribe(ctx *Context, id model.SubscriptionID) {
	h.record("LocalUnsubscribe", ctx.Self(), id)
	ctx.SendUnsubscription(1, id)
}
func (h *relayHandler) LocalPublish(ctx *Context, ev model.Event) {
	h.record("LocalPublish", ctx.Self(), ev)
	ctx.SendEvent(1, ev)
}
func (h *relayHandler) HandleAdvertisement(_ *Context, from topology.NodeID, adv model.Advertisement) {
	h.record("HandleAdvertisement", from, adv)
}
func (h *relayHandler) HandleSubscription(_ *Context, from topology.NodeID, sub *model.Subscription) {
	h.record("HandleSubscription", from, sub)
}
func (h *relayHandler) HandleUnsubscription(_ *Context, from topology.NodeID, id model.SubscriptionID) {
	h.record("HandleUnsubscription", from, id)
}
func (h *relayHandler) HandleEvent(_ *Context, from topology.NodeID, ev model.Event) {
	h.record("HandleEvent", from, ev)
}
func (h *relayHandler) HandlePartialAggregate(_ *Context, from topology.NodeID, pa *PartialAggregate) {
	h.record("HandlePartialAggregate", from, *pa)
}

// TestDispatchRebuildsHandlerArguments sends one payload of every shape
// through the item's shared slots — injected at node 0, relayed to node 1 —
// and checks that each handler method receives exactly what was injected or
// sent: an advertisement and a sensor ride as their ref in the network's
// registry, and must come out with the registered fields.
func TestDispatchRebuildsHandlerArguments(t *testing.T) {
	e := NewEngine(lineGraph(t, 2), func(topology.NodeID) Handler { return &relayHandler{} })
	sensor := model.Sensor{ID: "d1", Attr: model.WindSpeed, Location: geom.Point2D{X: 3, Y: -4}}
	sub, err := model.NewIdentifiedSubscription("q", []model.SensorFilter{{Sensor: "d1", Attr: model.WindSpeed, Range: geom.NewInterval(0, 9)}}, 30)
	if err != nil {
		t.Fatal(err)
	}
	ev := model.Event{Seq: 5, Sensor: "d1", Attr: model.WindSpeed, Location: sensor.Location, Value: 2.5, Time: 77}
	if err := e.AttachSensor(0, sensor); err != nil {
		t.Fatal(err)
	}
	if err := e.SubscribeContext(context.Background(), 0, sub); err != nil {
		t.Fatal(err)
	}
	if err := e.PublishContext(context.Background(), 0, ev); err != nil {
		t.Fatal(err)
	}
	if err := e.Unsubscribe(0, "q"); err != nil {
		t.Fatal(err)
	}
	want := [2][]recordedCall{
		{
			{"LocalSensor", 0, sensor},
			{"LocalSubscribe", 0, sub},
			{"LocalPublish", 0, ev},
			{"LocalUnsubscribe", 0, model.SubscriptionID("q")},
		},
		{
			{"HandleAdvertisement", 0, model.Advertisement{Ref: 0, Sensor: "d1", Attr: model.WindSpeed, Location: sensor.Location}},
			{"HandleSubscription", 0, sub},
			{"HandlePartialAggregate", 0, PartialAggregate{SubID: "q", Window: 3}},
			{"HandleEvent", 0, ev},
			{"HandleUnsubscription", 0, model.SubscriptionID("q")},
		},
	}
	for n := range want {
		if got := e.Handler(topology.NodeID(n)).(*relayHandler).calls; !reflect.DeepEqual(got, want[n]) {
			t.Errorf("node %d received\n  %v\nwant\n  %v", n, got, want[n])
		}
	}
	if got := e.Metrics().Snapshot().PartialAggregateLoad; got != 2 {
		t.Errorf("partial-aggregate load = %d, want the 2 units sent", got)
	}
}
