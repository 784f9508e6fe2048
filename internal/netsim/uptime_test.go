package netsim_test

import (
	"context"
	"runtime"
	"testing"

	"sensorcq/internal/experiment"
	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/topology"
)

// TestCountersDoNotGrowWithRounds pins that the engine keeps nothing per
// replay round: a long-lived daemon publishes one round per request, so any
// per-round record is a leak proportional to its uptime. Node 1 subscribes to
// sensor a on node 0 and its own sensor b, and only a ever publishes — every
// reading is forwarded (the event load grows) but nothing is delivered (the
// delivery log does not), and the event windows prune — so after the warm-up
// the live heap must stay flat however many rounds follow.
func TestCountersDoNotGrowWithRounds(t *testing.T) {
	const warmup, rounds, allowed = 2000, 20000, 64 << 10
	g := topology.NewGraph(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	factory, err := experiment.FactoryForSpec(experiment.FilterSplitForward, experiment.FactorySpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := netsim.NewEngine(g, factory)
	if err := e.AttachSensor(0, model.Sensor{ID: "a", Attr: model.AmbientTemperature}); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachSensor(1, model.Sensor{ID: "b", Attr: model.RelativeHumidity}); err != nil {
		t.Fatal(err)
	}
	sub, err := model.NewIdentifiedSubscription("q", []model.SensorFilter{
		{Sensor: "a", Attr: model.AmbientTemperature, Range: geom.NewInterval(0, 100)},
		{Sensor: "b", Attr: model.RelativeHumidity, Range: geom.NewInterval(0, 100)},
	}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubscribeContext(context.Background(), 1, sub); err != nil {
		t.Fatal(err)
	}

	round := [][]netsim.Publication{make([]netsim.Publication, 1)}
	seq := uint64(0)
	publish := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			round[0][0] = netsim.Publication{Node: 0, Event: model.Event{
				Seq: seq, Sensor: "a", Attr: model.AmbientTemperature, Value: 50, Time: model.Timestamp(10 * seq),
			}}
			if err := e.ReplayRounds(round, netsim.ReplayOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	publish(warmup)
	before := liveHeap()
	load := e.Metrics().Snapshot().EventLoad
	publish(rounds)
	after := liveHeap()

	if got := e.Metrics().Snapshot().EventLoad - load; got != rounds {
		t.Fatalf("event load grew by %d over %d rounds: the readings are not forwarded, the test measures nothing", got, rounds)
	}
	if n := len(e.Deliveries()); n != 0 {
		t.Fatalf("%d deliveries: the delivery log grows, the test no longer isolates the counters", n)
	}
	if wm := e.Watermark(); wm != warmup+rounds {
		t.Errorf("watermark = %d, want %d", wm, warmup+rounds)
	}
	if after > before+allowed {
		t.Errorf("live heap grew by %d bytes over %d rounds (allowed %d): something is retained per round", after-before, rounds, allowed)
	}
}
