package main

import (
	"slices"
	"testing"

	"sensorcq/internal/agg"
	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/topology"
)

var testShape = shape{nodes: 60, sensors: 50, groups: 10, subs: 60}

// replayOnEngine registers the population (plus one aggregate query, which
// is what makes the engines route partial aggregates and watermark ticks),
// replays a day and returns the traffic and the sorted delivery keys.
func replayOnEngine(t *testing.T, cfg engineConfig, rec *recorder) (traffic, []string, []netsim.AggregateResult) {
	t.Helper()
	in, err := generateInputs(testShape, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := newEngineNet(in, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer net.close()
	for _, p := range in.placed {
		if err := net.subscribe(p.Node, p.Sub.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	count, err := model.NewAggregateSubscription("temperature-count",
		model.AttributeFilter{Attr: model.AmbientTemperature, Range: geom.NewInterval(-100, 100)},
		geom.WholePlane(), model.AggregateSpec{Func: agg.Count, WindowRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.subscribe(in.dep.UserNodes[0], count); err != nil {
		t.Fatal(err)
	}
	src, err := in.rounds()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.replay(src.next(roundsPerDay, true)); err != nil {
		t.Fatal(err)
	}
	var keys []string
	var windows []netsim.AggregateResult
	for _, d := range net.deliveries() {
		if d.Aggregate != nil {
			windows = append(windows, *d.Aggregate)
			continue
		}
		keys = append(keys, keyOf(d))
	}
	slices.Sort(keys)
	slices.SortFunc(windows, func(a, b netsim.AggregateResult) int { return a.Window - b.Window })
	return net.traffic(), keys, windows
}

func TestTracingHandlerLeavesReplayUnchanged(t *testing.T) {
	engines := map[string]engineConfig{
		"sequential": {},
		"concurrent": {concurrent: true, workers: 2, delivery: netsim.Windowed, lag: 2},
	}
	for name, cfg := range engines {
		t.Run(name, func(t *testing.T) {
			wantTraffic, wantKeys, wantWindows := replayOnEngine(t, cfg, nil)
			rec := newRecorder(testShape.nodes)
			gotTraffic, gotKeys, gotWindows := replayOnEngine(t, cfg, rec)
			if gotTraffic != wantTraffic {
				t.Errorf("traffic under the tracing handler = %+v, undecorated %+v", gotTraffic, wantTraffic)
			}
			if len(wantKeys) == 0 || !slices.Equal(gotKeys, wantKeys) {
				t.Errorf("deliveries differ: %d under the tracing handler, %d undecorated", len(gotKeys), len(wantKeys))
			}
			if len(wantWindows) == 0 || !slices.Equal(gotWindows, wantWindows) {
				t.Errorf("aggregate windows under the tracing handler = %v, undecorated %v", gotWindows, wantWindows)
			}
			for _, o := range []op{opLocalPublish, opHandleEvent, opHandleSubscription, opHandleAdvertisement, opHandlePartialAggregate, opHandleWatermark} {
				if calls, busy := rec.opTotals(o); calls == 0 || busy <= 0 {
					t.Errorf("%s: %d calls, %v busy; want both positive", opNames[o], calls, busy)
				}
			}
			if calls, _ := rec.opTotals(opLocalPublish); calls != int64(roundsPerDay*testShape.sensors) {
				t.Errorf("local_publish calls = %d, want one per reading (%d)", calls, roundsPerDay*testShape.sensors)
			}
			sampled := 0
			for _, s := range rec.spans() {
				if s.EndNS < s.StartNS {
					t.Fatalf("span %+v ends before it starts", s)
				}
				if s.Name == "core.local_publish" {
					sampled++
					if s.ID%spanSampleEvery != 0 {
						t.Errorf("span of unsampled reading %d kept", s.ID)
					}
				}
			}
			if sampled == 0 {
				t.Error("no reading's spans were kept")
			}
		})
	}
}

// plainHandler has none of the optional capabilities; capableHandler has
// both and counts their calls.
type plainHandler struct{ noopHandler }

type capableHandler struct {
	noopHandler
	partials, ticks int
}

func (h *capableHandler) HandlePartialAggregate(*netsim.Context, topology.NodeID, *netsim.PartialAggregate) {
	h.partials++
}
func (h *capableHandler) HandleWatermark(*netsim.Context, int) { h.ticks++ }

func TestTracingHandlerForwardsOptionalCapabilities(t *testing.T) {
	capable := &capableHandler{}
	rec := newRecorder(2)
	handlers := []netsim.Handler{capable, plainHandler{}}
	factory := rec.wrap(func(n topology.NodeID) netsim.Handler { return handlers[n] })

	wrapped := factory(0)
	wrapped.(netsim.AggregateHandler).HandlePartialAggregate(nil, 1, &netsim.PartialAggregate{SubID: "a"})
	wrapped.(netsim.WatermarkHandler).HandleWatermark(nil, 7)
	if capable.partials != 1 || capable.ticks != 1 {
		t.Errorf("capable handler saw %d partials and %d ticks, want 1 and 1", capable.partials, capable.ticks)
	}
	if calls, _ := rec.opTotals(opHandlePartialAggregate); calls != 1 {
		t.Errorf("recorded %d partial-aggregate spans, want 1", calls)
	}

	// A handler without the capabilities gets nothing and records nothing,
	// as when the engine drops the item itself.
	bare := factory(1)
	bare.(netsim.AggregateHandler).HandlePartialAggregate(nil, 0, &netsim.PartialAggregate{SubID: "a"})
	bare.(netsim.WatermarkHandler).HandleWatermark(nil, 7)
	if calls, _ := rec.opTotals(opHandleWatermark); calls != 1 {
		t.Errorf("recorded %d watermark spans, want only the capable handler's", calls)
	}
}
