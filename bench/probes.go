package main

import (
	"encoding/json"
	"fmt"
	"time"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/server"
	"sensorcq/internal/stores"
	"sensorcq/internal/subsume"
	"sensorcq/internal/topology"
)

// probeEvents caps the readings a probe loops over, so all probes together
// stay around a second whatever the workload's size.
const probeEvents = 5000

// clockOverhead is the cost of reading the clock once. Two readings around a
// call are one reading apart plus the call, so probes that time single calls
// of a few hundred nanoseconds subtract it.
var clockOverhead = func() time.Duration {
	const n = 20000
	start := time.Now()
	var last time.Time
	for i := 0; i < n; i++ {
		last = time.Now()
	}
	return last.Sub(start) / n
}()

// perCall converts a summed span of n individually timed calls to
// nanoseconds per call, net of the clock's own cost.
func perCall(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return max(0, float64(total-time.Duration(n)*clockOverhead)/float64(n))
}

// runProbes times the public functions of the layers below the handlers,
// fed with the workload's own subscriptions, readings and deliveries: a
// number per layer that does not depend on what the layers above do.
func runProbes(layers metrics, in *inputs, rounds [][]model.Event, deliveries []netsim.Delivery) {
	subs := make([]*model.Subscription, len(in.placed))
	for i, p := range in.placed {
		subs[i] = p.Sub
	}
	var events []model.Event
	for _, r := range rounds {
		events = append(events, r...)
		if len(events) >= probeEvents {
			events = events[:probeEvents]
			break
		}
	}
	probeIndex(layers, subs, events)
	probeBoxTree(layers, subs, events)
	probeMatching(layers, subs, events)
	probeWindow(layers, events)
	probeSubsume(layers, subs, in.fsfSeed())
	probeWire(layers, events, deliveries)
	probeNoopInject(layers, in, rounds)
}

func probeIndex(layers metrics, subs []*model.Subscription, events []model.Event) {
	idx := stores.NewEventIndex()
	start := time.Now()
	idx.BulkLoad(subs)
	layers.set("stores.index.bulkload_ms", float64(time.Since(start))/float64(time.Millisecond), "ms")

	start = time.Now()
	for _, ev := range events {
		idx.Candidates(ev, func(*model.Subscription) bool { return true })
	}
	layers.setN("stores.index.stab_ns", float64(time.Since(start))/float64(len(events)), "ns", len(events))

	// Writes beside reads: retract and re-add every member of the queried
	// (built) index in turn.
	var removeSpan, addSpan time.Duration
	for _, s := range subs {
		t0 := time.Now()
		idx.Remove(s.ID)
		t1 := time.Now()
		idx.Add(s)
		t2 := time.Now()
		removeSpan += t1.Sub(t0)
		addSpan += t2.Sub(t1)
	}
	layers.setN("stores.index.remove_ns", perCall(removeSpan, len(subs)), "ns", len(subs))
	layers.setN("stores.index.add_ns", perCall(addSpan, len(subs)), "ns", len(subs))
}

// probeBoxTree drives one composite tree the way the index does: a box of
// (value range × region) per attribute filter, stabbed with (value, x, y).
func probeBoxTree(layers metrics, subs []*model.Subscription, events []model.Event) {
	type entry struct {
		box   [3]geom.Interval
		token int32
	}
	byAttr := map[model.AttributeType][]entry{}
	for _, s := range subs {
		for a, f := range s.AttrFilters {
			byAttr[a] = append(byAttr[a], entry{box: [3]geom.Interval{f.Range, s.Region.X, s.Region.Y}})
		}
	}
	trees := map[model.AttributeType]*geom.BoxTree{}
	var insertSpan, removeSpan time.Duration
	boxes := 0
	for a, entries := range byAttr {
		tree := geom.NewBoxTree(3)
		trees[a] = tree
		for i := range entries {
			t0 := time.Now()
			entries[i].token = tree.Insert(entries[i].box[:], i)
			insertSpan += time.Since(t0)
		}
		boxes += len(entries)
	}
	start := time.Now()
	for _, ev := range events {
		if tree := trees[ev.Attr]; tree != nil {
			pt := [3]float64{ev.Value, ev.Location.X, ev.Location.Y}
			tree.Stab(pt[:], func(int) bool { return true })
		}
	}
	layers.setN("geom.boxtree.stab_ns", float64(time.Since(start))/float64(len(events)), "ns", len(events))
	for a, entries := range byAttr {
		for i := range entries {
			t0 := time.Now()
			trees[a].Remove(entries[i].token)
			removeSpan += time.Since(t0)
		}
	}
	layers.setN("geom.boxtree.insert_ns", perCall(insertSpan, boxes), "ns", boxes)
	layers.setN("geom.boxtree.remove_ns", perCall(removeSpan, boxes), "ns", boxes)
}

// probeMatching replays the readings through one global window and index —
// the oracle's arrangement — and times only the complex-match enumeration
// of every (candidate subscription, trigger) pair.
func probeMatching(layers metrics, subs []*model.Subscription, events []model.Event) {
	idx := stores.NewEventIndex()
	idx.BulkLoad(subs)
	window := stores.NewEventWindow(2 * roundInterval)
	var scratch model.MatchScratch
	var candidates []*model.Subscription
	var span time.Duration
	triggers, matches := 0, 0
	for i := range events {
		ev := events[i]
		if !window.Insert(ev) {
			continue
		}
		window.Prune(ev.Time)
		candidates = candidates[:0]
		idx.Candidates(ev, func(s *model.Subscription) bool {
			candidates = append(candidates, s)
			return true
		})
		around := window.Around(ev.Time, roundInterval)
		t0 := time.Now()
		for _, s := range candidates {
			s.ForEachComplexMatchScratch(around, &ev, &scratch, func(model.ComplexEvent) bool {
				matches++
				return true
			})
		}
		span += time.Since(t0)
		triggers += len(candidates)
	}
	layers.setN("model.match.enumerate_ns", float64(span)/float64(max(triggers, 1)), "ns", triggers)
	layers.set("model.match.matches_per_trigger", float64(matches)/float64(max(triggers, 1)), "count")

	n := 0
	hits := 0
	start := time.Now()
	for _, ev := range events[:min(len(events), 200)] {
		for _, s := range subs {
			if s.MatchesEvent(ev) {
				hits++
			}
			n++
		}
	}
	_ = hits
	layers.setN("model.match.matches_event_ns", float64(time.Since(start))/float64(max(n, 1)), "ns", n)
}

func probeWindow(layers metrics, events []model.Event) {
	window := stores.NewEventWindow(2 * roundInterval)
	var insertSpan, pruneSpan, aroundSpan time.Duration
	held := 0
	for _, ev := range events {
		t0 := time.Now()
		window.Insert(ev)
		t1 := time.Now()
		window.Prune(ev.Time)
		t2 := time.Now()
		held += len(window.Around(ev.Time, roundInterval))
		t3 := time.Now()
		insertSpan += t1.Sub(t0)
		pruneSpan += t2.Sub(t1)
		aroundSpan += t3.Sub(t2)
	}
	_ = held
	layers.setN("stores.window.insert_ns", perCall(insertSpan, len(events)), "ns", len(events))
	layers.setN("stores.window.prune_ns", perCall(pruneSpan, len(events)), "ns", len(events))
	layers.setN("stores.window.around_ns", perCall(aroundSpan, len(events)), "ns", len(events))
}

// probeSubsume asks the set-filter checker whether each subscription is
// covered by the ones registered before it, as a node does on arrival.
func probeSubsume(layers metrics, subs []*model.Subscription, seed int64) {
	const maxSet = 256
	checker := subsume.NewSetChecker(0.02, seed)
	covered := 0
	start := time.Now()
	for i, s := range subs {
		if checker.Subsumed(s, subs[max(0, i-maxSet):i]) {
			covered++
		}
	}
	layers.setN("subsume.check_ns", float64(time.Since(start))/float64(len(subs)), "ns", len(subs))
	layers.set("subsume.covered_ratio", float64(covered)/float64(len(subs)), "ratio")
}

// eventLine renders a reading as the NDJSON line POST /events takes.
func eventLine(ev model.Event) []byte {
	line, err := json.Marshal(server.EventSpec{Seq: ev.Seq, Sensor: string(ev.Sensor), Value: ev.Value, Time: int64(ev.Time)})
	if err != nil {
		panic(fmt.Sprintf("encoding a reading: %v", err)) // finite floats and strings only
	}
	return line
}

// frameOf renders a delivery as the SSE data frame the daemon streams.
func frameOf(d netsim.Delivery) server.DeliveryWire {
	events := make([]server.EventWire, len(d.Events))
	for i, ev := range d.Events {
		events[i] = server.EventWire{
			Seq: ev.Seq, Sensor: string(ev.Sensor), Attr: string(ev.Attr), Value: ev.Value,
			Time: int64(ev.Time), X: ev.Location.X, Y: ev.Location.Y,
		}
	}
	return server.DeliveryWire{Subscription: string(d.SubID), Node: int(d.Node), Round: d.Round, Events: events}
}

func probeWire(layers metrics, events []model.Event, deliveries []netsim.Delivery) {
	lines := make([][]byte, len(events))
	for i, ev := range events {
		lines[i] = eventLine(ev)
	}
	start := time.Now()
	for _, line := range lines {
		var spec server.EventSpec
		if err := json.Unmarshal(line, &spec); err != nil {
			panic(fmt.Sprintf("decoding a reading: %v", err))
		}
	}
	layers.setN("server.wire.decode_ns_per_event", float64(time.Since(start))/float64(max(len(lines), 1)), "ns", len(lines))

	frames := deliveries[:min(len(deliveries), probeEvents)]
	wire := make([]server.DeliveryWire, len(frames))
	for i, d := range frames {
		wire[i] = frameOf(d)
	}
	start = time.Now()
	for i := range wire {
		if _, err := json.Marshal(wire[i]); err != nil {
			panic(fmt.Sprintf("encoding a frame: %v", err))
		}
	}
	layers.setN("server.wire.encode_ns_per_frame", float64(time.Since(start))/float64(max(len(wire), 1)), "ns", len(wire))
}

// noopHandler does nothing, so an engine running it spends all its time on
// its own injection, queueing and scheduling.
type noopHandler struct{}

func (noopHandler) Init(*netsim.Context)                                                      {}
func (noopHandler) LocalSensor(*netsim.Context, model.Sensor)                                 {}
func (noopHandler) LocalSubscribe(*netsim.Context, *model.Subscription)                       {}
func (noopHandler) LocalUnsubscribe(*netsim.Context, model.SubscriptionID)                    {}
func (noopHandler) LocalPublish(*netsim.Context, model.Event)                                 {}
func (noopHandler) HandleAdvertisement(*netsim.Context, topology.NodeID, model.Advertisement) {}
func (noopHandler) HandleSubscription(*netsim.Context, topology.NodeID, *model.Subscription)  {}
func (noopHandler) HandleUnsubscription(*netsim.Context, topology.NodeID, model.SubscriptionID) {
}
func (noopHandler) HandleEvent(*netsim.Context, topology.NodeID, model.Event) {}

func probeNoopInject(layers metrics, in *inputs, rounds [][]model.Event) {
	pubs := make([][]netsim.Publication, len(rounds))
	n := 0
	for r, events := range rounds {
		pubs[r] = make([]netsim.Publication, len(events))
		for i, ev := range events {
			pubs[r][i] = netsim.Publication{Node: in.dep.SensorHost[ev.Sensor], Event: ev}
		}
		n += len(events)
	}
	factory := func(topology.NodeID) netsim.Handler { return noopHandler{} }
	// Enough passes over the rounds for a few milliseconds of work.
	passes := max(1, 50_000/max(n, 1))
	time1 := func(rt netsim.Runtime) float64 {
		start := time.Now()
		for p := 0; p < passes; p++ {
			if err := rt.ReplayRounds(pubs, netsim.ReplayOptions{Mode: netsim.Pipelined}); err != nil {
				panic(fmt.Sprintf("no-op replay: %v", err)) // nodes come from the deployment
			}
		}
		rt.Flush()
		return float64(time.Since(start)) / float64(passes*n)
	}
	layers.setN("netsim.noop_inject_ns.sequential", time1(netsim.NewEngine(in.dep.Graph, factory)), "ns", passes*n)
	conc := netsim.NewConcurrentEngineWorkers(in.dep.Graph, factory, 2)
	layers.setN("netsim.noop_inject_ns.concurrent", time1(conc), "ns", passes*n)
	conc.Close()
}
