package centralized

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/stats"
	"sensorcq/internal/topology"
)

// This file pins the centre's one-partition-per-trigger matching against the
// arrangement it replaced: every candidate subscription rescans its own ±δt
// window. The rescan lives here only, as the oracle.

// rescanNode wraps a centralized node, logging every event a neighbour sent
// it and, as the oracle, matching at the centre with one window scan per
// candidate subscription.
type rescanNode struct {
	*Node
	rescan bool
	// log is the sequence of events received from neighbours, in arrival
	// order: upward readings and the results shipped down alike.
	log []string
	// mixed counts the triggers whose candidates were of both kinds and of
	// more than one δt: the passes where one partition serves what used to
	// be different windows.
	mixed int
}

func (r *rescanNode) LocalPublish(ctx *netsim.Context, ev model.Event) {
	if r.rescan && r.self == r.center {
		r.matchByRescan(ctx, ev)
		return
	}
	r.Node.LocalPublish(ctx, ev)
}

func (r *rescanNode) HandleEvent(ctx *netsim.Context, from topology.NodeID, ev model.Event) {
	r.log = append(r.log, fmt.Sprintf("%d->%d #%d", from, r.self, ev.Seq))
	if r.rescan && r.self == r.center {
		r.matchByRescan(ctx, ev)
		return
	}
	r.Node.HandleEvent(ctx, from, ev)
}

func (r *rescanNode) matchByRescan(ctx *netsim.Context, ev model.Event) {
	n := r.Node
	if !n.window.Receive(ev) {
		return
	}
	n.AccumulateReading(ctx, ev)
	kinds, deltas := map[model.Kind]bool{}, map[model.Timestamp]bool{}
	n.idx.Candidates(ev, func(sub *model.Subscription) bool {
		kinds[sub.Kind], deltas[sub.DeltaT] = true, true
		entry := n.entries[sub.ID]
		sub.ForEachComplexMatch(n.window.Around(ev.Time, sub.DeltaT), &ev, func(match model.ComplexEvent) bool {
			for _, component := range match {
				if n.window.MarkSent(component, entry.sentKey) && entry.pathLen > 0 {
					ctx.SendEventUnits(entry.firstHop, component, entry.pathLen)
				}
			}
			ctx.DeliverToUser(sub.ID, match)
			return true
		})
		return true
	})
	if len(kinds) > 1 && len(deltas) > 1 {
		r.mixed++
	}
}

// partitionAttrs are the attribute types of the sensors d0, d1, d2.
var partitionAttrs = []model.AttributeType{"a0", "a1", "a2"}

// newPartitionNet builds a seven-node tree around its centre, node 2, on
// rescanNodes:
//
//	0 - 1 - 2 - 3 - 4
//	        |
//	        5 - 6
func newPartitionNet(t *testing.T, rescan bool) (*netsim.Engine, []*rescanNode) {
	t.Helper()
	g := topology.NewGraph(7)
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {2, 5}, {5, 6}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make([]*rescanNode, 7)
	factory := NewFactory(0)
	engine := netsim.NewEngine(g, func(node topology.NodeID) netsim.Handler {
		nodes[node] = &rescanNode{Node: factory(node).(*Node), rescan: rescan}
		return nodes[node]
	})
	return engine, nodes
}

// TestCenterPartitionReuseMatchesRescan replays random readings from three
// sensor hosts through a centre holding identified and abstract
// subscriptions of three different δt — so one trigger routinely stabs both
// kinds and different windows in the same pass — retracting and
// re-registering some of them half-way, and requires the events every node
// receives (per link, in order), the event load and the delivery log (in
// order) to equal those of the per-candidate rescan.
func TestCenterPartitionReuseMatchesRescan(t *testing.T) {
	deltas := []model.Timestamp{3, 7, 12}
	hosts := []topology.NodeID{0, 4, 6}
	mixed, delivered := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := stats.NewRNG(seed)
		got, gotNodes := newPartitionNet(t, false)
		want, wantNodes := newPartitionNet(t, true)
		if got.Handler(0).(*rescanNode).Center() != 2 {
			t.Fatal("the centre of the tree should be node 2")
		}
		type registered struct {
			node topology.NodeID
			sub  *model.Subscription
		}
		var subs []registered
		for i := 0; i < 40; i++ {
			picked := rng.Choose(len(partitionAttrs), 1+rng.Intn(len(partitionAttrs)))
			id, deltaT := model.SubscriptionID(fmt.Sprintf("q%d", i)), deltas[rng.Intn(len(deltas))]
			var sub *model.Subscription
			var err error
			if rng.Bool(0.4) {
				var filters []model.SensorFilter
				for _, k := range picked {
					lo := float64(10 * rng.Intn(5))
					filters = append(filters, model.SensorFilter{Sensor: model.SensorID(fmt.Sprintf("d%d", k)), Attr: partitionAttrs[k], Range: geom.NewInterval(lo, lo+50)})
				}
				sub, err = model.NewIdentifiedSubscription(id, filters, deltaT)
			} else {
				var filters []model.AttributeFilter
				for _, k := range picked {
					lo := float64(10 * rng.Intn(5))
					filters = append(filters, model.AttributeFilter{Attr: partitionAttrs[k], Range: geom.NewInterval(lo, lo+50)})
				}
				region := geom.Region{X: geom.NewInterval(0, float64(40+30*rng.Intn(3))), Y: geom.NewInterval(0, 100)}
				sub, err = model.NewAbstractSubscription(id, filters, region, deltaT, model.NoSpatialConstraint)
			}
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, registered{topology.NodeID(rng.Intn(7)), sub})
		}
		apply := func(fn func(*netsim.Engine, registered) error, some []registered) {
			for _, r := range some {
				for _, engine := range []*netsim.Engine{got, want} {
					if err := fn(engine, r); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		subscribe := func(e *netsim.Engine, r registered) error {
			return e.SubscribeContext(context.Background(), r.node, r.sub)
		}
		unsubscribe := func(e *netsim.Engine, r registered) error { return e.Unsubscribe(r.node, r.sub.ID) }
		apply(subscribe, subs)
		now := model.Timestamp(100)
		for seq := uint64(1); seq <= 150; seq++ {
			if seq == 75 {
				// Retract a third, and register half of those again under
				// the same IDs: they reuse their forwarding keys.
				apply(unsubscribe, subs[:len(subs)/3])
				apply(subscribe, subs[:len(subs)/6])
			}
			now += model.Timestamp(rng.Intn(3))
			k := rng.Intn(len(partitionAttrs))
			ev := model.Event{
				Seq: seq, Sensor: model.SensorID(fmt.Sprintf("d%d", k)), Attr: partitionAttrs[k],
				Location: geom.Point2D{X: float64(20 + 30*k), Y: 50}, Value: float64(rng.Intn(100)), Time: now,
			}
			for _, engine := range []*netsim.Engine{got, want} {
				if err := engine.PublishContext(context.Background(), hosts[k], ev); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := range gotNodes {
			if !slices.Equal(gotNodes[i].log, wantNodes[i].log) {
				t.Fatalf("seed %d: node %d received\n%v\nthe per-candidate rescan sends it\n%v", seed, i, gotNodes[i].log, wantNodes[i].log)
			}
			mixed += wantNodes[i].mixed
		}
		if a, b := got.Metrics().Snapshot().EventLoad, want.Metrics().Snapshot().EventLoad; a != b {
			t.Fatalf("seed %d: event load %d, the per-candidate rescan's %d", seed, a, b)
		}
		if !reflect.DeepEqual(got.Deliveries(), want.Deliveries()) {
			t.Fatalf("seed %d: delivery log differs from the per-candidate rescan's", seed)
		}
		delivered += len(want.Deliveries())
	}
	t.Logf("%d triggers stabbed both kinds and several δt in one pass, %d deliveries", mixed, delivered)
	if mixed < 50 || delivered < 50 {
		t.Errorf("the populations exercise too little (%d mixed passes, %d deliveries)", mixed, delivered)
	}
}
