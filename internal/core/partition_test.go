package core

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/stats"
	"sensorcq/internal/subsume"
	"sensorcq/internal/topology"
)

// This file pins the one-partition-per-trigger event path of event.go
// against the arrangement it replaced: every candidate operator rescans its
// own ±δt window. The rescan lives here only, as the oracle.

// rescanNode wraps a protocol node, logging every event a neighbour
// forwarded to it and, as the oracle, processing events with one window
// scan per candidate operator.
type rescanNode struct {
	*Node
	rescan bool
	// log is the sequence of forwarded events received, in arrival order.
	log []string
	// mixed counts the triggers whose candidates, over all origins and the
	// local subscriptions, were of both kinds and of more than one δt: the
	// passes where one partition serves what used to be different windows.
	mixed int
}

func (r *rescanNode) LocalPublish(ctx *netsim.Context, ev model.Event) {
	r.process(ctx, r.self, ev)
}

func (r *rescanNode) HandleEvent(ctx *netsim.Context, from topology.NodeID, ev model.Event) {
	r.log = append(r.log, fmt.Sprintf("%d->%d #%d", from, r.self, ev.Seq))
	r.process(ctx, from, ev)
}

func (r *rescanNode) process(ctx *netsim.Context, from topology.NodeID, ev model.Event) {
	if !r.rescan {
		r.processEvent(ctx, from, ev)
		return
	}
	n := r.Node
	if !n.window.Insert(ev) {
		return
	}
	n.window.Prune(max(ev.Time, n.window.Latest()))
	kinds, deltas := map[model.Kind]bool{}, map[model.Timestamp]bool{}
	// matches enumerates with fresh working storage over the operator's own
	// window: nothing is shared between candidates.
	matches := func(op *model.Subscription, fn func(model.ComplexEvent)) {
		kinds[op.Kind], deltas[op.DeltaT] = true, true
		op.ForEachComplexMatch(n.window.Around(ev.Time, op.DeltaT), &ev, func(match model.ComplexEvent) bool {
			fn(match)
			return true
		})
	}
	for _, origin := range n.subs.Origins() {
		idx := n.matchers[origin]
		if origin == from || origin == n.self || idx == nil {
			continue
		}
		var pending []model.Event
		idx.Candidates(ev, func(op *model.Subscription) bool {
			var opID model.SubscriptionID
			if n.cfg.Propagation == PerSubscription {
				opID = op.ID
			}
			key := n.dedupKey(origin, opID)
			matches(op, func(match model.ComplexEvent) {
				for _, component := range match {
					if n.window.MarkSent(component, key) {
						pending = append(pending, component)
					}
				}
			})
			return true
		})
		slices.SortFunc(pending, func(a, b model.Event) int { return cmp.Compare(a.Seq, b.Seq) })
		for _, component := range pending {
			ctx.SendEvent(origin, component)
		}
	}
	n.localIdx.Candidates(ev, func(sub *model.Subscription) bool {
		matches(sub, func(match model.ComplexEvent) { ctx.DeliverToUser(sub.ID, match) })
		return true
	})
	if len(kinds) > 1 && len(deltas) > 1 {
		r.mixed++
	}
}

// newPartitionNet builds the reexposeNet topology — two user nodes around a
// hub with three sensor hosts behind it — on rescanNodes.
func newPartitionNet(t *testing.T, cfg Config, rescan bool) (*netsim.Engine, []*rescanNode) {
	t.Helper()
	nodes := make([]*rescanNode, 6)
	engine := newHubEngine(t, func(node topology.NodeID) netsim.Handler {
		nodes[node] = &rescanNode{Node: NewNode(node, cfg), rescan: rescan}
		return nodes[node]
	})
	return engine, nodes
}

// TestPartitionReuseMatchesRescan replays random readings through networks
// holding identified and abstract operators of three different δt — so one
// trigger routinely stabs operators of both kinds and of different windows in
// the same matchAndForward/deliverLocal pass — and requires the forwarded
// components (per link, in order) and the delivery log (in order) to equal
// those of the per-candidate rescan.
func TestPartitionReuseMatchesRescan(t *testing.T) {
	configs := []Config{
		{Name: "none/per-subscription", Checker: SharedChecker(subsume.NoneChecker{}), Propagation: PerSubscription},
		{Name: "pairwise/binary-join", Checker: SharedChecker(subsume.PairwiseChecker{}), Split: SplitBinaryJoin, Propagation: PerNeighbor},
		NewFSFConfig(DefaultSetFilterError, 5),
	}
	deltas := []model.Timestamp{3, 7, 12}
	for _, cfg := range configs {
		mixed, delivered := 0, 0
		for seed := int64(1); seed <= 4; seed++ {
			rng := stats.NewRNG(seed)
			got, gotNodes := newPartitionNet(t, cfg, false)
			want, wantNodes := newPartitionNet(t, cfg, true)
			for i := 0; i < 40; i++ {
				picked := rng.Choose(len(reexposeAttrs), 1+rng.Intn(len(reexposeAttrs)))
				id, deltaT := model.SubscriptionID(fmt.Sprintf("q%d", i)), deltas[rng.Intn(len(deltas))]
				var sub *model.Subscription
				var err error
				if rng.Bool(0.4) {
					var filters []model.SensorFilter
					for _, k := range picked {
						lo := float64(10 * rng.Intn(5))
						filters = append(filters, model.SensorFilter{Sensor: model.SensorID(fmt.Sprintf("d%d", k)), Attr: reexposeAttrs[k], Range: geom.NewInterval(lo, lo+50)})
					}
					sub, err = model.NewIdentifiedSubscription(id, filters, deltaT)
				} else {
					var filters []model.AttributeFilter
					for _, k := range picked {
						lo := float64(10 * rng.Intn(5))
						filters = append(filters, model.AttributeFilter{Attr: reexposeAttrs[k], Range: geom.NewInterval(lo, lo+50)})
					}
					region := geom.Region{X: geom.NewInterval(0, float64(40+30*rng.Intn(3))), Y: geom.NewInterval(0, 100)}
					sub, err = model.NewAbstractSubscription(id, filters, region, deltaT, model.NoSpatialConstraint)
				}
				if err != nil {
					t.Fatal(err)
				}
				user := topology.NodeID(rng.Intn(3)) // a user node or the hub
				for _, engine := range []*netsim.Engine{got, want} {
					if err := engine.SubscribeContext(context.Background(), user, sub); err != nil {
						t.Fatal(err)
					}
				}
			}
			now := model.Timestamp(100)
			for seq := uint64(1); seq <= 150; seq++ {
				now += model.Timestamp(rng.Intn(3))
				k := rng.Intn(len(reexposeAttrs))
				ev := model.Event{
					Seq: seq, Sensor: model.SensorID(fmt.Sprintf("d%d", k)), Attr: reexposeAttrs[k],
					Location: geom.Point2D{X: float64(20 + 30*k), Y: 50}, Value: float64(rng.Intn(100)), Time: now,
				}
				for _, engine := range []*netsim.Engine{got, want} {
					if err := engine.PublishContext(context.Background(), topology.NodeID(3+k), ev); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := range gotNodes {
				if !slices.Equal(gotNodes[i].log, wantNodes[i].log) {
					t.Fatalf("%s seed %d: node %d received\n%v\nthe per-candidate rescan sends it\n%v", cfg.Name, seed, i, gotNodes[i].log, wantNodes[i].log)
				}
				mixed += wantNodes[i].mixed
			}
			if !reflect.DeepEqual(got.Deliveries(), want.Deliveries()) {
				t.Fatalf("%s seed %d: delivery log differs from the per-candidate rescan's", cfg.Name, seed)
			}
			delivered += len(want.Deliveries())
		}
		t.Logf("%s: %d triggers stabbed both kinds and several δt in one pass, %d deliveries", cfg.Name, mixed, delivered)
		if mixed < 50 || delivered < 50 {
			t.Errorf("%s: the populations exercise too little (%d mixed passes, %d deliveries)", cfg.Name, mixed, delivered)
		}
	}
}
