package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/stats"
	"sensorcq/internal/stores"
	"sensorcq/internal/subsume"
	"sensorcq/internal/topology"
)

// This file pins the affected-set re-exposure of unsubscribe.go against the
// walk it replaced: after a retraction, re-verify every covered operator of
// the origin against the origin's whole uncovered set. The full scan lives
// here only, as the oracle.

// tapNode wraps a protocol node, logging every subscription message it
// receives — which is every message some neighbour sent, in per-link order —
// and, as the oracle, retracting with the full scan.
type tapNode struct {
	*Node
	fullScan bool
	// log is the sequence of control messages received from neighbours.
	log []string
	// arrival lists the stored operators of each origin in the order they
	// were stored: the storage order the full scan walks, which the class
	// buckets of the subscription table no longer keep across classes.
	arrival map[topology.NodeID][]*model.Subscription
}

func (t *tapNode) stored(m topology.NodeID, sub *model.Subscription, store func()) {
	seen := t.subs.Seen(m, sub.ID)
	store()
	if !seen && t.subs.Seen(m, sub.ID) {
		t.arrival[m] = append(t.arrival[m], sub)
	}
}

func (t *tapNode) LocalSubscribe(ctx *netsim.Context, sub *model.Subscription) {
	t.stored(t.self, sub, func() { t.Node.LocalSubscribe(ctx, sub) })
}

func (t *tapNode) HandleSubscription(ctx *netsim.Context, from topology.NodeID, sub *model.Subscription) {
	t.log = append(t.log, fmt.Sprintf("sub %d %s", from, sub.ID))
	t.stored(from, sub, func() { t.Node.HandleSubscription(ctx, from, sub) })
}

func (t *tapNode) LocalUnsubscribe(ctx *netsim.Context, id model.SubscriptionID) {
	t.unregisterLocal(id)
	t.retract(ctx, t.self, id)
}

func (t *tapNode) HandleUnsubscription(ctx *netsim.Context, from topology.NodeID, id model.SubscriptionID) {
	t.log = append(t.log, fmt.Sprintf("unsub %d %s", from, id))
	t.retract(ctx, from, id)
}

func (t *tapNode) retract(ctx *netsim.Context, m topology.NodeID, id model.SubscriptionID) {
	t.arrival[m] = slices.DeleteFunc(t.arrival[m], func(s *model.Subscription) bool { return s.ID == id })
	if !t.fullScan {
		t.Node.retract(ctx, m, id)
		return
	}
	if _, wasUncovered := t.release(ctx, m, id); !wasUncovered {
		return
	}
	covered := map[model.SubscriptionID]bool{}
	for _, c := range t.subs.Covered(m) {
		covered[c.ID] = true
	}
	for _, c := range t.arrival[m] {
		if covered[c.ID] && !t.checker.Subsumed(c, t.subs.Uncovered(m)) {
			t.promote(ctx, m, c)
		}
	}
}

// reexposeNet is a user node and a second user node around a hub, with
// three sensor hosts behind the hub:
//
//	u0(0) --- hub(2) --- u1(1)
//	         /  |  \
//	      s(3) s(4) s(5)
type reexposeNet struct {
	engine *netsim.Engine
	nodes  []*tapNode
}

var reexposeAttrs = []model.AttributeType{"a0", "a1", "a2"}

func newReexposeNet(t *testing.T, cfg Config, fullScan bool) *reexposeNet {
	t.Helper()
	net := &reexposeNet{nodes: make([]*tapNode, 6)}
	net.engine = newHubEngine(t, func(node topology.NodeID) netsim.Handler {
		n := &tapNode{Node: NewNode(node, cfg), fullScan: fullScan, arrival: map[topology.NodeID][]*model.Subscription{}}
		net.nodes[node] = n
		return n
	})
	return net
}

// newHubEngine builds the reexposeNet topology on the given handlers and
// attaches sensor d<i> of attribute reexposeAttrs[i] to node 3+i.
func newHubEngine(t *testing.T, factory netsim.HandlerFactory) *netsim.Engine {
	t.Helper()
	g := topology.NewGraph(6)
	for _, e := range [][2]topology.NodeID{{0, 2}, {1, 2}, {2, 3}, {2, 4}, {2, 5}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	engine := netsim.NewEngine(g, factory)
	for i, a := range reexposeAttrs {
		sensor := model.Sensor{
			ID: model.SensorID(fmt.Sprintf("d%d", i)), Attr: a,
			Location: geom.Point2D{X: float64(20 + 30*i), Y: 50},
		}
		if err := engine.AttachSensor(topology.NodeID(3+i), sensor); err != nil {
			t.Fatal(err)
		}
	}
	return engine
}

// randomReexposeSub draws a subscription from a space small enough that
// covering — by one operator and by unions — is common, and varied enough
// to spread over several comparability classes per origin.
func randomReexposeSub(rng *stats.RNG, id string) *model.Subscription {
	span := func() geom.Interval {
		if rng.Bool(0.05) {
			return geom.Point(float64(10 * rng.Intn(10)))
		}
		lo := float64(10 * rng.Intn(7))
		return geom.NewInterval(lo, lo+float64(20+10*rng.Intn(5)))
	}
	deltaT := model.Timestamp(30)
	if rng.Bool(0.15) {
		deltaT = 60
	}
	// Mostly single-filter operators: those are the ones unions cover.
	n := 1
	if rng.Bool(0.5) {
		n += rng.Intn(len(reexposeAttrs))
	}
	picked := rng.Choose(len(reexposeAttrs), n)
	var sub *model.Subscription
	var err error
	if rng.Bool(0.25) {
		filters := make([]model.SensorFilter, 0, len(picked))
		for _, i := range picked {
			filters = append(filters, model.SensorFilter{
				Sensor: model.SensorID(fmt.Sprintf("d%d", i)), Attr: reexposeAttrs[i], Range: span(),
			})
		}
		sub, err = model.NewIdentifiedSubscription(model.SubscriptionID(id), filters, deltaT)
	} else {
		filters := make([]model.AttributeFilter, 0, len(picked))
		for _, i := range picked {
			filters = append(filters, model.AttributeFilter{Attr: reexposeAttrs[i], Range: span()})
		}
		region := geom.WholePlane()
		if rng.Bool(0.5) {
			region = geom.Region{X: geom.NewInterval(0, float64(60+10*rng.Intn(6))), Y: geom.NewInterval(0, 100)}
		}
		sub, err = model.NewAbstractSubscription(model.SubscriptionID(id), filters, region, deltaT, model.NoSpatialConstraint)
	}
	if err != nil {
		panic(err)
	}
	return sub
}

func subIDs(subs []*model.Subscription) []model.SubscriptionID {
	ids := make([]model.SubscriptionID, len(subs))
	for i, s := range subs {
		ids[i] = s.ID
	}
	return ids
}

// candidateIDs returns, sorted, the members of a match index an event selects.
func candidateIDs(idx *stores.EventIndex, ev model.Event) []model.SubscriptionID {
	var ids []model.SubscriptionID
	if idx != nil {
		idx.Candidates(ev, func(s *model.Subscription) bool {
			ids = append(ids, s.ID)
			return true
		})
	}
	slices.Sort(ids)
	return ids
}

// requireSameState compares everything a retraction can touch on every node
// of the two networks: the messages received so far, the stored populations
// in order, and the match indexes' membership.
func requireSameState(t *testing.T, step string, got, want *reexposeNet, probes []model.Event) {
	t.Helper()
	for i, g := range got.nodes {
		w := want.nodes[i]
		if !slices.Equal(g.log, w.log) {
			n := min(len(g.log), len(w.log))
			for k := 0; k < n; k++ {
				if g.log[k] != w.log[k] {
					t.Fatalf("%s: node %d message %d = %q, full scan has %q", step, i, k, g.log[k], w.log[k])
				}
			}
			t.Fatalf("%s: node %d received %d messages, full scan %d", step, i, len(g.log), len(w.log))
		}
		if !slices.Equal(g.subs.Origins(), w.subs.Origins()) {
			t.Fatalf("%s: node %d origins %v, full scan %v", step, i, g.subs.Origins(), w.subs.Origins())
		}
		for _, m := range g.subs.Origins() {
			if a, b := subIDs(g.subs.Uncovered(m)), subIDs(w.subs.Uncovered(m)); !slices.Equal(a, b) {
				t.Fatalf("%s: node %d origin %d uncovered %v, full scan %v", step, i, m, a, b)
			}
			if a, b := subIDs(g.subs.Covered(m)), subIDs(w.subs.Covered(m)); !slices.Equal(a, b) {
				t.Fatalf("%s: node %d origin %d covered %v, full scan %v", step, i, m, a, b)
			}
			for _, c := range g.subs.Covered(m) {
				// The invariant the affected-set walk rests on.
				if !g.checker.Subsumed(c, g.subs.Uncovered(m)) {
					t.Fatalf("%s: node %d origin %d holds %s covered, but the uncovered set no longer subsumes it", step, i, m, c.ID)
				}
			}
			if a, b := g.matchers[m], w.matchers[m]; (a == nil) != (b == nil) || (a != nil && a.Stats() != b.Stats()) {
				t.Fatalf("%s: node %d origin %d match index differs from the full scan's", step, i, m)
			}
			for _, ev := range probes {
				if a, b := candidateIDs(g.matchers[m], ev), candidateIDs(w.matchers[m], ev); !slices.Equal(a, b) {
					t.Fatalf("%s: node %d origin %d candidates of %v = %v, full scan %v", step, i, m, ev, a, b)
				}
			}
		}
		if g.localIdx.Stats() != w.localIdx.Stats() {
			t.Fatalf("%s: node %d local index differs from the full scan's", step, i)
		}
		for _, ev := range probes {
			if a, b := candidateIDs(g.localIdx, ev), candidateIDs(w.localIdx, ev); !slices.Equal(a, b) {
				t.Fatalf("%s: node %d local candidates of %v = %v, full scan %v", step, i, ev, a, b)
			}
		}
	}
}

// TestReexposeMatchesFullScan drives two identical networks through the same
// random registrations and retractions, one retracting with the affected-set
// walk and one with the full scan, and requires identical promotions (the
// stored order shows them), forwarded operators (the received
// messages show them, in order) and match-index membership after every step.
func TestReexposeMatchesFullScan(t *testing.T) {
	configs := []Config{
		{Name: "none", Checker: SharedChecker(subsume.NoneChecker{}), Propagation: PerSubscription},
		{Name: "pairwise/per-subscription", Checker: SharedChecker(subsume.PairwiseChecker{}), Propagation: PerSubscription},
		{Name: "pairwise/binary-join", Checker: SharedChecker(subsume.PairwiseChecker{}), Split: SplitBinaryJoin, Propagation: PerNeighbor},
		NewFSFConfig(DefaultSetFilterError, 5),
		{Name: "exact", Checker: SharedChecker(subsume.ExactChecker{}), Propagation: PerNeighbor},
	}
	var probes []model.Event
	for i, a := range reexposeAttrs {
		for v := 2.5; v < 130; v += 12.5 {
			probes = append(probes, model.Event{
				Seq: uint64(len(probes) + 1), Sensor: model.SensorID(fmt.Sprintf("d%d", i)), Attr: a,
				Value: v, Location: geom.Point2D{X: float64(20 + 30*i), Y: 50},
			})
		}
	}
	users := []topology.NodeID{0, 0, 0, 1, 2}
	for _, cfg := range configs {
		promoted := 0 // retractions, over all seeds, that re-exposed something
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.Name, seed), func(t *testing.T) {
				rng := stats.NewRNG(seed)
				got, want := newReexposeNet(t, cfg, false), newReexposeNet(t, cfg, true)
				type liveSub struct {
					node topology.NodeID
					sub  *model.Subscription
				}
				var live []liveSub
				var retired []model.SubscriptionID
				for step := 0; step < 260; step++ {
					var what string
					if len(live) > 0 && (step >= 120 || rng.Bool(0.3)) && rng.Bool(0.7) {
						i := rng.Intn(len(live))
						l := live[i]
						live = slices.Delete(live, i, i+1)
						retired = append(retired, l.sub.ID)
						what = fmt.Sprintf("step %d: unsubscribe %s at %d", step, l.sub.ID, l.node)
						before := got.engine.Metrics().Snapshot().SubscriptionLoad
						for _, net := range []*reexposeNet{got, want} {
							if err := net.engine.Unsubscribe(l.node, l.sub.ID); err != nil {
								t.Fatal(err)
							}
						}
						if got.engine.Metrics().Snapshot().SubscriptionLoad > before {
							promoted++
						}
					} else {
						// A fresh ID, or now and then a retracted one again.
						id := model.SubscriptionID(fmt.Sprintf("q%d", step))
						if len(retired) > 0 && rng.Bool(0.15) {
							i := rng.Intn(len(retired))
							id = retired[i]
							retired = slices.Delete(retired, i, i+1)
						}
						l := liveSub{users[rng.Intn(len(users))], randomReexposeSub(rng, string(id))}
						live = append(live, l)
						what = fmt.Sprintf("step %d: subscribe %s at %d", step, l.sub, l.node)
						for _, net := range []*reexposeNet{got, want} {
							if err := net.engine.SubscribeContext(context.Background(), l.node, l.sub); err != nil {
								t.Fatal(err)
							}
						}
					}
					requireSameState(t, what, got, want, probes)
				}
			})
		}
		t.Logf("%s: %d retractions re-exposed covered operators", cfg.Name, promoted)
		if _, never := cfg.Checker(0).(subsume.NoneChecker); !never && promoted < 20 {
			t.Errorf("%s: only %d retractions re-exposed anything: the populations exercise too little", cfg.Name, promoted)
		}
	}
}
