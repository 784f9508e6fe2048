package core

import (
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/topology"
)

// This file implements subscription propagation (Algorithms 2-4): filtering
// of incoming subscriptions against the subscriptions already received from
// the same origin, and the split-and-forward phase that routes the surviving
// operators along the reverse advertisement paths.

// LocalSubscribe implements netsim.Handler: a user at this node registers a
// subscription. The subscription is always remembered for local delivery;
// whether it is forwarded into the network depends on the filtering decision
// and on all of its data sources being advertised (Algorithm 3, line 3).
func (n *Node) LocalSubscribe(ctx *netsim.Context, sub *model.Subscription) {
	if sub == nil {
		return
	}
	n.window.ObserveDeltaT(sub.DeltaT, model.Timestamp(n.cfg.ValidityFactor))
	n.registerLocal(sub)
	n.processSubscription(ctx, n.self, sub, true)
}

// HandleSubscription implements netsim.Handler: a subscription or operator
// arrives from a neighbouring node.
func (n *Node) HandleSubscription(ctx *netsim.Context, from topology.NodeID, sub *model.Subscription) {
	if sub == nil {
		return
	}
	n.window.ObserveDeltaT(sub.DeltaT, model.Timestamp(n.cfg.ValidityFactor))
	n.processSubscription(ctx, from, sub, false)
}

// registerLocal records a whole user subscription for result delivery at
// this node, regardless of any filtering decision: even a covered
// subscription defines what its user must receive (Algorithm 5, line 9 uses
// S_local, i.e. all local subscriptions).
func (n *Node) registerLocal(sub *model.Subscription) {
	if _, registered := n.localSubs[sub.ID]; registered {
		return
	}
	n.localSubs[sub.ID] = sub
	if sub.Aggregate != nil {
		// Aggregate subscriptions never join the delivery match index:
		// their results come from the window-close path, not from
		// complex-event matching.
		return
	}
	n.localIdx.Add(sub)
}

// processSubscription implements Algorithm 4 for a subscription arriving
// from origin m (m == self for local users).
func (n *Node) processSubscription(ctx *netsim.Context, m topology.NodeID, sub *model.Subscription, isLocal bool) {
	if sub.Aggregate != nil {
		// Aggregate queries take a dedicated path: no subsumption filtering
		// (two identical aggregate specs must both produce results), no
		// subscription table, no event matchers — see aggregate.go.
		n.registerAggregate(ctx, m, sub, isLocal)
		return
	}
	o := n.record(m)
	if o.subs.Seen(sub.ID) {
		return
	}
	if n.checker.Subsumed(sub, o.subs.UncoveredComparable(sub)) {
		// Covered subscriptions are stored but neither forwarded nor used
		// for per-neighbour matching (Algorithm 4, line 12). With
		// per-subscription propagation they still generate their own result
		// set at this node, which is exactly the "missing result set
		// generated where covering was detected" of Section III-A.
		o.subs.AddCovered(sub)
		if n.cfg.Propagation == PerSubscription && !isLocal {
			n.addMatcher(o, sub)
		}
		return
	}
	o.subs.AddUncovered(sub)
	if !isLocal {
		n.addMatcher(o, sub)
	}
	n.splitAndForward(ctx, o, sub, isLocal)
}

// splitAndForward implements Algorithm 3 plus the binary-join variant of
// Section III-B for an operator of o.
func (n *Node) splitAndForward(ctx *netsim.Context, o *neighbour, sub *model.Subscription, isLocal bool) {
	// Subscriptions from local users are answerable only if every filtered
	// source is advertised; otherwise they are dropped here (stored for
	// delivery, never forwarded).
	if isLocal && !n.advs.HasAllSources(sub) {
		return
	}

	// Forwarding follows the reverse advertisement paths for every policy:
	// the multi-join (binary-join) approach also "preserves the natural
	// splitting into simple operators according to the network connections"
	// (Section III-B) — the binary-join decomposition only changes how
	// stored operators are *matched* against events (see addMatcher), which
	// is where its false positives come from. This keeps its subscription
	// load essentially identical to operator placement, as the paper
	// observes in Figures 4 and 6.
	for _, j := range ctx.Neighbors() {
		if j == o.id {
			continue
		}
		if op := n.advs.Project(sub, j); op != nil {
			ctx.SendSubscription(j, op)
			n.recordForward(o, sub.ID, j, op.ID)
		}
	}
}

// recordForward remembers that o's operator id was forwarded to neighbour j
// as operator op. A retraction of the operator replays these links with
// unsubscription messages (see unsubscribe.go). Link slices released by
// retractions are reused for new registrations (fwdFree), so churn does not
// grow fresh storage per subscription.
func (n *Node) recordForward(o *neighbour, id model.SubscriptionID, j topology.NodeID, op model.SubscriptionID) {
	if o.forwards == nil {
		o.forwards = map[model.SubscriptionID][]forwardedOp{}
	}
	links, seen := o.forwards[id]
	if !seen {
		if k := len(n.fwdFree); k > 0 {
			links = n.fwdFree[k-1]
			n.fwdFree[k-1] = nil
			n.fwdFree = n.fwdFree[:k-1]
		}
	}
	o.forwards[id] = append(links, forwardedOp{to: j, op: op})
}
