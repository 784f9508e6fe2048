package core

import (
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/subsume"
	"sensorcq/internal/topology"
)

// This file implements subscription retraction: the inverse of the
// split-and-forward phase. An unsubscription walks the recorded reverse
// forwarding paths of the retracted operator, releasing per-link routing
// state (stored operators, match-index entries) at every node it visits, and
// re-exposes operators that were previously filtered out as covered by the
// now-retracted subscription — those must be re-split and forwarded so their
// remaining dependants keep receiving results, rather than being orphaned
// with the covering operator gone.

// LocalUnsubscribe implements netsim.Handler: a user at this node retracts a
// previously registered subscription. An unknown ID is a no-op.
func (n *Node) LocalUnsubscribe(ctx *netsim.Context, id model.SubscriptionID) {
	n.unregisterLocal(id)
	n.retract(ctx, n.self, id)
}

// HandleUnsubscription implements netsim.Handler: the retraction of an
// operator previously received from a neighbour.
func (n *Node) HandleUnsubscription(ctx *netsim.Context, from topology.NodeID, id model.SubscriptionID) {
	n.retract(ctx, from, id)
}

// unregisterLocal removes a user subscription from the local delivery state
// (the counterpart of registerLocal).
func (n *Node) unregisterLocal(id model.SubscriptionID) {
	if _, registered := n.localSubs[id]; !registered {
		return
	}
	delete(n.localSubs, id)
	n.localIdx.Remove(id)
}

// retract removes origin m's operator id, forwards the retraction along the
// links the operator was forwarded on, and — when the operator was part of
// the uncovered (filtering) set — re-exposes covered operators it may have
// been subsuming.
func (n *Node) retract(ctx *netsim.Context, m topology.NodeID, id model.SubscriptionID) {
	// Aggregate subscriptions live in their own registry and forward their
	// retraction along the recorded child links (see aggregate.go).
	if n.RetractAggregate(ctx, m, id) {
		return
	}
	o := n.find(m)
	if o == nil {
		return
	}
	if sub, wasUncovered := n.release(ctx, o, id); wasUncovered {
		n.reexpose(ctx, o, sub)
	}
}

// release drops o's operator id from the subscription table and the match
// index and sends its retraction down the links it was forwarded on. It
// returns the operator and whether it was stored uncovered (nil and false
// when o never stored the ID).
func (n *Node) release(ctx *netsim.Context, o *neighbour, id model.SubscriptionID) (*model.Subscription, bool) {
	sub, wasUncovered, ok := o.subs.Remove(id)
	if !ok {
		return nil, false
	}
	// Release the match-index entries mirroring the storage rules of
	// processSubscription: uncovered remote operators always match; covered
	// remote operators match only under per-subscription propagation.
	if o.id != n.self && (wasUncovered || n.cfg.Propagation == PerSubscription) {
		n.removeMatcher(o, sub)
	}
	// Walk the recorded reverse forwarding paths, then recycle the link
	// slice for a future registration (cleared first so it does not pin the
	// retracted IDs' strings).
	if links, seen := o.forwards[id]; seen {
		for _, f := range links {
			ctx.SendUnsubscription(f.to, f.op)
		}
		delete(o.forwards, id)
		clear(links)
		n.fwdFree = append(n.fwdFree, links[:0])
	}
	return sub, wasUncovered
}

// reexpose re-evaluates the covered operators of o after one of its
// uncovered operators was retracted: any operator no longer subsumed by the
// remaining uncovered set is promoted back into it.
//
// Only the operators the retracted one could have supported are looked at.
// Between dispatches every covered operator c of the origin satisfies
// Subsumed(c, uncovered set): it was filed on that verdict, verdicts are
// monotone in the set, and every retraction ends with this walk. By the
// checker's locality a verdict can only have flipped for an operator the
// retracted one is subsume.Relevant to, and the promotions made on the way
// only add members; so every other covered operator would be re-verified
// true, and is skipped.
//
// The affected operators are visited in storage order and the uncovered set
// grows as operators are promoted, so the outcome is deterministic: it
// depends only on the stored populations, never on message interleaving (the
// subsumption verdict is a pure function of candidate and set contents).
func (n *Node) reexpose(ctx *netsim.Context, o *neighbour, retracted *model.Subscription) {
	// Gathered into the node-owned scratch first: the walk promotes entries,
	// which splices them out of the covered list being read. The buffer is
	// returned, cleared, before the function exits, so churn pays no
	// per-retraction allocation once it has grown to the largest affected
	// set, and an operator retracted later is not kept reachable from it.
	affected := n.reexposeScratch[:0]
	for _, c := range o.subs.CoveredComparable(retracted) {
		if subsume.Relevant(c, retracted) {
			affected = append(affected, c)
		}
	}
	for _, c := range affected {
		if !n.checker.Subsumed(c, o.subs.UncoveredComparable(c)) {
			n.promote(ctx, o, c)
		}
	}
	clear(affected)
	n.reexposeScratch = affected[:0]
}

// promote moves a covered operator of o back into the uncovered set,
// registers a remote one for matching (a no-op under per-subscription
// propagation, which registered it when it was filed as covered) and
// re-splits it along the reverse advertisement paths — sharing policies must
// re-split shared operators for their remaining dependants, not orphan them.
func (n *Node) promote(ctx *netsim.Context, o *neighbour, c *model.Subscription) {
	if o.subs.Promote(c.ID) == nil {
		return
	}
	isLocal := o.id == n.self
	if !isLocal {
		n.addMatcher(o, c)
	}
	n.splitAndForward(ctx, o, c, isLocal)
}
