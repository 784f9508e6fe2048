package core

import (
	"cmp"
	"slices"

	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/topology"
)

// This file implements event propagation (Algorithm 5): storing incoming
// simple events in the timestamp-ordered window, detecting complex events
// that match the operators stored for each neighbour, forwarding the
// component events on the reverse subscription paths with the configured
// deduplication granularity, and delivering complex events to local users.

// LocalPublish implements netsim.Handler: a sensor attached to this node
// produced a reading.
func (n *Node) LocalPublish(ctx *netsim.Context, ev model.Event) {
	// Aggregate queries consume readings at the publishing node only, which
	// is what makes network-wide accumulation exactly-once (forwarded copies
	// of the event never reach this path).
	if len(n.Aggregates.list) > 0 {
		n.AccumulateReading(ctx, ev)
	}
	n.processEvent(ctx, n.self, ev)
}

// HandleEvent implements netsim.Handler: a simple event arrives from a
// neighbour.
func (n *Node) HandleEvent(ctx *netsim.Context, from topology.NodeID, ev model.Event) {
	n.processEvent(ctx, from, ev)
}

// processEvent is the body of Algorithm 5.
func (n *Node) processEvent(ctx *netsim.Context, from topology.NodeID, ev model.Event) {
	if !n.window.Receive(ev) {
		// Duplicate arrival (possible when per-subscription result sets
		// overlap): the window content did not change, so every match this
		// event can participate in has already been evaluated.
		return
	}

	// Every operator this trigger stabs — each origin's matchers and the
	// local subscriptions — gathers its candidates from one partition of one
	// view: the widest ±δt any stored operator asks for. An operator with a
	// shorter δt drops the excess while gathering, which leaves its matches
	// exactly those of its own window (see ForEachComplexMatchPartitioned).
	// Nothing below inserts or prunes, so the view stays valid throughout.
	n.scratch.Partition(n.window.Around(ev.Time, n.window.MaxDeltaT()))

	// Forward towards every origin with an operator registered for
	// matching, except the node the event just came from. An origin whose
	// operators were all retracted, or are all covered under per-neighbour
	// propagation, has nothing to stab and costs no index lookup.
	for _, o := range n.origins {
		if o.id == from || o.id == n.self || o.matcher == nil || o.matcher.Len() == 0 {
			continue
		}
		n.matchAndForward(ctx, o, ev)
	}
	// Deliver to local users.
	n.deliverLocal(ctx, ev)
}

// opKey returns the forwarding key of o's operator op under per-subscription
// propagation, drawing it from the node's counter on first use (see
// neighbour.opKeys).
func (n *Node) opKey(o *neighbour, op model.SubscriptionID) uint32 {
	key, ok := o.opKeys[op]
	if !ok {
		if o.opKeys == nil {
			o.opKeys = map[model.SubscriptionID]uint32{}
		}
		key = n.newKey()
		o.opKeys[op] = key
	}
	return key
}

// matchAndForward finds the complex events involving ev that match operators
// stored for o and forwards their not-yet-sent component events to it.
// Like deliverLocal it gathers from the partition processEvent made for ev.
//
// Every completed match is enumerated, not just one: the set of components a
// node forwards per round is then the union over all complex events the
// round's arrivals complete, which is a monotone function of what arrived —
// independent of arrival order. That is the property the pipelined delivery
// mode's per-round conformance oracle rests on (a single selected match
// would depend on which events happened to be in the window first).
//
// The components are sent in sequence-number order, not in the order the
// candidate enumeration discovered them: the index's candidate order is
// unspecified (a tree walk, not insertion order), and the arrival order on a
// link decides how the receiver's window prunes near the validity boundary —
// sending in canonical order keeps the protocol's observable behaviour a
// function of the match set alone, whatever structure the index uses.
func (n *Node) matchAndForward(ctx *netsim.Context, o *neighbour, ev model.Event) {
	// The range index hands over exactly the operators the event satisfies
	// (value inside the filter range, location inside the region); operators
	// that merely share the attribute type are pruned without being visited.
	// Events are marked sent under the link's key, or under each operator's
	// own key with per-subscription propagation: the event propagation
	// column of Table II.
	pending := n.pending[:0]
	perOp := n.cfg.Propagation == PerSubscription
	key := o.linkKey
	o.matcher.Candidates(ev, func(op *model.Subscription) bool {
		if perOp {
			key = n.opKey(o, op.ID)
		}
		op.ForEachComplexMatchPartitioned(&n.scratch, &ev, func(match model.ComplexEvent) bool {
			for _, component := range match {
				if n.window.MarkSent(component, key) {
					pending = append(pending, component)
				}
			}
			return true
		})
		return true
	})
	if len(pending) > 1 {
		slices.SortFunc(pending, func(a, b model.Event) int { return cmp.Compare(a.Seq, b.Seq) })
	}
	for _, component := range pending {
		ctx.SendEvent(o.id, component)
	}
	n.pending = pending[:0]
}

// deliverLocal checks the whole user subscriptions registered at this node
// and delivers every complex event completed by ev. A complex event is
// completed exactly once — when the last of its components arrives (a
// duplicate arrival returns before matching, so it cannot re-complete
// anything) — so each matching complex event is delivered exactly once, in
// the round that completed it, whatever order the components arrived in.
func (n *Node) deliverLocal(ctx *netsim.Context, ev model.Event) {
	n.localIdx.Candidates(ev, func(sub *model.Subscription) bool {
		// The scratch-owned match is only read within the callback;
		// DeliverToUser copies the components into the delivery log.
		sub.ForEachComplexMatchPartitioned(&n.scratch, &ev, func(match model.ComplexEvent) bool {
			ctx.DeliverToUser(sub.ID, match)
			return true
		})
		return true
	})
}
