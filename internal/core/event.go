package core

import (
	"cmp"
	"fmt"
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

	// Forward towards every origin that registered interest, except the
	// node the event just came from.
	for _, origin := range n.subs.Origins() {
		if origin == from || origin == n.self {
			continue
		}
		n.matchAndForward(ctx, origin, ev)
	}
	// Deliver to local users.
	n.deliverLocal(ctx, ev)
}

// dedupKey returns the interned "already forwarded" key ID for an event sent
// to the given origin on behalf of the given operator, realising the event
// propagation column of Table II: per-neighbour forwarding shares one key
// per link (op is ""), per-subscription forwarding uses one key per (link,
// operator). The string is rendered once per distinct pair and cached; the
// steady-state forwarding path reuses the small integer ID.
func (n *Node) dedupKey(origin topology.NodeID, op model.SubscriptionID) uint32 {
	k := dedupCacheKey{origin: origin, op: op}
	if id, ok := n.dedupIDs[k]; ok {
		return id
	}
	s := fmt.Sprintf("n:%d", origin)
	if op != "" {
		s += "|s:" + string(op)
	}
	id := n.window.KeyID(s)
	if n.dedupIDs == nil {
		n.dedupIDs = map[dedupCacheKey]uint32{}
	}
	n.dedupIDs[k] = id
	return id
}

// dedupCacheKey identifies one interned forwarding key: the origin link and,
// under per-subscription propagation, the operator it forwards for.
type dedupCacheKey struct {
	origin topology.NodeID
	op     model.SubscriptionID
}

// matchAndForward finds the complex events involving ev that match operators
// stored for origin and forwards their not-yet-sent component events to it.
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
func (n *Node) matchAndForward(ctx *netsim.Context, origin topology.NodeID, ev model.Event) {
	// The range index hands over exactly the operators the event satisfies
	// (value inside the filter range, location inside the region); operators
	// that merely share the attribute type are pruned without being visited.
	idx := n.matchers[origin]
	if idx == nil {
		return
	}
	pending := n.pending[:0]
	// Per-neighbour forwarding shares one key per link, whatever the operator.
	perOp := n.cfg.Propagation == PerSubscription
	var key uint32
	if !perOp {
		key = n.dedupKey(origin, "")
	}
	idx.Candidates(ev, func(op *model.Subscription) bool {
		if perOp {
			key = n.dedupKey(origin, op.ID)
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
		ctx.SendEvent(origin, component)
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
