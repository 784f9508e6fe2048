package netsim

import (
	"fmt"

	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// sink is the engine-side interface a Context uses to hand off outgoing
// messages. Both engines implement it. The item's round is the lineage round
// of the item whose dispatch produced the message (see watermark.go).
type sink interface {
	enqueue(item queued)
}

// Context gives a handler access to its node's identity, its neighbourhood
// and the primitives for sending data to neighbours and delivering results
// to local users. A handler receives its context in Init and in every
// callback; the same context value is passed each time.
type Context struct {
	self    topology.NodeID
	graph   *topology.Graph
	metrics *Metrics
	out     sink
	log     *deliveryLog
	sensors *model.SensorRegistry

	// round is the lineage round of the item currently being dispatched on
	// this node; dispatch() maintains it. A context is only ever touched by
	// one goroutine at a time (the caller's for the sequential engine, the
	// node's worker for the concurrent engine), so the field needs no lock.
	round int

	// arena backs the complex-event copies handed to the delivery log, in
	// chunked slabs instead of one allocation per delivery. Single-goroutine
	// like round.
	arena deliveryArena
}

// deliveryArena hands out event-slice storage for DeliverToUser in chunked
// slabs. The delivery log is append-only and retains every handed-out slice
// for the lifetime of the engine, so the arena never reclaims: exhausted
// slabs are simply abandoned to the log's references and a fresh one is cut.
type deliveryArena struct {
	slab []model.Event
}

// arenaSlabEvents is the default slab granularity (events, not deliveries).
const arenaSlabEvents = 1024

// alloc returns a zeroed slice of n events with full capacity n, carving it
// from the current slab and cutting a new slab when the remainder is too
// small.
func (a *deliveryArena) alloc(n int) []model.Event {
	if n > len(a.slab) {
		size := arenaSlabEvents
		if n > size {
			size = n
		}
		a.slab = make([]model.Event, size)
	}
	out := a.slab[:n:n]
	a.slab = a.slab[n:]
	return out
}

// reserve makes sure the current slab can serve at least n more events
// without cutting a new slab.
func (a *deliveryArena) reserve(n int) {
	if n > len(a.slab) {
		a.slab = make([]model.Event, n)
	}
}

// Self returns this node's identifier.
func (c *Context) Self() topology.NodeID { return c.self }

// Round returns the lineage round of the item currently being dispatched:
// the replay round being injected, or the round of the item whose dispatch
// produced the message being handled. A subscription registration cascade
// shares one lineage round network-wide, which the aggregation subsystem
// uses to derive the same first window at every node.
func (c *Context) Round() int { return c.round }

// Neighbors returns the node's direct neighbours.
func (c *Context) Neighbors() []topology.NodeID { return c.graph.Neighbors(c.self) }

// IsNeighbor reports whether n is a direct neighbour of this node.
func (c *Context) IsNeighbor(n topology.NodeID) bool { return c.graph.HasEdge(c.self, n) }

// Graph exposes the full topology. Distributed protocols must not use it for
// routing decisions (they only rely on local interaction); it exists for the
// centralized baseline — which by definition assumes global knowledge — and
// for diagnostics.
func (c *Context) Graph() *topology.Graph { return c.graph }

// Sensors returns the network's sensor registry: every attached sensor, by
// the ref the advertisements carry.
func (c *Context) Sensors() *model.SensorRegistry { return c.sensors }

// SendAdvertisement forwards an advertisement to a neighbouring node. The
// message carries only the advertisement's Ref, so adv must come from the
// network's registry (Sensors, or a HandleAdvertisement argument).
func (c *Context) SendAdvertisement(to topology.NodeID, adv model.Advertisement) {
	c.send(to, Message{Kind: KindAdvertisement, Ref: adv.Ref})
}

// SendSubscription forwards a subscription or correlation operator to a
// neighbouring node. Each call counts one unit of subscription load.
func (c *Context) SendSubscription(to topology.NodeID, sub *model.Subscription) {
	if sub == nil {
		panic("netsim: SendSubscription with nil subscription")
	}
	c.send(to, Message{Kind: KindSubscription, Sub: sub})
}

// SendUnsubscription forwards the retraction of a subscription or operator
// to a neighbouring node. Each call counts one unit of unsubscription load
// (control traffic, accounted separately from the subscription load the
// paper plots).
func (c *Context) SendUnsubscription(to topology.NodeID, id model.SubscriptionID) {
	if id == "" {
		panic("netsim: SendUnsubscription with empty subscription ID")
	}
	c.send(to, Message{Kind: KindUnsubscription, UnsubID: id})
}

// SendEvent forwards one simple event (one data unit) to a neighbouring
// node. Each call counts one unit of event load.
func (c *Context) SendEvent(to topology.NodeID, ev model.Event) {
	c.send(to, Message{Kind: KindEvent, Ev: ev})
}

// SendEventUnits forwards one simple event while accounting for units data
// units of traffic. The centralized baseline uses it to charge a multi-hop
// path in one logical send.
func (c *Context) SendEventUnits(to topology.NodeID, ev model.Event, units int64) {
	c.send(to, Message{Kind: KindEvent, Ev: ev, Units: units})
}

// SendPartialAggregate forwards one windowed partial aggregate (or, for the
// exact baseline, one relayed raw reading) to a neighbouring node. Each call
// counts units of partial-aggregate load — accounted separately from the
// event load the paper plots. Units <= 0 defaults to 1; the centralized
// baseline charges a multi-hop path in one logical send.
func (c *Context) SendPartialAggregate(to topology.NodeID, pa *PartialAggregate, units int64) {
	if pa == nil {
		panic("netsim: SendPartialAggregate with nil payload")
	}
	c.send(to, Message{Kind: KindPartialAggregate, Agg: pa, Units: units})
}

func (c *Context) send(to topology.NodeID, msg Message) {
	if to == c.self {
		panic(fmt.Sprintf("netsim: node %d attempted to send %s to itself", c.self, msg.Kind))
	}
	if !c.graph.HasEdge(c.self, to) {
		panic(fmt.Sprintf("netsim: node %d attempted to send %s to non-neighbour %d", c.self, msg.Kind, to))
	}
	c.metrics.recordSend(c.self, &msg)
	c.out.enqueue(queued{to: to, from: c.self, round: c.round, msg: msg})
}

// DeliverToUser hands a complex event to the local user owning the given
// (root) subscription. Deliveries go to the delivery log (recall is computed
// from it) but generate no link traffic.
//
// The delivery is stamped with the round of its newest component event (the
// replay round during which the complex event logically completed). That
// stamp is a pure function of the delivered complex event, so runs that
// interleave rounds differently — pipelined, windowed at any lag — attribute
// identical deliveries to identical rounds, which is what makes the
// per-round conformance oracle comparable across delivery modes.
func (c *Context) DeliverToUser(sub model.SubscriptionID, events model.ComplexEvent) {
	cp := model.ComplexEvent(c.arena.alloc(len(events)))
	copy(cp, events)
	round := c.round
	for i, e := range cp {
		if i == 0 || e.Round > round {
			round = e.Round
		}
	}
	c.log.deliver(Delivery{Node: c.self, SubID: sub, Events: cp, Round: round})
}

// DeliverAggregate hands one finalised windowed aggregate to the local user
// owning the subscription. The delivery is stamped with the window's end
// round — a pure function of the window, independent of when the close
// cascade ran — so the per-round conformance oracle compares aggregate
// deliveries across engines and delivery modes exactly like complex events.
func (c *Context) DeliverAggregate(sub model.SubscriptionID, res AggregateResult) {
	c.log.deliver(Delivery{Node: c.self, SubID: sub, Aggregate: &res, Round: res.EndRound})
}
