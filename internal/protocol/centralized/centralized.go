// Package centralized implements the fully centralized baseline of Section
// VI: using global knowledge of the network topology, all subscribers
// forward their subscriptions on the shortest path to the central node (the
// node with the minimum total distance to all other nodes), every sensor
// unconditionally ships every reading to that central node, matching happens
// only there, and matching events are sent back on the shortest path to the
// owner of each matching subscription (one result set per subscription, no
// sharing).
//
// The event traffic of this baseline has a fixed component — every event
// crosses the network to the centre whether or not anyone is interested —
// which is what makes it lose against the distributed approaches on the
// event-load metric even though its subscription load is the lowest.
//
// Windowed aggregate queries are evaluated at the centre by the registry the
// distributed approaches use (core.Aggregates): the centre is the one node
// that holds each query, with no child links, and each finalised result is
// charged the subscriber's whole shortest path.
package centralized

import (
	"strconv"

	"sensorcq/internal/core"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/stores"
	"sensorcq/internal/topology"
)

// Name is the approach identifier used in reports.
const Name = "centralized"

// NewFactory returns the handler factory for the centralized baseline with
// the given event-window validity factor (validity = factor x max δt);
// validityFactor <= 0 selects the default of 2 (see
// stores.EventWindow.ObserveDeltaT). Windowed replays with lag L
// need a factor of at least L+2 so that a late-arriving trigger still finds
// every partner within δt stored at the centre (see
// netsim.RequiredValidityFactor).
func NewFactory(validityFactor int) netsim.HandlerFactory {
	return func(node topology.NodeID) netsim.Handler {
		return &Node{self: node, validityFactor: model.Timestamp(validityFactor)}
	}
}

// Node is the per-node handler. Non-central nodes only relay towards the
// centre; the central node holds the subscription table and the event
// window and performs all matching.
type Node struct {
	self           topology.NodeID
	center         topology.NodeID
	toCenter       topology.NodeID // next hop towards the centre; -1 when self is the centre
	validityFactor model.Timestamp // event-window validity = factor x max δt

	// Central-node state (nil elsewhere). The global subscription table is
	// range-indexed (stores.EventIndex): an arriving reading selects exactly
	// the subscriptions it satisfies instead of scanning every registration
	// that shares the attribute, and retractions splice entries out
	// incrementally.
	window  *stores.EventWindow
	entries map[model.SubscriptionID]*subEntry
	idx     *stores.EventIndex
	// sentKeys holds the event-window forwarding key of every subscription
	// ID ever registered, one per ID in registration order. It never
	// shrinks, so a re-registered ID finds the marks its earlier
	// registration left, as at the distributed nodes.
	sentKeys map[model.SubscriptionID]uint32
	// scratch is the centre's reusable complex-match working storage; the
	// central node's handler runs on one goroutine at a time, like every
	// other handler.
	scratch model.MatchScratch

	// Aggregates holds the windowed aggregate queries, at the central node
	// only (see the package doc).
	core.Aggregates
}

// subEntry is a subscription registered at the central node together with
// the routing information needed to ship results back to its owner.
type subEntry struct {
	sub        *model.Subscription
	subscriber topology.NodeID
	firstHop   topology.NodeID
	pathLen    int64
	// sentKey is the subscription's event-window forwarding key
	// (Node.sentKeys).
	sentKey uint32
}

// Init implements netsim.Handler: it elects the central node from the global
// topology (the baseline explicitly assumes global knowledge).
func (n *Node) Init(ctx *netsim.Context) {
	n.center = ctx.Graph().Center()
	if n.self == n.center {
		n.toCenter = -1
		n.window = stores.NewEventWindow(1)
		n.entries = map[model.SubscriptionID]*subEntry{}
		n.sentKeys = map[model.SubscriptionID]uint32{}
		n.idx = stores.NewEventIndex()
	} else {
		n.toCenter = ctx.Graph().NextHop(n.self, n.center)
	}
}

// Center returns the elected central node (for tests and diagnostics).
func (n *Node) Center() topology.NodeID { return n.center }

// IndexStats reports the shape and lookup tallies of the central match
// index. Non-central nodes hold no index and report zeros.
func (n *Node) IndexStats() stores.IndexStats {
	if n.idx == nil {
		return stores.IndexStats{}
	}
	return n.idx.Stats()
}

// LocalSensor implements netsim.Handler. The centralized scheme needs no
// advertisements: sensors simply ship every reading to the centre.
func (n *Node) LocalSensor(ctx *netsim.Context, sensor model.Sensor) {}

// HandleAdvertisement implements netsim.Handler (never called in this
// scheme).
func (n *Node) HandleAdvertisement(ctx *netsim.Context, from topology.NodeID, adv model.Advertisement) {
}

// LocalSubscribe implements netsim.Handler: the subscription is stamped with
// its owner's node and forwarded hop-by-hop towards the centre.
func (n *Node) LocalSubscribe(ctx *netsim.Context, sub *model.Subscription) {
	if sub == nil {
		return
	}
	stamped := sub.Clone()
	stamped.SubscriberNode = strconv.Itoa(int(n.self))
	if n.self == n.center {
		n.register(ctx, n.self, stamped)
		return
	}
	ctx.SendSubscription(n.toCenter, stamped)
}

// HandleSubscription implements netsim.Handler: relay towards the centre, or
// register when this node is the centre.
func (n *Node) HandleSubscription(ctx *netsim.Context, from topology.NodeID, sub *model.Subscription) {
	if n.self != n.center {
		ctx.SendSubscription(n.toCenter, sub)
		return
	}
	n.register(ctx, from, sub)
}

// LocalUnsubscribe implements netsim.Handler: the retraction travels the
// same shortest path to the centre the subscription took, where the global
// table entry is dropped.
func (n *Node) LocalUnsubscribe(ctx *netsim.Context, id model.SubscriptionID) {
	if n.self == n.center {
		n.deregister(ctx, n.self, id)
		return
	}
	ctx.SendUnsubscription(n.toCenter, id)
}

// HandleUnsubscription implements netsim.Handler: relay towards the centre,
// or drop the registration when this node is the centre.
func (n *Node) HandleUnsubscription(ctx *netsim.Context, from topology.NodeID, id model.SubscriptionID) {
	if n.self != n.center {
		ctx.SendUnsubscription(n.toCenter, id)
		return
	}
	n.deregister(ctx, from, id)
}

// deregister removes the subscription, retracted on the link from, from the
// central table and the range index (an incremental splice, not a rebuild)
// or from the aggregate registry; matching and result routing stop
// immediately. Unknown IDs are a no-op.
func (n *Node) deregister(ctx *netsim.Context, from topology.NodeID, id model.SubscriptionID) {
	if n.RetractAggregate(ctx, from, id) {
		return
	}
	if _, known := n.entries[id]; !known {
		return
	}
	delete(n.entries, id)
	n.idx.Remove(id)
}

// register stores a subscription that reached the centre on the link from,
// with the first hop and length of the shortest path its results take back
// to the subscriber's node.
func (n *Node) register(ctx *netsim.Context, from topology.NodeID, sub *model.Subscription) {
	subscriber := n.self
	if sub.SubscriberNode != "" {
		if v, err := strconv.Atoi(sub.SubscriberNode); err == nil {
			subscriber = topology.NodeID(v)
		}
	}
	var firstHop topology.NodeID
	var pathLen int64
	if subscriber != n.self {
		path := ctx.Graph().Path(n.self, subscriber)
		if len(path) >= 2 {
			firstHop = path[1]
			pathLen = int64(len(path) - 1)
		}
	}
	if sub.Aggregate != nil {
		// The query never joins the complex-event index: its results come
		// from the registry's window-close path.
		n.AddAggregate(ctx, sub, from, nil, true, firstHop, pathLen)
		return
	}
	key, seen := n.sentKeys[sub.ID]
	if !seen {
		key = uint32(len(n.sentKeys))
		n.sentKeys[sub.ID] = key
	}
	n.entries[sub.ID] = &subEntry{sub: sub, subscriber: subscriber, firstHop: firstHop, pathLen: pathLen, sentKey: key}
	n.idx.Add(sub)
	n.window.ObserveDeltaT(sub.DeltaT, n.validityFactor)
}

// LocalPublish implements netsim.Handler: a local sensor reading is shipped
// towards the centre (or matched directly when this node is the centre).
func (n *Node) LocalPublish(ctx *netsim.Context, ev model.Event) {
	if n.self == n.center {
		n.matchAtCenter(ctx, ev)
		return
	}
	ctx.SendEvent(n.toCenter, ev)
}

// HandleEvent implements netsim.Handler. Events arriving from the direction
// of the centre are result deliveries whose remaining hops were already
// accounted for by the centre; everything else is an upward reading that
// must continue towards the centre.
func (n *Node) HandleEvent(ctx *netsim.Context, from topology.NodeID, ev model.Event) {
	if n.self == n.center {
		n.matchAtCenter(ctx, ev)
		return
	}
	if from == n.toCenter {
		return
	}
	ctx.SendEvent(n.toCenter, ev)
}

// matchAtCenter runs the matching of Algorithm 5 against the full
// subscription table and ships each subscription's result set back to its
// owner, charging the full path length for every forwarded data unit.
func (n *Node) matchAtCenter(ctx *netsim.Context, ev model.Event) {
	if !n.window.Receive(ev) {
		return
	}
	// Feed the unique arrival into every open aggregate window before the
	// complex-event machinery; the duplicate check above keeps aggregate
	// accumulation exactly-once too.
	n.AccumulateReading(ctx, ev)

	// The range index hands over exactly the subscriptions the reading
	// satisfies; registrations that merely share the attribute are pruned
	// without being visited. Every completed match is enumerated and
	// delivered — not just one pick from the current window — so the
	// per-round result sets and downward traffic are independent of the
	// order readings reached the centre (matching the order-independent
	// forwarding of internal/core, which the pipelined delivery mode's
	// conformance oracle relies on). Each component is still shipped down at
	// most once per subscription.
	//
	// Like core's processEvent, every candidate gathers from one partition
	// of the widest ±δt view any registration asks for: the enumeration
	// drops the partners a full δt or more from the trigger, so each
	// subscription still sees exactly its own window. Marking components
	// sent does not invalidate the view.
	n.scratch.Partition(n.window.Around(ev.Time, n.window.MaxDeltaT()))
	n.idx.Candidates(ev, func(sub *model.Subscription) bool {
		entry := n.entries[sub.ID]
		sub.ForEachComplexMatchPartitioned(&n.scratch, &ev, func(match model.ComplexEvent) bool {
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
}
