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
package centralized

import (
	"strconv"

	"sensorcq/internal/agg"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/stores"
	"sensorcq/internal/topology"
)

// Name is the approach identifier used in reports.
const Name = "centralized"

// NewFactory returns the handler factory for the centralized baseline with
// the given event-window validity factor (validity = factor x max δt);
// validityFactor <= 0 selects the default of 2. Windowed replays with lag L
// need a factor of at least L+2 so that a late-arriving trigger still finds
// every partner within δt stored at the centre (see
// netsim.RequiredValidityFactor).
func NewFactory(validityFactor int) netsim.HandlerFactory {
	if validityFactor <= 0 {
		validityFactor = 2
	}
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
	window    *stores.EventWindow
	entries   map[model.SubscriptionID]*subEntry
	idx       *stores.EventIndex
	maxDeltaT model.Timestamp
	// scratch is the centre's reusable complex-match working storage; the
	// central node's handler runs on one goroutine at a time, like every
	// other handler.
	scratch model.MatchScratch

	// Aggregate-query state, central node only. Readings reach the centre
	// unconditionally, so windowed aggregates are evaluated there from the
	// full reading stream and closed by watermark ticks; finalised results
	// are charged the full downward path like any other result shipment.
	aggs     map[model.SubscriptionID]*aggEntry
	aggOrder []*aggEntry
	lastTick int
}

// aggEntry is one windowed aggregate query registered at the central node.
type aggEntry struct {
	sub       *model.Subscription
	spec      *model.AggregateSpec
	cfg       agg.Config
	firstHop  topology.NodeID
	pathLen   int64
	nextClose int
	maxTick   int
	empty     float64
	windows   map[int]agg.State
	free      []agg.State
}

// state returns the accumulation state for a window, creating (or
// recycling) it on first touch.
func (e *aggEntry) state(g int) agg.State {
	st := e.windows[g]
	if st == nil {
		if k := len(e.free); k > 0 {
			st = e.free[k-1]
			e.free[k-1] = nil
			e.free = e.free[:k-1]
		} else {
			st = e.cfg.New()
		}
		e.windows[g] = st
	}
	return st
}

// subEntry is a subscription registered at the central node together with
// the routing information needed to ship results back to its owner.
type subEntry struct {
	sub        *model.Subscription
	subscriber topology.NodeID
	firstHop   topology.NodeID
	pathLen    int64
	// sentKey is the event-window forwarding key interned for this
	// subscription at registration, so the per-event dedup check never
	// renders a string.
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
		n.register(ctx, stamped)
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
	n.register(ctx, sub)
}

// LocalUnsubscribe implements netsim.Handler: the retraction travels the
// same shortest path to the centre the subscription took, where the global
// table entry is dropped.
func (n *Node) LocalUnsubscribe(ctx *netsim.Context, id model.SubscriptionID) {
	if n.self == n.center {
		n.deregister(id)
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
	n.deregister(id)
}

// deregister removes the subscription from the central table and the range
// index (an incremental splice, not a rebuild); matching and result routing
// stop immediately. Unknown IDs are a no-op.
func (n *Node) deregister(id model.SubscriptionID) {
	if e := n.aggs[id]; e != nil {
		delete(n.aggs, id)
		for i, x := range n.aggOrder {
			if x == e {
				copy(n.aggOrder[i:], n.aggOrder[i+1:])
				n.aggOrder[len(n.aggOrder)-1] = nil
				n.aggOrder = n.aggOrder[:len(n.aggOrder)-1]
				break
			}
		}
		return
	}
	if _, known := n.entries[id]; !known {
		return
	}
	delete(n.entries, id)
	n.idx.Remove(id)
}

func (n *Node) register(ctx *netsim.Context, sub *model.Subscription) {
	subscriber := n.self
	if sub.SubscriberNode != "" {
		if v, err := strconv.Atoi(sub.SubscriberNode); err == nil {
			subscriber = topology.NodeID(v)
		}
	}
	if sub.Aggregate != nil {
		n.registerAggregate(ctx, sub, subscriber)
		return
	}
	entry := &subEntry{sub: sub, subscriber: subscriber, sentKey: n.window.KeyID("s:" + string(sub.ID))}
	if subscriber != n.self {
		path := ctx.Graph().Path(n.self, subscriber)
		if len(path) >= 2 {
			entry.firstHop = path[1]
			entry.pathLen = int64(len(path) - 1)
		}
	}
	n.entries[sub.ID] = entry
	n.idx.Add(sub)
	if sub.DeltaT > n.maxDeltaT {
		n.maxDeltaT = sub.DeltaT
		n.window.Validity = n.validityFactor * n.maxDeltaT
	}
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
	if !n.window.Insert(ev) {
		return
	}
	// Feed the unique arrival into every open aggregate window before the
	// complex-event machinery; the duplicate check above keeps aggregate
	// accumulation exactly-once too.
	if len(n.aggOrder) > 0 {
		n.accumulateAtCenter(ev)
	}
	now := ev.Time
	if latest := n.window.Latest(); latest > now {
		now = latest
	}
	n.window.Prune(now)

	// The range index hands over exactly the subscriptions the reading
	// satisfies; registrations that merely share the attribute are pruned
	// without being visited. Every completed match is enumerated and
	// delivered — not just one pick from the current window — so the
	// per-round result sets and downward traffic are independent of the
	// order readings reached the centre (matching the order-independent
	// forwarding of internal/core, which the pipelined delivery mode's
	// conformance oracle relies on). Each component is still shipped down at
	// most once per subscription.
	n.idx.Candidates(ev, func(sub *model.Subscription) bool {
		entry := n.entries[sub.ID]
		key := entry.sentKey
		window := n.window.Around(ev.Time, sub.DeltaT)
		sub.ForEachComplexMatchScratch(window, &ev, &n.scratch, func(match model.ComplexEvent) bool {
			for _, component := range match {
				if n.window.MarkSent(component, key) && entry.pathLen > 0 {
					ctx.SendEventUnits(entry.firstHop, component, entry.pathLen)
				}
			}
			ctx.DeliverToUser(sub.ID, match)
			return true
		})
		return true
	})
}

// registerAggregate stores a windowed aggregate query at the central node.
// The query never joins the complex-event index: its results come from the
// window-close path.
func (n *Node) registerAggregate(ctx *netsim.Context, sub *model.Subscription, subscriber topology.NodeID) {
	if _, dup := n.aggs[sub.ID]; dup {
		return
	}
	spec := sub.Aggregate
	e := &aggEntry{
		sub:     sub,
		spec:    spec,
		cfg:     spec.Config(),
		windows: map[int]agg.State{},
	}
	// The registration cascade shares one lineage round network-wide, so the
	// centre derives the same first window as the distributed approaches.
	e.nextClose = spec.WindowOf(ctx.Round() + 1)
	e.maxTick = n.lastTick
	e.empty = e.cfg.New().Result()
	if subscriber != n.self {
		path := ctx.Graph().Path(n.self, subscriber)
		if len(path) >= 2 {
			e.firstHop = path[1]
			e.pathLen = int64(len(path) - 1)
		}
	}
	if n.aggs == nil {
		n.aggs = map[model.SubscriptionID]*aggEntry{}
	}
	n.aggs[sub.ID] = e
	n.aggOrder = append(n.aggOrder, e)
	// Catch up on windows the watermark already finalised (possible when the
	// registration trailed the watermark in a windowed replay).
	n.closeAggWindows(ctx, e)
}

// accumulateAtCenter folds one unique reading arrival into every matching
// aggregate query's open window.
func (n *Node) accumulateAtCenter(ev model.Event) {
	for _, e := range n.aggOrder {
		if !e.sub.MatchesReading(ev) {
			continue
		}
		if g := e.spec.WindowOf(ev.Round); g >= e.nextClose {
			e.state(g).Add(ev.Value)
		}
	}
}

// HandleWatermark implements netsim.WatermarkHandler: the readings of
// rounds ≤ wm have all been dispatched network-wide — in this scheme, have
// all reached the centre — so windows ending at or before wm are complete.
// Ticks can arrive out of order under the concurrent engine; stale ones are
// ignored. Non-central nodes hold no aggregate state.
func (n *Node) HandleWatermark(ctx *netsim.Context, wm int) {
	if n.self != n.center || wm <= n.lastTick {
		return
	}
	n.lastTick = wm
	for _, e := range n.aggOrder {
		if wm > e.maxTick {
			e.maxTick = wm
			n.closeAggWindows(ctx, e)
		}
	}
}

// closeAggWindows finalises every window the watermark has passed, in
// window order: the result is delivered at the centre (stamped with the
// window's end round, like every centralized delivery) and the shipment to
// the subscriber's node is charged the full path length.
func (n *Node) closeAggWindows(ctx *netsim.Context, e *aggEntry) {
	for {
		g := e.nextClose
		start, end := e.spec.WindowBounds(g)
		if end > e.maxTick {
			return
		}
		e.nextClose++
		st := e.windows[g]
		value, count := e.empty, int64(0)
		if st != nil {
			delete(e.windows, g)
			value = st.Result()
			count = st.Count()
		}
		if e.pathLen > 0 {
			ctx.SendPartialAggregate(e.firstHop, &netsim.PartialAggregate{
				SubID:    e.sub.ID,
				Window:   g,
				EndRound: end,
			}, e.pathLen)
		}
		ctx.DeliverAggregate(e.sub.ID, netsim.AggregateResult{
			Window:     g,
			StartRound: start,
			EndRound:   end,
			Value:      value,
			Count:      count,
		})
		if st != nil {
			st.Reset()
			e.free = append(e.free, st)
		}
	}
}

// HandlePartialAggregate implements netsim.AggregateHandler: the only
// partial-aggregate messages in this scheme are finalised results flowing
// down from the centre, whose remaining hops the centre already charged.
func (n *Node) HandlePartialAggregate(ctx *netsim.Context, from topology.NodeID, pa *netsim.PartialAggregate) {
}
