package core

import (
	"sensorcq/internal/agg"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/topology"
)

// This file implements the in-network aggregation subsystem: windowed
// GROUP-BY-time continuous aggregate queries evaluated on the dissemination
// tree. An aggregate subscription is routed along the reverse advertisement
// paths exactly like an abstract subscription (same messages, same load
// accounting), but it bypasses the subsumption checker, the subscription
// table and the event matchers entirely: readings never flow for it. Each
// node folds its own locally published matching readings into one mergeable
// partial state per tumbling window, merges the partials its children ship,
// and — once the network watermark proves the window's rounds are fully
// dispatched and every child has reported — forwards a single partial
// upstream (or, at the subscriber's node, delivers the finalised result).
// Upstream traffic per window therefore scales with the tree's fan-in
// instead of the window's reading count.
//
// The per-node state is one registry, Aggregates, which the centralized
// baseline embeds as well: there the centre is the only node holding the
// query, with no child links, and each result it finalises is charged the
// subscriber's whole shortest path. All five approaches therefore close
// windows by one rule.
//
// Correctness rests on three invariants:
//
//  1. Exactly-once accumulation: a reading is folded in at exactly one
//     node — the one that published it (LocalPublish), or, in the
//     centralized baseline, the centre after its duplicate check.
//  2. FIFO links + watermark ticks: a node's tick(wm) is dispatched after
//     every item of rounds ≤ wm that the node will ever receive, so a
//     window whose end round is ≤ wm has seen all of its readings.
//  3. In-order window close with child counting: every node ships exactly
//     one partial per (subscription, window) — empty windows ship a nil
//     state — and closes windows in increasing order, so a parent knows a
//     window is complete when each child link has delivered one partial
//     for it (FIFO makes per-child sets unnecessary).
//
// Results for windows overlapping a mid-stream registration depend on how
// the registration cascade interleaves with in-flight readings and are
// therefore delivery-mode dependent; from the first window that opens after
// the registration has reached every node, results are mode-independent.
// The conformance suite registers aggregate queries up front.

// Aggregates is one node's registry of windowed aggregate subscriptions.
// Protocol handlers embed it: its HandleWatermark and HandlePartialAggregate
// implement netsim.WatermarkHandler and netsim.AggregateHandler.
type Aggregates struct {
	// byID keys the registered subscriptions; list iterates them in
	// registration order for reading accumulation and watermark ticks.
	byID map[model.SubscriptionID]*aggSub
	list []*aggSub

	// lastTick is the highest watermark announced to this node. It is
	// tracked even before any aggregate subscription registers, because a
	// registration arriving mid-stream needs it to catch up on windows the
	// network has already finalised.
	lastTick int
}

// aggSub is the per-node state of one registered aggregate subscription.
type aggSub struct {
	sub  *model.Subscription
	spec *model.AggregateSpec
	cfg  agg.Config

	// origin is the neighbour the subscription arrived from — the parent in
	// the dissemination tree, where partials are shipped, and the only link
	// a retraction is honoured on. Self for the subscriber's own node.
	origin topology.NodeID
	// final marks the node that finalises results: the subscriber's node in
	// the network, the centre in the centralized baseline.
	final bool
	// resultHop and resultHops charge shipping a finalised result to the
	// subscriber: resultHops units on the link to resultHop. Zero when the
	// result is delivered where it is finalised.
	resultHop  topology.NodeID
	resultHops int64

	// children are the neighbours the subscription was forwarded to; each
	// ships exactly one partial per window.
	children []topology.NodeID

	// nextClose is the next window to finalise; windows close strictly in
	// order. Initialised to the first window after the registration round.
	nextClose int
	// empty is the result value of an empty window (0 for count/sum, NaN
	// for the rest); cached at the finalising node.
	empty float64

	// windows holds the open windows' accumulation state, keyed by window
	// index; free recycles closed windows' wrappers (and, at the finalising
	// node, their states) so steady-state accumulation allocates nothing.
	windows map[int]*aggWindow
	free    []*aggWindow
}

// aggWindow accumulates one open tumbling window.
type aggWindow struct {
	// state is the node's own accumulation; nil until the first local
	// reading (or, after the close-time fold, the first non-empty child
	// partial), so empty windows cost no allocation.
	state agg.State
	// parts holds the children's shipped partials, indexed by child
	// position. They are folded into state in child order when the window
	// closes — not on arrival — so float accumulation (sum, mean) is
	// bit-identical across engines and delivery modes regardless of how
	// child messages interleave.
	parts []agg.State
	// childDone counts the child links that shipped their partial for this
	// window.
	childDone int
}

// window returns the open accumulation state for a window index, creating
// (or recycling) it on first touch. The parts slot table is sized to the
// child count once per wrapper; recycled wrappers keep their capacity, so
// steady-state accumulation allocates nothing.
func (a *aggSub) window(g int) *aggWindow {
	w := a.windows[g]
	if w == nil {
		if k := len(a.free); k > 0 {
			w = a.free[k-1]
			a.free[k-1] = nil
			a.free = a.free[:k-1]
		} else {
			w = &aggWindow{}
		}
		if cap(w.parts) < len(a.children) {
			w.parts = make([]agg.State, len(a.children))
		} else {
			w.parts = w.parts[:len(a.children)]
		}
		a.windows[g] = w
	}
	return w
}

// childIndex returns the position of a child link, or -1.
func (a *aggSub) childIndex(n topology.NodeID) int {
	for i, c := range a.children {
		if c == n {
			return i
		}
	}
	return -1
}

// fold merges the window's shipped child partials into its state, in child
// order. Deferring the fold to close time makes the merge order canonical:
// integer and sketch merges are order-insensitive anyway, but float
// accumulation is not associative, and without a canonical order the
// concurrent engine's message interleaving would leak into sum and mean
// results.
func (a *aggSub) fold(w *aggWindow) {
	if w == nil {
		return
	}
	for i, st := range w.parts {
		if st == nil {
			continue
		}
		w.parts[i] = nil
		if w.state == nil {
			// Adopt the first shipped state instead of allocating one to
			// merge into.
			w.state = st
		} else {
			w.state.Merge(st)
		}
	}
}

// ensureState lazily materialises the window's mergeable state.
func (a *aggSub) ensureState(w *aggWindow) agg.State {
	if w.state == nil {
		w.state = a.cfg.New()
	}
	return w.state
}

// release resets a closed window's wrapper (keeping whatever state it still
// owns, reset for reuse) and returns it to the free list.
func (a *aggSub) release(w *aggWindow) {
	if w == nil {
		return
	}
	w.childDone = 0
	for i := range w.parts {
		w.parts[i] = nil
	}
	if w.state != nil {
		w.state.Reset()
	}
	a.free = append(a.free, w)
}

// complete reports whether every child link has shipped its partial for the
// window. The exact (ship-every-reading) baseline relays raw readings under
// the readings' own lineage rounds, so the watermark alone proves
// completeness and no child counting applies.
func (a *aggSub) complete(w *aggWindow) bool {
	if a.cfg.Exact {
		return true
	}
	done := 0
	if w != nil {
		done = w.childDone
	}
	return done == len(a.children)
}

// registerAggregate stores an aggregate subscription arriving from origin m
// (self for local users) and forwards it along the reverse advertisement
// paths. Projection keeps a single-filter subscription intact — same
// instance, same ID — so the whole dissemination tree keys its partials by
// the subscriber's original ID.
func (n *Node) registerAggregate(ctx *netsim.Context, m topology.NodeID, sub *model.Subscription, isLocal bool) {
	if _, dup := n.byID[sub.ID]; dup {
		return
	}
	// Forward along the reverse advertisement paths exactly like
	// splitAndForward; local registrations require all sources advertised.
	var children []topology.NodeID
	if !isLocal || n.advs.HasAllSources(sub) {
		for _, j := range ctx.Neighbors() {
			if j == m {
				continue
			}
			if op := n.advs.Project(sub, j); op != nil {
				ctx.SendSubscription(j, op)
				children = append(children, j)
			}
		}
	}
	n.AddAggregate(ctx, sub, m, children, isLocal, 0, 0)
}

// AddAggregate registers an aggregate subscription that arrived from origin
// and was forwarded on the children links; a duplicate ID is ignored. final
// marks the node that finalises results, each charged hops units on the
// link to hop towards the subscriber (hops 0: delivered here).
func (r *Aggregates) AddAggregate(ctx *netsim.Context, sub *model.Subscription, origin topology.NodeID, children []topology.NodeID, final bool, hop topology.NodeID, hops int64) {
	if _, dup := r.byID[sub.ID]; dup {
		return
	}
	spec := sub.Aggregate
	a := &aggSub{
		sub:        sub,
		spec:       spec,
		cfg:        spec.Config(),
		origin:     origin,
		final:      final,
		resultHop:  hop,
		resultHops: hops,
		children:   children,
		windows:    map[int]*aggWindow{},
	}
	// The registration cascade shares one lineage round network-wide, so
	// every node derives the same first window: the one holding the round
	// after the registration round.
	a.nextClose = spec.WindowOf(ctx.Round() + 1)
	if final {
		a.empty = a.cfg.New().Result()
	}
	if r.byID == nil {
		r.byID = map[model.SubscriptionID]*aggSub{}
	}
	r.byID[sub.ID] = a
	r.list = append(r.list, a)
	// Catch up: when the watermark overtook the registration cascade
	// (windowed replay), windows may already be finalisable — close them now
	// (shipping empty partials) so parents upstream are never left waiting.
	a.closeWindows(ctx, r.lastTick)
}

// RetractAggregate intercepts the retraction of an aggregate subscription
// arriving from m: it reports false when the ID is not a registered
// aggregate (the caller proceeds with its ordinary retraction). Open windows
// are dropped — the user no longer wants results, and the retraction is
// forwarded on the child links in the same cascade so nobody waits on a
// final partial.
func (r *Aggregates) RetractAggregate(ctx *netsim.Context, m topology.NodeID, id model.SubscriptionID) bool {
	a := r.byID[id]
	if a == nil {
		return false
	}
	if m != a.origin {
		// A retraction is only honoured on the link the registration came
		// from (the tree parent); anything else is a stray duplicate.
		return true
	}
	delete(r.byID, id)
	for i, e := range r.list {
		if e == a {
			copy(r.list[i:], r.list[i+1:])
			r.list[len(r.list)-1] = nil
			r.list = r.list[:len(r.list)-1]
			break
		}
	}
	for _, child := range a.children {
		ctx.SendUnsubscription(child, id)
	}
	return true
}

// AccumulateReading folds one reading into every matching aggregate
// subscription's open window. The caller feeds each reading once
// network-wide — the publishing node in the network, the centre in the
// centralized baseline; under the exact baseline a node that does not
// finalise instead relays the reading raw towards the subscriber.
func (r *Aggregates) AccumulateReading(ctx *netsim.Context, ev model.Event) {
	for _, a := range r.list {
		if !a.sub.MatchesReading(ev) {
			continue
		}
		g := a.spec.WindowOf(ev.Round)
		if g < a.nextClose {
			// Late reading for an already-finalised (or pre-registration)
			// window; the window's result has shipped.
			continue
		}
		if a.cfg.Exact && !a.final {
			_, end := a.spec.WindowBounds(g)
			ctx.SendPartialAggregate(a.origin, &netsim.PartialAggregate{
				SubID:    a.sub.ID,
				Window:   g,
				EndRound: end,
				Ev:       ev,
				Raw:      true,
			}, 1)
			continue
		}
		a.ensureState(a.window(g)).Add(ev.Value)
	}
}

// HandleWatermark implements netsim.WatermarkHandler: the engine announces
// that every item of rounds ≤ wm has been dispatched network-wide. Ticks
// can arrive out of order under the concurrent engine; stale ones are
// ignored.
func (r *Aggregates) HandleWatermark(ctx *netsim.Context, wm int) {
	if wm <= r.lastTick {
		return
	}
	r.lastTick = wm
	for _, a := range r.list {
		a.closeWindows(ctx, wm)
	}
}

// HandlePartialAggregate implements netsim.AggregateHandler: a child (or,
// for raw relays, any downstream node) shipped window data upstream.
// Finalised results travelling down from the centralized baseline's centre
// find no registration on their way and are dropped: the centre charged
// their whole path when it shipped them.
func (r *Aggregates) HandlePartialAggregate(ctx *netsim.Context, from topology.NodeID, pa *netsim.PartialAggregate) {
	a := r.byID[pa.SubID]
	if a == nil {
		return
	}
	if pa.Raw {
		// Exact baseline: a relayed raw reading. Aggregate it here if this
		// is the finalising node, otherwise pass it one hop closer.
		if !a.final {
			ctx.SendPartialAggregate(a.origin, pa, 1)
			return
		}
		if g := a.spec.WindowOf(pa.Ev.Round); g >= a.nextClose {
			a.ensureState(a.window(g)).Add(pa.Ev.Value)
		}
		return
	}
	w := a.window(pa.Window)
	if pa.State != nil {
		// Ownership of the shipped state moves with the message. It is
		// parked in the sender's child slot and folded in at close time so
		// the merge order is canonical (see fold).
		if i := a.childIndex(from); i >= 0 {
			w.parts[i] = pa.State
		} else if w.state == nil {
			// A partial from a link that is not a recorded child cannot
			// happen under the registration invariants; merge it eagerly
			// rather than lose data if it ever does.
			w.state = pa.State
		} else {
			w.state.Merge(pa.State)
		}
	}
	w.childDone++
	a.closeWindows(ctx, r.lastTick)
}

// closeWindows finalises every closable window of the subscription, in
// window order: the watermark wm must have passed the window's end round and
// every child must have reported. Closing ships one partial upstream — or
// finalises the result — and recycles the window.
func (a *aggSub) closeWindows(ctx *netsim.Context, wm int) {
	for {
		g := a.nextClose
		_, end := a.spec.WindowBounds(g)
		if end > wm {
			return
		}
		w := a.windows[g]
		if !a.complete(w) {
			return
		}
		a.nextClose++
		if w != nil {
			delete(a.windows, g)
		}
		a.fold(w)
		a.emit(ctx, g, w)
		a.release(w)
	}
}

// emit produces one finalised window. The finalising node delivers the
// result to the user, after charging its shipment to the subscriber's node
// when that is elsewhere; every other node ships exactly one partial to its
// tree parent (a nil state for an empty window). Exact-baseline nodes that
// do not finalise have already relayed their readings raw and ship nothing
// at close.
func (a *aggSub) emit(ctx *netsim.Context, g int, w *aggWindow) {
	start, end := a.spec.WindowBounds(g)
	if a.final {
		value, count := a.empty, int64(0)
		if w != nil && w.state != nil {
			value = w.state.Result()
			count = w.state.Count()
		}
		if a.resultHops > 0 {
			ctx.SendPartialAggregate(a.resultHop, &netsim.PartialAggregate{
				SubID:    a.sub.ID,
				Window:   g,
				EndRound: end,
			}, a.resultHops)
		}
		ctx.DeliverAggregate(a.sub.ID, netsim.AggregateResult{
			Window:     g,
			StartRound: start,
			EndRound:   end,
			Value:      value,
			Count:      count,
		})
		return
	}
	if a.cfg.Exact {
		return
	}
	var st agg.State
	if w != nil && w.state != nil {
		st = w.state
		// Ownership moves to the message: the wrapper is recycled without
		// the state, and the parent adopts or merges it.
		w.state = nil
		if qd, ok := st.(*agg.QDigest); ok {
			// One compression per shipped partial bounds both the message
			// size (EncodedSize is measured after this) and the cumulative
			// rank error to ε = log2(σ)/k.
			qd.Compress()
		}
	}
	ctx.SendPartialAggregate(a.origin, &netsim.PartialAggregate{
		SubID:    a.sub.ID,
		Window:   g,
		EndRound: end,
		State:    st,
	}, 1)
}
