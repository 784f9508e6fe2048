// Package netsim provides the message-passing substrate the five protocol
// implementations run on: an engine that hosts one protocol handler per
// processing node, delivers advertisements, subscriptions and events across
// the links of an acyclic topology, and accounts for every link traversal in
// the metrics the paper reports (subscription load and event/publication
// load).
//
// Two engines share the same Handler contract: a deterministic sequential
// engine used by the experiments and tests, and a concurrent engine that
// executes the nodes in parallel to demonstrate that the protocols only rely
// on local interactions (and to catch accidental shared-state assumptions).
//
// # The activation protocol of the concurrent engine
//
// The concurrent engine decouples execution from topology size: instead of
// one goroutine per node, a bounded pool of workers (default GOMAXPROCS)
// runs node *activations*. Every node owns a mailbox with an `active` flag;
// a push that lands in an empty, inactive mailbox flips the flag and appends
// the node to the engine's one FIFO run queue, which every worker takes
// from. A worker that takes a node drains its mailbox in one burst through
// the node's handler; the flag is only cleared — under the mailbox lock —
// once the queue is seen empty again, so a node is in the run queue at most
// once and drained by at most one worker at a time. That is what preserves
// the sequential engine's per-node contract: a handler never runs
// concurrently with itself, only with other nodes' handlers.
//
// Because scheduling work is proportional to *active* nodes rather than
// topology size, a 10k-node network with a handful of busy subtrees costs a
// handful of run-queue operations per message — not 10k parked goroutines'
// worth of stacks and wakeups. See ConcurrentEngine and ROADMAP.md
// ("Run-queue scheduler core") for the invariants in detail.
package netsim

import (
	"fmt"

	"sensorcq/internal/agg"
	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// MessageKind discriminates the kinds of data the system propagates
// (Section IV-B): advertisements, subscriptions (correlation operators),
// events, and the retraction companion of a subscription — the unsubscription
// that walks the reverse forwarding paths when a continuous query is
// deregistered.
type MessageKind uint8

const (
	// KindAdvertisement carries a data-source advertisement.
	KindAdvertisement MessageKind = iota
	// KindSubscription carries a subscription or correlation operator.
	KindSubscription
	// KindEvent carries one simple event (one data unit).
	KindEvent
	// KindUnsubscription retracts a previously forwarded subscription or
	// correlation operator, identified by its ID. It follows the recorded
	// forwarding links of the operator it retracts, releasing the per-link
	// routing state the subscription built up.
	KindUnsubscription
	// KindPartialAggregate carries one windowed partial aggregate up the
	// dissemination tree of an aggregate subscription (or, for the exact
	// ship-every-reading baseline, relays one raw matching reading hop by
	// hop). Its traffic is accounted separately from the event load.
	KindPartialAggregate

	// The kinds below tag local injections, which never cross a link: the
	// driver queues them in the same Message shape, each in the slot of its
	// payload's type, and dispatch turns them into the Local* calls.
	localSensor      // attach the registered sensor Ref
	localSubscribe   // register Sub for a user at the node
	localUnsubscribe // retract the local registration UnsubID
	localPublish     // inject the reading Ev
	// localTick announces the network watermark Ev.Round to one node (see
	// WatermarkHandler); only generated while an aggregate subscription is
	// registered.
	localTick
)

// String implements fmt.Stringer.
func (k MessageKind) String() string {
	switch k {
	case KindAdvertisement:
		return "advertisement"
	case KindSubscription:
		return "subscription"
	case KindEvent:
		return "event"
	case KindUnsubscription:
		return "unsubscription"
	case KindPartialAggregate:
		return "partial-aggregate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Message is one unit of traffic on a link: a kind and the one payload that
// kind carries. Every queued item — link message or local injection — moves
// through mailboxes, bursts and the FIFO queue as one of these, so the
// struct holds each payload shape once and nothing beside it.
type Message struct {
	Kind MessageKind
	// Ref is the payload of a KindAdvertisement message: the advertised
	// sensor's number in the network's registry, from which dispatch
	// rebuilds the advertisement. It packs beside Kind, so it costs the
	// item no size.
	Ref model.SensorRef
	// Ev is the value payload: the event of a KindEvent message.
	Ev model.Event
	// Sub is the payload of a KindSubscription message.
	Sub *model.Subscription
	// Agg is the payload of a KindPartialAggregate message.
	Agg *PartialAggregate
	// UnsubID identifies the subscription or operator a KindUnsubscription
	// message retracts.
	UnsubID model.SubscriptionID
	// Units is the number of accounting units this message contributes to
	// its kind's load metric. It defaults to 1; the centralized baseline
	// uses it when shipping an event across a multi-hop path in one logical
	// send (units = path length).
	Units int64
}

// PartialAggregate is the payload of a KindPartialAggregate message: one
// node's merged partial aggregate for one (subscription, window) pair, sent
// toward the subscriber when the network watermark closes the window. When
// Raw is set the message instead relays one matching raw reading hop by hop
// (the exact ship-every-reading baseline); Ev carries the reading and State
// is nil.
type PartialAggregate struct {
	SubID model.SubscriptionID
	// Window is the tumbling-window index the partial belongs to.
	Window int
	// EndRound is the last measurement round of the window.
	EndRound int
	// State is the mergeable partial aggregate (nil when Raw).
	State agg.State
	// Ev is the relayed raw reading (Raw baseline only).
	Ev model.Event
	// Raw marks a relayed raw reading instead of a merged partial.
	Raw bool
}

// AggregateResult is one finalised windowed aggregate handed to the user
// owning an aggregate subscription.
type AggregateResult struct {
	// Window is the tumbling-window index.
	Window int
	// StartRound and EndRound are the measurement rounds the window covers.
	StartRound int
	EndRound   int
	// Value is the aggregate answer for the window.
	Value float64
	// Count is the number of matching readings folded into the window.
	Count int64
}

// Delivery records a complex event handed to a local user (the owner of a
// subscription). Deliveries do not traverse links and therefore do not count
// as traffic; they feed the recall metric.
type Delivery struct {
	Node   topology.NodeID
	SubID  model.SubscriptionID
	Events model.ComplexEvent
	// Aggregate, when non-nil, marks a windowed aggregate delivery (Events
	// is empty: aggregate queries deliver one scalar per window, not the
	// matching readings).
	Aggregate *AggregateResult
	// Round is the replay round the complex event belongs to: the round of
	// its newest component (events are stamped with their injection round,
	// see model.Event.Round). In the quiescent and pipelined modes this
	// equals the round counter at delivery time — a complex event completes
	// when its last component arrives, and rounds drain in order — but
	// unlike a wall-clock stamp it is a pure function of the delivered
	// complex event, so windowed replays that overlap rounds in flight
	// attribute identical deliveries to identical rounds. The per-round
	// conformance oracle groups deliveries by it.
	Round int
}

// Publication pairs a sensor reading with the node where it enters the
// network. Trace replays hand rounds of these to Runtime.ReplayRounds.
type Publication struct {
	Node  topology.NodeID
	Event model.Event
}

// Handler is the per-node protocol logic. The engine guarantees that all
// calls for one node happen sequentially (never concurrently), so handlers
// keep plain, unlocked state.
//
// The from argument of the Handle* methods identifies the neighbouring node
// the data arrived from; local injections (a sensor attached to this node, a
// subscription registered by a local user, a reading published by a local
// sensor) are presented through the Local* methods instead.
type Handler interface {
	// Init is called exactly once, before any other method, with the
	// node's context. Handlers typically keep the context for sending.
	Init(ctx *Context)

	// LocalSensor announces a sensor attached to this node.
	LocalSensor(ctx *Context, sensor model.Sensor)
	// LocalSubscribe registers a subscription issued by a user at this node.
	LocalSubscribe(ctx *Context, sub *model.Subscription)
	// LocalUnsubscribe retracts a subscription previously registered by a
	// user at this node. The handler removes its local registration and
	// propagates the retraction along the paths the subscription's operators
	// were forwarded on; an unknown ID is a no-op.
	LocalUnsubscribe(ctx *Context, id model.SubscriptionID)
	// LocalPublish injects a reading produced by a sensor at this node.
	LocalPublish(ctx *Context, ev model.Event)

	// HandleAdvertisement processes an advertisement received from a
	// neighbour.
	HandleAdvertisement(ctx *Context, from topology.NodeID, adv model.Advertisement)
	// HandleSubscription processes a subscription/operator received from a
	// neighbour.
	HandleSubscription(ctx *Context, from topology.NodeID, sub *model.Subscription)
	// HandleUnsubscription processes the retraction of a subscription or
	// operator previously received from the same neighbour.
	HandleUnsubscription(ctx *Context, from topology.NodeID, id model.SubscriptionID)
	// HandleEvent processes a simple event received from a neighbour.
	HandleEvent(ctx *Context, from topology.NodeID, ev model.Event)
}

// AggregateHandler is the optional capability a protocol handler implements
// to participate in in-network aggregation: merging a child's windowed
// partial aggregate (or relaying the exact baseline's raw readings). The
// engines only route KindPartialAggregate messages to handlers implementing
// it; others drop them silently.
type AggregateHandler interface {
	HandlePartialAggregate(ctx *Context, from topology.NodeID, pa *PartialAggregate)
}

// WatermarkHandler is the optional capability a protocol handler implements
// to learn that the network watermark advanced: every round <= watermark is
// fully injected and drained, so every reading of those rounds has reached
// its per-window accumulators and any window ending at or before the
// watermark can close. The engines tick each node at most once per watermark
// value, and only when at least one aggregate subscription is registered.
type WatermarkHandler interface {
	HandleWatermark(ctx *Context, watermark int)
}

// HandlerFactory builds the handler for a given node. Protocol packages
// expose one of these; the engine calls it once per node.
type HandlerFactory func(node topology.NodeID) Handler
