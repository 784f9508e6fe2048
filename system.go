package sensorcq

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"sensorcq/internal/experiment"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/stores"
	"sensorcq/internal/topology"
)

// Approach names one of the five evaluated query-processing approaches.
type Approach = experiment.ApproachID

// The five approaches of the paper's evaluation (Table II).
const (
	// Centralized ships every subscription and every reading to a central
	// node with global knowledge and matches there.
	Centralized = experiment.Centralized
	// Naive forwards every subscription with no filtering and builds one
	// result set per subscription.
	Naive = experiment.Naive
	// OperatorPlacement shares identical and covering operators between
	// queries (pairwise covering) with per-subscription result sets.
	OperatorPlacement = experiment.OperatorPlacement
	// MultiJoin decomposes multi-joins into binary joins at the first
	// divergence node, with publish/subscribe event forwarding.
	MultiJoin = experiment.MultiJoin
	// FilterSplitForward is the paper's contribution: probabilistic set
	// subsumption, advertisement-driven splitting and per-neighbour
	// publish/subscribe event forwarding.
	FilterSplitForward = experiment.FilterSplitForward
)

// Approaches returns every available approach, centralized first.
func Approaches() []Approach { return experiment.All() }

// Config selects the approach and runtime of a System.
type Config struct {
	// Approach is the query-processing approach to run (default
	// FilterSplitForward).
	Approach Approach
	// Seed drives the probabilistic set filter of FilterSplitForward.
	Seed int64
	// SetFilterError overrides the FSF set-filter error probability, which
	// must lie in [0, 1) (0 keeps the default of 2%).
	SetFilterError float64
	// Concurrent runs the processing nodes on the concurrent engine (a
	// pooled work-stealing scheduler, see Workers) instead of the
	// deterministic sequential engine.
	Concurrent bool
	// Delivery selects the replay delivery semantics used by ReplayRounds:
	// Quiescent (the default) fully propagates every event before injecting
	// the next one; Pipelined injects a whole measurement round before
	// draining, which is what lets a Concurrent system evaluate a round in
	// parallel.
	//
	// Pipelined runs produce the same traffic totals and the same
	// per-round delivery multisets as quiescent runs — only the delivery
	// order within a round may differ — provided every subscription's
	// temporal correlation distance δt is at least the timestamp spread
	// within one replayed round (the experiment traces satisfy this: one
	// reading per sensor per round, δt = one round interval). With a
	// smaller δt, out-of-order arrival within a round can prune window
	// events a quiescent run would still have matched, and pipelined
	// deliveries may diverge.
	//
	// Windowed additionally overlaps successive rounds: ReplayRounds
	// injects round r+1..r+Lag while round r is still draining, gated on
	// the network watermark. Nodes are built with an event-window validity
	// factor of Lag+2 against the cross-round arrival skew. At 5 sensors per
	// group that keeps the quiescent run's traffic totals and per-round
	// delivery multisets (deliveries are stamped with the round of their
	// newest component, which does not depend on interleaving); at 10 a late
	// trigger can still miss a pruned partner and the modes diverge
	// (ROADMAP, direction 5(a)).
	Delivery DeliveryMode
	// Lag bounds the cross-round pipelining of the Windowed delivery mode:
	// how many rounds beyond the oldest still-draining round may be in
	// flight. It must be 0 unless Delivery is Windowed; Windowed with
	// Lag 0 behaves exactly like Pipelined.
	Lag int
	// Workers sizes the concurrent engine's scheduler pool: how many
	// worker goroutines execute node activations (capped at the node
	// count). 0 selects GOMAXPROCS; negative values are rejected, as is a
	// positive value without Concurrent.
	Workers int
}

// System is a running sensor network: a deployment whose processing nodes
// execute the chosen approach. It is the main entry point of the public API.
//
// Subscriptions are continuous queries with a lifecycle: Subscribe returns a
// *SubscriptionHandle whose delivery channel streams results as they are
// produced and whose Unsubscribe retracts the query network-wide. A closed
// System rejects every operation with ErrClosed.
type System struct {
	dep      *Deployment
	runtime  netsim.Runtime
	approach Approach
	delivery DeliveryMode
	lag      int
	workers  int

	closed atomic.Bool

	// handles is the active-subscription registry (SubscriptionID →
	// *SubscriptionHandle). A sync.Map fits the access pattern exactly:
	// the delivery path does read-mostly lookups (lock-free after the
	// first), while churn (Subscribe/Unsubscribe) mutates single keys in
	// O(1) — bulk registration or retraction never rebuilds a snapshot.
	handles sync.Map
}

// TrafficStats summarises the traffic generated so far.
type TrafficStats struct {
	// AdvertisementLoad counts forwarded advertisements.
	AdvertisementLoad int64
	// SubscriptionLoad counts forwarded subscriptions/operators — the
	// paper's "number of forwarded queries".
	SubscriptionLoad int64
	// UnsubscriptionLoad counts forwarded retraction messages generated by
	// Unsubscribe (control traffic, accounted separately from the
	// subscription load).
	UnsubscriptionLoad int64
	// EventLoad counts forwarded simple events — the paper's "number of
	// forwarded data units".
	EventLoad int64
	// PartialAggregateLoad counts forwarded windowed partial-aggregate
	// messages (and, for the exact baseline, relayed raw readings),
	// accounted separately from EventLoad.
	PartialAggregateLoad int64
	// PartialAggregateBytes accumulates the encoded wire size of those
	// messages — the byte cost the error-vs-traffic experiment plots.
	PartialAggregateBytes int64
}

// NewSystem builds a System over the deployment, attaches and advertises
// every sensor of the deployment, and returns it ready for Subscribe and
// Publish calls.
func NewSystem(dep *Deployment, cfg Config) (*System, error) {
	if dep == nil || dep.Graph == nil {
		return nil, fmt.Errorf("sensorcq: nil deployment")
	}
	if cfg.Approach == "" {
		cfg.Approach = FilterSplitForward
	}
	if cfg.Lag < 0 {
		return nil, fmt.Errorf("sensorcq: negative replay lag %d", cfg.Lag)
	}
	if cfg.Lag > 0 && cfg.Delivery != Windowed {
		return nil, fmt.Errorf("sensorcq: replay lag %d requires the windowed delivery mode (got %v)", cfg.Lag, cfg.Delivery)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("sensorcq: negative worker count %d", cfg.Workers)
	}
	if cfg.Workers > 0 && !cfg.Concurrent {
		return nil, fmt.Errorf("sensorcq: worker count %d requires the concurrent engine", cfg.Workers)
	}
	rt, err := experiment.Start(dep, cfg.Approach, experiment.FactorySpec{
		Seed:           cfg.Seed,
		SetFilterError: cfg.SetFilterError,
		ValidityFactor: netsim.RequiredValidityFactor(cfg.Delivery, cfg.Lag),
	}, cfg.Concurrent, cfg.Workers)
	if err != nil {
		return nil, err
	}
	sys := &System{dep: dep, runtime: rt, approach: cfg.Approach, delivery: cfg.Delivery, lag: cfg.Lag}
	if cfg.Concurrent {
		sys.workers = netsim.EffectiveWorkers(cfg.Workers, dep.Graph.NumNodes())
	}
	// Push delivery: the observer runs on the delivering node's dispatch
	// path and routes each delivery to its subscription's handle (one
	// lock-free registry lookup + the handle's own lock — no engine-wide
	// mutex).
	rt.SetDeliveryObserver(func(d Delivery) {
		if h, ok := sys.handles.Load(d.SubID); ok {
			h.(*SubscriptionHandle).push(d)
		}
	})
	return sys, nil
}

// Approach returns the approach this system runs.
func (s *System) Approach() Approach { return s.approach }

// Deployment returns the underlying deployment.
func (s *System) Deployment() *Deployment { return s.dep }

// Workers returns the effective scheduler worker count of a Concurrent
// system, or 0 for the sequential engine (which has no worker pool).
func (s *System) Workers() int { return s.workers }

// Subscribe registers a user subscription at the given processing node and
// returns its lifecycle handle. The subscription is fully propagated through
// the network before Subscribe returns; results are then streamed to the
// handle's delivery channel (and callback, if one was configured) as they
// are produced, in addition to the pull log served by DeliveriesFor.
//
// A windowed aggregate query (NewAggregateSubscription) registers the same
// way: each node of its dissemination tree folds matching readings into one
// mergeable partial per tumbling window and ships it upstream when the
// network watermark closes the window, and the handle receives one Delivery
// per finalised window, carrying an AggregateResult instead of complex
// events.
//
// Subscribing an ID that is still active returns ErrDuplicateSubscription;
// after the ID is unsubscribed it may be registered again. A closed system
// returns ErrClosed.
func (s *System) Subscribe(node NodeID, sub *Subscription, opts ...SubscribeOption) (*SubscriptionHandle, error) {
	return s.SubscribeContext(context.Background(), node, sub, opts...)
}

// SubscribeContext is Subscribe with cancellation: the context bounds the
// wait for the subscription's network-wide propagation. On cancellation it
// returns the context's error (match with errors.Is against
// context.Canceled / context.DeadlineExceeded); the partially propagated
// registration is chased by a compensating retraction inside the runtime,
// so the network converges to the not-subscribed state without further
// blocking, and the ID becomes registrable again once that retraction has
// drained.
func (s *System) SubscribeContext(ctx context.Context, node NodeID, sub *Subscription, opts ...SubscribeOption) (*SubscriptionHandle, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if sub == nil {
		return nil, fmt.Errorf("sensorcq: nil subscription")
	}
	o := subscribeOptions{sinkBuffer: DefaultSinkBuffer}
	for _, opt := range opts {
		opt(&o)
	}
	switch o.bpMode {
	case DropNewest, DropOldest:
	case BlockWithTimeout:
		if o.bpTimeout <= 0 {
			o.bpTimeout = DefaultBackpressureTimeout
		}
	default:
		return nil, fmt.Errorf("sensorcq: invalid backpressure mode %v", o.bpMode)
	}
	h := &SubscriptionHandle{
		sys: s, node: node, sub: sub,
		cb: o.callback, retainLog: o.retainLog,
		bpMode: o.bpMode, bpTimeout: o.bpTimeout,
	}
	if o.sinkBuffer > 0 {
		h.ch = make(chan Delivery, o.sinkBuffer)
		h.done = make(chan struct{})
	}

	if _, dup := s.handles.LoadOrStore(sub.ID, h); dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateSubscription, sub.ID)
	}
	if err := s.runtime.SubscribeContext(ctx, node, sub); err != nil {
		s.handles.Delete(sub.ID)
		h.closeSink()
		return nil, err
	}
	// Re-check after registering: a Close that raced this Subscribe swept
	// the registry before (or while) the handle appeared in it, so close the
	// sink ourselves and report the system closed — otherwise a consumer
	// ranging over the channel of a handle born after the sweep would block
	// forever. closeSink is idempotent, so overlapping with Close's own
	// sweep is harmless.
	if s.closed.Load() {
		s.handles.Delete(sub.ID)
		h.closeSink()
		return nil, ErrClosed
	}
	return h, nil
}

// Unsubscribe retracts the active subscription with the given ID
// network-wide; it is the lookup-by-ID form of SubscriptionHandle
// Unsubscribe. An ID with no active handle — never registered, or already
// retracted — returns ErrUnsubscribed wrapped with the ID, the same error
// shape a second SubscriptionHandle.Unsubscribe returns, so both surfaces
// are matched with errors.Is(err, ErrUnsubscribed).
func (s *System) Unsubscribe(id SubscriptionID) error {
	if s.closed.Load() {
		return ErrClosed
	}
	h, ok := s.handles.Load(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnsubscribed, id)
	}
	return h.(*SubscriptionHandle).Unsubscribe()
}

// unsubscribe propagates a handle's retraction through the runtime and
// retires the handle. Called exactly once per handle (the handle's
// unsubscribed flag gates it).
func (s *System) unsubscribe(h *SubscriptionHandle) error {
	// Wake the handle's blocked BlockWithTimeout pushes first: on the
	// concurrent runtime a blocked push stalls its node's worker, and the
	// retraction below could not drain past it — Unsubscribe would wait out
	// the full backpressure timeout instead of returning promptly.
	h.abortBlock()
	if err := s.runtime.Unsubscribe(h.node, h.sub.ID); err != nil {
		return err
	}
	// After the flush the retraction has fully propagated: no node holds an
	// operator of this subscription, so no further delivery can be produced
	// and the sink can be closed.
	s.runtime.Flush()
	s.handles.Delete(h.sub.ID)
	h.closeSink()
	// Release the retracted subscription's entries in the delivery log's
	// per-subscription index (which DeliveriesFor and DeliveredEventSeqs
	// read) unless the handle opted into keeping its history: the pull log
	// of a long-gone subscription would otherwise stay reachable for the
	// lifetime of the system.
	if !h.retainLog {
		s.runtime.EvictDeliveries(h.sub.ID)
	}
	return nil
}

// HandleByID returns the active handle of a subscription. An ID with no
// active handle — never registered, or already retracted — returns
// ErrUnknownSubscription wrapped with the ID (match with errors.Is).
func (s *System) HandleByID(id SubscriptionID) (*SubscriptionHandle, error) {
	if h, ok := s.handles.Load(id); ok {
		return h.(*SubscriptionHandle), nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownSubscription, id)
}

// Handles returns the active (not yet unsubscribed) subscription handles,
// sorted by subscription ID for a deterministic listing. The slice is a
// snapshot: handles retracted after it is taken remain in it but report
// Active() == false.
func (s *System) Handles() []*SubscriptionHandle {
	var out []*SubscriptionHandle
	s.handles.Range(func(_, h any) bool {
		out = append(out, h.(*SubscriptionHandle))
		return true
	})
	slices.SortFunc(out, func(a, b *SubscriptionHandle) int {
		return strings.Compare(string(a.sub.ID), string(b.sub.ID))
	})
	return out
}

// Publish injects a sensor reading. The event's Sensor must be part of the
// deployment; the reading enters the network at the node hosting it. An
// unknown sensor returns ErrUnknownSensor; a closed system ErrClosed.
func (s *System) Publish(ev Event) error {
	return s.PublishContext(context.Background(), ev)
}

// PublishContext is Publish with cancellation: the context bounds the wait
// for the reading's network-wide propagation. On cancellation it returns the
// context's error; the reading itself is not recalled — it keeps
// propagating (on the concurrent runtime's workers, or on this system's
// next drain with the sequential runtime) and any deliveries it causes
// still happen.
func (s *System) PublishContext(ctx context.Context, ev Event) error {
	if s.closed.Load() {
		return ErrClosed
	}
	host, ok := s.dep.SensorHost[ev.Sensor]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSensor, ev.Sensor)
	}
	return s.runtime.PublishContext(ctx, host, ev)
}

// PublishBatch injects a trace of readings in order through the runtime's
// batched path: the whole batch is validated first (unknown sensors reject
// the batch before any event enters the network), then every event is
// published and fully propagated in order. The observable behaviour is
// identical to calling Publish per event; the batch amortizes per-event
// bookkeeping, which matters when replaying long traces.
func (s *System) PublishBatch(events []Event) error {
	return s.PublishBatchContext(context.Background(), events)
}

// PublishBatchContext is PublishBatch with cancellation (see
// PublishContext for the semantics of an aborted propagation wait).
func (s *System) PublishBatchContext(ctx context.Context, events []Event) error {
	return s.replay(ctx, [][]Event{events}, netsim.ReplayOptions{Mode: netsim.Quiescent})
}

// replay pairs every reading with the node hosting its sensor (an unknown
// sensor rejects the trace before any event enters the network), replays the
// rounds under the given options and flushes.
func (s *System) replay(ctx context.Context, rounds [][]Event, opts netsim.ReplayOptions) error {
	if s.closed.Load() {
		return ErrClosed
	}
	pubRounds := make([][]netsim.Publication, len(rounds))
	for r, events := range rounds {
		pubRounds[r] = make([]netsim.Publication, len(events))
		for i, ev := range events {
			host, ok := s.dep.SensorHost[ev.Sensor]
			if !ok {
				return fmt.Errorf("%w: %s", ErrUnknownSensor, ev.Sensor)
			}
			pubRounds[r][i] = netsim.Publication{Node: host, Event: ev}
		}
	}
	if err := s.runtime.ReplayRoundsContext(ctx, pubRounds, opts); err != nil {
		return err
	}
	return s.runtime.FlushContext(ctx)
}

// ReplayRounds replays a trace structured as measurement rounds (a
// generated Trace's ByRound) under the system's configured Delivery mode.
// With Delivery: Pipelined on a Concurrent system, each round is evaluated
// by all processing nodes in parallel; the network is drained to quiescence
// between rounds. PublishBatch is the quiescent replay of one round.
func (s *System) ReplayRounds(rounds [][]Event) error {
	return s.ReplayRoundsContext(context.Background(), rounds)
}

// ReplayRoundsContext is ReplayRounds with cancellation: the context is
// consulted between dispatch bursts and at every blocking drain or
// watermark wait, so a long or stuck replay can be abandoned mid-round with
// the context's error. Rounds already injected keep propagating; the next
// drain (any mutating call, or Close) completes them.
func (s *System) ReplayRoundsContext(ctx context.Context, rounds [][]Event) error {
	return s.replay(ctx, rounds, netsim.ReplayOptions{Mode: s.delivery, Lag: s.lag})
}

// DroppedMessages returns the number of messages the runtime failed to
// enqueue (non-zero only if a send raced engine shutdown).
func (s *System) DroppedMessages() int64 {
	return s.runtime.Metrics().DroppedMessages()
}

// Watermark returns the network low-watermark: the highest replay round
// whose work has been fully processed. After a drained replay it equals the
// number of rounds replayed so far; during a Windowed replay it trails the
// injection frontier by at most Lag+1 rounds.
func (s *System) Watermark() int { return s.runtime.Watermark() }

// Traffic returns the accumulated traffic counters.
func (s *System) Traffic() TrafficStats {
	snap := s.runtime.Metrics().Snapshot()
	return TrafficStats{
		AdvertisementLoad:     snap.AdvertisementLoad,
		SubscriptionLoad:      snap.SubscriptionLoad,
		UnsubscriptionLoad:    snap.UnsubscriptionLoad,
		EventLoad:             snap.EventLoad,
		PartialAggregateLoad:  snap.PartialAggregateLoad,
		PartialAggregateBytes: snap.PartialAggregateBytes,
	}
}

// IndexStats summarises the shape and observed lookup cost of the match
// indexes a run builds.
type IndexStats = stores.IndexStats

// IndexStats aggregates the match-index statistics of every node in the
// network: for the distributed approaches each node contributes its local
// delivery index plus one matcher index per origin; for the centralized
// baseline only the centre node holds (the single, global) index. The
// runtime is flushed first so the aggregate reflects a quiescent network.
func (s *System) IndexStats() IndexStats {
	if !s.closed.Load() {
		s.runtime.Flush()
	}
	var stats IndexStats
	for n := 0; n < s.dep.Graph.NumNodes(); n++ {
		h, ok := s.runtime.Handler(topology.NodeID(n)).(interface{ IndexStats() stores.IndexStats })
		if !ok {
			continue
		}
		stats.Merge(h.IndexStats())
	}
	return stats
}

// Deliveries returns every complex event delivered to subscribing users so
// far, in delivery order.
func (s *System) Deliveries() []Delivery { return s.runtime.Deliveries() }

// DeliveriesFor returns the deliveries of one subscription, served from the
// delivery log's per-subscription index: the cost is proportional to the
// subscription's own deliveries, not to the total delivered by the run.
// The index entries of a retracted subscription are evicted by Unsubscribe
// (empty result) unless it was registered with WithRetainLog; Deliveries
// keeps the full system log either way.
func (s *System) DeliveriesFor(id SubscriptionID) []Delivery {
	return s.runtime.DeliveriesFor(id)
}

// DeliveredEventSeqs returns the set of simple-event sequence numbers that
// reached the user of the given subscription, read from the same index as
// DeliveriesFor (so it is empty under the same conditions).
func (s *System) DeliveredEventSeqs(id SubscriptionID) map[uint64]bool {
	return s.runtime.Metrics().DeliveredSeqs(id)
}

// Close shuts the system down: it drains in-flight work, releases the
// worker goroutines of a concurrent runtime, and closes the delivery
// channel of every still-active subscription handle (so consumers ranging
// over them terminate). Close is idempotent — the first call returns nil,
// every later call returns ErrClosed. Every mutating method (Publish,
// PublishBatch, ReplayRounds, Subscribe, Unsubscribe) called after
// Close fails with ErrClosed instead of panicking or silently dropping
// work; read-only accessors (Traffic, Deliveries, DeliveriesFor,
// DeliveredEventSeqs, Watermark, DroppedMessages, handle counters and logs)
// stay readable so the run's results can still be inspected post-mortem.
func (s *System) Close() error {
	return s.CloseContext(context.Background())
}

// CloseContext is Close with a bound on the drain: if the context is
// cancelled while in-flight work is still propagating, the drain is
// abandoned and CloseContext returns the context's error. The system is
// considered closed either way — worker goroutines are released and every
// handle sink is closed even on a cancelled drain, so a timed-out shutdown
// still terminates consumers; only the zero-dropped-messages drain
// guarantee is forfeited.
func (s *System) CloseContext(ctx context.Context) error {
	if s.closed.Swap(true) {
		return ErrClosed
	}
	drainErr := s.runtime.FlushContext(ctx)
	s.runtime.Close()
	s.handles.Range(func(_, h any) bool {
		h.(*SubscriptionHandle).closeSink()
		return true
	})
	return drainErr
}

// TopologyBuilder builds a hand-crafted deployment: an explicit node graph
// with sensors placed on chosen nodes. It is the public way to model a small
// concrete network (the examples use it for the paper's six-node walkthrough
// topology).
type TopologyBuilder struct {
	graph   *topology.Graph
	sensors []Sensor
	hosts   map[SensorID]NodeID
	err     error
}

// NewTopology starts a builder for a network of n processing nodes
// (identified 0..n-1).
func NewTopology(n int) *TopologyBuilder {
	return &TopologyBuilder{graph: topology.NewGraph(n), hosts: map[SensorID]NodeID{}}
}

// Link connects two nodes and returns the builder for chaining.
func (b *TopologyBuilder) Link(a, c NodeID) *TopologyBuilder {
	if b.err == nil {
		b.err = b.graph.AddEdge(a, c)
	}
	return b
}

// PlaceSensor attaches a sensor to a node and returns the builder.
func (b *TopologyBuilder) PlaceSensor(node NodeID, sensor Sensor) *TopologyBuilder {
	if b.err != nil {
		return b
	}
	if _, dup := b.hosts[sensor.ID]; dup {
		b.err = fmt.Errorf("sensorcq: sensor %s placed twice", sensor.ID)
		return b
	}
	b.sensors = append(b.sensors, sensor)
	b.hosts[sensor.ID] = node
	return b
}

// Build validates the topology (it must be a connected acyclic graph) and
// returns the deployment.
func (b *TopologyBuilder) Build() (*Deployment, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.graph.Validate(); err != nil {
		return nil, err
	}
	dep := &Deployment{
		Graph:       b.graph,
		SensorHost:  map[model.SensorID]topology.NodeID{},
		NodeSensors: map[topology.NodeID][]model.Sensor{},
	}
	sensorNodes := map[NodeID]bool{}
	for _, s := range b.sensors {
		node := b.hosts[s.ID]
		dep.Sensors = append(dep.Sensors, s)
		dep.SensorHost[s.ID] = node
		dep.NodeSensors[node] = append(dep.NodeSensors[node], s)
		sensorNodes[node] = true
	}
	for n := 0; n < b.graph.NumNodes(); n++ {
		if !sensorNodes[NodeID(n)] {
			dep.RelayNodes = append(dep.RelayNodes, NodeID(n))
			dep.UserNodes = append(dep.UserNodes, NodeID(n))
		}
	}
	return dep, nil
}
