package netsim

import (
	"context"
	"math"

	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// Runtime is the interface shared by the sequential and concurrent engines.
// The experiment harness and the public facade are written against it. Both
// engines implement all of it with one shared driver (driver.go), so
// validation, errors, rounds, watermarks and the delivery record cannot
// differ between them.
//
// Blocking rule. Whether an entry point returns before the work it queued
// has run depends on the call and the engine:
//
//	                               Engine             ConcurrentEngine
//	AttachSensor, Unsubscribe      drains (1)         queues only (2)
//	SubscribeContext,              drains,            waits until idle,
//	PublishContext                 cancellable        cancellable
//	ReplayRounds[Context]          as the mode says, then ends with a flush
//	Flush[Context]                 drains and announces the watermark
//
// (1) The caller's goroutine is the only one that runs queued items, so a
// call that did not drain would leave its work for an unrelated later call.
// (2) The workers propagate it on their own; callers that need it finished
// call Flush. experiment.Start relies on this to attach every sensor back to
// back and flush once.
type Runtime interface {
	// AttachSensor attaches a sensor to a node; the node's protocol handler
	// reacts by advertising it (Algorithm 1). The network's registry
	// (Context.Sensors) numbers the sensor in attach order. Attaching an ID
	// again with the same attribute type and location keeps its number; with
	// a different one it is an error, and nothing is queued.
	AttachSensor(node topology.NodeID, sensor model.Sensor) error
	// Unsubscribe retracts a subscription previously registered at the node.
	// The retraction propagates network-wide: every node that stored or
	// forwarded one of the subscription's operators removes it and releases
	// the associated routing state. Unsubscribing an ID that was never
	// registered at the node is a silent no-op (the injection is processed,
	// nothing matches).
	Unsubscribe(node topology.NodeID, id model.SubscriptionID) error
	// SubscribeContext registers a user subscription at a node and waits
	// until it has fully propagated through the network. Cancellation aborts
	// the wait with the context's error; the engine then enqueues a
	// compensating retraction behind the registration (per-link FIFO order
	// guarantees the retraction observes every forwarding link the
	// registration recorded), so the network converges to the
	// not-subscribed state without further blocking the caller.
	SubscribeContext(ctx context.Context, node topology.NodeID, sub *model.Subscription) error
	// PublishContext injects a sensor reading and waits until it has fully
	// propagated. Cancellation aborts the wait with the context's error;
	// the event itself is not recalled — deliveries it causes still happen
	// (they complete on a later drain, or concurrently on the concurrent
	// engine).
	PublishContext(ctx context.Context, node topology.NodeID, ev model.Event) error
	// ReplayRounds injects a trace structured as rounds of events, under
	// the delivery semantics selected by opts. Round r enters the network
	// once the network watermark (see watermark.go) has reached
	// r-1-opts.Lag, so Windowed lets up to Lag+1 rounds overlap in flight;
	// Pipelined is Windowed with Lag 0 (a whole round is injected, and the
	// next waits until it has drained); Quiescent additionally drains the
	// network after every single event (the conformance baseline), so one
	// quiescent round is a batch of readings each fully propagated in turn.
	// Every round advances the engine's round counter; deliveries are
	// stamped with the round of their newest component event. The whole
	// trace is validated up front; an unknown target node rejects it before
	// any event enters the network. The replay ends with a Flush, so it
	// returns with the network quiescent and every due watermark announced.
	ReplayRounds(rounds [][]Publication, opts ReplayOptions) error
	// ReplayRoundsContext is ReplayRounds with cancellation: the context is
	// checked between dispatch bursts (sequential engine) and wakes any
	// blocked drain or watermark wait (concurrent engine), so a stuck or
	// long replay can be abandoned mid-round with the context's error.
	// Work already injected keeps propagating: in every mode a cancelled
	// replay leaves its in-flight rounds as leftovers that the next drain
	// (a Flush, a waiting injector, the next replay) completes.
	ReplayRoundsContext(ctx context.Context, rounds [][]Publication, opts ReplayOptions) error
	// Flush processes messages until the network is quiescent, announcing
	// the watermark to open aggregate windows on the way.
	Flush()
	// FlushContext is Flush with cancellation: it drains until the network
	// is quiescent or the context is done, whichever comes first, and
	// returns the context's error on cancellation (leaving the remaining
	// work queued or in flight for a later drain). A nil error means the
	// network is quiescent.
	FlushContext(ctx context.Context) error
	// Trim releases the queue storage a past burst grew — mailbox and burst
	// arrays, or the FIFO queue — keeping whatever still holds
	// items. Queues stay at their high-water mark so that a steady replay
	// allocates nothing; after a one-off burst far above it (NewSystem's
	// advertisement flood) that is hundreds of megabytes of dead weight.
	// Call it on a quiescent network; later work regrows what it needs.
	Trim()
	// Metrics returns the run's traffic and delivery counters.
	Metrics() *Metrics
	// Deliveries returns every complex-event delivery recorded so far, in
	// delivery order (sequential engine) or an arbitrary order (concurrent).
	Deliveries() []Delivery
	// DeliveriesFor returns the deliveries of one subscription, served from
	// the delivery log's per-subscription index rather than a scan over the
	// whole log: the cost is proportional to the subscription's own
	// deliveries, not to the total delivered by the run.
	DeliveriesFor(id model.SubscriptionID) []Delivery
	// EvictDeliveries releases the given subscription's entries in the
	// delivery log's per-subscription index, so both per-subscription views
	// — DeliveriesFor and Metrics.DeliveredSeqs — read empty for it
	// afterwards. The system-wide delivery log
	// (Deliveries) is unaffected. Serving layers call it on unsubscribe;
	// callers that want the pull log to outlive the subscription simply do
	// not.
	EvictDeliveries(id model.SubscriptionID)
	// SetDeliveryObserver installs a function invoked for every delivery as
	// it is recorded (push delivery). The observer runs on the delivering
	// node's dispatch path — the sequential engine's caller goroutine or a
	// concurrent worker — so it must be fast and must not call back into the
	// runtime. Install it before any event enters the network; nil removes
	// it.
	SetDeliveryObserver(fn func(Delivery))
	// Handler returns the protocol handler of a node (nil for unknown
	// nodes). White-box protocol tests use it to inspect per-node state on
	// either engine; for the concurrent engine the caller must Flush first
	// so no worker goroutine is touching the handler.
	Handler(node topology.NodeID) Handler
	// Watermark returns the network low-watermark: the highest replay round
	// that is fully injected and whose work (injections and every message
	// transitively produced by them) has been fully processed. On a
	// quiescent network it equals the round counter.
	Watermark() int
	// Close releases the engine's goroutines (the sequential engine has
	// none) and rejects every later injection. Flush first: items already
	// queued still run, but Close does not wait for them. A drain after
	// Close (Flush, FlushContext) still waits out the items queued before
	// it; a replay's watermark gate gives up instead. Close is idempotent.
	Close()
}

// queued is one in-flight item: a link message, or a local injection in the
// same shape (from == to, and one of the local kinds). Every item is copied
// into a mailbox or the FIFO queue, out into a burst and through array
// growth, so it holds only the route, the lineage round and the one payload.
type queued struct {
	to   topology.NodeID
	from topology.NodeID

	// round is the lineage round of the item: the replay round being
	// injected (injections), or the round of the item whose dispatch
	// produced the message. Watermark accounting retires a round when no
	// item of that lineage remains in flight. Tick items (and the close
	// cascades they trigger) carry lineage round 0, which the watermark
	// accounting never consults — the watermark gates on replay rounds
	// >= 1 — so closing a window cannot hold back the very watermark that
	// closed it.
	round int

	msg Message
}

// Engine is the deterministic sequential engine, and the reference schedule
// every conformance oracle compares against: all queued items — injections
// and link messages alike — sit in one global FIFO queue and are dispatched
// in that order on the caller's goroutine. Given identical inputs it
// produces identical traffic counts and an identical delivery log, which is
// what the experiment harness and the regression tests rely on.
//
// Everything above the queue (injectors, replay loop, watermark ticks,
// delivery log) is the shared driver; what is specific to this engine
// is the queue and the drain loops that run it. Its delivery log has a single
// shard, which keeps Deliveries() in delivery order.
type Engine struct {
	driver
	queue    []queued
	head     int
	draining bool
}

var _ Runtime = (*Engine)(nil)

// NewEngine builds a sequential engine over the given topology, creating one
// handler per node with the factory.
func NewEngine(graph *topology.Graph, factory HandlerFactory) *Engine {
	e := &Engine{}
	e.driver.init(graph, factory, e, 1, true)
	return e
}

// Preallocate sizes the engine's append-only stores to absorb roughly mult
// repetitions of the work observed so far without growing: the delivery log
// and its per-subscription index, and each node's delivery arena.
// Steady-state replay loops (benchmarks, long experiment phases of known
// shape) call it after a warm-up pass so the measured iterations allocate
// nothing; it is never required for correctness, and a workload that
// outgrows the reservation simply falls back to on-demand growth.
func (e *Engine) Preallocate(mult int) {
	if mult < 1 {
		return
	}
	e.deliveryLog.reserve(mult)
	perNode := make([]int, len(e.ctxs))
	e.deliveryLog.locked(func(s *deliveryShard) {
		for _, d := range s.log {
			perNode[d.Node] += len(d.Events)
		}
	})
	for i, c := range e.ctxs {
		if n := perNode[i] * mult; n > 0 {
			c.arena.reserve(n)
		}
	}
}

// submit implements scheduler.
func (e *Engine) submit(item queued) error {
	e.enqueue(item)
	return nil
}

// enqueue implements sink.
func (e *Engine) enqueue(item queued) {
	e.led.add(item.round)
	e.queue = append(e.queue, item)
}

// Trim implements Runtime.
func (e *Engine) Trim() {
	if e.head == len(e.queue) && !e.draining {
		e.queue, e.head = nil, 0
	}
}

// stop implements scheduler; there is no goroutine to release.
func (e *Engine) stop() {}

// drainCheckMask paces the context checks of the drain loop: the context is
// consulted once per (mask+1) dispatched items, so a background context
// costs one predictable nil check per burst rather than one per message.
const drainCheckMask = 255

// await implements scheduler with the dispatch loop: items leave the queue
// head in FIFO order until the queue is empty, the watermark reaches the
// target (drained: never, so the queue empties), or the context is
// cancelled — then the remaining items stay queued for the next drain and
// the context's error is returned. A watermark target stops the loop as
// soon as it is reached (at once when it already is), so the items of up
// to lag+1 rounds interleave on the queue. The queue's backing array is
// retained and reused across runs, so a long replay does not reallocate it
// per event.
//
// Dispatched items stay in the queue until the loop completes, so a nested
// call (a handler calling back into the engine mid-dispatch — nothing does
// today) must not re-drain; it returns immediately and leaves the work to
// the outer loop, which also picks up anything queued in between.
func (e *Engine) await(ctx context.Context, target int) error {
	if e.draining {
		return nil
	}
	e.draining = true
	gated := target != drained
	wm := math.MinInt
	if gated {
		wm = e.led.watermark()
	}
	var err error
	for n := 0; wm < target && e.head < len(e.queue); n++ {
		if n&drainCheckMask == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		item := e.queue[e.head]
		e.head++
		dispatch(e.handlers[item.to], e.ctxs[item.to], &item)
		if e.led.done(item.round, 1) && gated {
			wm = e.led.watermark()
		}
	}
	e.compact()
	e.draining = false
	return err
}

// compact reclaims queue storage between drains. When everything enqueued so
// far has been dispatched the queue resets in place; during a windowed
// replay the queue may never fully drain until the final Flush, so a long
// consumed prefix is shifted out instead, keeping the backlog bounded by the
// lag window rather than the whole trace. Zeroing released slots lets queued
// subscriptions be collected while the backing array is kept.
func (e *Engine) compact() {
	if e.head == len(e.queue) {
		for i := range e.queue {
			e.queue[i] = queued{}
		}
		e.queue = e.queue[:0]
		e.head = 0
		return
	}
	if e.head < 1024 {
		return
	}
	n := copy(e.queue, e.queue[e.head:])
	for i := n; i < len(e.queue); i++ {
		e.queue[i] = queued{}
	}
	e.queue = e.queue[:n]
	e.head = 0
}
