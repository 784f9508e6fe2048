package netsim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// scheduler is the part of an engine the driver cannot share: how queued
// items get run. The sequential Engine runs them from one FIFO queue on the
// caller's goroutine; the ConcurrentEngine hands them to its worker pool.
// Both count every item in the driver's ledger (add before the item becomes
// reachable, done after its dispatch returned), the one record of
// outstanding work, and both wait on it through one method.
type scheduler interface {
	// The node contexts send through the same engine.
	sink
	// submit queues one local injection.
	submit(item queued) error
	// await returns once the ledger has reached target — nothing in flight
	// for drained, otherwise a watermark at or past it, or, for a
	// watermark, no further progress possible (engine closed) — or with
	// the context's error (the remaining work stays queued or keeps
	// running).
	await(ctx context.Context, target int) error
	// stop releases the scheduler's goroutines; queued items still run.
	stop()
}

// driver is everything the two engines share above the scheduling line:
// the nodes and their handlers, validation, the injectors, the round
// counter, the replay loop for all delivery modes, the watermark ledger and
// the ticks announcing it, and the delivery log. It sits on the
// per-injection and per-round path only; messages between nodes go straight
// from Context.send to the engine's own enqueue, and deliveries from
// Context.DeliverToUser to the log.
type driver struct {
	deliveryLog
	handlers []Handler
	ctxs     []*Context
	metrics  *Metrics
	led      roundLedger
	sched    scheduler
	// sensors numbers every attached sensor for the whole network; the
	// node contexts share it.
	sensors *model.SensorRegistry

	// plainWaits is the engine's column of the blocking rule (see Runtime):
	// whether AttachSensor and Unsubscribe drain before returning.
	plainWaits bool

	closed atomic.Bool
	round  atomic.Int64

	// aggTicks is set when an aggregate subscription registers; it gates all
	// watermark-tick work so replays without aggregate queries pay one
	// atomic load per round boundary and keep their zero-allocation steady
	// state.
	aggTicks atomic.Bool
}

// init builds one handler and context per node over the engine's scheduler,
// which must be ready to receive sends before any handler runs. logShards is
// the engine's one say in the delivery log (see deliveryLog).
func (d *driver) init(graph *topology.Graph, factory HandlerFactory, sched scheduler, logShards int, plainWaits bool) {
	n := graph.NumNodes()
	d.handlers = make([]Handler, n)
	d.ctxs = make([]*Context, n)
	d.deliveryLog.init(logShards)
	d.metrics = newMetrics(n, &d.deliveryLog)
	d.led.init()
	d.sched = sched
	d.plainWaits = plainWaits
	d.sensors = model.NewSensorRegistry()
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		d.handlers[i] = factory(id)
		d.ctxs[i] = &Context{self: id, graph: graph, metrics: d.metrics, out: sched, log: &d.deliveryLog, sensors: d.sensors}
		d.handlers[i].Init(d.ctxs[i])
	}
}

// Metrics implements Runtime.
func (d *driver) Metrics() *Metrics { return d.metrics }

// Handler implements Runtime.
func (d *driver) Handler(n topology.NodeID) Handler {
	if n < 0 || int(n) >= len(d.handlers) {
		return nil
	}
	return d.handlers[n]
}

// Watermark implements Runtime.
func (d *driver) Watermark() int { return d.led.watermark() }

// Close implements Runtime. Items already queued still run, so a Close
// racing in-flight work leaves no goroutine behind once that work has run
// out, and a drain after Close still waits for them.
func (d *driver) Close() {
	if d.closed.Swap(true) {
		return
	}
	d.sched.stop()
	// Wake an injector waiting at the watermark gate so it observes the
	// closed flag instead of blocking forever; a drain keeps waiting.
	d.led.wake()
}

func (d *driver) validNode(n topology.NodeID) error {
	if n < 0 || int(n) >= len(d.handlers) {
		return fmt.Errorf("netsim: unknown node %d", n)
	}
	return nil
}

var errClosed = errors.New("netsim: engine is closed")

// post validates the target of one local injection, stamps the item with
// the current round and queues it.
func (d *driver) post(ctx context.Context, node topology.NodeID, item queued) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := d.validNode(node); err != nil {
		return err
	}
	if d.closed.Load() {
		return errClosed
	}
	item.to, item.from = node, node
	item.round = int(d.round.Load())
	if item.msg.Kind == localPublish {
		item.msg.Ev.Round = item.round
	}
	return d.sched.submit(item)
}

// inject queues one local injection; a call that waits (the blocking rule,
// see Runtime) flushes the network before it returns.
func (d *driver) inject(ctx context.Context, node topology.NodeID, item queued, wait bool) error {
	if err := d.post(ctx, node, item); err != nil {
		return err
	}
	if !wait {
		return nil
	}
	return d.flush(ctx)
}

// AttachSensor implements Runtime. The sensor is registered on the caller's
// goroutine, before its item is queued, so the ref the item carries is
// readable wherever the item runs.
func (d *driver) AttachSensor(node topology.NodeID, sensor model.Sensor) error {
	if err := d.validNode(node); err != nil {
		return err
	}
	ref, err := d.sensors.Register(sensor)
	if err != nil {
		return fmt.Errorf("netsim: %w", err)
	}
	return d.inject(context.Background(), node, queued{msg: Message{Kind: localSensor, Ref: ref}}, d.plainWaits)
}

// SubscribeContext implements Runtime.
func (d *driver) SubscribeContext(ctx context.Context, node topology.NodeID, sub *model.Subscription) error {
	if err := sub.Validate(); err != nil {
		return err
	}
	if sub.Aggregate != nil {
		d.aggTicks.Store(true)
	}
	if err := d.post(ctx, node, queued{msg: Message{Kind: localSubscribe, Sub: sub}}); err != nil {
		return err
	}
	err := d.flush(ctx)
	if err != nil {
		// The wait was cancelled with the registration (partly) propagated:
		// queue a compensating retraction behind it. Injections at one node
		// and the messages on one link run in FIFO order, so by the time
		// the retraction reaches a node, that node has recorded every
		// forwarding link the walk retracts.
		_ = d.post(context.Background(), node, queued{msg: Message{Kind: localUnsubscribe, UnsubID: sub.ID}})
	}
	return err
}

// Unsubscribe implements Runtime.
func (d *driver) Unsubscribe(node topology.NodeID, id model.SubscriptionID) error {
	if id == "" {
		return fmt.Errorf("netsim: empty subscription ID")
	}
	return d.inject(context.Background(), node, queued{msg: Message{Kind: localUnsubscribe, UnsubID: id}}, d.plainWaits)
}

// PublishContext implements Runtime.
func (d *driver) PublishContext(ctx context.Context, node topology.NodeID, ev model.Event) error {
	return d.inject(ctx, node, queued{msg: Message{Kind: localPublish, Ev: ev}}, true)
}

// ReplayRounds implements Runtime.
func (d *driver) ReplayRounds(rounds [][]Publication, opts ReplayOptions) error {
	return d.ReplayRoundsContext(context.Background(), rounds, opts)
}

// ReplayRoundsContext implements Runtime. Every delivery mode runs the same
// injection loop (replay); the mode only picks its two parameters.
func (d *driver) ReplayRoundsContext(ctx context.Context, rounds [][]Publication, opts ReplayOptions) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	for _, round := range rounds {
		for _, p := range round {
			if err := d.validNode(p.Node); err != nil {
				return err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if d.closed.Load() {
		return errClosed
	}
	if err := d.replay(ctx, rounds, opts.Lag, opts.Mode == Quiescent); err != nil {
		return err
	}
	return d.flush(ctx)
}

// replay is the injection loop of every delivery mode. Round r enters the
// network once the watermark has reached r-1-lag, so up to lag+1 rounds
// overlap in flight; with lag 0 the gate is a full round barrier, which is
// the Pipelined mode. settle additionally drains after every single
// injection — the Quiescent mode, in which at most one event is in flight.
//
// On an error (cancellation, engine closed) the rounds already injected stay
// in flight; the next drain, or the next replay's gate, completes them.
func (d *driver) replay(ctx context.Context, rounds [][]Publication, lag int, settle bool) error {
	for _, round := range rounds {
		r := int(d.round.Load()) + 1
		if err := d.sched.await(ctx, r-1-lag); err != nil {
			return err
		}
		// The gate advanced the watermark: announce it before round r's
		// events so nodes observe it in order with the in-flight stream.
		// The window-close cascades the ticks trigger interleave with the
		// replay like any other overlapping work, unless the mode settles.
		if d.maybeTick() && settle {
			if err := d.sched.await(ctx, drained); err != nil {
				return err
			}
		}
		d.round.Store(int64(r))
		err := d.injectRound(ctx, round, r, settle)
		// Mark the round injected even when it was cut short: no further
		// event of it will ever be queued, and a round that is never marked
		// would hold the watermark (and the next replay's gate) forever.
		d.led.markInjected(r)
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *driver) injectRound(ctx context.Context, round []Publication, r int, settle bool) error {
	for _, p := range round {
		ev := p.Event
		ev.Round = r
		if err := d.sched.submit(queued{to: p.Node, from: p.Node, round: r, msg: Message{Kind: localPublish, Ev: ev}}); err != nil {
			return err
		}
		if settle {
			if err := d.sched.await(ctx, drained); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush implements Runtime.
func (d *driver) Flush() { _ = d.flush(context.Background()) }

// FlushContext implements Runtime.
func (d *driver) FlushContext(ctx context.Context) error { return d.flush(ctx) }

// flush drains the network, then announces the advanced watermark and
// drains the window-close cascades the ticks trigger, until no further tick
// is due: every entry point that leaves the network quiescent routes
// through it, so an aggregate window never stays open once the watermark
// has passed its end.
func (d *driver) flush(ctx context.Context) error {
	if err := d.sched.await(ctx, drained); err != nil {
		return err
	}
	for d.maybeTick() {
		if err := d.sched.await(ctx, drained); err != nil {
			return err
		}
	}
	return nil
}

// maybeTick queues one watermark tick per node when the watermark advanced
// past the last announced value, reporting whether it did. Without
// aggregate subscriptions no tick is ever queued. The ledger hands each
// advance to one of concurrent callers, but their submission loops may
// interleave, so a node can observe ticks out of order — handlers must
// ignore a tick below one they have already seen.
func (d *driver) maybeTick() bool {
	if !d.aggTicks.Load() {
		return false
	}
	wm, advanced := d.led.announce()
	if !advanced {
		return false
	}
	for n := range d.handlers {
		id := topology.NodeID(n)
		// A failed submit only happens when the engine is shutting down;
		// the tick is then moot.
		_ = d.sched.submit(queued{to: id, from: id, msg: Message{Kind: localTick, Ev: model.Event{Round: wm}}})
	}
	return true
}
