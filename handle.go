package sensorcq

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Typed sentinel errors of the public subscription-lifecycle surface. Match
// them with errors.Is; the returned errors may carry additional context
// (sensor IDs, subscription IDs) in their message.
var (
	// ErrUnknownSensor is returned when a published event names a sensor
	// that is not part of the deployment.
	ErrUnknownSensor = errors.New("sensorcq: unknown sensor")
	// ErrClosed is returned by every mutating System method (Publish,
	// Subscribe, Replay, Unsubscribe, ...) called after Close, and by Close
	// itself on the second and later calls. Read-only accessors stay
	// usable on a closed system.
	ErrClosed = errors.New("sensorcq: system is closed")
	// ErrUnsubscribed is returned by SubscriptionHandle.Unsubscribe when the
	// subscription was already retracted.
	ErrUnsubscribed = errors.New("sensorcq: subscription already unsubscribed")
	// ErrDuplicateSubscription is returned by Subscribe when a subscription
	// with the same ID is still active on the system.
	ErrDuplicateSubscription = errors.New("sensorcq: duplicate subscription")
	// ErrUnknownSubscription is returned by HandleByID when no active
	// subscription carries the given ID (never registered, or already
	// retracted).
	ErrUnknownSubscription = errors.New("sensorcq: unknown subscription")
)

// DefaultSinkBuffer is the capacity of a handle's push-delivery channel when
// Subscribe is not given an explicit WithSinkBuffer option.
const DefaultSinkBuffer = 1024

// DefaultBackpressureTimeout is the wait bound BlockWithTimeout uses when
// WithBackpressure is given a non-positive timeout.
const DefaultBackpressureTimeout = time.Second

// BackpressureMode selects what a full push-delivery channel does with the
// next delivery. Whatever the mode, the pull log (System.DeliveriesFor)
// always records every delivery — backpressure only shapes the push stream.
type BackpressureMode int

const (
	// DropNewest counts the incoming delivery in DroppedPushes and
	// discards it, never blocking the delivering worker. This is the
	// default and exactly the historical WithSinkBuffer behaviour.
	DropNewest BackpressureMode = iota
	// DropOldest evicts the oldest buffered delivery (counting it in
	// DroppedPushes) to admit the incoming one, so a slow consumer sees
	// the freshest results rather than the stalest, still without
	// blocking the delivering worker.
	DropOldest
	// BlockWithTimeout blocks the delivering worker until the consumer
	// frees buffer space or the configured timeout elapses; on timeout the
	// incoming delivery is counted in DroppedPushes and discarded. This
	// trades engine throughput for lossless streaming while the consumer
	// keeps up within the timeout.
	BlockWithTimeout
)

// String implements fmt.Stringer with the CLI/wire spellings of the modes.
func (m BackpressureMode) String() string {
	switch m {
	case DropNewest:
		return "drop_newest"
	case DropOldest:
		return "drop_oldest"
	case BlockWithTimeout:
		return "block"
	default:
		return fmt.Sprintf("backpressure(%d)", int(m))
	}
}

// ParseBackpressureMode maps the wire spelling of a backpressure mode
// ("drop_newest", "drop_oldest", "block") onto its value; the empty string
// is the default mode.
func ParseBackpressureMode(s string) (BackpressureMode, error) {
	switch s {
	case "drop_newest", "":
		return DropNewest, nil
	case "drop_oldest":
		return DropOldest, nil
	case "block":
		return BlockWithTimeout, nil
	default:
		return DropNewest, fmt.Errorf("sensorcq: unknown backpressure mode %q (valid modes: drop_newest, drop_oldest, block)", s)
	}
}

// SubscribeOption customises the push-delivery sink of a subscription
// handle.
type SubscribeOption func(*subscribeOptions)

type subscribeOptions struct {
	sinkBuffer int
	callback   func(Delivery)
	retainLog  bool
	bpMode     BackpressureMode
	bpTimeout  time.Duration
}

// WithSinkBuffer sets the capacity of the handle's push-delivery channel.
// Zero disables the channel entirely (Deliveries returns nil); negative
// values keep the default. When the consumer falls behind and the channel
// fills up, further deliveries are counted in DroppedPushes instead of
// blocking the engine — the pull log (System.DeliveriesFor) always remains
// complete.
func WithSinkBuffer(n int) SubscribeOption {
	return func(o *subscribeOptions) {
		if n >= 0 {
			o.sinkBuffer = n
		}
	}
}

// WithBackpressure selects what happens when the consumer falls behind and
// the push-delivery channel fills up: DropNewest (the default — count the
// incoming delivery in DroppedPushes and discard it), DropOldest (evict the
// oldest buffered delivery to admit the new one), or BlockWithTimeout (hold
// the delivering worker up to the timeout before counting the delivery as
// dropped). The timeout applies only to BlockWithTimeout; a non-positive
// value there falls back to DefaultBackpressureTimeout. An unknown mode
// fails the Subscribe call. The pull log stays complete in every mode.
//
// A blocked delivery waits outside the handle's lock, and an Unsubscribe or
// System.Close racing a full BlockWithTimeout sink aborts the wait
// immediately: retraction latency never depends on the consumer or the
// backpressure timeout.
func WithBackpressure(mode BackpressureMode, timeout time.Duration) SubscribeOption {
	return func(o *subscribeOptions) {
		o.bpMode = mode
		o.bpTimeout = timeout
	}
}

// WithCallback registers a function invoked synchronously for every delivery
// of the subscription, on the delivering node's dispatch path. The callback
// must be fast and must not call back into the System (doing so can
// deadlock a concurrent system). It runs in addition to the channel sink,
// and on the concurrent runtime it may run on a worker goroutine.
func WithCallback(fn func(Delivery)) SubscribeOption {
	return func(o *subscribeOptions) { o.callback = fn }
}

// WithRetainLog keeps the subscription's pull log (System.DeliveriesFor and
// System.DeliveredEventSeqs) readable after Unsubscribe. By default the
// subscription's delivery-index entries are evicted when the retraction
// completes, so a long-running system does not hold every retracted
// subscription's delivery history for the rest of its life; a handle
// subscribed with WithRetainLog opts out and keeps its history until the
// ID's next registration is itself unsubscribed without the option
// (eviction is per subscription ID). The system-wide delivery log
// (System.Deliveries) is never evicted either way.
func WithRetainLog() SubscribeOption {
	return func(o *subscribeOptions) { o.retainLog = true }
}

// SubscriptionHandle is the live registration of one continuous query: it
// carries the subscription's identity, a push-delivery sink fed from the
// per-node delivery shards (no engine-wide lock on the hot path),
// per-subscription counters, and the Unsubscribe that retracts the query
// network-wide.
//
// A handle stays valid after Unsubscribe for reading counters and the pull
// log; only the delivery stream ends (the channel is closed).
type SubscriptionHandle struct {
	sys  *System
	node NodeID
	sub  *Subscription

	// mu orders channel sends against the close in Unsubscribe; it is a
	// per-handle lock touched only when delivering to this subscription.
	// BlockWithTimeout waits happen OUTSIDE the lock (registered in senders,
	// woken by done), so a full sink never delays Unsubscribe or Close.
	mu     sync.Mutex
	ch     chan Delivery
	closed bool
	// done is closed by abortBlock to wake blocked BlockWithTimeout senders;
	// senders counts them so closeSink can close ch only once none is
	// mid-send.
	done      chan struct{}
	abortOnce sync.Once
	senders   sync.WaitGroup

	cb func(Delivery)
	// retainLog keeps the pull log after Unsubscribe (WithRetainLog).
	retainLog bool
	// bpMode and bpTimeout shape what push does with a full channel
	// (WithBackpressure); bpTimeout is meaningful only for BlockWithTimeout.
	bpMode    BackpressureMode
	bpTimeout time.Duration

	// unsubMu serialises Unsubscribe calls. The unsubscribed flag alone is
	// not enough: with a bare Swap(true), a concurrent second call would
	// observe the flag during a first call whose retraction then FAILS and
	// rolls the flag back — the second caller would report ErrUnsubscribed
	// for a subscription that is still registered. Under the mutex the flag
	// only ever transitions to true after a successful retraction, so every
	// ErrUnsubscribed corresponds to a retraction that actually ran.
	unsubMu sync.Mutex

	delivered    atomic.Int64
	droppedPush  atomic.Int64
	unsubscribed atomic.Bool
}

// ID returns the subscription's identifier.
func (h *SubscriptionHandle) ID() SubscriptionID { return h.sub.ID }

// Node returns the processing node the subscription was registered at.
func (h *SubscriptionHandle) Node() NodeID { return h.node }

// Deliveries returns the push-delivery stream: every complex event delivered
// to this subscription is sent to the channel as it happens. The channel is
// closed by Unsubscribe and by System.Close, so ranging over it terminates
// with the subscription. It returns nil when the channel sink was disabled
// with WithSinkBuffer(0).
func (h *SubscriptionHandle) Deliveries() <-chan Delivery {
	if h.ch == nil {
		return nil
	}
	return h.ch
}

// Delivered returns the number of complex-event notifications delivered to
// this subscription so far.
func (h *SubscriptionHandle) Delivered() int64 { return h.delivered.Load() }

// DroppedPushes returns the number of deliveries that could not be pushed to
// the channel sink because the consumer fell behind (the pull log still
// recorded them).
func (h *SubscriptionHandle) DroppedPushes() int64 { return h.droppedPush.Load() }

// Active reports whether the subscription is still registered (not yet
// unsubscribed, system not closed).
func (h *SubscriptionHandle) Active() bool {
	return !h.unsubscribed.Load() && !h.sys.closed.Load()
}

// Unsubscribe retracts the subscription network-wide: every node that stored
// or forwarded one of its operators removes it, releases the pub/sub routing
// entries it held, and re-exposes operators that were only filtered out
// because this subscription covered them. When Unsubscribe returns, the
// retraction has fully propagated — a subsequent replay produces zero
// deliveries for this subscription — and the delivery channel is closed.
//
// The second and later calls return ErrUnsubscribed; after System.Close it
// returns ErrClosed.
func (h *SubscriptionHandle) Unsubscribe() error {
	// Serialised: concurrent calls must not interleave with a failing
	// retraction. The flag is only set after the retraction succeeded, so a
	// loser of the race cannot observe a transient true that is later rolled
	// back and misreport ErrUnsubscribed while the subscription stays
	// registered.
	h.unsubMu.Lock()
	defer h.unsubMu.Unlock()
	if h.sys.closed.Load() {
		return ErrClosed
	}
	if h.unsubscribed.Load() {
		// Same error shape as the System.Unsubscribe lookup path: the
		// sentinel wrapped with the subscription ID, so both surfaces
		// satisfy errors.Is(err, ErrUnsubscribed) and carry the ID.
		return fmt.Errorf("%w: %s", ErrUnsubscribed, h.sub.ID)
	}
	if err := h.sys.unsubscribe(h); err != nil {
		// The retraction did not run (e.g. the runtime shut down under us):
		// the subscription is still registered and a retry stays possible.
		return err
	}
	h.unsubscribed.Store(true)
	return nil
}

// push feeds one delivery into the handle's sinks. It runs on the delivering
// node's dispatch path: the only lock taken is the handle's own.
func (h *SubscriptionHandle) push(d Delivery) {
	h.delivered.Add(1)
	if h.cb != nil {
		h.cb(d)
	}
	if h.ch == nil {
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	select {
	case h.ch <- d:
		h.mu.Unlock()
		return
	default:
	}
	// The channel is full: apply the handle's backpressure mode.
	switch h.bpMode {
	case DropOldest:
		// Evict buffered deliveries until the new one fits. The consumer
		// may be draining concurrently, so the eviction receive can miss
		// and the send can succeed on any iteration; either way each pass
		// frees or finds a slot, so the loop terminates.
		for {
			select {
			case <-h.ch:
				h.droppedPush.Add(1)
			default:
			}
			select {
			case h.ch <- d:
				h.mu.Unlock()
				return
			default:
			}
		}
	case BlockWithTimeout:
		// Register as an in-flight sender, then wait OUTSIDE the handle
		// lock: a concurrent Unsubscribe or Close closes done to abort the
		// wait immediately instead of stalling behind it for up to one
		// timeout. closeSink only closes ch after senders drains, so the
		// send below can never race the close.
		h.senders.Add(1)
		h.mu.Unlock()
		defer h.senders.Done()
		t := time.NewTimer(h.bpTimeout)
		defer t.Stop()
		select {
		case h.ch <- d:
		case <-h.done:
			// The handle is retiring (Unsubscribe or Close); the pull log
			// already has the delivery, so this is not a consumer-induced
			// drop.
		case <-t.C:
			h.droppedPush.Add(1)
		}
		return
	default: // DropNewest
		h.droppedPush.Add(1)
	}
	h.mu.Unlock()
}

// abortBlock wakes every in-flight BlockWithTimeout wait and keeps future
// ones from blocking. It runs at the start of a retraction — BEFORE the
// runtime drains it — because on the concurrent runtime a blocked push
// stalls its node's worker, and the retraction could never propagate past a
// worker that is waiting on the consumer. Idempotent; closeSink calls it
// too.
func (h *SubscriptionHandle) abortBlock() {
	if h.done == nil {
		return
	}
	h.abortOnce.Do(func() { close(h.done) })
}

// closeSink closes the delivery channel exactly once. Marking the handle
// closed under the lock stops new senders; abortBlock wakes the blocked
// BlockWithTimeout waits, which are then drained (senders) before ch is
// closed so no send can hit a closed channel.
func (h *SubscriptionHandle) closeSink() {
	if h.ch == nil {
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.mu.Unlock()
	h.abortBlock()
	h.senders.Wait()
	close(h.ch)
}
