package netsim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sensorcq/internal/topology"
)

// ConcurrentEngine models the fully distributed execution of the protocols:
// a node only ever touches its own state and talks to its neighbours by
// message passing. It implements the same Runtime interface as the
// sequential Engine — through the same driver — so the two are
// interchangeable; the experiments use the sequential engine for
// determinism and the tests cross-check that both produce identical traffic
// totals and per-round delivery multisets.
//
// What is specific to this engine is how queued items get run: a bounded
// work-stealing scheduler (see stealScheduler) decoupled from the topology
// size. Every node keeps a private mailbox, but the scheduled unit is a node
// *activation* — a push that makes a mailbox non-empty enqueues the node
// onto a worker's local run deque, and a small pool of workers (default
// GOMAXPROCS) drains active nodes burst by burst, stealing from sibling
// deques when their own runs dry. Wakeups, ledger settlement and in-flight
// accounting therefore cost O(active nodes), not O(topology).
//
// How many nodes are active at once is the delivery mode's doing: under
// Quiescent replay at most one event is in flight, so the activations take
// turns; Pipelined keeps a whole round in flight; Windowed keeps up to
// Lag+1 rounds in flight.
//
// The hot delivery path is lock-free with respect to the engine: traffic
// counters and deliveries go to per-node shards (see Metrics and
// deliveryLog), in-flight and per-round accounting are one atomic each,
// and the only per-message lock is the target node's mailbox mutex — which
// a worker drains in batches, one lock round-trip per burst.
type ConcurrentEngine struct {
	driver
	mailboxes []*mailbox
	pool      *stealScheduler
	// nodeWorker[n] is the scheduler worker currently (or most recently)
	// draining node n's mailbox. It is written by that worker right before
	// it dispatches n's burst and read only from inside that burst's
	// dispatches (the sink's enqueue runs on the same goroutine), so access
	// is race-free: the node handoff between workers is ordered by the
	// mailbox and deque mutexes.
	nodeWorker []int32

	// inflight counts queued-but-not-yet-dispatched items; drain waits for
	// it to reach zero via idleCond.
	inflight atomic.Int64
	idleMu   sync.Mutex
	idleCond *sync.Cond
	trims    atomic.Uint32 // Trim calls, see runWorker
}

var _ Runtime = (*ConcurrentEngine)(nil)

// mailbox is one node's message queue. A node's handler only ever runs on a
// burst taken from its own mailbox, and the activation protocol guarantees
// at most one scheduler worker drains a mailbox at a time, so a handler
// never runs concurrently with itself — the invariant every conformance
// oracle rests on.
type mailbox struct {
	mu     sync.Mutex
	queue  []queued
	closed bool
	// active records that the node is scheduled: enqueued on some worker's
	// run deque, or currently being drained. push reports an activation only
	// on the empty→non-empty transition of an inactive mailbox, so a node
	// appears at most once across all deques and is drained by at most one
	// worker at a time.
	active bool
}

// push appends an item and reports whether the caller must schedule the
// node's activation (the mailbox was empty and inactive).
func (m *mailbox) push(item *queued) (activate, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, false
	}
	m.queue = append(m.queue, *item)
	if m.active {
		return false, true
	}
	m.active = true
	return true, true
}

// take removes every queued item in one swap without blocking, leaving spare
// as the mailbox's next backing array. Only the worker that dequeued the
// node's activation calls it. Draining in batches rather than item by item
// keeps the mailbox lock out of the pipelined hot path: under a full round
// in flight a node pays one lock round-trip per burst instead of one per
// message.
func (m *mailbox) take(spare []queued) []queued {
	m.mu.Lock()
	items := m.queue
	m.queue = spare[:0]
	m.mu.Unlock()
	return items
}

// finish deactivates the node after a dispatched burst — or reports that the
// mailbox refilled during the burst (pushes land in the fresh backing while
// active stays set) and must be rescheduled. The emptiness re-check and the
// deactivation are atomic under mu, which closes the lost-wakeup race
// between a worker retiring a node and a concurrent push that still saw it
// active.
func (m *mailbox) finish() (reschedule bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) > 0 {
		return true
	}
	m.active = false
	return false
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}

// runDeque is one scheduler worker's run queue of activated nodes. The owner
// pushes and pops at the tail (LIFO: the most recently activated node's
// messages are the ones still warm in cache); idle workers steal from the
// head (FIFO: the oldest activation is the fairest to migrate). A node
// appears at most once across all deques (mailbox.active), so total
// occupancy — and therefore every backing array — is bounded by the topology
// size: the buffer ratchets up to its high-water capacity during warm-up and
// is never reallocated in steady state, keeping activations off the heap.
type runDeque struct {
	mu   sync.Mutex
	head int
	buf  []int32
	// The padding keeps neighbouring deques off a shared cache line: every
	// worker hammers its own deque's lock once per activation.
	_ [64]byte
}

func (d *runDeque) push(n int32) {
	d.mu.Lock()
	d.buf = append(d.buf, n)
	d.mu.Unlock()
}

// pop takes from the tail (owner side).
func (d *runDeque) pop() (int32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.buf) {
		d.buf, d.head = d.buf[:0], 0
		return 0, false
	}
	n := d.buf[len(d.buf)-1]
	d.buf = d.buf[:len(d.buf)-1]
	if d.head == len(d.buf) {
		d.buf, d.head = d.buf[:0], 0
	}
	return n, true
}

// stealHead takes from the head (thief side).
func (d *runDeque) stealHead() (int32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.buf) {
		return 0, false
	}
	n := d.buf[d.head]
	d.head++
	if d.head == len(d.buf) {
		d.buf, d.head = d.buf[:0], 0
	}
	return n, true
}

// stealScheduler multiplexes node activations over a bounded worker pool:
// one run deque per worker plus a central parking lot for idle workers.
//
// The lost-wakeup race between a worker going idle and a concurrent
// activation is closed by ordering: a parking worker increments seekers
// under parkMu BEFORE its final scan of every deque, and an enqueuer pushes
// its node BEFORE loading seekers. The atomics are sequentially consistent,
// so if the enqueuer reads seekers == 0 the worker's final scan happens
// after the push and finds the node; if it reads > 0 the signal is delivered
// under parkMu, after the worker entered Wait (or harmlessly spuriously).
// In the steady state — every worker busy — an activation therefore costs
// one deque lock plus one atomic load, with the parking lot untouched.
type stealScheduler struct {
	deques   []runDeque
	parkMu   sync.Mutex
	parkCond *sync.Cond
	// seekers counts workers inside the acquire slow path (scanning under
	// parkMu or waiting on parkCond).
	seekers atomic.Int32
	closed  atomic.Bool
	// rr spreads external injections (which carry no worker affinity)
	// round-robin over the deques.
	rr atomic.Uint32
}

func newStealScheduler(workers int) *stealScheduler {
	s := &stealScheduler{deques: make([]runDeque, workers)}
	s.parkCond = sync.NewCond(&s.parkMu)
	return s
}

// enqueue schedules an activated node. prefer is the worker whose dispatch
// caused the activation — the sender's burst is still warm, so the child
// activation lands on its local deque without any shared-counter traffic;
// negative means no affinity (an external injection) and spreads round-robin.
func (s *stealScheduler) enqueue(prefer int, node int32) {
	if prefer < 0 {
		prefer = int(s.rr.Add(1)) % len(s.deques)
	}
	s.deques[prefer].push(node)
	if s.seekers.Load() > 0 {
		s.parkMu.Lock()
		s.parkCond.Signal()
		s.parkMu.Unlock()
	}
}

// scan is one full acquisition attempt: the worker's own deque first, then a
// steal sweep over the siblings starting at its right-hand neighbour.
func (s *stealScheduler) scan(w int) (int32, bool) {
	if n, ok := s.deques[w].pop(); ok {
		return n, true
	}
	for i := 1; i < len(s.deques); i++ {
		if n, ok := s.deques[(w+i)%len(s.deques)].stealHead(); ok {
			return n, true
		}
	}
	return 0, false
}

// next blocks until an activated node is available for worker w (returning
// it) or the scheduler is closed AND drained (returning false): remaining
// activations are still run after Close.
func (s *stealScheduler) next(w int) (int32, bool) {
	if n, ok := s.scan(w); ok {
		return n, true
	}
	s.parkMu.Lock()
	s.seekers.Add(1)
	for {
		if n, ok := s.scan(w); ok {
			s.seekers.Add(-1)
			s.parkMu.Unlock()
			return n, true
		}
		if s.closed.Load() {
			s.seekers.Add(-1)
			s.parkMu.Unlock()
			return 0, false
		}
		s.parkCond.Wait()
	}
}

func (s *stealScheduler) close() {
	s.closed.Store(true)
	s.parkMu.Lock()
	s.parkCond.Broadcast()
	s.parkMu.Unlock()
}

// EffectiveWorkers resolves a requested scheduler pool size the way the
// engine does: non-positive selects GOMAXPROCS, and the pool is capped at
// the node count (more workers than nodes could never all be busy).
func EffectiveWorkers(workers, nodes int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nodes {
		workers = nodes
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// NewConcurrentEngineWorkers builds a concurrent engine over the given
// topology, executed by the pooled work-stealing scheduler with the given
// number of workers (see EffectiveWorkers for how the count is resolved; 0
// selects GOMAXPROCS). Callers must Close the engine when done.
func NewConcurrentEngineWorkers(graph *topology.Graph, factory HandlerFactory, workers int) *ConcurrentEngine {
	n := graph.NumNodes()
	e := &ConcurrentEngine{
		mailboxes:  make([]*mailbox, n),
		pool:       newStealScheduler(EffectiveWorkers(workers, n)),
		nodeWorker: make([]int32, n),
	}
	e.idleCond = sync.NewCond(&e.idleMu)
	for i := range e.mailboxes {
		e.mailboxes[i] = &mailbox{}
	}
	e.driver.init(graph, factory, e, n, false)
	for w := range e.pool.deques {
		go e.runWorker(w)
	}
	return e
}

// runWorker is one pooled scheduler worker: it acquires activated nodes from
// the deques (own first, stealing when dry) and drains one burst per
// activation. The spare buffer is reused across bursts, so the steady state
// allocates nothing; its backing array migrates between mailboxes as bursts
// are swapped out and handed back. Trim cannot reach a worker's spare (the
// worker may still be handing it back when a drain already saw the network
// idle), so each activation drops a spare from before the last Trim: one
// load beside the deque lock the acquisition just paid.
func (e *ConcurrentEngine) runWorker(w int) {
	var spare []queued
	var trims uint32
	for {
		n, ok := e.pool.next(w)
		if !ok {
			return
		}
		if t := e.trims.Load(); t != trims {
			trims, spare = t, nil
		}
		spare = e.runNode(w, int(n), spare)
	}
}

// Trim implements Runtime: every empty mailbox and run deque lets go of its
// backing array, and each worker drops its spare burst buffer before its next
// activation.
func (e *ConcurrentEngine) Trim() {
	e.trims.Add(1)
	for _, m := range e.mailboxes {
		m.mu.Lock()
		if len(m.queue) == 0 {
			m.queue = nil
		}
		m.mu.Unlock()
	}
	for i := range e.pool.deques {
		d := &e.pool.deques[i]
		d.mu.Lock()
		if d.head == len(d.buf) {
			d.buf, d.head = nil, 0
		}
		d.mu.Unlock()
	}
}

// runNode drains one burst from node n's mailbox on worker w: take the
// queue in one swap, dispatch every item, deactivate the node (rescheduling
// it if it refilled mid-burst), then release the burst from the ledger and
// the in-flight count.
func (e *ConcurrentEngine) runNode(w, n int, spare []queued) []queued {
	// Record the node→worker affinity before dispatching: sends performed
	// by these dispatches read it (on this same goroutine) to land child
	// activations on this worker's own deque.
	e.nodeWorker[n] = int32(w)
	m := e.mailboxes[n]
	items := m.take(spare)
	h, ctx := e.handlers[n], e.ctxs[n]
	for i := range items {
		dispatch(h, ctx, &items[i])
	}
	if m.finish() {
		e.pool.enqueue(w, int32(n))
	}
	// Release the burst from the ledger, one call per run of equal rounds
	// (a burst rarely mixes more than a couple). Only now — every child the
	// dispatches produced is already counted — may a round read drained.
	zeroed := false
	for i := 0; i < len(items); {
		j := i + 1
		for j < len(items) && items[j].round == items[i].round {
			j++
		}
		if e.led.done(items[i].round, j-i) {
			zeroed = true
		}
		i = j
	}
	if e.inflight.Add(int64(-len(items))) == 0 {
		e.wakeIdle()
	}
	if zeroed {
		e.led.wake()
	}
	// Zero the processed items (so queued subscriptions can be collected)
	// and reuse the array as the next burst's spare backing.
	for i := range items {
		items[i] = queued{}
	}
	return items
}

// submit implements scheduler: an external injection carries no worker
// affinity.
func (e *ConcurrentEngine) submit(item queued) error { return e.submitFrom(&item, -1) }

// submitFrom queues one item. prefer names the scheduler worker whose
// dispatch produced it (its local deque receives the activation), or -1 for
// external injections, which spread round-robin.
func (e *ConcurrentEngine) submitFrom(item *queued, prefer int) error {
	if e.closed.Load() {
		return errClosed
	}
	e.inflight.Add(1)
	// Count the item in the ledger before it becomes reachable: a child
	// produced during a dispatch is therefore counted while its parent is
	// still counted, so a round can only read drained once no item of it
	// can ever exist again.
	e.led.add(item.round)
	activate, ok := e.mailboxes[item.to].push(item)
	if !ok {
		if e.led.done(item.round, 1) {
			e.led.wake()
		}
		if e.inflight.Add(-1) == 0 {
			e.wakeIdle()
		}
		return fmt.Errorf("netsim: node %d mailbox closed", item.to)
	}
	if activate {
		e.pool.enqueue(prefer, int32(item.to))
	}
	return nil
}

// wakeIdle re-checks every drain waiting for the in-flight count.
func (e *ConcurrentEngine) wakeIdle() {
	e.idleMu.Lock()
	e.idleCond.Broadcast()
	e.idleMu.Unlock()
}

// enqueue implements sink (called from dispatches on worker goroutines). A
// failed submit — only possible when a send races engine shutdown — is
// counted as a dropped message so lossy runs are detectable; the conformance
// suite asserts the counter stays zero.
func (e *ConcurrentEngine) enqueue(item queued) {
	if err := e.submitFrom(&item, int(e.nodeWorker[item.from])); err != nil {
		e.metrics.recordDrop()
	}
}

// drain implements scheduler: it blocks until every in-flight item (and
// every item transitively produced by it) has been dispatched, or the
// context is cancelled — the work then keeps running on the workers. A
// context that can never be cancelled takes the hook-free path, so
// steady-state replay loops pay nothing for the hook.
func (e *ConcurrentEngine) drain(ctx context.Context) error {
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		stop := context.AfterFunc(ctx, e.wakeIdle)
		defer stop()
	}
	e.idleMu.Lock()
	for e.inflight.Load() > 0 && ctx.Err() == nil {
		e.idleCond.Wait()
	}
	e.idleMu.Unlock()
	return ctx.Err()
}

// awaitWatermark implements scheduler: it blocks the injector until the
// ledger's watermark reaches the target round, the engine is closed or the
// context is cancelled. Workers wake it whenever a round's count drains to
// zero, Close and the context's hook when they fire.
func (e *ConcurrentEngine) awaitWatermark(ctx context.Context, target int) error {
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, e.led.wake)
		defer stop()
	}
	e.led.wait(target, func() bool { return e.closed.Load() || ctx.Err() != nil })
	return ctx.Err()
}

// stop implements scheduler: mailboxes reject further items and the workers
// exit once the activations already on their deques have run.
func (e *ConcurrentEngine) stop() {
	for _, m := range e.mailboxes {
		m.close()
	}
	e.pool.close()
}
