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
// worker pool decoupled from the topology size. Every node keeps a private
// mailbox, but the scheduled unit is a node *activation* — a push that makes
// a mailbox non-empty appends the node to the engine's one FIFO run queue
// (see runQueue), and a small pool of workers (default GOMAXPROCS) takes
// active nodes from it and drains them burst by burst. Wakeups and ledger
// settlement therefore cost O(active nodes), not O(topology).
//
// How many nodes are active at once is the delivery mode's doing: under
// Quiescent replay at most one event is in flight, so the activations take
// turns; Pipelined keeps a whole round in flight; Windowed keeps up to
// Lag+1 rounds in flight.
//
// The hot delivery path is lock-free with respect to the engine: traffic
// counters and deliveries go to per-node shards (see Metrics and
// deliveryLog), the in-flight accounting is the driver's round ledger (two
// atomics per item and per run of equal rounds in a burst), and the
// per-message lock is the target node's mailbox mutex — which a worker
// drains in batches, one lock round-trip per burst. The run queue's lock
// is taken twice per activation: to queue the node and to take it. Drains
// and the replay loop's watermark gate are one wait on the ledger (await).
type ConcurrentEngine struct {
	driver
	mailboxes []*mailbox
	runs      *runQueue
	trims     atomic.Uint32 // Trim calls, see runWorker
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
	// active records that the node is scheduled: in the run queue, or
	// currently being drained. push reports an activation only on the
	// empty→non-empty transition of an inactive mailbox, so a node is in
	// the run queue at most once and drained by at most one worker at a
	// time.
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
// as the mailbox's next backing array. Only the worker that took the
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

// runQueue is the engine's one queue of activated nodes, taken in FIFO order
// by the worker pool. A node is in it at most once (mailbox.active), so a
// ring of one slot per node never overflows, and activations never allocate.
// No wakeup is lost: a worker waits only after seeing the ring empty under
// the lock, and Wait registers it before releasing the lock, so the push
// that next takes the lock is followed by a Signal that reaches it.
type runQueue struct {
	mu     sync.Mutex
	ready  sync.Cond
	ring   []int32
	head   int // slot of the oldest queued node
	n      int // queued nodes
	closed bool
}

func newRunQueue(nodes int) *runQueue {
	q := &runQueue{ring: make([]int32, nodes)}
	q.ready.L = &q.mu
	return q
}

func (q *runQueue) push(node int32) {
	q.mu.Lock()
	if q.n == len(q.ring) {
		q.mu.Unlock()
		panic("netsim: run queue overflow")
	}
	tail := q.head + q.n
	if tail >= len(q.ring) {
		tail -= len(q.ring)
	}
	q.ring[tail] = node
	q.n++
	q.mu.Unlock()
	q.ready.Signal()
}

// next blocks until a node is queued (returning it) or the queue is closed
// AND empty (returning false): activations queued before close still run.
func (q *runQueue) next() (int32, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		if q.closed {
			return 0, false
		}
		q.ready.Wait()
	}
	node := q.ring[q.head]
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	return node, true
}

func (q *runQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.ready.Broadcast()
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
// topology, executed by a pool of the given number of workers sharing one
// run queue (see EffectiveWorkers for how the count is resolved; 0 selects
// GOMAXPROCS). Callers must Close the engine when done.
func NewConcurrentEngineWorkers(graph *topology.Graph, factory HandlerFactory, workers int) *ConcurrentEngine {
	n := graph.NumNodes()
	e := &ConcurrentEngine{
		mailboxes: make([]*mailbox, n),
		runs:      newRunQueue(n),
	}
	for i := range e.mailboxes {
		e.mailboxes[i] = &mailbox{}
	}
	e.driver.init(graph, factory, e, n, false)
	for w := EffectiveWorkers(workers, n); w > 0; w-- {
		go e.runWorker()
	}
	return e
}

// runWorker is one pooled scheduler worker: it takes activated nodes from
// the run queue and drains one burst per activation. The spare buffer is
// reused across bursts, so the steady state allocates nothing; its backing
// array migrates between mailboxes as bursts are swapped out and handed
// back. Trim cannot reach a worker's spare (the worker may still be handing
// it back when a drain already saw the network idle), so each activation
// drops a spare from before the last Trim: one load beside the run-queue
// lock the activation just paid.
func (e *ConcurrentEngine) runWorker() {
	var spare []queued
	var trims uint32
	for {
		n, ok := e.runs.next()
		if !ok {
			return
		}
		if t := e.trims.Load(); t != trims {
			trims, spare = t, nil
		}
		spare = e.runNode(int(n), spare)
	}
}

// Trim implements Runtime: every empty mailbox lets go of its backing array,
// and each worker drops its spare burst buffer before its next activation.
// The run queue is a fixed ring of one slot per node and has nothing to
// release.
func (e *ConcurrentEngine) Trim() {
	e.trims.Add(1)
	for _, m := range e.mailboxes {
		m.mu.Lock()
		if len(m.queue) == 0 {
			m.queue = nil
		}
		m.mu.Unlock()
	}
}

// runNode drains one burst from node n's mailbox: take the queue in one
// swap, dispatch every item, deactivate the node (rescheduling it if it
// refilled mid-burst), then release the burst from the ledger.
func (e *ConcurrentEngine) runNode(n int, spare []queued) []queued {
	m := e.mailboxes[n]
	items := m.take(spare)
	h, ctx := e.handlers[n], e.ctxs[n]
	for i := range items {
		dispatch(h, ctx, &items[i])
	}
	if m.finish() {
		e.runs.push(int32(n))
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

// submit implements scheduler.
func (e *ConcurrentEngine) submit(item queued) error { return e.add(&item) }

// add queues one item, activating its node if the mailbox was idle.
func (e *ConcurrentEngine) add(item *queued) error {
	if e.closed.Load() {
		return errClosed
	}
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
		return fmt.Errorf("netsim: node %d mailbox closed", item.to)
	}
	if activate {
		e.runs.push(int32(item.to))
	}
	return nil
}

// enqueue implements sink (called from dispatches on worker goroutines). A
// failed add — only possible when a send races engine shutdown — is counted
// as a dropped message so lossy runs are detectable; the conformance suite
// asserts the counter stays zero.
func (e *ConcurrentEngine) enqueue(item queued) {
	if err := e.add(&item); err != nil {
		e.metrics.recordDrop()
	}
}

// await implements scheduler: it blocks on the ledger until the target is
// reached or the context is cancelled (the work then keeps running on the
// workers). A watermark wait also gives up on Close, after which the gated
// replay can inject nothing more; a drain still waits out the items queued
// before Close, which the workers run before they exit. A context that can
// never be cancelled takes the hook-free path, so steady-state replay loops
// pay nothing for the hook.
func (e *ConcurrentEngine) await(ctx context.Context, target int) error {
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, e.led.wake)
		defer stop()
	}
	e.led.wait(target, func() bool {
		return ctx.Err() != nil || (target != drained && e.closed.Load())
	})
	return ctx.Err()
}

// stop implements scheduler: mailboxes reject further items and the workers
// exit once the activations already in the run queue have run.
func (e *ConcurrentEngine) stop() {
	for _, m := range e.mailboxes {
		m.close()
	}
	e.runs.close()
}
