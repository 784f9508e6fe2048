package netsim

import (
	"sync"
	"sync/atomic"
)

// Watermark accounting.
//
// Every queued item (an injected publication or a link message) carries the
// replay round it belongs to: injections are stamped with the round being
// injected, and a message produced while dispatching a round-r item inherits
// round r (lineage, not the round of the event payload — forwarding a stored
// round-(r-1) component during a round-r cascade is round-r work). Because a
// child item is always accounted before its parent is released, the count of
// in-flight items per round can only reach zero once no item of that round
// can ever exist again. That makes the watermark — the highest round R such
// that every round <= R is fully injected and has zero in-flight items —
// monotone, and retiring a round on it is safe: no message of that round is
// queued anywhere, and none can be created.
//
// Both engines account into one roundLedger each, through the same three
// calls: the scheduler counts an item (add) before it becomes reachable and
// releases it (done) after its dispatch returned, and the replay driver
// marks a round fully injected (markInjected). Everything that reads the
// watermark — the injection gate of the replay loop, the ticks that close
// aggregate windows, Runtime.Watermark — derives it from that ledger.

// ledgerRingSize is the number of per-round counters. Rounds share a slot
// modulo the ring size, which is safe because the rounds that can hold
// in-flight items at once span at most MaxReplayLag+2 consecutive numbers
// (the replay loop injects round r only after the watermark reached
// r-1-Lag), far fewer than the ring has slots.
const ledgerRingSize = 1024

// roundLedger counts in-flight items per replay round and derives the
// watermark from the counts. add and done are lock-free and may be called
// from any goroutine; the cursor pair is guarded by mu.
type roundLedger struct {
	// ring[r%ledgerRingSize] is the number of in-flight items of round r.
	ring [ledgerRingSize]atomic.Int64

	mu sync.Mutex
	// advanced is broadcast (under mu) by wake; only the concurrent
	// engine's gate waits on it.
	advanced sync.Cond
	// retired is the watermark: every round <= retired is fully injected
	// and drained. It only ever moves forward, so a slot re-used by a much
	// later round can never un-retire an earlier one.
	retired int
	// injected is the highest round whose injections have all been queued.
	// The watermark never advances past it, so a round with no events (or a
	// round whose events produced no messages) still retires only once its
	// injection is complete.
	injected int
	// waiters counts the callers of wait; it keeps wake off mu whenever
	// nobody is waiting.
	waiters atomic.Int32
}

// init readies a zero ledger for use; a ledger must not be copied after it.
func (l *roundLedger) init() { l.advanced.L = &l.mu }

// add accounts one in-flight item of the given round. Call it before the
// item becomes reachable by whoever will dispatch it.
func (l *roundLedger) add(round int) { l.ring[round%ledgerRingSize].Add(1) }

// done releases n dispatched items of the given round and reports whether
// the round's count drained to zero — the only transition that can advance
// the watermark.
func (l *roundLedger) done(round, n int) bool {
	return l.ring[round%ledgerRingSize].Add(int64(-n)) == 0
}

// markInjected records that every event of the given round has been queued.
func (l *roundLedger) markInjected(round int) {
	l.mu.Lock()
	if round > l.injected {
		l.injected = round
	}
	l.mu.Unlock()
}

// watermark returns the highest retired round.
func (l *roundLedger) watermark() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.advanceLocked()
}

// advanceLocked walks the retired cursor over consecutive drained rounds up
// to the injection frontier and returns it. Rounds retire in order, so each
// call touches at most the rounds currently in flight. Callers hold mu.
func (l *roundLedger) advanceLocked() int {
	for l.retired < l.injected && l.ring[(l.retired+1)%ledgerRingSize].Load() == 0 {
		l.retired++
	}
	return l.retired
}

// wait blocks until the watermark has reached target or giveUp reports true,
// and returns the watermark. giveUp is evaluated at entry and after every
// wake. Raising waiters before the first check under mu closes the
// missed-wakeup window: a scheduler that read zero waiters after draining a
// round did so before this check reads the ring.
func (l *roundLedger) wait(target int, giveUp func() bool) int {
	l.waiters.Add(1)
	l.mu.Lock()
	wm := l.advanceLocked()
	for wm < target && !giveUp() {
		l.advanced.Wait()
		wm = l.advanceLocked()
	}
	l.mu.Unlock()
	l.waiters.Add(-1)
	return wm
}

// wake makes every waiter re-check the watermark and its giveUp. Schedulers
// call it after done reported a drained round; whoever changes what a giveUp
// reads calls it after the change.
func (l *roundLedger) wake() {
	if l.waiters.Load() == 0 {
		return
	}
	l.mu.Lock()
	l.advanced.Broadcast()
	l.mu.Unlock()
}
