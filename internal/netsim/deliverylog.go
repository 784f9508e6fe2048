package netsim

import (
	"sync"
	"sync/atomic"

	"sensorcq/internal/model"
)

// deliveryLog is the one record of what reached the users, under both
// engines: an append-only log, a per-subscription index of positions into
// it, and the push observer. The driver embeds it, which is how both engines
// implement the delivery part of Runtime; Metrics.DeliveredSeqs is a
// read-time view over the same index.
//
// The engine kind only picks the shard count: one on the sequential engine,
// so Deliveries() is in delivery order; one per node on the concurrent
// engine, where a node's dispatches are serialised by its activation, so a
// shard never sees concurrent appends and its mutex is uncontended on the
// hot path (it exists so that readers are race-free mid-replay).
type deliveryLog struct {
	shards []deliveryShard
	// observer is atomic so installing it does not race the workers.
	observer atomic.Pointer[func(Delivery)]
}

// deliveryShard is padded so neighbouring shards do not false-share a cache
// line. bySub holds, per subscription, the positions of its deliveries in
// log.
type deliveryShard struct {
	mu    sync.Mutex
	log   []Delivery
	bySub map[model.SubscriptionID][]int
	_     [64]byte
}

func (l *deliveryLog) init(shards int) {
	l.shards = make([]deliveryShard, shards)
	for i := range l.shards {
		l.shards[i].bySub = map[model.SubscriptionID][]int{}
	}
}

// deliver records one delivery, already stamped with its round, in the
// delivering node's shard (node modulo shards: the only shard of the
// sequential log, the node's own otherwise) and pushes it to the observer.
func (l *deliveryLog) deliver(d Delivery) {
	s := &l.shards[int(d.Node)%len(l.shards)]
	s.mu.Lock()
	s.bySub[d.SubID] = append(s.bySub[d.SubID], len(s.log))
	s.log = append(s.log, d)
	s.mu.Unlock()
	if fn := l.observer.Load(); fn != nil {
		(*fn)(d)
	}
}

// locked calls fn with every shard in order, holding the shard's lock.
func (l *deliveryLog) locked(fn func(s *deliveryShard)) {
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		fn(s)
		s.mu.Unlock()
	}
}

// Deliveries implements Runtime: the shards in order, which is delivery
// order on the single-shard log and node order otherwise.
func (l *deliveryLog) Deliveries() []Delivery {
	var out []Delivery
	l.locked(func(s *deliveryShard) { out = append(out, s.log...) })
	return out
}

// eachFor calls fn with every indexed delivery of one subscription, at a
// cost proportional to the subscription's own deliveries (plus one lookup
// per shard).
func (l *deliveryLog) eachFor(id model.SubscriptionID, fn func(Delivery)) {
	l.locked(func(s *deliveryShard) {
		for _, pos := range s.bySub[id] {
			fn(s.log[pos])
		}
	})
}

// DeliveriesFor implements Runtime.
func (l *deliveryLog) DeliveriesFor(id model.SubscriptionID) []Delivery {
	var out []Delivery
	l.eachFor(id, func(d Delivery) { out = append(out, d) })
	return out
}

// EvictDeliveries implements Runtime: the log keeps its entries. Callers
// should be quiescent with respect to this subscription (retraction fully
// propagated), which System guarantees by flushing before eviction.
func (l *deliveryLog) EvictDeliveries(id model.SubscriptionID) {
	l.locked(func(s *deliveryShard) { delete(s.bySub, id) })
}

// SetDeliveryObserver implements Runtime.
func (l *deliveryLog) SetDeliveryObserver(fn func(Delivery)) {
	if fn == nil {
		l.observer.Store(nil)
		return
	}
	l.observer.Store(&fn)
}

// reserve grows every shard's log and index entries to absorb roughly mult
// repetitions of what they hold without reallocating.
func (l *deliveryLog) reserve(mult int) {
	l.locked(func(s *deliveryShard) {
		if n := len(s.log) * (mult + 1); n > cap(s.log) {
			s.log = append(make([]Delivery, 0, n), s.log...)
		}
		for id, idxs := range s.bySub {
			if n := len(idxs) * (mult + 1); n > cap(idxs) {
				s.bySub[id] = append(make([]int, 0, n), idxs...)
			}
		}
	})
}
