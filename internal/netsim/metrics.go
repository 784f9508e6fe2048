package netsim

import (
	"sync"
	"sync/atomic"

	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// Metrics accumulates the traffic counters of one simulation run. It is safe
// for concurrent use: the counters are sharded per node, and recording a
// send touches only the sending node's shard. Each shard is written by
// exactly one worker goroutine of the concurrent engine at a time, so the
// per-shard mutex is uncontended on the hot path (it exists so that
// merge-on-read accessors are race-free while a replay is still in flight).
// This is what removed the single metrics mutex every node used to funnel
// through under pipelined/windowed replay.
//
// Deliveries are not recorded here a second time: DeliveredSeqs and
// ComplexDeliveries are read-time views over the engine's delivery log.
//
// The two headline metrics correspond directly to the paper's figures:
// SubscriptionLoad is the "number of forwarded queries" (Figs. 4, 6, 8, 10)
// and EventLoad is the "number of forwarded data units" (Figs. 5, 7, 9, 11).
type Metrics struct {
	shards  []metricsShard
	dropped atomic.Int64
	// log is the engine's delivery log, which the delivery views read.
	log *deliveryLog
}

// metricsShard holds one node's slice of every counter. The trailing pad
// keeps neighbouring shards out of each other's cache lines, so per-node
// writers do not false-share.
type metricsShard struct {
	mu sync.Mutex

	advertisementLoad  int64
	subscriptionLoad   int64
	unsubscriptionLoad int64
	eventLoad          int64

	// partialAggregateLoad counts link traversals of windowed partial
	// aggregates (and of the exact baseline's relayed raw readings);
	// partialAggregateBytes accumulates their encoded wire sizes, the unit
	// of the bytes-upstream axis of the error-vs-traffic experiment. Both
	// are deliberately kept out of eventLoad so the paper's data-unit
	// figures are unaffected by aggregate queries.
	partialAggregateLoad  int64
	partialAggregateBytes int64

	_ [64]byte
}

// newMetrics returns an empty metrics accumulator with one shard per node,
// whose delivery views read the given log.
func newMetrics(nodes int, log *deliveryLog) *Metrics {
	return &Metrics{shards: make([]metricsShard, nodes), log: log}
}

// recordSend counts one send in the sending node's shard.
func (m *Metrics) recordSend(from topology.NodeID, msg *Message) {
	units := msg.Units
	if units <= 0 {
		units = 1
	}
	s := &m.shards[from]
	s.mu.Lock()
	defer s.mu.Unlock()
	switch msg.Kind {
	case KindAdvertisement:
		s.advertisementLoad += units
	case KindSubscription:
		s.subscriptionLoad += units
	case KindUnsubscription:
		s.unsubscriptionLoad += units
	case KindEvent:
		s.eventLoad += units
	case KindPartialAggregate:
		s.partialAggregateLoad += units
		s.partialAggregateBytes += units * encodedAggBytes(msg.Agg)
	}
}

// rawReadingBytes is the accounted wire size of one relayed raw reading
// (attribute tag, value, location, round stamp) in the exact
// ship-every-reading baseline.
const rawReadingBytes = 32

// encodedAggBytes returns the accounted wire size of one partial-aggregate
// message.
func encodedAggBytes(pa *PartialAggregate) int64 {
	if pa == nil {
		return 0
	}
	if pa.Raw || pa.State == nil {
		return rawReadingBytes
	}
	return int64(pa.State.EncodedSize())
}

// recordDrop counts a message an engine failed to enqueue.
func (m *Metrics) recordDrop() { m.dropped.Add(1) }

// DroppedMessages returns the number of messages an engine failed to enqueue
// (for example a send racing engine shutdown). A run whose dropped count is
// non-zero lost traffic and must not be compared against a lossless run; the
// conformance suite asserts it is zero.
func (m *Metrics) DroppedMessages() int64 { return m.dropped.Load() }

// sum folds one int64 field across every shard.
func (m *Metrics) sum(get func(*metricsShard) int64) int64 {
	var total int64
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		total += get(s)
		s.mu.Unlock()
	}
	return total
}

// AdvertisementLoad returns the number of advertisement link traversals.
func (m *Metrics) AdvertisementLoad() int64 {
	return m.sum(func(s *metricsShard) int64 { return s.advertisementLoad })
}

// SubscriptionLoad returns the number of forwarded subscriptions/operators
// (one per link traversal).
func (m *Metrics) SubscriptionLoad() int64 {
	return m.sum(func(s *metricsShard) int64 { return s.subscriptionLoad })
}

// UnsubscriptionLoad returns the number of forwarded retraction messages
// (one per link traversal). Retractions are control traffic generated by
// Unsubscribe; they are accounted separately so that the paper's
// subscription-load figures are unaffected by churn.
func (m *Metrics) UnsubscriptionLoad() int64 {
	return m.sum(func(s *metricsShard) int64 { return s.unsubscriptionLoad })
}

// EventLoad returns the number of forwarded data units (simple events, one
// per link traversal).
func (m *Metrics) EventLoad() int64 {
	return m.sum(func(s *metricsShard) int64 { return s.eventLoad })
}

// PartialAggregateLoad returns the number of forwarded windowed partial
// aggregates (one per link traversal; the exact baseline's relayed raw
// readings count here too). Accounted separately from EventLoad.
func (m *Metrics) PartialAggregateLoad() int64 {
	return m.sum(func(s *metricsShard) int64 { return s.partialAggregateLoad })
}

// PartialAggregateBytes returns the accumulated encoded wire size of every
// forwarded partial aggregate — the bytes-upstream axis of the
// error-vs-traffic experiment.
func (m *Metrics) PartialAggregateBytes() int64 {
	return m.sum(func(s *metricsShard) int64 { return s.partialAggregateBytes })
}

// DeliveredSeqs returns the set of simple-event sequence numbers that reached
// the given user subscription as part of some complex event, read from the
// delivery log's per-subscription index (empty once the subscription's
// deliveries were evicted). Recall compares it against the oracle's
// expectation.
func (m *Metrics) DeliveredSeqs(sub model.SubscriptionID) map[uint64]bool {
	out := map[uint64]bool{}
	m.log.eachFor(sub, func(d Delivery) {
		for _, e := range d.Events {
			out[e.Seq] = true
		}
	})
	return out
}

// ComplexDeliveries returns the number of notifications delivered for the
// given subscription, read like DeliveredSeqs.
func (m *Metrics) ComplexDeliveries(sub model.SubscriptionID) int64 {
	var n int64
	m.log.eachFor(sub, func(Delivery) { n++ })
	return n
}

// Snapshot is an immutable copy of the headline counters, convenient for
// recording a time series during an experiment.
type Snapshot struct {
	AdvertisementLoad    int64
	SubscriptionLoad     int64
	UnsubscriptionLoad   int64
	EventLoad            int64
	PartialAggregateLoad int64
}

// Snapshot returns the current headline counters (merged across shards).
func (m *Metrics) Snapshot() Snapshot {
	var snap Snapshot
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		snap.AdvertisementLoad += s.advertisementLoad
		snap.SubscriptionLoad += s.subscriptionLoad
		snap.UnsubscriptionLoad += s.unsubscriptionLoad
		snap.EventLoad += s.eventLoad
		snap.PartialAggregateLoad += s.partialAggregateLoad
		s.mu.Unlock()
	}
	return snap
}
