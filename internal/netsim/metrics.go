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
// Deliveries are not recorded here a second time: DeliveredSeqs is a
// read-time view over the engine's delivery log.
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

// metricsShard holds one node's traffic counters. The trailing pad
// keeps neighbouring shards out of each other's cache lines, so per-node
// writers do not false-share.
type metricsShard struct {
	mu sync.Mutex
	Snapshot
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
		s.AdvertisementLoad += units
	case KindSubscription:
		s.SubscriptionLoad += units
	case KindUnsubscription:
		s.UnsubscriptionLoad += units
	case KindEvent:
		s.EventLoad += units
	case KindPartialAggregate:
		s.PartialAggregateLoad += units
		s.PartialAggregateBytes += units * encodedAggBytes(msg.Agg)
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

// Snapshot is the one record of the traffic counters: each node's shard
// keeps one, and Metrics.Snapshot returns a copy merged across the shards.
// Every counter counts link traversals.
type Snapshot struct {
	// AdvertisementLoad counts forwarded advertisements.
	AdvertisementLoad int64
	// SubscriptionLoad counts forwarded subscriptions and operators.
	SubscriptionLoad int64
	// UnsubscriptionLoad counts forwarded retractions: control traffic
	// accounted apart so that the paper's subscription-load figures are
	// unaffected by churn.
	UnsubscriptionLoad int64
	// EventLoad counts forwarded data units (simple events).
	EventLoad int64
	// PartialAggregateLoad counts forwarded windowed partial aggregates (the
	// exact baseline's relayed raw readings count here too), accounted
	// apart from EventLoad.
	PartialAggregateLoad int64
	// PartialAggregateBytes accumulates the encoded wire size of those
	// messages: the bytes-upstream axis of the error-vs-traffic experiment.
	PartialAggregateBytes int64
}

// Snapshot returns the current traffic counters.
func (m *Metrics) Snapshot() Snapshot {
	var snap Snapshot
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		snap.AdvertisementLoad += s.AdvertisementLoad
		snap.SubscriptionLoad += s.SubscriptionLoad
		snap.UnsubscriptionLoad += s.UnsubscriptionLoad
		snap.EventLoad += s.EventLoad
		snap.PartialAggregateLoad += s.PartialAggregateLoad
		snap.PartialAggregateBytes += s.PartialAggregateBytes
		s.mu.Unlock()
	}
	return snap
}
