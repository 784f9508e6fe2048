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

	// eventLoadByRound and subscriptionLoadByRound split the event and
	// subscription loads by lineage round (the replay round whose dispatch
	// cascade produced the send, the same attribution the watermark ledger
	// uses), indexed by round number. They let the experiment harness
	// attribute traffic to round ranges without draining the network to
	// take a snapshot between batches — which is what allows a windowed
	// replay to keep rounds in flight across batch boundaries. Subscription
	// injections joining an open session are stamped with the round current
	// at injection, so a batch subscribed between two replay calls is
	// attributed entirely to the boundary round.
	eventLoadByRound        []int64
	subscriptionLoadByRound []int64

	_ [64]byte
}

// newMetrics returns an empty metrics accumulator with one shard per node,
// whose delivery views read the given log.
func newMetrics(nodes int, log *deliveryLog) *Metrics {
	return &Metrics{shards: make([]metricsShard, nodes), log: log}
}

// recordSend counts one send in the sending node's shard.
func (m *Metrics) recordSend(from topology.NodeID, msg *Message, round int) {
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
		s.subscriptionLoadByRound = addByRound(s.subscriptionLoadByRound, round, units)
	case KindUnsubscription:
		s.unsubscriptionLoad += units
	case KindEvent:
		s.eventLoad += units
		s.eventLoadByRound = addByRound(s.eventLoadByRound, round, units)
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

// addByRound accumulates units into the per-round counter slice, growing it
// on demand. New rounds first re-expose spare capacity (left behind by the
// doubled-capacity growth below, or reserved up front by reserveRounds) and
// only reallocate when none is left, so steady-state replay rounds cost no
// allocations at all once the slice has been sized.
func addByRound(byRound []int64, round int, units int64) []int64 {
	if round < 0 {
		return byRound
	}
	if round >= len(byRound) {
		if round < cap(byRound) {
			grown := byRound[:round+1]
			// The spare region is zero today (append-only growth from zeroed
			// makes), but zero it explicitly so the counter stays correct if
			// a reset path ever truncates the slice.
			for i := len(byRound); i <= round; i++ {
				grown[i] = 0
			}
			byRound = grown
		} else {
			grown := make([]int64, round+1, 2*(round+1))
			copy(grown, byRound)
			byRound = grown
		}
	}
	byRound[round] += units
	return byRound
}

// reserveRounds grows every shard's per-round counters to hold at least n
// rounds of capacity, so a replay of known length records round attributions
// without reallocating mid-flight.
func (m *Metrics) reserveRounds(n int) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		s.eventLoadByRound = growRoundsCap(s.eventLoadByRound, n)
		s.subscriptionLoadByRound = growRoundsCap(s.subscriptionLoadByRound, n)
		s.mu.Unlock()
	}
}

func growRoundsCap(byRound []int64, n int) []int64 {
	if n <= cap(byRound) {
		return byRound
	}
	grown := make([]int64, len(byRound), n)
	copy(grown, byRound)
	return grown
}

// sumRounds folds byRound[lo..hi] (clamped to the recorded range).
func sumRounds(byRound []int64, lo, hi int) int64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(byRound)-1 {
		hi = len(byRound) - 1
	}
	var total int64
	for r := lo; r <= hi; r++ {
		total += byRound[r]
	}
	return total
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

// EventLoadForRounds returns the number of forwarded data units attributed
// to lineage rounds lo..hi inclusive. Lineage attribution matches the
// watermark ledger's: a send performed while dispatching round-r work counts
// towards round r, whatever round the event payload was injected in. Under
// quiescent and pipelined replay the network drains between rounds, so the
// sum over a round range equals the snapshot difference across it; under
// windowed replay it is the only exact per-range accounting, since rounds
// overlap and no quiescent instant exists to snapshot at.
func (m *Metrics) EventLoadForRounds(lo, hi int) int64 {
	return m.sum(func(s *metricsShard) int64 { return sumRounds(s.eventLoadByRound, lo, hi) })
}

// SubscriptionLoadForRounds returns the number of forwarded subscriptions
// and operators attributed to lineage rounds lo..hi inclusive. Subscription
// injections are stamped with the round current at injection, so the
// cumulative subscription load after a batch injected at round boundary r is
// SubscriptionLoadForRounds(0, r) — exact once round r has retired, even
// while later rounds are still in flight in an open windowed session.
func (m *Metrics) SubscriptionLoadForRounds(lo, hi int) int64 {
	return m.sum(func(s *metricsShard) int64 { return sumRounds(s.subscriptionLoadByRound, lo, hi) })
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
