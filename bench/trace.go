package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/stores"
	"sensorcq/internal/topology"
)

// op names one handler entry point of netsim.Handler; the per-layer metrics
// core.<op>.busy_s / .calls are keyed by it.
type op int

const (
	opLocalSensor op = iota
	opLocalSubscribe
	opLocalUnsubscribe
	opLocalPublish
	opHandleAdvertisement
	opHandleSubscription
	opHandleUnsubscription
	opHandleEvent
	opHandlePartialAggregate
	opHandleWatermark
	numOps
)

var opNames = [numOps]string{
	"local_sensor", "local_subscribe", "local_unsubscribe", "local_publish",
	"handle_advertisement", "handle_subscription", "handle_unsubscription",
	"handle_event", "handle_partial_aggregate", "handle_watermark",
}

// spanSampleEvery keeps the full span record of one identifier in this many
// (reading sequence numbers, or hashed subscription / sensor IDs); count and
// busy time are aggregated for every call.
const spanSampleEvery = 1024

// span is one recorded handler call. ID is the shared identifier of the
// request that caused it: the reading's Seq for event spans, the hashed
// subscription or sensor ID for control spans (Cause holds the readable ID).
type span struct {
	Name    string `json:"name"`
	Node    int    `json:"node"`
	ID      uint64 `json:"id"`
	Cause   string `json:"cause,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// traceShard is one node's slice of the recorder. The engines run a node's
// handler on at most one goroutine at a time, so a shard has a single writer
// and needs no lock; the pad keeps neighbouring shards off each other's
// cache lines under the concurrent engine.
type traceShard struct {
	calls [numOps]int64
	busy  [numOps]int64 // nanoseconds
	event histogram     // handle_event span durations
	spans []span
	_     [64]byte
}

// recorder aggregates handler spans for one traced engine. Read it only
// after the engine has been flushed.
type recorder struct {
	epoch  time.Time
	shards []traceShard
}

func newRecorder(nodes int) *recorder {
	return &recorder{epoch: time.Now(), shards: make([]traceShard, nodes)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// wrap decorates a handler factory so every handler it builds records a span
// per call into the node's shard. A nil recorder leaves the factory as it is.
func (r *recorder) wrap(factory netsim.HandlerFactory) netsim.HandlerFactory {
	if r == nil {
		return factory
	}
	return func(node topology.NodeID) netsim.Handler {
		inner := factory(node)
		h := &tracingHandler{inner: inner, rec: r, sh: &r.shards[node], node: int(node)}
		h.agg, _ = inner.(netsim.AggregateHandler)
		h.wm, _ = inner.(netsim.WatermarkHandler)
		return h
	}
}

// opTotals sums one op over all shards.
func (r *recorder) opTotals(o op) (calls int64, busy time.Duration) {
	for i := range r.shards {
		calls += r.shards[i].calls[o]
		busy += time.Duration(r.shards[i].busy[o])
	}
	return calls, busy
}

// busyTotal is the summed busy time of every handler call.
func (r *recorder) busyTotal() time.Duration {
	var total time.Duration
	for o := op(0); o < numOps; o++ {
		_, busy := r.opTotals(o)
		total += busy
	}
	return total
}

func (r *recorder) eventHistogram() *histogram {
	var h histogram
	for i := range r.shards {
		h.merge(&r.shards[i].event)
	}
	return &h
}

func (r *recorder) spans() []span {
	var out []span
	for i := range r.shards {
		out = append(out, r.shards[i].spans...)
	}
	return out
}

// endSetUp splits a traced pass into its set-up and its timed region: it
// returns a copy of everything recorded so far and starts over, keeping the
// epoch so later spans stay on one clock. A nil recorder yields nil.
func (r *recorder) endSetUp() *recorder {
	if r == nil {
		return nil
	}
	setUp := &recorder{epoch: r.epoch, shards: append([]traceShard(nil), r.shards...)}
	for i := range r.shards {
		r.shards[i] = traceShard{}
	}
	return setUp
}

// tracingHandler delegates every netsim.Handler call to the approach's own
// handler and records its span. It always offers the optional aggregate and
// watermark entry points and forwards them only when the wrapped handler
// has them — the engines drop those items for a handler without the
// capability, and so does this.
type tracingHandler struct {
	inner netsim.Handler
	agg   netsim.AggregateHandler
	wm    netsim.WatermarkHandler
	rec   *recorder
	sh    *traceShard
	node  int
}

var (
	_ netsim.Handler          = (*tracingHandler)(nil)
	_ netsim.AggregateHandler = (*tracingHandler)(nil)
	_ netsim.WatermarkHandler = (*tracingHandler)(nil)
)

// hashID is FNV-1a over the ID's bytes, written out so the per-call path
// allocates nothing.
func hashID(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func (h *tracingHandler) done(o op, start int64, id uint64, cause string) {
	end := h.rec.now()
	h.sh.calls[o]++
	h.sh.busy[o] += end - start
	if o == opHandleEvent {
		h.sh.event.add(end - start)
	}
	if id%spanSampleEvery == 0 {
		h.sh.spans = append(h.sh.spans, span{
			Name: "core." + opNames[o], Node: h.node, ID: id, Cause: cause, StartNS: start, EndNS: end,
		})
	}
}

func (h *tracingHandler) Init(ctx *netsim.Context) { h.inner.Init(ctx) }

func (h *tracingHandler) LocalSensor(ctx *netsim.Context, sensor model.Sensor) {
	start := h.rec.now()
	h.inner.LocalSensor(ctx, sensor)
	h.done(opLocalSensor, start, hashID(string(sensor.ID)), string(sensor.ID))
}

func (h *tracingHandler) LocalSubscribe(ctx *netsim.Context, sub *model.Subscription) {
	start := h.rec.now()
	h.inner.LocalSubscribe(ctx, sub)
	h.done(opLocalSubscribe, start, hashID(string(sub.Root)), string(sub.Root))
}

func (h *tracingHandler) LocalUnsubscribe(ctx *netsim.Context, id model.SubscriptionID) {
	start := h.rec.now()
	h.inner.LocalUnsubscribe(ctx, id)
	h.done(opLocalUnsubscribe, start, hashID(string(id)), string(id))
}

func (h *tracingHandler) LocalPublish(ctx *netsim.Context, ev model.Event) {
	start := h.rec.now()
	h.inner.LocalPublish(ctx, ev)
	h.done(opLocalPublish, start, ev.Seq, "")
}

func (h *tracingHandler) HandleAdvertisement(ctx *netsim.Context, from topology.NodeID, adv model.Advertisement) {
	start := h.rec.now()
	h.inner.HandleAdvertisement(ctx, from, adv)
	h.done(opHandleAdvertisement, start, hashID(string(adv.Sensor)), string(adv.Sensor))
}

func (h *tracingHandler) HandleSubscription(ctx *netsim.Context, from topology.NodeID, sub *model.Subscription) {
	start := h.rec.now()
	h.inner.HandleSubscription(ctx, from, sub)
	h.done(opHandleSubscription, start, hashID(string(sub.Root)), string(sub.Root))
}

func (h *tracingHandler) HandleUnsubscription(ctx *netsim.Context, from topology.NodeID, id model.SubscriptionID) {
	start := h.rec.now()
	h.inner.HandleUnsubscription(ctx, from, id)
	h.done(opHandleUnsubscription, start, hashID(string(id)), string(id))
}

func (h *tracingHandler) HandleEvent(ctx *netsim.Context, from topology.NodeID, ev model.Event) {
	start := h.rec.now()
	h.inner.HandleEvent(ctx, from, ev)
	h.done(opHandleEvent, start, ev.Seq, "")
}

func (h *tracingHandler) HandlePartialAggregate(ctx *netsim.Context, from topology.NodeID, pa *netsim.PartialAggregate) {
	if h.agg == nil {
		return
	}
	start := h.rec.now()
	h.agg.HandlePartialAggregate(ctx, from, pa)
	h.done(opHandlePartialAggregate, start, hashID(string(pa.SubID)), string(pa.SubID))
}

func (h *tracingHandler) HandleWatermark(ctx *netsim.Context, watermark int) {
	if h.wm == nil {
		return
	}
	start := h.rec.now()
	h.wm.HandleWatermark(ctx, watermark)
	h.done(opHandleWatermark, start, uint64(watermark), "")
}

// IndexStats forwards the diagnostic the facade reads off protocol handlers.
func (h *tracingHandler) IndexStats() stores.IndexStats {
	if s, ok := h.inner.(interface{ IndexStats() stores.IndexStats }); ok {
		return s.IndexStats()
	}
	return stores.IndexStats{}
}

// writeSpans writes the sampled spans of one workload as JSON lines under
// dir, creating it when needed.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
