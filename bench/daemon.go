package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sensorcq"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/server"
)

var daemonSaturate = &workload{
	name:    "daemon-saturate",
	why:     "cqd's default network behind HTTP on loopback, one publisher posting NDJSON rounds in a closed loop and one SSE reader: the first number that includes wire decode, the server mutex, PublishBatch, handle push and SSE encode",
	minCPUs: 2,
	gated: map[string]string{
		"throughput_per_s": "ingest_events_per_s",
		"latency_p50_ms":   "request_latency_p50_ms",
		"latency_p95_ms":   "request_latency_p95_ms",
	},
	run: func(w *workload, rc *runContext) (*workloadReport, error) { return runDaemon(w, rc, false) },
}

var daemonPaced = &workload{
	name:    "daemon-paced",
	why:     "the same daemon under an open loop at a fixed 300 rounds/s, each delivery clocked from when its round was due: sensors publish on their own schedule, so this is the service-level latency",
	minCPUs: 2,
	gated: map[string]string{
		"throughput_per_s": "ingest_events_per_s",
		"latency_p50_ms":   "delivery_latency_p50_ms",
		"latency_p95_ms":   "delivery_latency_p95_ms",
	},
	run: func(w *workload, rc *runContext) (*workloadReport, error) { return runDaemon(w, rc, true) },
}

// daemonShape is cqd's default deployment.
var daemonShape = shape{nodes: 60, sensors: 50, groups: 10, subs: 100}

const (
	daemonSetUps = 15
	// daemonRefDays is how many leading days the library reference run
	// covers; the daemon's deliveries of those rounds must equal it.
	daemonRefDays = 10
	// daemonStateDay is the day after which the closed loop pauses to read
	// state_mb.
	daemonStateDay = 20
	// pacedRate is the open loop's offered rate in rounds (batches) per
	// second: 15 000 readings/s, a third of what the closed loop sustains on
	// the machine the benchmark was sized on. The work per round follows the
	// trace's diurnal cycle; at 400 rounds/s the daily peak alone saturates
	// the server and the tail measures how long that backlog happens to get.
	pacedRate = 300
	// streamSinkBuffer is the sink the streamed subscription asks for; the
	// default of 64 with drop-newest would turn one reader stall into lost
	// frames.
	streamSinkBuffer = 1024
)

// reference is the library run the daemon is checked against: the same
// subscriptions and the same leading rounds, one PublishBatch-equivalent
// call per round.
type reference struct {
	rounds     int
	deliveries []netsim.Delivery // every delivery of those rounds
	streamed   model.SubscriptionID
	batch      samples // per round
	subscribe  samples
	span       time.Duration
}

// runReference replays the leading days through the library and picks the
// subscription with the most deliveries as the one to stream. With a
// recorder it runs on a bare engine under the tracing handler, which makes
// it the child span of the server's handler.
func runReference(rc *runContext, rec *recorder) (*reference, *recorder, error) {
	build := func(in *inputs) (network, error) { return newSystemNet(in, engineConfig{}, sensorcq.WithSinkBuffer(0)) }
	if rec != nil {
		build = func(in *inputs) (network, error) { return newEngineNet(in, engineConfig{}, rec) }
	}
	inst, err := setUpReplay(rc, daemonShape, build)
	if err != nil {
		return nil, nil, err
	}
	defer inst.net.close()
	setUp := rec.endSetUp()
	src, err := inst.in.rounds()
	if err != nil {
		return nil, nil, err
	}
	ref := &reference{rounds: daemonRefDays * roundsPerDay, subscribe: inst.subscribe}
	for _, round := range src.next(ref.rounds, true) {
		t0 := time.Now()
		if err := inst.net.replay([][]model.Event{round}); err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		ref.batch.add(d)
		ref.span += d
	}
	ref.deliveries = inst.net.deliveries()
	counts := map[model.SubscriptionID]int{}
	for _, d := range ref.deliveries {
		counts[d.SubID]++
	}
	for _, p := range inst.in.placed {
		if counts[p.Sub.ID] > counts[ref.streamed] || ref.streamed == "" {
			ref.streamed = p.Sub.ID
		}
	}
	return ref, setUp, nil
}

// httpSpan is one request seen by the middleware.
type httpSpan struct {
	method, path string
	start, end   time.Time
}

// middleware records a span around every request the server handles. It
// passes the ResponseWriter through untouched, so streaming keeps working.
type middleware struct {
	next  http.Handler
	mu    sync.Mutex
	spans []httpSpan
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	m.next.ServeHTTP(w, r)
	end := time.Now()
	m.mu.Lock()
	m.spans = append(m.spans, httpSpan{r.Method, r.URL.Path, start, end})
	m.mu.Unlock()
}

func (m *middleware) matching(method, path string) []httpSpan {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []httpSpan
	for _, s := range m.spans {
		if s.method == method && s.path == path {
			out = append(out, s)
		}
	}
	return out
}

// daemon is one served System with its load generator's client.
type daemon struct {
	in        *inputs
	sys       *sensorcq.System
	srv       *server.Server
	ts        *httptest.Server
	client    *http.Client
	mw        *middleware
	newSystem time.Duration
	register  samples
}

// specOf renders a generated subscription as the JSON POST /subscriptions
// takes. Floats survive the round trip exactly, so the daemon registers the
// very subscription the reference run does.
func specOf(p sensorcq.PlacedSubscription, sinkBuffer int) server.SubscriptionSpec {
	node := int(p.Node)
	spec := server.SubscriptionSpec{
		ID:     string(p.Sub.ID),
		Node:   &node,
		DeltaT: int64(p.Sub.DeltaT),
		Region: &server.RegionSpec{X0: p.Sub.Region.X.Min, Y0: p.Sub.Region.Y.Min, X1: p.Sub.Region.X.Max, Y1: p.Sub.Region.Y.Max},
	}
	for _, a := range p.Sub.Attributes() {
		f := p.Sub.AttrFilters[a]
		spec.Attributes = append(spec.Attributes, server.AttrFilterSpec{Attr: string(a), Min: f.Range.Min, Max: f.Range.Max})
	}
	if sinkBuffer > 0 {
		spec.SinkBuffer = &sinkBuffer
	}
	return spec
}

// setUpDaemon builds the System, serves it over loopback TCP and registers
// the subscription population through POST /subscriptions.
func setUpDaemon(rc *runContext, streamed model.SubscriptionID, traced bool) (*daemon, error) {
	in, err := generateInputs(daemonShape, rc.shapeSeed, rc.seed)
	if err != nil {
		return nil, err
	}
	d := &daemon{in: in}
	start := time.Now()
	d.sys, err = sensorcq.NewSystem(in.dep, sensorcq.Config{Approach: sensorcq.FilterSplitForward, Seed: in.fsfSeed()})
	if err != nil {
		return nil, err
	}
	d.newSystem = time.Since(start)
	d.srv, err = server.New(d.sys, server.Config{})
	if err != nil {
		return nil, err
	}
	handler := d.srv.Handler()
	if traced {
		d.mw = &middleware{next: handler}
		handler = d.mw
	}
	d.ts = httptest.NewServer(handler)
	d.client = d.ts.Client()
	for _, p := range in.placed {
		sink := 0
		if p.Sub.ID == streamed {
			sink = streamSinkBuffer
		}
		body, err := json.Marshal(specOf(p, sink))
		if err != nil {
			d.close()
			return nil, err
		}
		t0 := time.Now()
		if err := d.post("/subscriptions", "application/json", body); err != nil {
			d.close()
			return nil, fmt.Errorf("registering %s: %w", p.Sub.ID, err)
		}
		d.register.add(time.Since(t0))
	}
	return d, nil
}

// post sends one request and drains the response; any non-2xx status is an
// error.
func (d *daemon) post(path, contentType string, body []byte) error {
	resp, err := d.client.Post(d.ts.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %s", path, resp.Status)
	}
	return nil
}

// close drains the server (which ends every stream) and stops the listener.
func (d *daemon) close() {
	if d.srv != nil {
		_ = d.srv.Shutdown(context.Background()) // a second shutdown reports ErrClosed
	}
	if d.ts != nil {
		d.ts.Close()
	}
}

// frame is one delivery read off the SSE stream.
type frame struct {
	round int
	key   string
	at    time.Time
}

// streamReader reads a subscription's SSE stream on its own connection and
// stamps every delivery frame once it is parsed.
type streamReader struct {
	count  atomic.Int64
	done   chan struct{}
	frames []frame // owned by the reader until done is closed
	err    error
}

func openStream(d *daemon, id model.SubscriptionID) (*streamReader, error) {
	resp, err := d.client.Get(d.ts.URL + "/subscriptions/" + string(id) + "/stream")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET stream of %s: %s", id, resp.Status)
	}
	r := &streamReader{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		defer resp.Body.Close()
		r.err = r.read(resp.Body)
	}()
	return r, nil
}

func (r *streamReader) read(body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if event == "end" {
				return nil
			}
		case strings.HasPrefix(line, "data: ") && event == "delivery":
			var wire server.DeliveryWire
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &wire); err != nil {
				return fmt.Errorf("parsing frame: %w", err)
			}
			at := time.Now()
			seqs := make([]uint64, len(wire.Events))
			for i, ev := range wire.Events {
				seqs[i] = ev.Seq
			}
			r.frames = append(r.frames, frame{wire.Round, deliveryKey(wire.Subscription, wire.Round, seqs), at})
			r.count.Add(1)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended without an end frame")
}

// encodeRounds renders each round as one NDJSON body.
func encodeRounds(rounds [][]model.Event) [][]byte {
	bodies := make([][]byte, len(rounds))
	for i, round := range rounds {
		var b bytes.Buffer
		for _, ev := range round {
			b.Write(eventLine(ev))
			b.WriteByte('\n')
		}
		bodies[i] = b.Bytes()
	}
	return bodies
}

// pace calls send(i, due) for i in [0, n), never before i's due time
// start + i·interval and never two at once. A send that overruns makes the
// following ones late; they then go out back to back until the schedule is
// caught up, and since every send is handed the time it was due, a stall is
// charged to the latency of the requests it delayed instead of stretching
// the schedule. It returns the worst lateness of a send's start.
func pace(n int, interval time.Duration, start time.Time, send func(i int, due time.Time)) time.Duration {
	var worst time.Duration
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		worst = max(worst, time.Since(due))
		send(i, due)
	}
	return worst
}

// daemonRun is what one pass over a daemon workload measured.
type daemonRun struct {
	d        *daemon
	reader   *streamReader
	request  samples     // client span per POST /events
	sent     []time.Time // when batch i's latency clock starts
	dayRates []float64   // closed loop: readings per second of client span, per day
	span     time.Duration
	readings int
	firstDay [][]model.Event
	lagMax   time.Duration
	// stateHeap is the live heap at the workload's fixed state point.
	stateHeap uint64
	delivered int64
	dropped   int64
}

func (r *daemonRun) publish(body []byte, clock time.Time) error {
	t0 := time.Now()
	err := r.d.post("/events", "application/x-ndjson", body)
	now := time.Now()
	r.request.add(now.Sub(t0))
	r.sent = append(r.sent, clock)
	return err
}

// drive runs the load generator against a set-up daemon: closed loop until
// the budget is spent, or open loop over the budget's worth of rounds.
func drive(d *daemon, streamed model.SubscriptionID, paced bool, budget time.Duration) (*daemonRun, error) {
	run := &daemonRun{d: d}
	var err error
	if run.reader, err = openStream(d, streamed); err != nil {
		return nil, err
	}
	src, err := d.in.rounds()
	if err != nil {
		return nil, err
	}
	if paced {
		days := int(budget.Seconds()*pacedRate)/roundsPerDay + 1
		rounds := src.next(days*roundsPerDay, true)
		run.firstDay = rounds[:roundsPerDay]
		run.readings = countReadings(rounds)
		bodies := encodeRounds(rounds)
		var failed error
		start := time.Now()
		run.lagMax = pace(len(bodies), time.Second/pacedRate, start, func(i int, due time.Time) {
			if err := run.publish(bodies[i], due); err != nil && failed == nil {
				failed = err
			}
		})
		run.span = time.Since(start)
		if failed != nil {
			return nil, failed
		}
	} else {
		start := time.Now()
		for day := 1; ; day++ {
			keep := day == 1
			rounds := src.next(roundsPerDay, keep)
			if keep {
				run.firstDay = rounds
			}
			bodies := encodeRounds(rounds)
			var daySpan time.Duration
			for _, body := range bodies {
				t0 := time.Now()
				if err := run.publish(body, t0); err != nil {
					return nil, err
				}
				daySpan += time.Since(t0)
			}
			n := countReadings(rounds)
			run.readings += n
			run.span += daySpan
			run.dayRates = append(run.dayRates, float64(n)/daySpan.Seconds())
			spent := time.Since(start) >= budget
			if day == daemonStateDay || (spent && run.stateHeap == 0) {
				run.stateHeap = liveHeap()
			}
			if spent {
				break
			}
		}
	}

	// Every delivery was pushed before its round's response; wait for the
	// reader to have parsed them all.
	handle, err := d.sys.HandleByID(streamed)
	if err != nil {
		return nil, err
	}
	run.delivered, run.dropped = handle.Delivered(), handle.DroppedPushes()
	deadline := time.Now().Add(10 * time.Second)
	for run.reader.count.Load() < run.delivered-run.dropped && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if run.stateHeap == 0 {
		run.stateHeap = liveHeap()
	}
	return run, nil
}

// finish shuts the daemon down, which ends the stream, and waits for the
// reader.
func (r *daemonRun) finish() error {
	r.d.close()
	<-r.reader.done
	return r.reader.err
}

// latencies returns, per frame, the time from its round's clock start to the
// frame being parsed.
func (r *daemonRun) latencies() samples {
	var out samples
	for _, f := range r.reader.frames {
		if i := f.round - 1; i >= 0 && i < len(r.sent) {
			out.add(f.at.Sub(r.sent[i]))
		}
	}
	return out
}

func (r *daemonRun) rate() float64 {
	if len(r.dayRates) > 0 {
		return median(r.dayRates)
	}
	return float64(r.readings) / r.span.Seconds()
}

func runDaemon(w *workload, rc *runContext, paced bool) (*workloadReport, error) {
	rep := newWorkloadReport(w)
	var t tally
	layers := metrics{}

	refStart := time.Now()
	var rec *recorder
	if rc.trace {
		rec = newRecorder(daemonShape.nodes)
	}
	ref, refSetUp, err := runReference(rc, rec)
	if err != nil {
		return nil, err
	}
	layers.set("bench.reference_run_s", time.Since(refStart).Seconds(), "s")

	d, heapBefore, setUps, err := repeatSetUp(daemonSetUps, func() (*daemon, error) {
		return setUpDaemon(rc, ref.streamed, false)
	}, (*daemon).close)
	if err != nil {
		return nil, err
	}
	registered := d.sys.Traffic()
	budget := rc.budget
	if rc.trace {
		budget = rc.budget / 2
	}
	run, err := drive(d, ref.streamed, paced, budget)
	if err != nil {
		d.close()
		return nil, err
	}
	total := d.sys.Traffic()
	served := d.sys.DeliveriesFor(ref.streamed)
	all := d.sys.Deliveries()
	subs := make([]*model.Subscription, len(d.in.placed))
	for i, p := range d.in.placed {
		subs[i] = p.Sub
	}
	recall, expected := recallSample(subs, run.firstDay, d.sys.DeliveredEventSeqs)
	dropped := d.sys.DroppedMessages()
	indexLayers(layers, d.sys.IndexStats())
	if err := run.finish(); err != nil {
		return nil, err
	}

	// Checks. Every response was 2xx, or drive would have failed.
	batches := len(run.request)
	t.attempted += int64(run.readings + len(d.register))
	t.expect("no dropped messages", dropped, fmt.Sprintf("%d readings in %d requests, every response 2xx", run.readings, batches))
	t.expect("no dropped pushes on the streamed subscription", run.dropped, fmt.Sprintf("%d deliveries pushed to %s", run.delivered, ref.streamed))
	frameKeys := make([]string, len(run.reader.frames))
	for i, f := range run.reader.frames {
		frameKeys[i] = f.key
	}
	t.expectSameDeliveries("frames equal the served System's log", frameKeys, keysOf(served, 0))
	covered := min(ref.rounds, batches)
	t.expectSameDeliveries("deliveries equal the library reference run", keysOf(all, covered), keysOf(ref.deliveries, covered))
	t.expectRecall(recall, expected, "(subscription, reading) pairs")

	e := rep.EndToEnd
	e.setN("setup_s", median(setUps)/1e3, "s", len(setUps))
	e.setN("ingest_events_per_s", run.rate(), "1/s", max(len(run.dayRates), 1))
	request := rep.addTiming("request_latency", run.request)
	delivery := run.latencies()
	dl := rep.addTiming("delivery_latency", delivery)
	if paced {
		e.setN("delivery_latency_p50_ms", dl.P50, "ms", dl.N)
		e.setN("delivery_latency_p95_ms", percentile(delivery.sorted(), 95), "ms", dl.N)
		e.set("generator_lag_max_ms", float64(run.lagMax)/float64(time.Millisecond), "ms")
	} else {
		e.setN("request_latency_p50_ms", request.P50, "ms", request.N)
		e.setN("request_latency_p95_ms", percentile(run.request.sorted(), 95), "ms", request.N)
	}
	e.set("event_load_per_event", float64(total.EventLoad-registered.EventLoad)/float64(run.readings), "count")
	e.set("subscription_load_per_query", float64(registered.SubscriptionLoad)/float64(len(d.in.placed)), "count")
	e.set("recall", recall, "ratio")
	e.set("state_mb", stateMB(run.stateHeap, heapBefore), "MB")
	rep.addTiming("setup", setUps)
	rep.addTiming("register", d.register)
	rep.finish(&t)
	if !rc.trace {
		return rep, nil
	}

	// Traced run: the same load against a daemon behind the span-recording
	// middleware.
	td, err := setUpDaemon(rc, ref.streamed, true)
	if err != nil {
		return nil, err
	}
	traced, err := drive(td, ref.streamed, paced, rc.budget/2)
	if err != nil {
		td.close()
		return nil, err
	}
	if err := traced.finish(); err != nil {
		return nil, err
	}
	events := td.mw.matching(http.MethodPost, "/events")
	var handlerSpan, transport time.Duration
	var emitLag samples
	for i, s := range events {
		handlerSpan += s.end.Sub(s.start)
		if i < len(traced.request) {
			transport += time.Duration(traced.request[i]*float64(time.Millisecond)) - s.end.Sub(s.start)
		}
	}
	for _, f := range traced.reader.frames {
		if i := f.round - 1; i >= 0 && i < len(events) {
			emitLag.add(max(0, f.at.Sub(events[i].end)))
		}
	}
	var registerSpans samples
	for _, s := range td.mw.matching(http.MethodPost, "/subscriptions") {
		registerSpans.add(s.end.Sub(s.start))
	}
	layers.setN("server.events.handler_s", handlerSpan.Seconds(), "s", len(events))
	libraryBatch := time.Duration(ref.batch.sum() / float64(len(ref.batch)) * float64(time.Millisecond))
	layers.set("server.events.self_s", (handlerSpan - time.Duration(len(events))*libraryBatch).Seconds(), "s")
	layers.set("server.http.transport_s", transport.Seconds(), "s")
	layers.setN("server.register.handler_p50_ms", registerSpans.timing().P50, "ms", len(registerSpans))
	lag := emitLag.sorted()
	layers.setN("server.stream.emit_lag_p50_ms", percentile(lag, 50), "ms", len(lag))
	layers.setN("server.stream.emit_lag_p95_ms", percentile(lag, 95), "ms", len(lag))
	layers.set("server.stream.frames", float64(len(traced.reader.frames)), "count")
	tracedDelivery := traced.latencies()
	layers.setN("server.delivery_latency_p99_ms", percentile(tracedDelivery.sorted(), 99), "ms", len(tracedDelivery))
	layers.set("server.generator_lag_max_ms", float64(traced.lagMax)/float64(time.Millisecond), "ms")
	if paced {
		layers.set("trace.overhead_ratio", percentile(tracedDelivery.sorted(), 50)/dl.P50, "ratio")
	} else {
		layers.set("trace.overhead_ratio", run.rate()/traced.rate(), "ratio")
	}

	// The reference run under the tracing handler stands in for the engine
	// inside the server: its spans cover the leading daemonRefDays days.
	engineLayers(layers, ref.span.Seconds(), rec.busyTotal().Seconds())
	handlerLayers(layers, rec, refSetUp)
	trafficLayers(layers, registered.SubscriptionLoad, total.UnsubscriptionLoad, total.EventLoad-registered.EventLoad, len(all), dropped)
	generatorLayers(layers, d.in, d.newSystem)
	layers.setN("sensorcq.subscribe_p50_us", 1e3*ref.subscribe.timing().P50, "us", len(ref.subscribe))
	// Only the streamed subscription has a reader; the others' sinks fill up
	// and drop by design.
	layers.set("sensorcq.handle.delivered", float64(run.delivered), "count")
	layers.set("sensorcq.handle.dropped_pushes", float64(run.dropped), "count")
	runProbes(layers, d.in, run.firstDay, all)
	rep.PerLayer = layers

	spans := rec.spans()
	for i, s := range events {
		if i%64 == 0 {
			spans = append(spans, span{Name: "server.events", ID: uint64(i + 1), StartNS: int64(s.start.Sub(rec.epoch)), EndNS: int64(s.end.Sub(rec.epoch))})
		}
	}
	rep.SpansFile, err = writeSpans(rc.outDir, w.name, spans)
	return rep, err
}
