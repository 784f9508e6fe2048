package netsim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// workerCounts returns the scheduler pool sizes the concurrency tests sweep:
// serial, the smallest truly concurrent pool, and one worker per CPU.
func workerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		counts = append(counts, n)
	}
	return counts
}

func workersLabel(n int) string { return fmt.Sprintf("workers=%d", n) }

// TestConcurrentEngineLifecycleAfterClose verifies that every Runtime entry
// point is rejected once the engine is closed and that closing is idempotent.
func TestConcurrentEngineLifecycleAfterClose(t *testing.T) {
	g := lineGraph(t, 4)
	e := NewConcurrentEngineWorkers(g, newFloodHandler, 0)
	e.Flush()
	e.Close()
	e.Close() // double-Close is safe

	if err := e.AttachSensor(0, model.Sensor{ID: "d1", Attr: model.WindSpeed}); err == nil {
		t.Error("AttachSensor after Close should fail")
	}
	sub, err := model.NewAbstractSubscription("s1",
		[]model.AttributeFilter{{Attr: model.WindSpeed, Range: geom.NewInterval(0, 10)}},
		geom.WholePlane(), 30, model.NoSpatialConstraint)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubscribeContext(context.Background(), 0, sub); err == nil {
		t.Error("Subscribe after Close should fail")
	}
	if err := e.PublishContext(context.Background(), 0, testEvent(1)); err == nil {
		t.Error("Publish after Close should fail")
	}
	if err := e.ReplayRounds([][]Publication{{{Node: 0, Event: testEvent(2)}}}, ReplayOptions{}); err == nil {
		t.Error("a quiescent ReplayRounds after Close should fail")
	}
	rounds := [][]Publication{{{Node: 0, Event: testEvent(3)}}}
	if err := e.ReplayRounds(rounds, ReplayOptions{Mode: Pipelined}); err == nil {
		t.Error("ReplayRounds after Close should fail")
	}
}

// stabilizedGoroutines polls runtime.NumGoroutine until it returns to at
// most the baseline (scheduler workers exit asynchronously after Close) or
// the deadline expires, reporting the last count seen.
func stabilizedGoroutines(baseline int, deadline time.Duration) (int, bool) {
	var n int
	for end := time.Now().Add(deadline); time.Now().Before(end); {
		n = runtime.NumGoroutine()
		if n <= baseline {
			return n, true
		}
		time.Sleep(time.Millisecond)
	}
	return n, false
}

// TestConcurrentEngineCloseLeavesNoGoroutines verifies that Close — plain,
// doubled, and racing pending work — terminates every scheduler goroutine:
// after Close the goroutine count stabilizes back to the pre-construction
// baseline. Run under -race in CI, which also catches unsynchronized
// shutdown paths.
func TestConcurrentEngineCloseLeavesNoGoroutines(t *testing.T) {
	const deadline = 5 * time.Second
	for _, tc := range []struct {
		name  string
		close func(t *testing.T, e *ConcurrentEngine)
	}{
		{"idle", func(t *testing.T, e *ConcurrentEngine) {
			e.Flush()
			e.Close()
		}},
		{"double-close", func(t *testing.T, e *ConcurrentEngine) {
			e.Flush()
			e.Close()
			e.Close()
		}},
		{"pending-work", func(t *testing.T, e *ConcurrentEngine) {
			// Close while an advertisement flood is still propagating
			// (AttachSensor only queues on this engine): the workers must
			// drain what is already queued and then exit.
			for i := 0; i < 32; i++ {
				sensor := model.Sensor{ID: model.SensorID(fmt.Sprintf("d%d", i)), Attr: model.WindSpeed}
				if err := e.AttachSensor(7, sensor); err != nil {
					t.Fatal(err)
				}
			}
			e.Close()
		}},
	} {
		for _, workers := range workerCounts() {
			t.Run(tc.name+"/"+workersLabel(workers), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				e := NewConcurrentEngineWorkers(lineGraph(t, 8), newFloodHandler, workers)
				tc.close(t, e)
				if n, ok := stabilizedGoroutines(baseline, deadline); !ok {
					t.Errorf("goroutines did not stabilize: %d live, baseline %d", n, baseline)
				}
			})
		}
	}
}

// heldCounter counts the readings its node dispatches. A reading with Seq 0
// holds its worker inside the dispatch: it reports on held, then waits for
// one token on release.
type heldCounter struct {
	silentHandler
	count   *atomic.Int64
	held    chan<- struct{}
	release <-chan struct{}
}

func (h heldCounter) LocalPublish(_ *Context, ev model.Event) {
	h.count.Add(1)
	if ev.Seq == 0 {
		h.held <- struct{}{}
		<-h.release
	}
}

// TestConcurrentEngineFlushAfterCloseWaits pins what a drain does after
// Close: the items queued before Close still run, and Flush waits for them
// (only the replay loop's watermark gate gives up on Close). A worker is
// held inside a dispatch at node 0 with a second reading queued behind it
// when the engine closes; Flush must not return until both have run.
func TestConcurrentEngineFlushAfterCloseWaits(t *testing.T) {
	for _, workers := range workerCounts() {
		t.Run(workersLabel(workers), func(t *testing.T) {
			var count atomic.Int64
			held, release := make(chan struct{}), make(chan struct{})
			e := NewConcurrentEngineWorkers(lineGraph(t, 2), func(topology.NodeID) Handler {
				return heldCounter{count: &count, held: held, release: release}
			}, workers)
			for _, seq := range []uint64{0, 1} {
				if err := e.post(context.Background(), 0, queued{msg: Message{Kind: localPublish, Ev: testEvent(seq)}}); err != nil {
					t.Fatal(err)
				}
				if seq == 0 {
					<-held
				}
			}
			e.Close()
			flushed := make(chan struct{})
			go func() {
				e.Flush()
				close(flushed)
			}()
			// Only a bounded wait can show that Flush has not returned.
			select {
			case <-flushed:
				t.Error("Flush returned while a dispatch queued before Close was held")
			case <-time.After(50 * time.Millisecond):
			}
			release <- struct{}{}
			select {
			case <-flushed:
			case <-time.After(5 * time.Second):
				t.Fatal("Flush did not return once the held dispatch was released")
			}
			if n := count.Load(); n != 2 {
				t.Errorf("dispatched %d readings, want the 2 queued before Close", n)
			}
		})
	}
}

// TestConcurrentEngineRunQueueAtCapacity fills the run queue to its capacity
// of one slot per node. Each of the w workers is held inside a dispatch at
// one of the nodes 0..w-1 while one reading is injected at every node, so
// the other n-w activations are queued at once; each held node refilled
// while it was held and is queued behind them when its worker is let go.
// With one worker the queue then holds all n nodes; a queue one slot short
// overflows. Every node must dispatch exactly its readings with nothing
// dropped. A second fill is closed while queued, and the workers must run
// it out and exit.
func TestConcurrentEngineRunQueueAtCapacity(t *testing.T) {
	const nodes = 64
	for _, workers := range workerCounts() {
		t.Run(workersLabel(workers), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			counts := make([]atomic.Int64, nodes)
			held, release := make(chan struct{}), make(chan struct{})
			e := NewConcurrentEngineWorkers(lineGraph(t, nodes), func(n topology.NodeID) Handler {
				return heldCounter{count: &counts[n], held: held, release: release}
			}, workers)
			w := EffectiveWorkers(workers, nodes)
			publish := func(node int, seq uint64) {
				t.Helper()
				ev := testEvent(seq)
				if err := e.post(context.Background(), topology.NodeID(node), queued{msg: Message{Kind: localPublish, Ev: ev}}); err != nil {
					t.Fatal(err)
				}
			}
			fill := func() {
				for k := 0; k < w; k++ {
					publish(k, 0)
				}
				for k := 0; k < w; k++ {
					<-held
				}
				for n := 0; n < nodes; n++ {
					publish(n, uint64(n+1))
				}
			}
			letGo := func() {
				for k := 0; k < w; k++ {
					release <- struct{}{}
				}
			}
			check := func(fills int64) {
				t.Helper()
				for n := range counts {
					want := fills
					if n < w {
						want *= 2
					}
					if got := counts[n].Load(); got != want {
						t.Errorf("node %d dispatched %d readings, want %d", n, got, want)
					}
				}
			}

			fill()
			letGo()
			e.Flush()
			check(1)
			if n := e.Metrics().DroppedMessages(); n != 0 {
				t.Errorf("dropped %d messages", n)
			}

			fill()
			e.Close()
			letGo()
			if n, ok := stabilizedGoroutines(baseline, 5*time.Second); !ok {
				t.Fatalf("goroutines did not stabilize: %d live, baseline %d", n, baseline)
			}
			check(2)
		})
	}
}

// TestConcurrentEngineFlushIdle verifies Flush returns immediately on an
// engine with no in-flight work.
func TestConcurrentEngineFlushIdle(t *testing.T) {
	g := lineGraph(t, 3)
	e := NewConcurrentEngineWorkers(g, newFloodHandler, 0)
	defer e.Close()
	done := make(chan struct{})
	go func() {
		e.Flush()
		e.Flush()
		close(done)
	}()
	<-done // deadlocks (and the test times out) if Flush blocks while idle
}

// TestConcurrentEngineHandlerAccessor verifies the Handler accessor matches
// the sequential engine's contract.
func TestConcurrentEngineHandlerAccessor(t *testing.T) {
	g := lineGraph(t, 3)
	e := NewConcurrentEngineWorkers(g, newFloodHandler, 0)
	defer e.Close()
	if e.Handler(0) == nil || e.Handler(2) == nil {
		t.Error("Handler should return the node's handler")
	}
	if e.Handler(-1) != nil || e.Handler(99) != nil {
		t.Error("Handler should return nil for unknown nodes")
	}
	e.Flush()
	h, ok := e.Handler(0).(*floodHandler)
	if !ok {
		t.Fatalf("Handler returned %T, want *floodHandler", e.Handler(0))
	}
	if h.node != 0 {
		t.Errorf("Handler(0).node = %d", h.node)
	}
}

// TestConcurrentEngineDeliveriesRaceClean hammers every reader of the
// delivery log and the metrics while a pipelined and a windowed replay are in
// flight; run under -race this proves the read paths are safe against
// concurrent worker writes.
func TestConcurrentEngineDeliveriesRaceClean(t *testing.T) {
	for _, opts := range []ReplayOptions{{Mode: Pipelined}, {Mode: Windowed, Lag: 2}} {
		t.Run(fmt.Sprintf("%v-lag%d", opts.Mode, opts.Lag), func(t *testing.T) {
			g := lineGraph(t, 6)
			e := NewConcurrentEngineWorkers(g, newFloodHandler, 0)
			defer e.Close()
			if err := e.AttachSensor(5, model.Sensor{ID: "d1", Attr: model.WindSpeed}); err != nil {
				t.Fatal(err)
			}
			e.Flush()

			const rounds, perRound = 8, 4
			trace := windowedTrace(5, rounds, perRound)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						_ = e.Deliveries()
						_ = e.DeliveriesFor("sink")
						_ = e.Metrics().DeliveredSeqs("sink")
						_ = len(e.DeliveriesFor("sink"))
						_ = e.Metrics().Snapshot()
						_ = e.Metrics().DroppedMessages()
					}
				}()
			}
			if err := e.ReplayRounds(trace, opts); err != nil {
				t.Fatal(err)
			}
			e.Flush()
			close(stop)
			wg.Wait()

			if got := len(e.Deliveries()); got != rounds*perRound {
				t.Errorf("deliveries = %d, want %d", got, rounds*perRound)
			}
			if got := len(e.Metrics().DeliveredSeqs("sink")); got != rounds*perRound {
				t.Errorf("delivered seqs = %d, want %d", got, rounds*perRound)
			}
			if n := e.Metrics().DroppedMessages(); n != 0 {
				t.Errorf("dropped %d messages", n)
			}
			// Every delivery must be stamped with the round that produced it.
			for _, d := range e.Deliveries() {
				if d.Round < 1 || d.Round > rounds {
					t.Fatalf("delivery round %d outside [1,%d]", d.Round, rounds)
				}
			}
		})
	}
}

// gatedHandler holds every local injection until gate is closed, then runs
// the flood handler's reaction, or sends the subscription or retraction to
// each neighbour, so that every entry point leaves traffic to settle.
type gatedHandler struct {
	Handler
	gate <-chan struct{}
}

func (h gatedHandler) LocalSensor(ctx *Context, sensor model.Sensor) {
	<-h.gate
	h.Handler.LocalSensor(ctx, sensor)
}

func (h gatedHandler) LocalPublish(ctx *Context, ev model.Event) {
	<-h.gate
	h.Handler.LocalPublish(ctx, ev)
}

func (h gatedHandler) LocalSubscribe(ctx *Context, sub *model.Subscription) {
	<-h.gate
	for _, nb := range ctx.Neighbors() {
		ctx.SendSubscription(nb, sub)
	}
}

func (h gatedHandler) LocalUnsubscribe(ctx *Context, id model.SubscriptionID) {
	<-h.gate
	for _, nb := range ctx.Neighbors() {
		ctx.SendUnsubscription(nb, id)
	}
}

// TestBlockingRule pins the Runtime doc's blocking table, row by row, on
// both engines. Each call is made while its injection is held at the gate:
// a call that waits must not return before the gate opens, and returns with
// its traffic settled; a call that only queues returns with the gate still
// shut, and its work completes at the next Flush.
func TestBlockingRule(t *testing.T) {
	sub, err := model.NewAbstractSubscription("s1",
		[]model.AttributeFilter{{Attr: model.WindSpeed, Range: geom.NewInterval(0, 10)}},
		geom.WholePlane(), 30, model.NoSpatialConstraint)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Node 0 of a three-node line: a flood crosses two links, a message to
	// the neighbours one.
	rows := []struct {
		name        string
		concQueues  bool // the ConcurrentEngine column reads "queues only"
		do          func(rt Runtime) error
		traffic     func(s Snapshot) int64
		wantTraffic int64
	}{
		{"AttachSensor", true,
			func(rt Runtime) error { return rt.AttachSensor(0, model.Sensor{ID: "d1", Attr: model.WindSpeed}) },
			func(s Snapshot) int64 { return s.AdvertisementLoad }, 2},
		{"Unsubscribe", true,
			func(rt Runtime) error { return rt.Unsubscribe(0, "s1") },
			func(s Snapshot) int64 { return s.UnsubscriptionLoad }, 1},
		{"SubscribeContext", false,
			func(rt Runtime) error { return rt.SubscribeContext(ctx, 0, sub) },
			func(s Snapshot) int64 { return s.SubscriptionLoad }, 1},
		{"PublishContext", false,
			func(rt Runtime) error { return rt.PublishContext(ctx, 0, testEvent(1)) },
			func(s Snapshot) int64 { return s.EventLoad }, 2},
	}
	for _, concurrent := range []bool{false, true} {
		for _, row := range rows {
			name := "sequential/" + row.name
			if concurrent {
				name = "concurrent/" + row.name
			}
			t.Run(name, func(t *testing.T) {
				gate := make(chan struct{})
				factory := func(n topology.NodeID) Handler { return gatedHandler{Handler: newFloodHandler(n), gate: gate} }
				var rt Runtime
				if concurrent {
					rt = NewConcurrentEngineWorkers(lineGraph(t, 3), factory, 2)
				} else {
					rt = NewEngine(lineGraph(t, 3), factory)
				}
				defer rt.Close()
				returned := make(chan error, 1)
				go func() { returned <- row.do(rt) }()

				if concurrent && row.concQueues {
					select {
					case err := <-returned:
						if err != nil {
							t.Fatal(err)
						}
					case <-time.After(5 * time.Second):
						close(gate)
						t.Fatal("the call waited for work it should only queue")
					}
					if got := row.traffic(rt.Metrics().Snapshot()); got != 0 {
						t.Fatalf("traffic %d while the injection is held", got)
					}
					close(gate)
					rt.Flush()
				} else {
					select {
					case err := <-returned:
						close(gate)
						t.Fatalf("the call returned (%v) while its injection was held: it does not wait", err)
					case <-time.After(20 * time.Millisecond):
					}
					close(gate)
					if err := <-returned; err != nil {
						t.Fatal(err)
					}
				}
				if got := row.traffic(rt.Metrics().Snapshot()); got != row.wantTraffic {
					t.Errorf("traffic %d once settled, want %d", got, row.wantTraffic)
				}
			})
		}
	}
}

// TestEnginesRejectAlike calls every entry point with each kind of bad input
// on both engines and requires the same error text from both: validation
// and the closed check are the driver's, so an engine that answered
// differently would have grown a path of its own.
func TestEnginesRejectAlike(t *testing.T) {
	g := lineGraph(t, 4)
	good, err := model.NewAbstractSubscription("s1",
		[]model.AttributeFilter{{Attr: model.WindSpeed, Range: geom.NewInterval(0, 10)}},
		geom.WholePlane(), 30, model.NoSpatialConstraint)
	if err != nil {
		t.Fatal(err)
	}
	bad := &model.Subscription{ID: "x"}
	ctx := context.Background()
	oneRound := func(node topology.NodeID) [][]Publication {
		return [][]Publication{{{Node: node, Event: testEvent(1)}}}
	}
	type call struct {
		name string
		do   func(rt Runtime) error
	}
	cases := []struct {
		name  string
		setup func(t *testing.T, rt Runtime)
		calls []call
	}{
		{name: "unknown node", calls: []call{
			{"AttachSensor", func(rt Runtime) error { return rt.AttachSensor(99, model.Sensor{}) }},
			{"SubscribeContext", func(rt Runtime) error { return rt.SubscribeContext(ctx, 99, good) }},
			{"SubscribeContext negative", func(rt Runtime) error { return rt.SubscribeContext(ctx, -1, good) }},
			{"Unsubscribe", func(rt Runtime) error { return rt.Unsubscribe(99, "s1") }},
			{"PublishContext", func(rt Runtime) error { return rt.PublishContext(ctx, 99, testEvent(1)) }},
			{"ReplayRounds quiescent", func(rt Runtime) error { return rt.ReplayRounds(oneRound(99), ReplayOptions{}) }},
			{"ReplayRounds", func(rt Runtime) error { return rt.ReplayRounds(oneRound(99), ReplayOptions{Mode: Windowed}) }},
		}},
		{name: "empty ID", calls: []call{
			{"Unsubscribe", func(rt Runtime) error { return rt.Unsubscribe(0, "") }},
		}},
		{name: "invalid subscription", calls: []call{
			{"SubscribeContext", func(rt Runtime) error { return rt.SubscribeContext(ctx, 0, bad) }},
		}},
		{name: "invalid replay options", calls: []call{
			{"lag without windowed", func(rt Runtime) error { return rt.ReplayRounds(oneRound(0), ReplayOptions{Mode: Pipelined, Lag: 1}) }},
		}},
		{
			name: "use after Close",
			setup: func(t *testing.T, rt Runtime) {
				rt.Flush()
				rt.Close()
				rt.Close() // idempotent
			},
			calls: []call{
				{"AttachSensor", func(rt Runtime) error { return rt.AttachSensor(0, model.Sensor{ID: "d1", Attr: model.WindSpeed}) }},
				{"SubscribeContext", func(rt Runtime) error { return rt.SubscribeContext(ctx, 0, good) }},
				{"Unsubscribe", func(rt Runtime) error { return rt.Unsubscribe(0, "s1") }},
				{"PublishContext", func(rt Runtime) error { return rt.PublishContext(ctx, 0, testEvent(1)) }},
				{"ReplayRounds quiescent", func(rt Runtime) error { return rt.ReplayRounds(oneRound(0), ReplayOptions{}) }},
				{"ReplayRounds", func(rt Runtime) error { return rt.ReplayRounds(oneRound(0), ReplayOptions{Mode: Windowed, Lag: 1}) }},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := NewEngine(g, newFloodHandler)
			conc := NewConcurrentEngineWorkers(g, newFloodHandler, 2)
			defer conc.Close()
			if tc.setup != nil {
				tc.setup(t, seq)
				tc.setup(t, conc)
			}
			for _, c := range tc.calls {
				errSeq, errConc := c.do(seq), c.do(conc)
				if errSeq == nil || errConc == nil {
					t.Errorf("%s: sequential error %v, concurrent error %v; both must fail", c.name, errSeq, errConc)
					continue
				}
				if errSeq.Error() != errConc.Error() {
					t.Errorf("%s: sequential says %q, concurrent says %q", c.name, errSeq, errConc)
				}
			}
		})
	}
}

// TestTrimReleasesQueueStorage grows the queues with a burst far above the
// steady state — the shape of NewSystem's advertisement flood — and checks
// that Trim on the drained engines lets the backing arrays go, including the
// worker's spare burst buffer, which the worker drops itself before its next
// activation: with one worker, that activation would otherwise swap the kept
// spare straight back into a mailbox.
func TestTrimReleasesQueueStorage(t *testing.T) {
	const burst = 5000
	g := lineGraph(t, 3)
	conc := NewConcurrentEngineWorkers(g, newFloodHandler, 1)
	defer conc.Close()
	capacity := func() (total int) {
		for _, m := range conc.mailboxes {
			m.mu.Lock()
			total += cap(m.queue)
			m.mu.Unlock()
		}
		return total
	}
	batch := make([]Publication, burst)
	for i := range batch {
		batch[i] = Publication{Node: 0, Event: testEvent(uint64(i + 1))}
	}
	if err := conc.ReplayRounds([][]Publication{batch}, ReplayOptions{Mode: Pipelined}); err != nil {
		t.Fatal(err)
	}
	conc.Flush()
	conc.Trim()
	if got := capacity(); got != 0 {
		t.Errorf("mailboxes hold %d item slots after Trim on a drained engine, want 0", got)
	}
	if err := conc.PublishContext(context.Background(), 0, testEvent(burst+1)); err != nil {
		t.Fatal(err)
	}
	conc.Flush()
	if got := capacity(); got > 16 {
		t.Errorf("mailboxes hold %d item slots after one event: the worker kept its flood-sized spare", got)
	}
	if got := len(conc.DeliveriesFor("sink")); got != burst+1 {
		t.Errorf("deliveries = %d, want %d", got, burst+1)
	}

	seq := NewEngine(g, newFloodHandler)
	if err := seq.ReplayRounds([][]Publication{batch}, ReplayOptions{Mode: Pipelined}); err != nil {
		t.Fatal(err)
	}
	if cap(seq.queue) < burst {
		t.Fatalf("sequential queue capacity %d after a %d-event round: the test no longer grows it", cap(seq.queue), burst)
	}
	seq.Trim()
	if cap(seq.queue) != 0 {
		t.Errorf("sequential queue holds %d item slots after Trim, want 0", cap(seq.queue))
	}
	if err := seq.PublishContext(context.Background(), 0, testEvent(burst+1)); err != nil {
		t.Fatal(err)
	}
	if got := len(seq.DeliveriesFor("sink")); got != burst+1 {
		t.Errorf("sequential deliveries = %d, want %d", got, burst+1)
	}
}
