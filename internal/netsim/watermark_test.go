package netsim

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// TestRoundLedger exercises the ledger both engines account into: rounds
// retire in order, only once fully injected, and empty rounds retire as soon
// as they are marked; each advance is announced once; and the drained
// target waits for every item, whatever the watermark reads.
func TestRoundLedger(t *testing.T) {
	var l roundLedger
	l.init()
	isDrained := func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.reachedLocked(drained)
	}
	if l.watermark() != 0 {
		t.Fatalf("fresh ledger watermark = %d, want 0", l.watermark())
	}
	l.add(1)
	l.add(1)
	l.markInjected(1)
	if l.done(1, 1) {
		t.Errorf("done reported round 1 drained with one item still in flight")
	}
	if l.watermark() != 0 {
		t.Errorf("watermark advanced with round-1 work still pending")
	}
	// Round 2 drains before round 1: the watermark must hold at 0.
	l.add(2)
	l.markInjected(2)
	if !l.done(2, 1) {
		t.Errorf("done did not report round 2 drained")
	}
	if l.watermark() != 0 {
		t.Errorf("watermark advanced past an undrained round: %d", l.watermark())
	}
	l.done(1, 1)
	if l.watermark() != 2 {
		t.Errorf("watermark = %d after both rounds drained, want 2", l.watermark())
	}
	// An empty round retires as soon as it is marked injected.
	l.markInjected(3)
	if l.watermark() != 3 {
		t.Errorf("empty round did not retire: watermark = %d, want 3", l.watermark())
	}
	// Work cannot retire a round ahead of its injection mark.
	l.add(5)
	l.done(5, 1)
	if l.watermark() != 3 {
		t.Errorf("watermark ran ahead of the injection frontier: %d", l.watermark())
	}
	// A retired round stays retired when a much later round re-uses its
	// slot: the cursor only moves forward.
	l.add(3 + ledgerRingSize)
	if l.watermark() != 3 {
		t.Errorf("slot re-use moved the watermark: %d, want 3", l.watermark())
	}
	l.done(3+ledgerRingSize, 1)
	if wm, ok := l.announce(); wm != 3 || !ok {
		t.Errorf("announce() = %d, %v; want 3, true", wm, ok)
	}
	if wm, ok := l.announce(); wm != 3 || ok {
		t.Errorf("second announce() = %d, %v; want 3, false", wm, ok)
	}

	// Items of an already retired round and round-0 (tick) items are
	// behind the watermark but still in flight: drained is not reached
	// until they are released.
	if !isDrained() {
		t.Fatal("drained not reached with nothing in flight")
	}
	l.add(2)
	l.add(0)
	if l.watermark() != 3 {
		t.Errorf("late items moved the watermark: %d, want 3", l.watermark())
	}
	if isDrained() {
		t.Error("drained reached with a retired round's item and a tick in flight")
	}
	l.done(2, 1)
	if isDrained() {
		t.Error("drained reached with a tick in flight")
	}
	if !l.done(0, 1) {
		t.Error("done did not report the last release")
	}
	if !isDrained() {
		t.Error("drained not reached once every item was released")
	}

	// The rounds that can be in flight at once under the largest lag must
	// not share a slot, or one round's items would hold back another's.
	if MaxReplayLag+2 >= ledgerRingSize {
		t.Errorf("MaxReplayLag+2 = %d does not fit the ledger ring of %d slots", MaxReplayLag+2, ledgerRingSize)
	}
}

// TestRoundLedgerConcurrent drives one ledger the way the worker pool does —
// several goroutines adding children before releasing their parents while an
// injector marks rounds and waits at the gate — and requires that the
// watermark never passes a round with an item in flight and reaches the last
// round once everything drained. Run under -race it also covers the
// lock-free/locked split of the ledger's fields.
func TestRoundLedgerConcurrent(t *testing.T) {
	const rounds, workers, lag, perRound, fanout = 200, 4, 2, 8, 3
	var l roundLedger
	l.init()
	type item struct{ round, depth int }
	work := make(chan item, rounds*perRound*(fanout+1))
	var live [rounds + 1]atomic.Int64 // the test's own count of in-flight items
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				if it.depth == 0 {
					for c := 0; c < fanout; c++ {
						live[it.round].Add(1)
						l.add(it.round) // child before parent
						work <- item{it.round, 1}
					}
				}
				live[it.round].Add(-1)
				if l.done(it.round, 1) {
					l.wake()
				}
			}
		}()
	}
	// The gate of the replay loop, as the concurrent engine waits at it.
	await := func(target int) { l.wait(target, func() bool { return false }) }
	for r := 1; r <= rounds; r++ {
		await(r - 1 - lag)
		wm := l.watermark()
		for q := 1; q <= wm; q++ {
			if n := live[q].Load(); n != 0 {
				t.Fatalf("watermark %d passed round %d with %d items in flight", wm, q, n)
			}
		}
		for i := 0; i < perRound; i++ {
			live[r].Add(1)
			l.add(r)
			work <- item{r, 0}
		}
		l.markInjected(r)
	}
	// Hanging here is the failure mode of a lost wake-up.
	await(drained)
	if wm := l.watermark(); wm != rounds {
		t.Errorf("final watermark = %d, want %d", wm, rounds)
	}
	close(work)
	wg.Wait()
}

func windowedTrace(node topology.NodeID, rounds, perRound int) [][]Publication {
	trace := make([][]Publication, rounds)
	seq := uint64(0)
	for r := range trace {
		for i := 0; i < perRound; i++ {
			seq++
			trace[r] = append(trace[r], Publication{Node: node, Event: testEvent(seq)})
		}
	}
	return trace
}

// TestWindowedSingleNodeNetwork replays a windowed trace on a degenerate
// one-node network: there is nothing to pipeline across, but the watermark
// machinery must still retire every round and stamp deliveries correctly on
// both engines.
func TestWindowedSingleNodeNetwork(t *testing.T) {
	const rounds, perRound = 4, 3
	for _, concurrent := range []bool{false, true} {
		name := "sequential"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			g := topology.NewGraph(1)
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			var rt Runtime
			if concurrent {
				conc := NewConcurrentEngineWorkers(g, newFloodHandler, 0)
				defer conc.Close()
				rt = conc
			} else {
				rt = NewEngine(g, newFloodHandler)
			}
			if err := rt.ReplayRounds(windowedTrace(0, rounds, perRound), ReplayOptions{Mode: Windowed, Lag: 2}); err != nil {
				t.Fatal(err)
			}
			rt.Flush()
			if got := len(rt.Deliveries()); got != rounds*perRound {
				t.Errorf("deliveries = %d, want %d", got, rounds*perRound)
			}
			for _, d := range rt.Deliveries() {
				want := int((d.Events[0].Seq-1)/perRound) + 1
				if d.Round != want {
					t.Errorf("delivery of seq %d stamped round %d, want %d", d.Events[0].Seq, d.Round, want)
				}
			}
			if wm := rt.Watermark(); wm != rounds {
				t.Errorf("final watermark = %d, want %d", wm, rounds)
			}
			if n := rt.Metrics().DroppedMessages(); n != 0 {
				t.Errorf("dropped %d messages", n)
			}
		})
	}
}

// silentHandler consumes events without forwarding or delivering anything:
// with it, a node that receives no injections receives no work at all.
type silentHandler struct{}

func (silentHandler) Init(*Context)                                                      {}
func (silentHandler) LocalSensor(*Context, model.Sensor)                                 {}
func (silentHandler) LocalSubscribe(*Context, *model.Subscription)                       {}
func (silentHandler) LocalUnsubscribe(*Context, model.SubscriptionID)                    {}
func (silentHandler) LocalPublish(*Context, model.Event)                                 {}
func (silentHandler) HandleAdvertisement(*Context, topology.NodeID, model.Advertisement) {}
func (silentHandler) HandleSubscription(*Context, topology.NodeID, *model.Subscription)  {}
func (silentHandler) HandleUnsubscription(*Context, topology.NodeID, model.SubscriptionID) {
}
func (silentHandler) HandleEvent(*Context, topology.NodeID, model.Event) {}

// TestWindowedIdleNodeWatermarkAdvances injects every event at node 0 of a
// line while the handlers never forward, so nodes 1 and 2 have no work in
// any round. The network watermark must still advance with the injection
// frontier — an idle node holding it back would deadlock the windowed
// injection gate (this test hanging is the failure mode).
func TestWindowedIdleNodeWatermarkAdvances(t *testing.T) {
	const rounds = 6
	g := lineGraph(t, 3)
	e := NewConcurrentEngineWorkers(g, func(topology.NodeID) Handler { return silentHandler{} }, 0)
	defer e.Close()
	// Lag 0 makes every injection wait for the full drain of the previous
	// round: if an idle node's watermark did not advance, the second round
	// would block forever.
	if err := e.ReplayRounds(windowedTrace(0, rounds, 2), ReplayOptions{Mode: Windowed, Lag: 0}); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if wm := e.Watermark(); wm != rounds {
		t.Errorf("network watermark = %d, want %d", wm, rounds)
	}
}

// TestWindowedLagLargerThanTrace replays a short trace with a lag far beyond
// its length: the injection gate never engages, the whole trace is in flight
// at once, and the run must still match the quiescent baseline's totals.
func TestWindowedLagLargerThanTrace(t *testing.T) {
	const rounds, perRound = 3, 2
	g := lineGraph(t, 5)
	base := NewEngine(g, newFloodHandler)
	if err := base.AttachSensor(4, model.Sensor{ID: "d1", Attr: model.WindSpeed}); err != nil {
		t.Fatal(err)
	}
	if err := base.ReplayRounds(windowedTrace(4, rounds, perRound), ReplayOptions{Mode: Quiescent}); err != nil {
		t.Fatal(err)
	}

	for _, concurrent := range []bool{false, true} {
		name := "sequential"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			var rt Runtime
			if concurrent {
				conc := NewConcurrentEngineWorkers(g, newFloodHandler, 0)
				defer conc.Close()
				rt = conc
			} else {
				rt = NewEngine(g, newFloodHandler)
			}
			if err := rt.AttachSensor(4, model.Sensor{ID: "d1", Attr: model.WindSpeed}); err != nil {
				t.Fatal(err)
			}
			rt.Flush()
			if err := rt.ReplayRounds(windowedTrace(4, rounds, perRound), ReplayOptions{Mode: Windowed, Lag: 10}); err != nil {
				t.Fatal(err)
			}
			rt.Flush()
			if a, b := base.Metrics().Snapshot(), rt.Metrics().Snapshot(); a != b {
				t.Errorf("traffic differs from quiescent baseline: base=%+v got=%+v", a, b)
			}
			if got, want := len(rt.Deliveries()), len(base.Deliveries()); got != want {
				t.Errorf("deliveries = %d, want %d", got, want)
			}
			if wm := rt.Watermark(); wm != rounds {
				t.Errorf("final watermark = %d, want %d", wm, rounds)
			}
			if n := rt.Metrics().DroppedMessages(); n != 0 {
				t.Errorf("dropped %d messages", n)
			}
		})
	}
}

// watermarkSpy wraps the flood handler and records, at every delivery on
// node 0, the engine watermark observed at that instant together with the
// delivery's round stamp. The sequential engine runs handlers on the
// caller's goroutine, so reading the engine mid-dispatch is safe.
type watermarkSpy struct {
	Handler
	observe func(ctx *Context)
}

func (s *watermarkSpy) HandleEvent(ctx *Context, from topology.NodeID, ev model.Event) {
	s.observe(ctx)
	s.Handler.HandleEvent(ctx, from, ev)
}

func (s *watermarkSpy) LocalPublish(ctx *Context, ev model.Event) {
	s.observe(ctx)
	s.Handler.LocalPublish(ctx, ev)
}

// TestWindowedWatermarkInvariant checks the windowed invariant on the
// sequential engine: while an item of round r is being dispatched (and so
// while any delivery stamped <= r+1 can occur), the network watermark is at
// least r-1-Lag — rounds beyond the lag window are never in flight.
func TestWindowedWatermarkInvariant(t *testing.T) {
	const rounds, lag = 8, 2
	g := lineGraph(t, 4)
	var eng *Engine
	type obs struct{ round, wm int }
	var seen []obs
	eng = NewEngine(g, func(n topology.NodeID) Handler {
		inner := newFloodHandler(n)
		return &watermarkSpy{Handler: inner, observe: func(ctx *Context) {
			seen = append(seen, obs{round: ctx.round, wm: eng.Watermark()})
		}}
	})
	if err := eng.AttachSensor(3, model.Sensor{ID: "d1", Attr: model.WindSpeed}); err != nil {
		t.Fatal(err)
	}
	if err := eng.ReplayRounds(windowedTrace(3, rounds, 2), ReplayOptions{Mode: Windowed, Lag: lag}); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("spy observed no dispatches; the invariant check is vacuous")
	}
	overlapped := false
	for _, o := range seen {
		if o.wm < o.round-1-lag {
			t.Errorf("round-%d work in flight while watermark %d < %d", o.round, o.wm, o.round-1-lag)
		}
		if o.round > o.wm+1 {
			overlapped = true
		}
	}
	if !overlapped {
		t.Error("no cross-round overlap observed; the windowed replay degenerated to pipelined")
	}
}

// TestWindowedWatermarkInvariantConcurrent checks the same invariant on the
// concurrent engine, where the watermark gate actually races worker
// goroutines: whenever a round-r item is being dispatched, the network
// watermark observed from inside the dispatch must be at least r-1-Lag
// (the watermark is monotone and was at least that when round r was
// injected). Run under -race this also hammers the multi-lock watermark
// snapshot from many goroutines.
func TestWindowedWatermarkInvariantConcurrent(t *testing.T) {
	const rounds, lag = 10, 2
	g := lineGraph(t, 6)
	var (
		eng  *ConcurrentEngine
		mu   sync.Mutex
		seen []struct{ round, wm int }
	)
	eng = NewConcurrentEngineWorkers(g, func(n topology.NodeID) Handler {
		inner := newFloodHandler(n)
		return &watermarkSpy{Handler: inner, observe: func(ctx *Context) {
			round, wm := ctx.round, eng.Watermark()
			mu.Lock()
			seen = append(seen, struct{ round, wm int }{round, wm})
			mu.Unlock()
		}}
	}, 0)
	defer eng.Close()
	if err := eng.AttachSensor(5, model.Sensor{ID: "d1", Attr: model.WindSpeed}); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if err := eng.ReplayRounds(windowedTrace(5, rounds, 3), ReplayOptions{Mode: Windowed, Lag: lag}); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("spy observed no dispatches; the invariant check is vacuous")
	}
	for _, o := range seen {
		if o.wm < o.round-1-lag {
			t.Errorf("round-%d work in flight while watermark %d < %d", o.round, o.wm, o.round-1-lag)
		}
	}
}

// TestReplayOptionsValidation covers the mode/lag validation surface.
func TestReplayOptionsValidation(t *testing.T) {
	cases := []struct {
		opts ReplayOptions
		ok   bool
	}{
		{ReplayOptions{Mode: Quiescent}, true},
		{ReplayOptions{Mode: Pipelined}, true},
		{ReplayOptions{Mode: Windowed}, true},
		{ReplayOptions{Mode: Windowed, Lag: 4}, true},
		{ReplayOptions{Mode: Pipelined, Lag: 1}, false},
		{ReplayOptions{Mode: Quiescent, Lag: 1}, false},
		{ReplayOptions{Mode: Windowed, Lag: -1}, false},
		{ReplayOptions{Mode: DeliveryMode(42)}, false},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if c.ok && err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c.opts, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Validate(%+v) accepted invalid options", c.opts)
		}
	}
}

// TestParseDeliveryMode covers the CLI spellings, including the usage list
// in the error for unknown modes.
func TestParseDeliveryMode(t *testing.T) {
	for want, spelling := range map[DeliveryMode]string{
		Quiescent: "quiescent", Pipelined: "pipelined", Windowed: "windowed",
	} {
		got, err := ParseDeliveryMode(spelling)
		if err != nil || got != want {
			t.Errorf("ParseDeliveryMode(%q) = %v, %v", spelling, got, err)
		}
		if got.String() != spelling {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), spelling)
		}
	}
	if _, err := ParseDeliveryMode("bogus"); err == nil {
		t.Error("unknown mode should be rejected")
	} else {
		for _, name := range DeliveryModeNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not list mode %q", err, name)
			}
		}
	}
	if names := DeliveryModeNames(); len(names) != 3 {
		t.Errorf("DeliveryModeNames() = %v, want 3 modes", names)
	}
}

// TestRequiredValidityFactor pins the validity scaling rule the windowed
// conformance argument depends on.
func TestRequiredValidityFactor(t *testing.T) {
	for _, c := range []struct {
		mode DeliveryMode
		lag  int
		want int
	}{
		{Quiescent, 0, 2},
		{Pipelined, 0, 2},
		{Windowed, 0, 2},
		{Windowed, 1, 3},
		{Windowed, 4, 6},
	} {
		if got := RequiredValidityFactor(c.mode, c.lag); got != c.want {
			t.Errorf("RequiredValidityFactor(%v, %d) = %d, want %d", c.mode, c.lag, got, c.want)
		}
	}
}
