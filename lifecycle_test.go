package sensorcq

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"sensorcq/internal/netsim"
)

// matchingPair returns one (a, b) reading pair matching the walkthrough
// subscriptions, with fresh sequence numbers.
func matchingPair(seq uint64, at Timestamp) []Event {
	return []Event{
		{Seq: seq, Sensor: "a", Attr: AmbientTemperature, Value: 60, Time: at},
		{Seq: seq + 1, Sensor: "b", Attr: RelativeHumidity, Value: 20, Time: at + 2},
	}
}

func walkthroughSub(t *testing.T, id SubscriptionID) *Subscription {
	t.Helper()
	sub, err := NewIdentifiedSubscription(id, []SensorFilter{
		{Sensor: "a", Attr: AmbientTemperature, Range: NewInterval(50, 80)},
		{Sensor: "b", Attr: RelativeHumidity, Range: NewInterval(10, 30)},
	}, 30)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestSubscriptionHandleLifecycle walks the full subscribe → stream →
// unsubscribe story on both runtimes: push sinks (channel and callback) must
// mirror the pull log exactly, Unsubscribe must close the stream and stop
// deliveries network-wide, and the retracted ID must be reusable.
func TestSubscriptionHandleLifecycle(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := "sequential"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			dep := buildWalkthroughDeployment(t)
			sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1, Concurrent: concurrent})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()

			var callbackCount atomic.Int64
			// WithRetainLog keeps the pull log readable after Unsubscribe —
			// the push-vs-pull equality below is asserted on the retired
			// handle (default eviction is covered by
			// TestUnsubscribeEvictsDeliveryMaps).
			h, err := sys.Subscribe(5, walkthroughSub(t, "alert"),
				WithCallback(func(Delivery) { callbackCount.Add(1) }), WithRetainLog())
			if err != nil {
				t.Fatal(err)
			}
			if h.ID() != "alert" || h.Node() != 5 || !h.Active() {
				t.Error("handle identity accessors wrong")
			}
			if got, err := sys.HandleByID("alert"); err != nil || got != h || len(sys.Handles()) != 1 {
				t.Errorf("handle registry lookup = (%v, %v), want the registered handle", got, err)
			}
			if _, err := sys.HandleByID("never-registered"); !errors.Is(err, ErrUnknownSubscription) {
				t.Errorf("HandleByID unknown ID = %v, want ErrUnknownSubscription", err)
			}

			// A second registration of an active ID is rejected.
			if _, err := sys.Subscribe(5, walkthroughSub(t, "alert")); !errors.Is(err, ErrDuplicateSubscription) {
				t.Errorf("duplicate subscribe error = %v, want ErrDuplicateSubscription", err)
			}

			if err := sys.PublishBatch(matchingPair(1, 100)); err != nil {
				t.Fatal(err)
			}
			if err := sys.PublishBatch(matchingPair(3, 200)); err != nil {
				t.Fatal(err)
			}
			if got := h.Delivered(); got != 2 {
				t.Errorf("handle delivered = %d, want 2", got)
			}
			if got := callbackCount.Load(); got != 2 {
				t.Errorf("callback invocations = %d, want 2", got)
			}
			if h.DroppedPushes() != 0 {
				t.Errorf("dropped pushes = %d, want 0", h.DroppedPushes())
			}
			seqs := sys.DeliveredEventSeqs(h.ID())
			for _, want := range []uint64{1, 2, 3, 4} {
				if !seqs[want] {
					t.Errorf("delivered seqs missing %d: %v", want, seqs)
				}
			}

			// Unsubscribe closes the stream; the pushed stream must equal
			// the pull log exactly (same complex events, same multiplicity).
			if err := h.Unsubscribe(); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.HandleByID("alert"); !errors.Is(err, ErrUnknownSubscription) {
				t.Errorf("HandleByID of retired ID = %v, want ErrUnknownSubscription", err)
			}
			if h.Active() || len(sys.Handles()) != 0 {
				t.Error("handle should be retired after Unsubscribe")
			}
			var pushed []Delivery
			for d := range h.Deliveries() {
				pushed = append(pushed, d)
			}
			pulled := sys.DeliveriesFor(h.ID())
			if len(pushed) != len(pulled) || len(pushed) != 2 {
				t.Fatalf("pushed %d deliveries, pulled %d, want 2", len(pushed), len(pulled))
			}
			for i := range pushed {
				if fmt.Sprintf("%v", pushed[i].Events.Seqs()) != fmt.Sprintf("%v", pulled[i].Events.Seqs()) {
					t.Errorf("push/pull mismatch at %d: %v vs %v", i, pushed[i].Events, pulled[i].Events)
				}
			}

			// Double unsubscribe (both spellings) reports the terminal state.
			if err := h.Unsubscribe(); !errors.Is(err, ErrUnsubscribed) {
				t.Errorf("second Unsubscribe = %v, want ErrUnsubscribed", err)
			}
			if err := sys.Unsubscribe("alert"); !errors.Is(err, ErrUnsubscribed) {
				t.Errorf("System.Unsubscribe of retired ID = %v, want ErrUnsubscribed", err)
			}

			// The network no longer delivers or forwards for the retracted
			// subscription.
			traffic := sys.Traffic()
			if traffic.UnsubscriptionLoad == 0 {
				t.Error("retraction generated no unsubscription traffic")
			}
			eventsBefore := traffic.EventLoad
			if err := sys.PublishBatch(matchingPair(5, 300)); err != nil {
				t.Fatal(err)
			}
			if got := len(sys.DeliveriesFor("alert")); got != 2 {
				t.Errorf("deliveries after unsubscribe = %d, want 2 (no new)", got)
			}
			if got := sys.Traffic().EventLoad; got != eventsBefore {
				t.Errorf("event load grew from %d to %d after unsubscribe", eventsBefore, got)
			}

			// The ID is free again.
			h2, err := sys.Subscribe(5, walkthroughSub(t, "alert"))
			if err != nil {
				t.Fatalf("re-subscribe after unsubscribe: %v", err)
			}
			if err := sys.PublishBatch(matchingPair(7, 400)); err != nil {
				t.Fatal(err)
			}
			if got := h2.Delivered(); got != 1 {
				t.Errorf("re-subscribed handle delivered = %d, want 1", got)
			}
		})
	}
}

// TestUnsubscribeEvictsDeliveryMaps verifies the pull-log lifecycle on both
// runtimes: by default Unsubscribe evicts the retracted subscription's
// delivery-map entries (DeliveriesFor, DeliveredEventSeqs) so a long-running
// system does not accumulate dead history, while the system-wide delivery
// log keeps every recorded delivery; WithRetainLog opts a subscription out.
func TestUnsubscribeEvictsDeliveryMaps(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := "sequential"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			dep := buildWalkthroughDeployment(t)
			sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1, Concurrent: concurrent})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()

			evicted, err := sys.Subscribe(5, walkthroughSub(t, "evicted"))
			if err != nil {
				t.Fatal(err)
			}
			retained, err := sys.Subscribe(5, walkthroughSub(t, "retained"), WithRetainLog())
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.PublishBatch(matchingPair(1, 100)); err != nil {
				t.Fatal(err)
			}
			if got := len(sys.DeliveriesFor("evicted")); got != 1 {
				t.Fatalf("pre-unsubscribe deliveries = %d, want 1", got)
			}
			logTotal := len(sys.Deliveries())
			if logTotal == 0 {
				t.Fatal("system delivery log is empty")
			}

			if err := evicted.Unsubscribe(); err != nil {
				t.Fatal(err)
			}
			if err := retained.Unsubscribe(); err != nil {
				t.Fatal(err)
			}
			if got := len(sys.DeliveriesFor("evicted")); got != 0 {
				t.Errorf("evicted pull log = %d deliveries after unsubscribe, want 0", got)
			}
			if got := len(sys.DeliveredEventSeqs("evicted")); got != 0 {
				t.Errorf("evicted delivered seqs = %d after unsubscribe, want 0", got)
			}
			if got := len(sys.DeliveriesFor(evicted.ID())); got != 0 {
				t.Errorf("evicted handle log = %d deliveries, want 0", got)
			}
			if got := len(sys.DeliveriesFor("retained")); got != 1 {
				t.Errorf("retained pull log = %d deliveries after unsubscribe, want 1 (WithRetainLog)", got)
			}
			if got := len(sys.DeliveredEventSeqs("retained")); got == 0 {
				t.Error("retained delivered seqs evicted despite WithRetainLog")
			}
			// The system-wide log is append-only: eviction only releases the
			// per-subscription maps.
			if got := len(sys.Deliveries()); got != logTotal {
				t.Errorf("system delivery log shrank from %d to %d on unsubscribe", logTotal, got)
			}
		})
	}
}

// TestSinkBufferOverflowCounts verifies the bounded channel sink: with a
// one-slot buffer and no consumer, extra deliveries are counted as dropped
// pushes while the pull log stays complete.
func TestSinkBufferOverflowCounts(t *testing.T) {
	dep := buildWalkthroughDeployment(t)
	sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	h, err := sys.Subscribe(5, walkthroughSub(t, "q"), WithSinkBuffer(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sys.PublishBatch(matchingPair(uint64(1+2*i), Timestamp(100*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Delivered(); got != 3 {
		t.Fatalf("delivered = %d, want 3", got)
	}
	if got := h.DroppedPushes(); got != 2 {
		t.Errorf("dropped pushes = %d, want 2 (buffer of 1, no consumer)", got)
	}
	if got := len(sys.DeliveriesFor(h.ID())); got != 3 {
		t.Errorf("pull log = %d deliveries, want 3 (never drops)", got)
	}
	// A disabled sink never buffers and never drops.
	h2, err := sys.Subscribe(5, walkthroughSub(t, "nosink"), WithSinkBuffer(0))
	if err != nil {
		t.Fatal(err)
	}
	if h2.Deliveries() != nil {
		t.Error("WithSinkBuffer(0) should disable the delivery channel")
	}
	if err := sys.PublishBatch(matchingPair(7, 400)); err != nil {
		t.Fatal(err)
	}
	if h2.DroppedPushes() != 0 || h2.Delivered() == 0 {
		t.Errorf("disabled sink: delivered=%d dropped=%d, want >0 and 0", h2.Delivered(), h2.DroppedPushes())
	}
}

// TestSystemCloseGuards verifies the use-after-Close contract on both
// runtimes: Close is idempotent with an error return, and every operation on
// a closed system fails with ErrClosed instead of panicking or silently
// dropping work.
func TestSystemCloseGuards(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := "sequential"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			dep := buildWalkthroughDeployment(t)
			sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1, Concurrent: concurrent})
			if err != nil {
				t.Fatal(err)
			}
			h, err := sys.Subscribe(5, walkthroughSub(t, "q"))
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Close(); err != nil {
				t.Fatalf("first Close = %v, want nil", err)
			}
			if err := sys.Close(); !errors.Is(err, ErrClosed) {
				t.Errorf("second Close = %v, want ErrClosed", err)
			}
			if err := sys.Publish(matchingPair(1, 100)[0]); !errors.Is(err, ErrClosed) {
				t.Errorf("Publish after Close = %v, want ErrClosed", err)
			}
			if err := sys.PublishBatch(matchingPair(1, 100)); !errors.Is(err, ErrClosed) {
				t.Errorf("PublishBatch after Close = %v, want ErrClosed", err)
			}
			if err := sys.ReplayRounds([][]Event{matchingPair(1, 100)}); !errors.Is(err, ErrClosed) {
				t.Errorf("ReplayRounds after Close = %v, want ErrClosed", err)
			}
			if _, err := sys.Subscribe(5, walkthroughSub(t, "late")); !errors.Is(err, ErrClosed) {
				t.Errorf("Subscribe after Close = %v, want ErrClosed", err)
			}
			if err := h.Unsubscribe(); !errors.Is(err, ErrClosed) {
				t.Errorf("Unsubscribe after Close = %v, want ErrClosed", err)
			}
			// Close drained and closed the handle's stream.
			if _, open := <-h.Deliveries(); open {
				t.Error("handle channel should be closed by Close")
			}
		})
	}
}

// TestTypedSentinelErrors verifies the errors.Is contracts of the public
// surface that do not need a closed system.
func TestTypedSentinelErrors(t *testing.T) {
	dep := buildWalkthroughDeployment(t)
	sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Publish(Event{Seq: 1, Sensor: "ghost", Attr: WindSpeed}); !errors.Is(err, ErrUnknownSensor) {
		t.Errorf("Publish unknown sensor = %v, want ErrUnknownSensor", err)
	}
	if err := sys.PublishBatch([]Event{{Seq: 1, Sensor: "ghost", Attr: WindSpeed}}); !errors.Is(err, ErrUnknownSensor) {
		t.Errorf("PublishBatch unknown sensor = %v, want ErrUnknownSensor", err)
	}
	if err := sys.ReplayRounds([][]Event{{{Seq: 1, Sensor: "ghost", Attr: WindSpeed}}}); !errors.Is(err, ErrUnknownSensor) {
		t.Errorf("ReplayRounds unknown sensor = %v, want ErrUnknownSensor", err)
	}
	if err := sys.Unsubscribe("never-registered"); !errors.Is(err, ErrUnsubscribed) {
		t.Errorf("Unsubscribe unknown ID = %v, want ErrUnsubscribed", err)
	}
}

// TestParseDeliveryModeRoundTrip pins the CLI spelling contract: every name
// DeliveryModeNames advertises parses back to a mode whose String form is
// that same name, the empty string selects the quiescent default, and
// unknown spellings fail with an error listing the valid modes.
func TestParseDeliveryModeRoundTrip(t *testing.T) {
	names := DeliveryModeNames()
	if len(names) != 3 {
		t.Fatalf("DeliveryModeNames = %v, want 3 modes", names)
	}
	for _, name := range names {
		mode, err := ParseDeliveryMode(name)
		if err != nil {
			t.Fatalf("ParseDeliveryMode(%q): %v", name, err)
		}
		if got := mode.String(); got != name {
			t.Errorf("round trip %q -> %v -> %q", name, mode, got)
		}
	}
	if mode, err := ParseDeliveryMode(""); err != nil || mode != Quiescent {
		t.Errorf("empty spelling = (%v, %v), want (Quiescent, nil)", mode, err)
	}
	if _, err := ParseDeliveryMode("bogus"); err == nil {
		t.Error("unknown spelling should fail")
	} else {
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not list valid mode %q", err, name)
			}
		}
	}
}

// flakyUnsubRuntime wraps a real runtime so the first Unsubscribe call blocks
// until released and then fails; later calls pass through. It lets the test
// hold one retraction in its failing window while a second Unsubscribe races.
type flakyUnsubRuntime struct {
	netsim.Runtime
	entered chan struct{} // closed when the first call is inside the runtime
	release chan struct{} // the first call blocks here before failing
	calls   atomic.Int32
}

var errInjectedRetraction = errors.New("injected retraction failure")

func (f *flakyUnsubRuntime) Unsubscribe(node NodeID, id SubscriptionID) error {
	if f.calls.Add(1) == 1 {
		close(f.entered)
		<-f.release
		return errInjectedRetraction
	}
	return f.Runtime.Unsubscribe(node, id)
}

// TestConcurrentUnsubscribeFailure pins the failure-path contract of
// SubscriptionHandle.Unsubscribe under concurrency: while one call is stuck
// in a retraction that will fail, a second call must NOT report
// ErrUnsubscribed — that error promises the retraction ran. Instead the
// loser waits, retries the retraction itself, and succeeds.
func TestConcurrentUnsubscribeFailure(t *testing.T) {
	dep := buildWalkthroughDeployment(t)
	sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	h, err := sys.Subscribe(5, walkthroughSub(t, "alert"))
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyUnsubRuntime{
		Runtime: sys.runtime,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	sys.runtime = flaky

	errA := make(chan error, 1)
	go func() { errA <- h.Unsubscribe() }()
	<-flaky.entered // A is now inside its doomed retraction.

	errB := make(chan error, 1)
	go func() { errB <- h.Unsubscribe() }()

	// B must not produce a result while A's retraction is still in flight:
	// returning ErrUnsubscribed here would claim a retraction that never ran.
	select {
	case err := <-errB:
		t.Fatalf("second Unsubscribe returned %v while the first retraction was still in flight", err)
	default:
	}

	close(flaky.release)
	if err := <-errA; !errors.Is(err, errInjectedRetraction) {
		t.Fatalf("first Unsubscribe error = %v, want the injected retraction failure", err)
	}
	if err := <-errB; err != nil {
		t.Fatalf("second Unsubscribe after the first failed = %v, want success (retry of the retraction)", err)
	}
	if h.Active() {
		t.Error("handle still active after a successful Unsubscribe")
	}
	if err := h.Unsubscribe(); !errors.Is(err, ErrUnsubscribed) {
		t.Errorf("third Unsubscribe error = %v, want ErrUnsubscribed", err)
	}
	if n := flaky.calls.Load(); n != 2 {
		t.Errorf("runtime retraction ran %d times, want 2 (one failure, one success)", n)
	}
}

// TestConcurrentUnsubscribeStress hammers one handle from many goroutines
// with a runtime whose first retraction fails: exactly one caller must win,
// every ErrUnsubscribed must be preceded by that success, and the injected
// failure must surface exactly once. Run with -race this also proves the
// handle's lifecycle state is data-race free.
func TestConcurrentUnsubscribeStress(t *testing.T) {
	dep := buildWalkthroughDeployment(t)
	sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	h, err := sys.Subscribe(5, walkthroughSub(t, "alert"))
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyUnsubRuntime{
		Runtime: sys.runtime,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	close(flaky.release) // do not block, just fail the first call
	sys.runtime = flaky

	const workers = 8
	results := make(chan error, workers)
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		go func() {
			<-start
			results <- h.Unsubscribe()
		}()
	}
	close(start)

	var ok, already, injected int
	for i := 0; i < workers; i++ {
		switch err := <-results; {
		case err == nil:
			ok++
		case errors.Is(err, ErrUnsubscribed):
			already++
		case errors.Is(err, errInjectedRetraction):
			injected++
		default:
			t.Errorf("unexpected Unsubscribe error: %v", err)
		}
	}
	if ok != 1 {
		t.Errorf("%d callers succeeded, want exactly 1", ok)
	}
	if injected != 1 {
		t.Errorf("injected failure surfaced %d times, want exactly 1", injected)
	}
	if already != workers-2 {
		t.Errorf("%d callers saw ErrUnsubscribed, want %d", already, workers-2)
	}
}
