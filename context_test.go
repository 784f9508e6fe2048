package sensorcq

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestBackpressureModes pins the three sink policies of WithBackpressure on
// a one-slot buffer with no consumer: DropNewest keeps the oldest delivery,
// DropOldest keeps the newest, and BlockWithTimeout waits out its timeout
// before counting the drop. The pull log stays complete under every mode.
func TestBackpressureModes(t *testing.T) {
	deliver := func(t *testing.T, h *SubscriptionHandle, sys *System) {
		t.Helper()
		// Three matching pairs, far enough apart that they correlate into
		// exactly three complex events (seqs {1,2}, {3,4}, {5,6}).
		for i := 0; i < 3; i++ {
			if err := sys.PublishBatch(matchingPair(uint64(1+2*i), Timestamp(100*(i+1)))); err != nil {
				t.Fatal(err)
			}
		}
		if got := h.Delivered(); got != 3 {
			t.Fatalf("delivered = %d, want 3", got)
		}
	}

	t.Run("drop_newest", func(t *testing.T) {
		dep := buildWalkthroughDeployment(t)
		sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		h, err := sys.Subscribe(5, walkthroughSub(t, "q"),
			WithSinkBuffer(1), WithBackpressure(DropNewest, 0))
		if err != nil {
			t.Fatal(err)
		}
		deliver(t, h, sys)
		if got := h.DroppedPushes(); got != 2 {
			t.Errorf("dropped pushes = %d, want 2", got)
		}
		// The buffered delivery is the first one: later ones were refused.
		d := <-h.Deliveries()
		if seqs := d.Events.Seqs(); len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
			t.Errorf("buffered delivery seqs = %v, want [1 2] (oldest kept)", seqs)
		}
		if got := len(sys.DeliveriesFor(h.ID())); got != 3 {
			t.Errorf("pull log = %d deliveries, want 3 (push drops never lose history)", got)
		}
	})

	t.Run("drop_oldest", func(t *testing.T) {
		dep := buildWalkthroughDeployment(t)
		sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		h, err := sys.Subscribe(5, walkthroughSub(t, "q"),
			WithSinkBuffer(1), WithBackpressure(DropOldest, 0))
		if err != nil {
			t.Fatal(err)
		}
		deliver(t, h, sys)
		if got := h.DroppedPushes(); got != 2 {
			t.Errorf("dropped pushes = %d, want 2", got)
		}
		// The buffered delivery is the last one: older ones were evicted.
		d := <-h.Deliveries()
		if seqs := d.Events.Seqs(); len(seqs) != 2 || seqs[0] != 5 || seqs[1] != 6 {
			t.Errorf("buffered delivery seqs = %v, want [5 6] (newest kept)", seqs)
		}
		if got := len(sys.DeliveriesFor(h.ID())); got != 3 {
			t.Errorf("pull log = %d deliveries, want 3", got)
		}
	})

	t.Run("block_with_timeout", func(t *testing.T) {
		dep := buildWalkthroughDeployment(t)
		sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		h, err := sys.Subscribe(5, walkthroughSub(t, "q"),
			WithSinkBuffer(1), WithBackpressure(BlockWithTimeout, 20*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		// No consumer: the second delivery blocks for the timeout, then is
		// counted as dropped.
		start := time.Now()
		for i := 0; i < 2; i++ {
			if err := sys.PublishBatch(matchingPair(uint64(1+2*i), Timestamp(100*(i+1)))); err != nil {
				t.Fatal(err)
			}
		}
		if waited := time.Since(start); waited < 20*time.Millisecond {
			t.Errorf("blocked delivery returned after %v, want >= the 20ms timeout", waited)
		}
		if got := h.DroppedPushes(); got != 1 {
			t.Errorf("dropped pushes = %d, want 1 (timed out)", got)
		}
		// With a consumer the block resolves without dropping.
		go func() {
			for range h.Deliveries() {
			}
		}()
		if err := sys.PublishBatch(matchingPair(5, 300)); err != nil {
			t.Fatal(err)
		}
		if got := h.DroppedPushes(); got != 1 {
			t.Errorf("dropped pushes with consumer = %d, want still 1", got)
		}
	})

	t.Run("invalid_mode", func(t *testing.T) {
		dep := buildWalkthroughDeployment(t)
		sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if _, err := sys.Subscribe(5, walkthroughSub(t, "q"), WithBackpressure(BackpressureMode(99), 0)); err == nil {
			t.Error("Subscribe with unknown backpressure mode should fail")
		}
	})
}

// TestParseBackpressureMode pins the wire spellings of the three modes.
func TestParseBackpressureMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want BackpressureMode
	}{
		{"", DropNewest},
		{"drop_newest", DropNewest},
		{"drop_oldest", DropOldest},
		{"block", BlockWithTimeout},
	} {
		mode, err := ParseBackpressureMode(tc.in)
		if err != nil || mode != tc.want {
			t.Errorf("ParseBackpressureMode(%q) = (%v, %v), want %v", tc.in, mode, err, tc.want)
		}
		if tc.in != "" && mode.String() != tc.in {
			t.Errorf("round trip %q -> %v -> %q", tc.in, mode, mode.String())
		}
	}
	if _, err := ParseBackpressureMode("bogus"); err == nil {
		t.Error("unknown spelling should fail")
	}
}

// TestContextCancellationSequential verifies that an already-cancelled
// context aborts every mutating call on the sequential runtime with
// context.Canceled, without corrupting the network: a cancelled Subscribe
// retracts itself, and the system keeps working afterwards.
func TestContextCancellationSequential(t *testing.T) {
	dep := buildWalkthroughDeployment(t)
	sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := sys.SubscribeContext(cancelled, 5, walkthroughSub(t, "q")); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled SubscribeContext = %v, want context.Canceled", err)
	}
	if _, err := sys.HandleByID("q"); !errors.Is(err, ErrUnknownSubscription) {
		t.Errorf("cancelled Subscribe left a registered handle: %v", err)
	}
	if err := sys.PublishContext(cancelled, matchingPair(1, 100)[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled PublishContext = %v, want context.Canceled", err)
	}
	if err := sys.ReplayRoundsContext(cancelled, [][]Event{matchingPair(3, 200)}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ReplayRoundsContext = %v, want context.Canceled", err)
	}

	// The cancelled registration was compensated: the same ID registers
	// cleanly and the system delivers as if the aborted calls never happened.
	h, err := sys.Subscribe(5, walkthroughSub(t, "q"))
	if err != nil {
		t.Fatalf("re-subscribe after cancelled Subscribe: %v", err)
	}
	if err := sys.PublishBatch(matchingPair(5, 300)); err != nil {
		t.Fatal(err)
	}
	if got := h.Delivered(); got != 1 {
		t.Errorf("delivered after recovery = %d, want 1", got)
	}
}

// TestContextCancellationBlocked verifies the acceptance contract on the
// concurrent runtime: a Publish or Subscribe blocked behind a stalled
// consumer (one-slot sink in block mode, nobody reading) aborts with
// context.Canceled when its context is cancelled, and the network finishes
// the in-flight work on the next drain.
func TestContextCancellationBlocked(t *testing.T) {
	dep := buildWalkthroughDeployment(t)
	sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}

	// A subscription whose deliveries block the pushing node: one-slot
	// buffer, block mode with a timeout far beyond the test horizon.
	h, err := sys.Subscribe(5, walkthroughSub(t, "q"),
		WithSinkBuffer(1), WithBackpressure(BlockWithTimeout, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// First pair fills the buffer without blocking.
	if err := sys.PublishBatch(matchingPair(1, 100)); err != nil {
		t.Fatal(err)
	}

	// The second pair's delivery blocks node 5's worker, so propagation
	// cannot reach quiescence and PublishContext hangs in its drain until
	// the context is cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	if err := sys.PublishContext(ctx, matchingPair(3, 200)[0]); err != nil {
		t.Fatalf("publish of the non-correlating half: %v", err)
	}
	err = sys.PublishContext(ctx, matchingPair(3, 200)[1])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked PublishContext = %v, want context.Canceled", err)
	}

	// A Subscribe behind the same stalled worker also aborts.
	ctx2, cancel2 := context.WithCancel(context.Background())
	timer2 := time.AfterFunc(50*time.Millisecond, cancel2)
	defer timer2.Stop()
	if _, err := sys.SubscribeContext(ctx2, 5, walkthroughSub(t, "late")); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked SubscribeContext = %v, want context.Canceled", err)
	}

	// Unblock the consumer; the in-flight delivery completes and Close
	// drains everything (the cancelled registration's compensation included).
	go func() {
		for range h.Deliveries() {
		}
	}()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if got := h.Delivered(); got != 2 {
		t.Errorf("delivered after drain = %d, want 2 (the blocked delivery completed)", got)
	}
	if _, err := sys.HandleByID("late"); !errors.Is(err, ErrUnknownSubscription) {
		t.Errorf("cancelled Subscribe left a registered handle: %v", err)
	}
}

// TestUnsubscribePromptWithBlockedSink pins the backpressure fix: an
// Unsubscribe racing a full BlockWithTimeout sink must return promptly —
// the blocked delivery wait is aborted up front (it no longer holds the
// handle lock, and on the concurrent runtime it no longer stalls the worker
// the retraction has to drain past) instead of being waited out for up to
// the full backpressure timeout.
func TestUnsubscribePromptWithBlockedSink(t *testing.T) {
	dep := buildWalkthroughDeployment(t)
	sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	h, err := sys.Subscribe(5, walkthroughSub(t, "q"),
		WithSinkBuffer(1), WithBackpressure(BlockWithTimeout, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the one-slot buffer, then stall node 5's worker on a second
	// delivery (nobody consumes).
	if err := sys.PublishBatch(matchingPair(1, 100)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	_ = sys.PublishContext(ctx, matchingPair(3, 200)[0])
	_ = sys.PublishContext(ctx, matchingPair(3, 200)[1])

	start := time.Now()
	if err := h.Unsubscribe(); err != nil {
		t.Fatalf("Unsubscribe with blocked sink: %v", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("Unsubscribe took %v, want prompt return (not the 1h backpressure timeout)", waited)
	}
	// The channel closed; both deliveries are in the pull log either way.
	if _, open := <-h.Deliveries(); open {
		// One buffered delivery may drain first; the channel must then close.
		if _, open := <-h.Deliveries(); open {
			t.Error("delivery channel still open after Unsubscribe")
		}
	}
}

// TestCloseContextBound verifies that CloseContext gives up on the drain at
// its context's deadline but still closes the system: handles terminate and
// later mutations fail with ErrClosed.
func TestCloseContextBound(t *testing.T) {
	dep := buildWalkthroughDeployment(t)
	sys, err := NewSystem(dep, Config{Approach: FilterSplitForward, Seed: 1, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Subscribe(5, walkthroughSub(t, "q"),
		WithSinkBuffer(1), WithBackpressure(BlockWithTimeout, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the buffer, then block the worker on a second delivery.
	if err := sys.PublishBatch(matchingPair(1, 100)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()
	_ = sys.PublishContext(ctx, matchingPair(3, 200)[0])
	_ = sys.PublishContext(ctx, matchingPair(3, 200)[1])

	cctx, ccancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer ccancel()
	if err := sys.CloseContext(cctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("CloseContext with stalled drain = %v, want context.DeadlineExceeded", err)
	}
	if err := sys.Publish(matchingPair(5, 300)[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after timed-out Close = %v, want ErrClosed", err)
	}
	// The handle's channel still closes (after the blocked push resolves).
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, open := <-h.Deliveries():
			if !open {
				return
			}
		case <-deadline:
			t.Fatal("handle channel never closed after CloseContext")
		}
	}
}
