package stores

import (
	"testing"

	"sensorcq/internal/model"
	"sensorcq/internal/stats"
)

// TestEventIndexRemovalMatchesLinearScan extends the central property test
// of the fast path to churn: after interleaved Adds and Removes (crossing
// the tombstone-rebuild threshold), the candidate set must still equal the
// brute-force match over the live population, and re-adding a removed ID
// must behave like a fresh registration.
func TestEventIndexRemovalMatchesLinearScan(t *testing.T) {
	rng := stats.NewRNG(777)
	for trial := 0; trial < 15; trial++ {
		n := 40 + int(rng.Uint64()%120)
		idx := NewEventIndex()
		subs := make([]*model.Subscription, 0, n)
		for i := 0; i < n; i++ {
			sub := randomSubscription(t, rng, trial*1000+i)
			subs = append(subs, sub)
			idx.Add(sub)
		}
		// Remove a random ~2/3 of the population — enough to trip the
		// rebuild threshold repeatedly.
		live := make([]*model.Subscription, 0, n)
		for _, sub := range subs {
			if rng.Bool(0.66) {
				if !idx.Remove(sub.ID) {
					t.Fatalf("Remove(%s) = false for a live member", sub.ID)
				}
				if idx.Remove(sub.ID) {
					t.Fatalf("second Remove(%s) = true", sub.ID)
				}
			} else {
				live = append(live, sub)
			}
		}
		if idx.Len() != len(live) {
			t.Fatalf("Len() = %d, want %d live members", idx.Len(), len(live))
		}
		for q := 0; q < 60; q++ {
			ev := randomEvent(rng, uint64(q+1))
			got := candidateIDs(idx, ev)
			want := linearMatchIDs(live, ev)
			if !equalStrings(got, want) {
				t.Fatalf("trial %d after churn: candidates(%v) = %v, want %v", trial, ev, got, want)
			}
		}
		// Drop the remaining live members, then re-register a handful of the
		// removed subscriptions: they must match again, exactly once.
		removed := make([]*model.Subscription, 0, n)
		for _, sub := range subs {
			if !idx.Remove(sub.ID) {
				removed = append(removed, sub)
			}
		}
		if idx.Len() != 0 {
			t.Fatalf("Len() = %d, want 0 after removing everything", idx.Len())
		}
		if len(removed) > 10 {
			removed = removed[:10]
		}
		for _, sub := range removed {
			idx.Add(sub)
		}
		live = removed
		for q := 0; q < 40; q++ {
			ev := randomEvent(rng, uint64(q+1000))
			got := candidateIDs(idx, ev)
			want := linearMatchIDs(live, ev)
			if !equalStrings(got, want) {
				t.Fatalf("trial %d after re-add: candidates(%v) = %v, want %v", trial, ev, got, want)
			}
		}
	}
}

// TestEventIndexDoubleAddIsNoop pins the idempotence contract Add gained
// with removal support.
func TestEventIndexDoubleAddIsNoop(t *testing.T) {
	rng := stats.NewRNG(9)
	sub := randomSubscription(t, rng, 1)
	idx := NewEventIndex()
	idx.Add(sub)
	idx.Add(sub)
	if idx.Len() != 1 {
		t.Fatalf("Len() = %d, want 1 after double Add", idx.Len())
	}
	for q := 0; q < 200; q++ {
		ev := randomEvent(rng, uint64(q+1))
		if !sub.MatchesEvent(ev) {
			continue
		}
		if got := len(candidateIDs(idx, ev)); got != 1 {
			t.Fatalf("matching event yielded %d candidates, want 1", got)
		}
		return
	}
}

// TestSubscriptionTableRemovePromote covers the churn surface of the
// subscription table: removal from covered and uncovered sets, Seen
// clearing, promotion of covered entries into the uncovered set, and an
// index loaded from the uncovered set following the mutations.
func TestSubscriptionTableRemovePromote(t *testing.T) {
	rng := stats.NewRNG(31)
	tbl := NewSubscriptionTable()
	a := randomSubscription(t, rng, 1)
	b := randomSubscription(t, rng, 2)
	c := randomSubscription(t, rng, 3)
	tbl.AddUncovered(a)
	tbl.AddUncovered(b)
	tbl.AddCovered(c)

	if _, _, ok := tbl.Remove("nope"); ok {
		t.Error("removing an unknown ID should report !ok")
	}
	sub, wasUncovered, ok := tbl.Remove(a.ID)
	if !ok || !wasUncovered || sub != a {
		t.Fatalf("Remove(uncovered) = (%v, %v, %v)", sub, wasUncovered, ok)
	}
	if tbl.Seen(a.ID) {
		t.Error("removed ID must not stay Seen")
	}
	if n := len(tbl.Uncovered()); n != 1 {
		t.Errorf("uncovered count = %d, want 1", n)
	}
	// An index over the uncovered set must follow the mutations.
	probe := func() int {
		count := 0
		for q := 0; q < 400; q++ {
			count += len(uncoveredCandidateIDs(tbl, randomEvent(rng, uint64(q+1))))
		}
		return count
	}
	withB := probe()

	if got := tbl.Promote(c.ID); got != c {
		t.Fatalf("Promote(covered) = %v, want %v", got, c)
	}
	if tbl.Promote(c.ID) != nil {
		t.Error("second Promote should find nothing")
	}
	if nc, nu := len(tbl.Covered()), len(tbl.Uncovered()); nc != 0 || nu != 2 {
		t.Errorf("after promote: covered=%d uncovered=%d, want 0/2", nc, nu)
	}
	if !tbl.Seen(c.ID) {
		t.Error("promoted ID must stay Seen")
	}

	sub, wasUncovered, ok = tbl.Remove(c.ID)
	if !ok || !wasUncovered || sub != c {
		t.Fatalf("Remove(promoted) = (%v, %v, %v)", sub, wasUncovered, ok)
	}
	if got := probe(); got > withB {
		// c was promoted into the index and removed again: candidates must
		// be back to b's alone (the probe uses fresh random events, so
		// compare loosely via the b-only baseline with the same RNG stream
		// being different; instead assert exact emptiness after removing b).
		t.Logf("probe after c removal = %d (b-only baseline %d)", got, withB)
	}
	if _, _, ok := tbl.Remove(b.ID); !ok {
		t.Fatal("removing b should succeed")
	}
	if got := probe(); got != 0 {
		t.Errorf("empty table still yields %d candidates", got)
	}
	if tbl.Len() != 0 {
		t.Errorf("%d subscriptions left, want none", tbl.Len())
	}
}
