package stores

import (
	"testing"

	"sensorcq/internal/model"
	"sensorcq/internal/stats"
)

// TestEventIndexBulkLoadMatchesEager is the index-level bulk equivalence
// property test: a bulk-loaded index (BulkLoad, and Adds staged until the
// first lookup) must produce the same candidate sets as an eagerly built one
// for random populations, and Remove must behave identically afterwards —
// the bulk-packed trees are interchangeable with incrementally grown ones.
func TestEventIndexBulkLoadMatchesEager(t *testing.T) {
	rng := stats.NewRNG(4242)
	for trial := 0; trial < 20; trial++ {
		n := 1 + int(rng.Uint64()%200)
		subs := make([]*model.Subscription, 0, n)
		for i := 0; i < n; i++ {
			subs = append(subs, randomSubscription(t, rng, trial*1000+i))
		}

		bulk := NewEventIndex()
		bulk.BulkLoad(subs)
		// A fresh index after BulkLoad(nil) is built, so every Add below
		// descends into the trees one box at a time.
		eager := NewEventIndex()
		eager.BulkLoad(nil)
		for _, sub := range subs {
			eager.Add(sub)
		}
		if bulk.Len() != eager.Len() {
			t.Fatalf("trial %d: bulk Len %d, eager Len %d", trial, bulk.Len(), eager.Len())
		}

		for q := 0; q < 60; q++ {
			ev := randomEvent(rng, uint64(q+1))
			got, want := candidateIDs(bulk, ev), linearMatchIDs(subs, ev)
			if !equalStrings(got, want) {
				t.Fatalf("trial %d: bulk candidates(%v) = %v, want %v", trial, ev, got, want)
			}
			if eagerGot := candidateIDs(eager, ev); !equalStrings(eagerGot, want) {
				t.Fatalf("trial %d: eager candidates(%v) = %v, want %v", trial, ev, eagerGot, want)
			}
		}

		// Remove every other subscription from both; the packed trees must
		// splice entries out exactly like the incrementally grown ones.
		live := subs[:0:0]
		for i, sub := range subs {
			if i%2 == 0 {
				if !bulk.Remove(sub.ID) || !eager.Remove(sub.ID) {
					t.Fatalf("trial %d: Remove(%s) failed", trial, sub.ID)
				}
				continue
			}
			live = append(live, sub)
		}
		for q := 0; q < 60; q++ {
			ev := randomEvent(rng, uint64(q+100))
			got, want := candidateIDs(bulk, ev), linearMatchIDs(live, ev)
			if !equalStrings(got, want) {
				t.Fatalf("trial %d post-remove: bulk candidates(%v) = %v, want %v", trial, ev, got, want)
			}
		}
	}
}

// TestEventIndexStagedRemovalAndReAdd pins the staging corner cases: a
// subscription added, removed, and re-added before the first lookup must
// appear exactly once, and one removed before the first lookup must not
// appear at all.
func TestEventIndexStagedRemovalAndReAdd(t *testing.T) {
	rng := stats.NewRNG(77)
	a := randomSubscription(t, rng, 1)
	b := randomSubscription(t, rng, 2)

	idx := NewEventIndex()
	idx.Add(a)
	idx.Add(b)
	if !idx.Remove(a.ID) {
		t.Fatal("Remove(a) before first lookup failed")
	}
	idx.Add(a) // re-add while still staged
	if !idx.Remove(b.ID) {
		t.Fatal("Remove(b) before first lookup failed")
	}
	if idx.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", idx.Len())
	}
	for q := 0; q < 200; q++ {
		ev := randomEvent(rng, uint64(q+1))
		got := candidateIDs(idx, ev)
		want := linearMatchIDs([]*model.Subscription{a}, ev)
		if !equalStrings(got, want) {
			t.Fatalf("candidates(%v) = %v, want %v", ev, got, want)
		}
	}
}

// TestEventIndexStagingStaysBounded churns 10 000 add/remove pairs through
// an index no lookup has ever built, beside 50 members that stay: the
// staged list must stay bounded by the live population instead of keeping
// every subscription ever registered, and the first lookup must then see
// exactly the members that stayed.
func TestEventIndexStagingStaysBounded(t *testing.T) {
	rng := stats.NewRNG(91)
	idx := NewEventIndex()
	var kept []*model.Subscription
	for i := 0; i < 50; i++ {
		sub := randomSubscription(t, rng, i)
		kept = append(kept, sub)
		idx.Add(sub)
	}
	// A few subscriptions are drawn once and re-registered under one ID,
	// as a client that reuses its query ID does.
	churn := make([]*model.Subscription, 8)
	for i := range churn {
		churn[i] = randomSubscription(t, rng, 1000+i)
	}
	peak := 0
	for i := 0; i < 10000; i++ {
		sub := churn[i%len(churn)]
		if i%2 == 0 {
			sub = randomSubscription(t, rng, 2000+i) // a fresh ID
		}
		idx.Add(sub)
		if !idx.Remove(sub.ID) {
			t.Fatalf("pair %d: Remove(%s) failed", i, sub.ID)
		}
		peak = max(peak, len(idx.pending))
	}
	if bound := 2*len(kept) + 17; peak > bound {
		t.Fatalf("staged list peaked at %d entries for %d live members, want at most %d", peak, len(kept), bound)
	}
	if idx.Len() != len(kept) {
		t.Fatalf("Len() = %d, want %d", idx.Len(), len(kept))
	}
	for q := 0; q < 200; q++ {
		ev := randomEvent(rng, uint64(q+1))
		if got, want := candidateIDs(idx, ev), linearMatchIDs(kept, ev); !equalStrings(got, want) {
			t.Fatalf("candidates(%v) = %v, want %v", ev, got, want)
		}
	}
}

// TestEventIndexStats sanity-checks the diagnostic counters: entry and tree
// counts match the population, the packed trees respect the balance bound,
// and the lookup tallies advance with queries.
func TestEventIndexStats(t *testing.T) {
	rng := stats.NewRNG(9)
	idx := NewEventIndex()
	subs := make([]*model.Subscription, 0, 120)
	for i := 0; i < 120; i++ {
		subs = append(subs, randomSubscription(t, rng, i))
	}
	idx.BulkLoad(subs)

	st := idx.Stats()
	if st.Members != 120 {
		t.Fatalf("Members = %d, want 120", st.Members)
	}
	if st.Trees == 0 || st.Boxes == 0 {
		t.Fatalf("no trees/boxes recorded: %+v", st)
	}
	if st.Nodes < st.Boxes {
		t.Fatalf("Nodes %d < Boxes %d", st.Nodes, st.Boxes)
	}
	if st.Lookups != 0 {
		t.Fatalf("Lookups = %d before any Candidates call", st.Lookups)
	}
	ev := randomEvent(rng, 1)
	idx.Candidates(ev, func(*model.Subscription) bool { return true })
	if st = idx.Stats(); st.Lookups != 1 {
		t.Fatalf("Lookups = %d after one Candidates call", st.Lookups)
	}

}
