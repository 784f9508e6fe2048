package stores

import (
	"fmt"
	"slices"
	"testing"

	"sensorcq/internal/model"
	"sensorcq/internal/stats"
)

// flatTable is the subscription table without class buckets: one uncovered
// and one covered list in storage order, every scan over the whole table. The bucketed table must answer like it.
type flatTable struct {
	uncovered, covered []*model.Subscription
}

func (f *flatTable) remove(id model.SubscriptionID) {
	if i := slices.IndexFunc(f.uncovered, func(s *model.Subscription) bool { return s.ID == id }); i >= 0 {
		f.uncovered = slices.Delete(f.uncovered, i, i+1)
		return
	}
	i := slices.IndexFunc(f.covered, func(s *model.Subscription) bool { return s.ID == id })
	f.covered = slices.Delete(f.covered, i, i+1)
}

func (f *flatTable) promote(id model.SubscriptionID) {
	i := slices.IndexFunc(f.covered, func(s *model.Subscription) bool { return s.ID == id })
	sub := f.covered[i]
	f.covered = slices.Delete(f.covered, i, i+1)
	f.uncovered = append(f.uncovered, sub)
}

// inClass filters a flat list down to one comparability class.
func inClass(subs []*model.Subscription, like *model.Subscription) []*model.Subscription {
	var out []*model.Subscription
	for _, s := range subs {
		if s.Class() == like.Class() {
			out = append(out, s)
		}
	}
	return out
}

func sortedByID(subs []*model.Subscription) []model.SubscriptionID {
	ids := make([]model.SubscriptionID, len(subs))
	for i, s := range subs {
		ids[i] = s.ID
	}
	slices.Sort(ids)
	return ids
}

func inOrder(subs []*model.Subscription) []model.SubscriptionID {
	ids := make([]model.SubscriptionID, len(subs))
	for i, s := range subs {
		ids[i] = s.ID
	}
	return ids
}

// TestSubscriptionTableMatchesFlatTable churns a table through random
// additions, removals and promotions and compares it, after every
// step, with the flat reference: the same members, the same storage order
// within every comparability class, the same counts and one bucket per live
// class.
func TestSubscriptionTableMatchesFlatTable(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed)
		tbl := NewSubscriptionTable()
		flat := &flatTable{}
		var stored []*model.Subscription
		mostCovered := 0
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(stored) == 0:
				sub := randomSubscription(t, rng, step)
				if len(flat.uncovered) > 0 && rng.Bool(0.5) {
					sub = coveredVariant(t, rng, flat.uncovered[rng.Intn(len(flat.uncovered))], fmt.Sprintf("s%d", step))
				}
				stored = append(stored, sub)
				if rng.Bool(0.5) {
					tbl.AddCovered(sub)
					flat.covered = append(flat.covered, sub)
				} else {
					tbl.AddUncovered(sub)
					flat.uncovered = append(flat.uncovered, sub)
				}
				if tbl.AddUncovered(sub) || tbl.AddCovered(sub) {
					t.Fatalf("seed %d step %d: %s stored twice", seed, step, sub.ID)
				}
			case op < 8:
				i := rng.Intn(len(stored))
				sub := stored[i]
				stored = slices.Delete(stored, i, i+1)
				wasUncovered := slices.Contains(flat.uncovered, sub)
				got, gotUncovered, ok := tbl.Remove(sub.ID)
				if !ok || got != sub || gotUncovered != wasUncovered {
					t.Fatalf("seed %d step %d: Remove(%s) = %v, %v, %v", seed, step, sub.ID, got, gotUncovered, ok)
				}
				flat.remove(sub.ID)
				if tbl.Seen(sub.ID) {
					t.Fatalf("seed %d step %d: %s still seen after Remove", seed, step, sub.ID)
				}
			case len(flat.covered) > 0:
				sub := flat.covered[rng.Intn(len(flat.covered))]
				if tbl.Promote(sub.ID) != sub || tbl.Promote(sub.ID) != nil {
					t.Fatalf("seed %d step %d: Promote(%s) wrong", seed, step, sub.ID)
				}
				flat.promote(sub.ID)
			}

			if a, b := sortedByID(tbl.Uncovered()), sortedByID(flat.uncovered); !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d: uncovered %v, want %v", seed, step, a, b)
			}
			if a, b := sortedByID(tbl.Covered()), sortedByID(flat.covered); !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d: covered %v, want %v", seed, step, a, b)
			}
			if nu, nc := len(tbl.Uncovered()), len(tbl.Covered()); nu != len(flat.uncovered) || nc != len(flat.covered) || tbl.Len() != len(stored) {
				t.Fatalf("seed %d step %d: counts %d/%d of %d, want %d/%d of %d", seed, step, nu, nc, tbl.Len(), len(flat.uncovered), len(flat.covered), len(stored))
			}
			for _, s := range stored {
				if a, b := inOrder(tbl.UncoveredComparable(s)), inOrder(inClass(flat.uncovered, s)); !slices.Equal(a, b) {
					t.Fatalf("seed %d step %d: uncovered of %s's class %v, want %v", seed, step, s.ID, a, b)
				}
				if a, b := inOrder(tbl.CoveredComparable(s)), inOrder(inClass(flat.covered, s)); !slices.Equal(a, b) {
					t.Fatalf("seed %d step %d: covered of %s's class %v, want %v", seed, step, s.ID, a, b)
				}
			}
			mostCovered = max(mostCovered, len(flat.covered))
			classes := map[model.Class]bool{}
			for _, s := range stored {
				classes[s.Class()] = true
			}
			if len(tbl.classes) != len(classes) || len(tbl.order) != len(classes) {
				t.Fatalf("seed %d step %d: %d class buckets (%d ordered) for %d live classes", seed, step, len(tbl.classes), len(tbl.order), len(classes))
			}
		}
		if mostCovered < 5 {
			t.Errorf("seed %d: never more than %d covered subscriptions at once", seed, mostCovered)
		}
	}
}
