package subsume

import (
	"fmt"
	"slices"
	"testing"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/stats"
)

// The two properties of the Checker contract that core's affected-set
// re-exposure rests on, asserted for every checker over random populations
// (randomSub, randomFrame in subsume_test.go).

func contractCheckers() []Checker {
	return []Checker{NoneChecker{}, PairwiseChecker{}, NewSetChecker(0.02, 23), ExactChecker{}}
}

// contractCase draws a candidate and a set to decide it against.
func contractCase(rng *stats.RNG) (*model.Subscription, []*model.Subscription) {
	id := fmt.Sprintf("c%d", rng.Intn(1<<20))
	if rng.Bool(0.1) {
		return randomFrame(rng, id)
	}
	return randomSub(rng, id, 30), randomPopulation(rng, 1+rng.Intn(40))
}

// TestCheckerLocality: a verdict depends only on the members Relevant to the
// candidate — it survives dropping every other member, dropping any one of
// them, and adding more of them.
func TestCheckerLocality(t *testing.T) {
	for _, checker := range contractCheckers() {
		t.Run(checker.Name(), func(t *testing.T) {
			rng := stats.NewRNG(7)
			subsumed, dropped := 0, 0
			for i := 0; i < 3000; i++ {
				candidate, set := contractCase(rng)
				want := checker.Subsumed(candidate, set)
				if want {
					subsumed++
				}
				var relevant, irrelevant []*model.Subscription
				for _, s := range set {
					if Relevant(candidate, s) {
						relevant = append(relevant, s)
					} else {
						irrelevant = append(irrelevant, s)
					}
				}
				dropped += len(irrelevant)
				if got := checker.Subsumed(candidate, relevant); got != want {
					t.Fatalf("verdict %v over the whole set, %v over its relevant members\ncandidate %s\nset %v", want, got, candidate, set)
				}
				if len(irrelevant) > 0 {
					leaver := irrelevant[rng.Intn(len(irrelevant))]
					without := slices.DeleteFunc(slices.Clone(set), func(s *model.Subscription) bool { return s == leaver })
					if got := checker.Subsumed(candidate, without); got != want {
						t.Fatalf("verdict changed from %v to %v when an irrelevant member left\ncandidate %s\nset %v", want, got, candidate, set)
					}
				}
				var more []*model.Subscription
				for _, s := range randomPopulation(rng, 10) {
					if !Relevant(candidate, s) {
						more = append(more, s)
					}
				}
				if got := checker.Subsumed(candidate, append(slices.Clone(set), more...)); got != want {
					t.Fatalf("verdict changed from %v to %v when irrelevant members arrived\ncandidate %s\nset %v\narrivals %v", want, got, candidate, set, more)
				}
			}
			if _, never := checker.(NoneChecker); !never && subsumed < 100 {
				t.Errorf("only %d of the cases were subsumed", subsumed)
			}
			if dropped < 1000 {
				t.Errorf("only %d irrelevant members over all cases", dropped)
			}
		})
	}
}

// TestCheckerMonotonicity: members arriving never turn a "subsumed" verdict
// into "not subsumed". (ExactChecker's budget is far from exhausted at these
// population sizes; see the Checker contract for that corner.)
func TestCheckerMonotonicity(t *testing.T) {
	for _, checker := range contractCheckers() {
		t.Run(checker.Name(), func(t *testing.T) {
			rng := stats.NewRNG(11)
			subsumed := 0
			for i := 0; i < 3000; i++ {
				candidate, set := contractCase(rng)
				// Grow the set one member at a time, in a random order.
				rng.Shuffle(len(set), func(a, b int) { set[a], set[b] = set[b], set[a] })
				was := false
				for n := 0; n <= len(set); n++ {
					now := checker.Subsumed(candidate, set[:n])
					if was && !now {
						t.Fatalf("subsumed by %d members, not by %d\ncandidate %s\nset %v", n-1, n, candidate, set[:n])
					}
					was = now
				}
				if was {
					subsumed++
				}
			}
			if _, never := checker.(NoneChecker); !never && subsumed < 100 {
				t.Errorf("only %d of the cases ended subsumed", subsumed)
			}
		})
	}
}

// An empty candidate (a filter range holding no value) overlaps nothing, so
// locality leaves a single cover as the only way to subsume it — for the
// exact checker too, although box subtraction alone would call an empty box
// covered by whatever it is compared with.
func TestCheckerLocalityEmptyCandidate(t *testing.T) {
	mk := func(id string, a, b geom.Interval) *model.Subscription {
		s, err := model.NewAbstractSubscription(model.SubscriptionID(id), []model.AttributeFilter{
			{Attr: "a", Range: a}, {Attr: "b", Range: b},
		}, geom.WholePlane(), 30, model.NoSpatialConstraint)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	empty := mk("empty", geom.Interval{Min: 5, Max: 1}, geom.NewInterval(0, 10))
	elsewhere := mk("elsewhere", geom.NewInterval(0, 10), geom.NewInterval(50, 60))
	cover := mk("cover", geom.NewInterval(20, 30), geom.NewInterval(0, 10))
	for _, checker := range contractCheckers()[1:] {
		if Relevant(empty, elsewhere) || checker.Subsumed(empty, []*model.Subscription{elsewhere}) {
			t.Errorf("%s: a member that neither covers nor overlaps the candidate subsumed it", checker.Name())
		}
		if !Relevant(empty, cover) || !checker.Subsumed(empty, []*model.Subscription{elsewhere, cover}) {
			t.Errorf("%s: a member covering the candidate did not subsume it", checker.Name())
		}
	}
}
