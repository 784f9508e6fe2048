package stores

import (
	"fmt"
	"testing"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/stats"
)

// coveredVariant derives a subscription provably covered by base: same
// kind, sensor/attribute set and correlation distances, with every filter
// range (and the region, when bounded) shrunk towards its midpoint. The
// construction mirrors how covering populations arise in the workloads —
// narrower queries over the same signature.
func coveredVariant(t *testing.T, rng *stats.RNG, base *model.Subscription, id string) *model.Subscription {
	t.Helper()
	shrink := func(iv geom.Interval) geom.Interval {
		w := iv.Width()
		lo := iv.Min + w*rng.Range(0, 0.4)
		hi := iv.Max - w*rng.Range(0, 0.4)
		if hi < lo {
			hi = lo
		}
		return geom.Interval{Min: lo, Max: hi}
	}
	var sub *model.Subscription
	var err error
	if base.Kind == model.KindIdentified {
		filters := make([]model.SensorFilter, 0, len(base.SensorFilters))
		for _, f := range base.SensorFilters {
			f.Range = shrink(f.Range)
			filters = append(filters, f)
		}
		sub, err = model.NewIdentifiedSubscription(model.SubscriptionID(id), filters, base.DeltaT)
	} else {
		filters := make([]model.AttributeFilter, 0, len(base.AttrFilters))
		for _, f := range base.AttrFilters {
			f.Range = shrink(f.Range)
			filters = append(filters, f)
		}
		region := base.Region
		if !region.IsWholePlane() {
			region = geom.Region{X: shrink(region.X), Y: shrink(region.Y)}
		}
		sub, err = model.NewAbstractSubscription(model.SubscriptionID(id), filters, region, base.DeltaT, base.DeltaL)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !sub.CoveredBy(base) {
		t.Fatalf("covered variant %s is not covered by its base %s", sub, base)
	}
	return sub
}

// churnStep is the shared body of the churn property test and the fuzz
// harness: it drives steps random add / covered-add / remove / match
// operations from the given seed, checking every match against both oracles
// — an index rebuilt from scratch over the live population and the linear
// scan — and returns the number of match checks performed.
func churnStep(t *testing.T, seed int64, steps int) int {
	t.Helper()
	rng := stats.NewRNG(seed)
	idx := NewEventIndex()
	live := map[model.SubscriptionID]*model.Subscription{}
	var liveIDs []model.SubscriptionID
	next := 0
	checks := 0

	removeID := func(id model.SubscriptionID) {
		for i, l := range liveIDs {
			if l == id {
				liveIDs[i] = liveIDs[len(liveIDs)-1]
				liveIDs = liveIDs[:len(liveIDs)-1]
				return
			}
		}
	}

	for step := 0; step < steps; step++ {
		switch {
		case len(liveIDs) == 0 || rng.Bool(0.3): // plain add
			sub := randomSubscription(t, rng, int(seed%1000)*100000+next)
			next++
			if live[sub.ID] != nil {
				continue
			}
			idx.Add(sub)
			live[sub.ID] = sub
			liveIDs = append(liveIDs, sub.ID)
		case rng.Bool(0.25): // add a variant covered by a random live member
			base := live[liveIDs[rng.Intn(len(liveIDs))]]
			id := fmt.Sprintf("c%d-%d", seed%1000, next)
			next++
			sub := coveredVariant(t, rng, base, id)
			if live[sub.ID] != nil {
				continue
			}
			idx.Add(sub)
			live[sub.ID] = sub
			liveIDs = append(liveIDs, sub.ID)
		case rng.Bool(0.45): // remove
			id := liveIDs[rng.Intn(len(liveIDs))]
			if !idx.Remove(id) {
				t.Fatalf("seed %d step %d: Remove(%s) = false for a live member", seed, step, id)
			}
			if idx.Remove(id) {
				t.Fatalf("seed %d step %d: second Remove(%s) = true", seed, step, id)
			}
			delete(live, id)
			removeID(id)
		default: // match, against both oracles
			ev := randomEvent(rng, uint64(step+1))
			got := candidateIDs(idx, ev)

			scratch := NewEventIndex()
			linear := make([]*model.Subscription, 0, len(live))
			for _, sub := range live {
				scratch.Add(sub)
				linear = append(linear, sub)
			}
			rebuilt := candidateIDs(scratch, ev)
			scan := linearMatchIDs(linear, ev)
			if !equalStrings(got, rebuilt) {
				t.Fatalf("seed %d step %d: incremental candidates(%v) = %v, rebuilt-from-scratch oracle = %v",
					seed, step, ev, got, rebuilt)
			}
			if !equalStrings(got, scan) {
				t.Fatalf("seed %d step %d: candidates(%v) = %v, linear scan = %v", seed, step, ev, got, scan)
			}
			checks++
		}
		if idx.Len() != len(live) {
			t.Fatalf("seed %d step %d: Len() = %d, want %d", seed, step, idx.Len(), len(live))
		}
	}
	return checks
}

// TestEventIndexChurnAgainstRebuiltOracle pins the incremental index against
// a rebuilt-from-scratch oracle (and the brute-force scan) under random
// interleaved add / covered-add / remove / match churn: at no point may
// incremental maintenance be distinguishable from a fresh index over the
// live population.
func TestEventIndexChurnAgainstRebuiltOracle(t *testing.T) {
	totalChecks := 0
	for seed := int64(1); seed <= 12; seed++ {
		totalChecks += churnStep(t, seed, 400)
	}
	if totalChecks < 500 {
		t.Fatalf("only %d match checks ran; the property test is under-exercised", totalChecks)
	}
}

// FuzzEventIndexChurn drives the same churn property from fuzzed seeds, so
// `go test` exercises the corpus and `go test -fuzz=FuzzEventIndexChurn`
// searches for divergences between incremental maintenance and the rebuilt
// oracle.
func FuzzEventIndexChurn(f *testing.F) {
	for _, seed := range []int64{7, 42, 205, 9001} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		churnStep(t, seed, 120)
	})
}
