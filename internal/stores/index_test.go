package stores

import (
	"fmt"
	"sort"
	"testing"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/stats"
)

// randomSubscription builds a random identified or abstract subscription
// with 1-3 filters, sometimes degenerate (point ranges, touching
// endpoints) and sometimes spatially constrained.
func randomSubscription(t *testing.T, rng *stats.RNG, id int) *model.Subscription {
	t.Helper()
	attrs := model.DefaultAttributes()
	nf := 1 + rng.Intn(3)
	subID := model.SubscriptionID(fmt.Sprintf("s%d", id))
	if rng.Bool(0.5) {
		picked := rng.Choose(6, nf)
		filters := make([]model.SensorFilter, 0, nf)
		for _, s := range picked {
			filters = append(filters, model.SensorFilter{
				Sensor: model.SensorID(fmt.Sprintf("d%d", s)),
				Attr:   attrs[s%len(attrs)],
				Range:  randomRange(rng),
			})
		}
		sub, err := model.NewIdentifiedSubscription(subID, filters, 30)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	picked := rng.Choose(len(attrs), nf)
	filters := make([]model.AttributeFilter, 0, nf)
	for _, a := range picked {
		filters = append(filters, model.AttributeFilter{Attr: attrs[a], Range: randomRange(rng)})
	}
	region := geom.WholePlane()
	if rng.Bool(0.6) {
		region = geom.RegionAround(geom.Point2D{X: rng.Range(-50, 50), Y: rng.Range(-50, 50)}, rng.Range(0, 60))
	}
	sub, err := model.NewAbstractSubscription(subID, filters, region, 30, model.NoSpatialConstraint)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func randomRange(rng *stats.RNG) geom.Interval {
	lo := rng.Range(-100, 100)
	switch rng.Intn(4) {
	case 0: // point range
		return geom.Point(lo)
	default:
		return geom.NewInterval(lo, lo+rng.Range(0, 40))
	}
}

func randomEvent(rng *stats.RNG, seq uint64) model.Event {
	attrs := model.DefaultAttributes()
	s := rng.Intn(6)
	return model.Event{
		Seq:      seq,
		Sensor:   model.SensorID(fmt.Sprintf("d%d", s)),
		Attr:     attrs[s%len(attrs)],
		Location: geom.Point2D{X: rng.Range(-80, 80), Y: rng.Range(-80, 80)},
		Value:    rng.Range(-120, 120),
		Time:     model.Timestamp(seq),
	}
}

func candidateIDs(idx *EventIndex, ev model.Event) []string {
	var out []string
	idx.Candidates(ev, func(s *model.Subscription) bool {
		out = append(out, string(s.ID))
		return true
	})
	sort.Strings(out)
	return out
}

// uncoveredCandidateIDs stabs an index loaded from the table's uncovered
// set, the way a protocol node builds an origin's matcher from its table.
func uncoveredCandidateIDs(tbl *SubscriptionTable, ev model.Event) []string {
	idx := NewEventIndex()
	idx.BulkLoad(tbl.Uncovered())
	return candidateIDs(idx, ev)
}

func linearMatchIDs(subs []*model.Subscription, ev model.Event) []string {
	var out []string
	for _, s := range subs {
		if s.MatchesEvent(ev) {
			out = append(out, string(s.ID))
		}
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEventIndexMatchesLinearScan is the central property test of the fast
// path: for random subscription populations and random events, the indexed
// candidate set equals {s : s.MatchesEvent(e)} computed by brute force.
func TestEventIndexMatchesLinearScan(t *testing.T) {
	rng := stats.NewRNG(2026)
	for trial := 0; trial < 25; trial++ {
		n := 1 + int(rng.Uint64()%150)
		idx := NewEventIndex()
		subs := make([]*model.Subscription, 0, n)
		for i := 0; i < n; i++ {
			sub := randomSubscription(t, rng, trial*1000+i)
			subs = append(subs, sub)
			idx.Add(sub)
		}
		if idx.Len() != n {
			t.Fatalf("Len() = %d, want %d", idx.Len(), n)
		}
		for q := 0; q < 80; q++ {
			ev := randomEvent(rng, uint64(q+1))
			got := candidateIDs(idx, ev)
			want := linearMatchIDs(subs, ev)
			if !equalStrings(got, want) {
				t.Fatalf("trial %d: candidates(%v) = %v, want %v", trial, ev, got, want)
			}
		}
	}
}

// TestEventIndexEndpointEvents stabs the index exactly at filter-range
// endpoints — the closed-interval semantics must report the subscription.
func TestEventIndexEndpointEvents(t *testing.T) {
	sub, err := model.NewAbstractSubscription("edge",
		[]model.AttributeFilter{{Attr: model.WindSpeed, Range: geom.NewInterval(10, 20)}},
		geom.WholePlane(), 30, model.NoSpatialConstraint)
	if err != nil {
		t.Fatal(err)
	}
	idx := NewEventIndex()
	idx.Add(sub)
	for _, v := range []float64{10, 20} {
		ev := model.Event{Seq: 1, Sensor: "dx", Attr: model.WindSpeed, Value: v}
		if got := candidateIDs(idx, ev); len(got) != 1 {
			t.Errorf("value %g on range endpoint: %d candidates, want 1", v, len(got))
		}
	}
	for _, v := range []float64{9.999, 20.001} {
		ev := model.Event{Seq: 1, Sensor: "dx", Attr: model.WindSpeed, Value: v}
		if got := candidateIDs(idx, ev); len(got) != 0 {
			t.Errorf("value %g outside range: %d candidates, want 0", v, len(got))
		}
	}
}

// TestEventIndexRegionPruning checks that abstract candidates are pruned by
// the subscription region.
func TestEventIndexRegionPruning(t *testing.T) {
	sub, err := model.NewAbstractSubscription("near",
		[]model.AttributeFilter{{Attr: model.RelativeHumidity, Range: geom.NewInterval(0, 100)}},
		geom.NewRegion(0, 0, 10, 10), 30, model.NoSpatialConstraint)
	if err != nil {
		t.Fatal(err)
	}
	idx := NewEventIndex()
	idx.Add(sub)
	inside := model.Event{Seq: 1, Sensor: "dx", Attr: model.RelativeHumidity, Value: 50, Location: geom.Point2D{X: 5, Y: 5}}
	outside := model.Event{Seq: 2, Sensor: "dx", Attr: model.RelativeHumidity, Value: 50, Location: geom.Point2D{X: 50, Y: 5}}
	if got := candidateIDs(idx, inside); len(got) != 1 {
		t.Errorf("event inside region: %d candidates, want 1", len(got))
	}
	if got := candidateIDs(idx, outside); len(got) != 0 {
		t.Errorf("event outside region: %d candidates, want 0", len(got))
	}
}

// TestEventIndexEarlyStop checks that a false return from fn stops
// candidate iteration.
func TestEventIndexEarlyStop(t *testing.T) {
	idx := NewEventIndex()
	for i := 0; i < 8; i++ {
		sub, err := model.NewAbstractSubscription(model.SubscriptionID(fmt.Sprintf("s%d", i)),
			[]model.AttributeFilter{{Attr: model.WindSpeed, Range: geom.NewInterval(0, 100)}},
			geom.WholePlane(), 30, model.NoSpatialConstraint)
		if err != nil {
			t.Fatal(err)
		}
		idx.Add(sub)
	}
	calls := 0
	idx.Candidates(model.Event{Seq: 1, Sensor: "dx", Attr: model.WindSpeed, Value: 5}, func(*model.Subscription) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("early stop visited %d candidates, want 1", calls)
	}
}

// TestSubscriptionTableUncoveredFeedsIndex checks what a table hands an
// index: only its own uncovered subscriptions become candidates.
func TestSubscriptionTableUncoveredFeedsIndex(t *testing.T) {
	tbl, other := NewSubscriptionTable(), NewSubscriptionTable()
	mk := func(id string, lo, hi float64) *model.Subscription {
		sub, err := model.NewAbstractSubscription(model.SubscriptionID(id),
			[]model.AttributeFilter{{Attr: model.WindSpeed, Range: geom.NewInterval(lo, hi)}},
			geom.WholePlane(), 30, model.NoSpatialConstraint)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	tbl.AddUncovered(mk("u1", 0, 10))
	tbl.AddUncovered(mk("u2", 20, 30))
	other.AddUncovered(mk("other-origin", 0, 10))
	tbl.AddCovered(mk("c1", 0, 10))

	ev := model.Event{Seq: 1, Sensor: "dx", Attr: model.WindSpeed, Value: 5}
	if got := uncoveredCandidateIDs(tbl, ev); len(got) != 1 || got[0] != "u1" {
		t.Errorf("candidates(origin 1) = %v, want [u1]", got)
	}
	if none := uncoveredCandidateIDs(NewSubscriptionTable(), ev); len(none) != 0 {
		t.Errorf("candidates(unknown origin) = %v, want empty", none)
	}
}
