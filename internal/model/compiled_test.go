package model

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"sensorcq/internal/agg"
	"sensorcq/internal/geom"
	"sensorcq/internal/stats"
)

// This file pins the compiled event path (filter slots, partitioned
// gathering) to the definition it replaced: the filter maps for the simple
// match, and a brute-force product filtered by MatchesComplex for the
// enumeration — as a sequence, because delivery and forwarding order follow
// the enumeration order.

// refMatchesEvent is the map-based definition of the simple match relation
// (Section IV-A), kept here as the reference MatchesEvent is compared with.
func refMatchesEvent(s *Subscription, e Event) bool {
	if s.Kind == KindIdentified {
		f, ok := s.SensorFilters[e.Sensor]
		return ok && f.Range.Contains(e.Value)
	}
	f, ok := s.AttrFilters[e.Attr]
	return ok && s.Region.Contains(e.Location) && f.Range.Contains(e.Value)
}

// refEnumerate lists, in the documented enumeration order — completeness keys
// sorted byte-wise, candidates per key in window order — every selection of
// one window event per key that MatchesComplex accepts. With mustInclude set
// its key contributes mustInclude alone.
func refEnumerate(s *Subscription, window []Event, mustInclude *Event) []ComplexEvent {
	keyOf := func(e Event) string {
		if s.Kind == KindIdentified {
			return string(e.Sensor)
		}
		return string(e.Attr)
	}
	var keys []string
	for d := range s.SensorFilters {
		keys = append(keys, string(d))
	}
	for a := range s.AttrFilters {
		keys = append(keys, string(a))
	}
	slices.Sort(keys)
	var out []ComplexEvent
	var extend func(chosen ComplexEvent)
	extend = func(chosen ComplexEvent) {
		if len(chosen) == len(keys) {
			if s.MatchesComplex(chosen) {
				out = append(out, slices.Clone(chosen))
			}
			return
		}
		key := keys[len(chosen)]
		if mustInclude != nil && keyOf(*mustInclude) == key {
			extend(append(chosen, *mustInclude))
			return
		}
		for _, e := range window {
			if keyOf(e) == key {
				extend(append(chosen, e))
			}
		}
	}
	if mustInclude == nil || slices.Contains(keys, keyOf(*mustInclude)) {
		extend(nil)
	}
	return out
}

// The value and location domains are small on purpose: duplicate keys, equal
// timestamps and readings just outside a range or region must all be common.
var (
	compiledAttrs   = DefaultAttributes()
	compiledSensors = []SensorID{"s0", "s1", "s10", "s2", "s3", "s4"}
)

func randomInterval(rng *stats.RNG) geom.Interval {
	lo := float64(rng.Intn(4))
	return geom.NewInterval(lo, lo+float64(1+rng.Intn(6)))
}

// randomSubscription builds a subscription through one of the paths that can
// produce one. The last path is a struct literal without caches.
func randomSubscription(t testing.TB, rng *stats.RNG) *Subscription {
	t.Helper()
	deltaT := Timestamp(1 + rng.Intn(6))
	identified := func(n int) *Subscription {
		var filters []SensorFilter
		for _, i := range rng.Choose(len(compiledSensors), n) {
			filters = append(filters, SensorFilter{Sensor: compiledSensors[i], Attr: compiledAttrs[i%len(compiledAttrs)], Range: randomInterval(rng)})
		}
		s, err := NewIdentifiedSubscription("id", filters, deltaT)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	abstract := func(n int) *Subscription {
		var filters []AttributeFilter
		for _, i := range rng.Choose(len(compiledAttrs), n) {
			filters = append(filters, AttributeFilter{Attr: compiledAttrs[i], Range: randomInterval(rng)})
		}
		region, deltaL := geom.WholePlane(), NoSpatialConstraint
		if rng.Bool(0.7) {
			x, y := float64(rng.Intn(4)), float64(rng.Intn(4))
			region = geom.NewRegion(x, y, x+float64(1+rng.Intn(5)), y+float64(1+rng.Intn(5)))
		}
		if rng.Bool(0.5) {
			deltaL = float64(1 + rng.Intn(6))
		}
		s, err := NewAbstractSubscription("ab", filters, region, deltaT, deltaL)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	switch rng.Intn(9) {
	case 0:
		return identified(1 + rng.Intn(4))
	case 1:
		return abstract(1 + rng.Intn(4))
	case 2:
		return abstract(1 + rng.Intn(4)).Clone()
	case 3: // partial projection
		s := abstract(2 + rng.Intn(3))
		return s.ProjectAttributes(s.Attributes()[:1+rng.Intn(s.NumFilters()-1)])
	case 4: // full projection (shares the instance)
		s := abstract(1 + rng.Intn(4))
		return s.ProjectAttributes(s.Attributes())
	case 5:
		s := identified(2 + rng.Intn(3))
		return s.ProjectSensors(s.Sensors()[rng.Intn(2):])
	case 6:
		joins := abstract(3 + rng.Intn(2)).SplitBinaryJoins()
		return joins[rng.Intn(len(joins))]
	case 7:
		s, err := NewAggregateSubscription("agg", AttributeFilter{Attr: compiledAttrs[rng.Intn(len(compiledAttrs))], Range: randomInterval(rng)},
			geom.NewRegion(0, 0, float64(1+rng.Intn(6)), float64(1+rng.Intn(6))), AggregateSpec{Func: agg.Mean, WindowRounds: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	default:
		s := abstract(1 + rng.Intn(4))
		if rng.Bool(0.5) {
			s = identified(1 + rng.Intn(4))
		}
		return &Subscription{
			ID: s.ID, Root: s.ID, Kind: s.Kind, SensorFilters: s.SensorFilters, AttrFilters: s.AttrFilters,
			Region: s.Region, DeltaT: s.DeltaT, DeltaL: s.DeltaL,
		}
	}
}

func randomEvent(rng *stats.RNG, seq uint64, t Timestamp) Event {
	return Event{
		Seq:      seq,
		Sensor:   compiledSensors[rng.Intn(len(compiledSensors))],
		Attr:     compiledAttrs[rng.Intn(len(compiledAttrs))],
		Location: geom.Point2D{X: float64(rng.Intn(8)), Y: float64(rng.Intn(8))},
		Value:    float64(rng.Intn(8)),
		Time:     t,
	}
}

// checkCompiledMatch draws one subscription, one window and one trigger and
// compares the compiled path with the references.
func checkCompiledMatch(t *testing.T, rng *stats.RNG, sc *MatchScratch) {
	t.Helper()
	s := randomSubscription(t, rng)
	literal := s.slots == nil
	window := make([]Event, rng.Intn(24))
	now := Timestamp(100)
	for i := range window {
		now += Timestamp(rng.Intn(2)) // equal timestamps are common; Seq breaks the tie
		window[i] = randomEvent(rng, uint64(i+1), now)
	}
	for _, e := range window {
		if got, want := s.MatchesEvent(e), refMatchesEvent(s, e); got != want {
			t.Fatalf("%s: MatchesEvent(%s) = %t, the filter maps give %t", s, e, got, want)
		}
		if s.Aggregate != nil && s.MatchesReading(e) != refMatchesEvent(s, e) {
			t.Fatalf("%s: MatchesReading(%s) disagrees with the filter maps", s, e)
		}
	}
	var mustInclude *Event
	switch rng.Intn(3) {
	case 0: // unconstrained
	case 1: // a stored event triggers
		if len(window) > 0 {
			mustInclude = &window[rng.Intn(len(window))]
		}
	default: // the trigger is not in the window
		e := randomEvent(rng, 999, 100+Timestamp(rng.Intn(14)))
		mustInclude = &e
	}
	want := refEnumerate(s, window, mustInclude)
	var got []ComplexEvent
	s.ForEachComplexMatchScratch(window, mustInclude, sc, func(match ComplexEvent) bool {
		got = append(got, slices.Clone(match))
		return true
	})
	if !slices.EqualFunc(got, want, func(a, b ComplexEvent) bool { return slices.Equal(a, b) }) {
		t.Fatalf("%s over %v (mustInclude %v):\nenumerated %v\nbrute force %v", s, window, mustInclude, got, want)
	}
	// Stopping early stops: the callback sees a prefix of the same sequence.
	if len(want) > 1 {
		stopAfter, seen := 1+rng.Intn(len(want)-1), 0
		s.ForEachComplexMatchScratch(window, mustInclude, sc, func(match ComplexEvent) bool {
			if !slices.Equal(match, want[seen]) {
				t.Fatalf("%s: match %d of a stopped enumeration differs", s, seen)
			}
			seen++
			return seen < stopAfter
		})
		if seen != stopAfter {
			t.Fatalf("%s: enumeration delivered %d matches after being stopped at %d", s, seen, stopAfter)
		}
	}
	if literal && (s.slots != nil || s.class.Sig != "" || len(s.box) != 0) {
		t.Fatalf("%s: matching wrote a cache into a struct-literal subscription", s)
	}
}

func TestCompiledMatchEquivalence(t *testing.T) {
	var sc MatchScratch // one scratch throughout: recycled storage must not leak between enumerations
	for seed := int64(0); seed < 40; seed++ {
		rng := stats.NewRNG(seed)
		for i := 0; i < 100; i++ {
			checkCompiledMatch(t, rng, &sc)
		}
	}
}

func FuzzCompiledMatch(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := stats.NewRNG(seed)
		var sc MatchScratch
		for i := 0; i < 20; i++ {
			checkCompiledMatch(t, rng, &sc)
		}
	})
}

// TestCompiledMatchWideSubscription covers what the random populations do
// not reach: more distinct keys in one window than the partition scans
// linearly, and more filters than MatchesComplex tracks without allocating.
func TestCompiledMatchWideSubscription(t *testing.T) {
	const sensors = 70
	var filters []SensorFilter
	var window []Event
	for i := 0; i < sensors; i++ {
		id := SensorID(fmt.Sprintf("d%02d", i))
		filters = append(filters, sf(id, WindSpeed, 0, 10))
		window = append(window, ev(uint64(i+1), id, WindSpeed, 5, Timestamp(100+i%3)))
	}
	// Reverse the window's key order relative to the sorted slots.
	slices.Reverse(window)
	SortEventsByTime(window)
	s := mustIdentified(t, "wide", 5, filters...)
	if !s.MatchesComplex(window) {
		t.Fatal("one reading per sensor, all in range and within δt, must match")
	}
	twice := slices.Clone(ComplexEvent(window))
	twice[0] = twice[1]
	if s.MatchesComplex(twice) {
		t.Error("a selection naming one sensor twice is not complete")
	}
	trigger := window[len(window)/2]
	count := 0
	s.ForEachComplexMatch(window, &trigger, func(match ComplexEvent) bool {
		count++
		if !s.MatchesComplex(match) {
			t.Errorf("enumerated selection does not match: %v", match)
		}
		return true
	})
	if count != 1 {
		t.Errorf("enumerated %d matches, want exactly 1", count)
	}
}

// TestSharedSubscriptionMatchesConcurrently pins "nothing is written
// lazily": subscriptions are shared across nodes and engine workers, so
// several goroutines match the same instance at once — a cached one and a
// struct literal, which computes its slots per call. Run under -race.
func TestSharedSubscriptionMatchesConcurrently(t *testing.T) {
	cached := mustAbstract(t, "q", geom.NewRegion(0, 0, 10, 10), 5, NoSpatialConstraint,
		af(AmbientTemperature, 0, 10), af(WindSpeed, 0, 10), af(RelativeHumidity, 0, 10))
	literal := &Subscription{
		ID: "lit", Root: "lit", Kind: KindAbstract, AttrFilters: cached.AttrFilters,
		Region: cached.Region, DeltaT: cached.DeltaT, DeltaL: cached.DeltaL,
	}
	var window []Event
	for i, a := range []AttributeType{AmbientTemperature, WindSpeed, RelativeHumidity, WindSpeed, AmbientTemperature, RelativeHumidity} {
		e := ev(uint64(i+1), SensorID(fmt.Sprintf("d%d", i)), a, float64(i), Timestamp(100+i/2))
		e.Location = geom.Point2D{X: 1, Y: 1}
		window = append(window, e)
	}
	trigger := window[len(window)-1]
	want := len(refEnumerate(cached, window, &trigger))
	if want == 0 {
		t.Fatal("the fixture completes no match")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc MatchScratch
			for i := 0; i < 200; i++ {
				for _, s := range []*Subscription{cached, literal} {
					got := 0
					s.ForEachComplexMatchScratch(window, &trigger, &sc, func(ComplexEvent) bool {
						got++
						return true
					})
					if got != want || !s.MatchesEvent(trigger) || s.Class().Sig == "" || len(s.Box()) == 0 {
						t.Errorf("%s: %d matches, want %d", s.ID, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
