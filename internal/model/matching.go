package model

import (
	"math"
	"slices"
)

// MatchesEvent reports whether a single simple event matches the
// subscription, i.e. whether the event satisfies the subscription's filter
// for the event's sensor (identified) or attribute type and region
// (abstract). This is the "simple event matches subscription" relation of
// Section IV-A.
func (s *Subscription) MatchesEvent(e Event) bool {
	return s.matchSlot(s.filterSlots(), &e) >= 0
}

// matchSlot returns the index of the slot the event counts towards — the
// filter under the event's completeness key, whose range (and, for abstract
// subscriptions, whose region) the event satisfies — or -1 when the event
// does not match the subscription. It is the whole per-event test of the
// event path: a region test and at most a handful of short string compares,
// no map access.
func (s *Subscription) matchSlot(slots []filterSlot, e *Event) int {
	key := string(e.Sensor)
	if s.Kind == KindAbstract {
		if !s.Region.Contains(e.Location) {
			return -1
		}
		key = string(e.Attr)
	}
	for i := range slots {
		if slots[i].key == key {
			if slots[i].iv.Contains(e.Value) {
				return i
			}
			return -1
		}
	}
	return -1
}

// MatchesComplex reports whether the given set of simple events forms a
// complex event matching the subscription according to the four conditions
// of Section IV-A:
//
//  1. completeness — one simple event per filtered sensor/attribute,
//  2. every simple event matches the subscription,
//  3. the complex event's time is the maximum component timestamp,
//  4. all component timestamps are within δt of that maximum,
//
// plus, for abstract subscriptions, the pairwise location span is below δl.
//
// The events slice must contain exactly the component events (no extras).
// It is the reference predicate the enumeration is tested against, and
// allocates nothing for subscriptions of up to 64 filters.
func (s *Subscription) MatchesComplex(events ComplexEvent) bool {
	slots := s.filterSlots()
	if len(events) != len(slots) {
		return false
	}
	// As many events as slots, each on a slot of its own: complete.
	var few [64]bool
	seen := few[:]
	if len(slots) > len(seen) {
		seen = make([]bool, len(slots))
	}
	for i := range events {
		slot := s.matchSlot(slots, &events[i])
		if slot < 0 || seen[slot] {
			return false
		}
		seen[slot] = true
	}
	max := events.MaxTime()
	for _, e := range events {
		if max-e.Time >= s.DeltaT {
			return false
		}
	}
	if s.Kind == KindAbstract && !math.IsInf(s.DeltaL, 1) {
		if events.LocationSpan() >= s.DeltaL {
			return false
		}
	}
	return true
}

// MatchScratch holds the reusable working storage of complex-match
// enumerations: a partition of one window view by completeness key, shared
// by every enumeration over that view, plus the per-slot candidate lists
// and the partial selection of the backtracking search. A zero MatchScratch
// is ready to use; reusing one scratch across enumerations (one per
// protocol node) makes the steady-state match path allocation-free. A
// scratch must not be shared between goroutines or used reentrantly from an
// enumeration callback.
type MatchScratch struct {
	view     []Event    // the partitioned window view, in (Time, Seq) order
	byAttr   keyBuckets // view positions by attribute type (abstract subscriptions)
	bySensor keyBuckets // view positions by sensor (identified subscriptions)

	cands  [][]int32 // per slot of the running enumeration: view positions
	chosen ComplexEvent
}

// keyBuckets is one partition of the scratch's view: for every distinct
// completeness key, the positions of the events carrying it, in view order.
// Keys are kept sorted so that a slot finds its bucket by binary search when
// there are many; the bucket backing arrays are recycled from one partition
// to the next.
type keyBuckets struct {
	built bool
	keys  []string
	pos   [][]int32 // parallel to keys; len(pos) >= len(keys), the tail is spare storage
}

// find returns the index of key in the sorted key list, or its insertion
// point and false. A window rarely holds more than a handful of distinct
// keys (the paper's five attribute types), and for those an equality scan
// beats a binary search's three-way string compares.
func (b *keyBuckets) find(key string) (int, bool) {
	if len(b.keys) <= 8 {
		for i, k := range b.keys {
			if k == key {
				return i, true
			}
		}
	}
	return slices.BinarySearch(b.keys, key)
}

// add files view position p under key.
func (b *keyBuckets) add(key string, p int32) {
	i, found := b.find(key)
	if !found {
		b.keys = slices.Insert(b.keys, i, key)
		n := len(b.keys)
		if len(b.pos) < n {
			b.pos = append(b.pos, nil)
		}
		spare := b.pos[n-1][:0]
		copy(b.pos[i+1:n], b.pos[i:n-1])
		b.pos[i] = spare
	}
	b.pos[i] = append(b.pos[i], p)
}

// bucket returns the view positions filed under key, in view order.
func (b *keyBuckets) bucket(key string) []int32 {
	if i, found := b.find(key); found {
		return b.pos[i]
	}
	return nil
}

// Partition binds the scratch to a window view (events in (Time, Seq)
// order, as EventWindow.Around returns them): every following
// ForEachComplexMatchPartitioned gathers its candidates from this view's
// buckets instead of rescanning the view. The buckets are filled on the
// first enumeration that needs them, once per subscription kind, so a
// trigger no operator matches pays nothing. The scratch keeps the view, not
// a copy: it is valid exactly as long as the view is (until the next Insert
// or Prune on the window it came from).
func (sc *MatchScratch) Partition(window []Event) {
	sc.view = window
	sc.byAttr.built = false
	sc.bySensor.built = false
}

// buckets returns the view's partition by the completeness key of the given
// subscription kind, building it on first use.
func (sc *MatchScratch) buckets(kind Kind) *keyBuckets {
	b := &sc.byAttr
	if kind == KindIdentified {
		b = &sc.bySensor
	}
	if !b.built {
		b.built = true
		b.keys = b.keys[:0]
		for i := range sc.view {
			e := &sc.view[i]
			if kind == KindIdentified {
				b.add(string(e.Sensor), int32(i))
			} else {
				b.add(string(e.Attr), int32(i))
			}
		}
	}
	return b
}

// ForEachComplexMatch enumerates every complex event in the candidate window
// that matches the subscription and includes the mustInclude event (pass nil
// to disable that constraint), invoking fn for each; fn returns false to stop
// the enumeration. Each invocation receives a fresh ComplexEvent the callback
// may retain. Hot paths that must not allocate use
// ForEachComplexMatchScratch instead.
func (s *Subscription) ForEachComplexMatch(window []Event, mustInclude *Event, fn func(ComplexEvent) bool) {
	var sc MatchScratch
	s.ForEachComplexMatchScratch(window, mustInclude, &sc, func(match ComplexEvent) bool {
		out := make(ComplexEvent, len(match))
		copy(out, match)
		return fn(out)
	})
}

// ForEachComplexMatchScratch is ForEachComplexMatch with caller-provided
// working storage: it partitions the window into the scratch and runs
// ForEachComplexMatchPartitioned over it. A caller matching several
// subscriptions against one window partitions it once itself instead.
func (s *Subscription) ForEachComplexMatchScratch(window []Event, mustInclude *Event, sc *MatchScratch, fn func(ComplexEvent) bool) {
	sc.Partition(window)
	s.ForEachComplexMatchPartitioned(sc, mustInclude, fn)
}

// ForEachComplexMatchPartitioned enumerates, over the window view the
// scratch was last partitioned for, every complex event that matches the
// subscription and includes the mustInclude event (nil disables that
// constraint). It allocates nothing once the scratch has warmed up. The
// ComplexEvent passed to fn is the scratch's own selection buffer — it is
// valid only for the duration of the callback and is overwritten by the
// next match; callbacks that retain a match must copy it first.
//
// The search is an exact backtracking search over one candidate list per
// slot (filtered sensor/attribute). A slot's candidates are the events of
// its key's bucket that lie inside the filter range and the region — the
// other buckets are never visited — and the slot of mustInclude's key is
// pinned to mustInclude without gathering at all. With mustInclude set,
// candidates a full δt or more away from it are dropped while gathering:
// they could never share a selection with it (partialFeasible), so the view
// may be any superset of the subscription's own ±δt window — which is what
// lets one partition serve operators of different δt. Subscriptions in this
// system have at most a handful of filters (the paper uses 3-5 attributes)
// and windows are short (δt), so the search space stays tiny; the
// time-window and location-span constraints additionally prune it.
//
// Enumerating every completion — rather than selecting one — is what makes
// event forwarding and user delivery independent of arrival interleaving:
// with mustInclude set to the newly arrived event, a given complex event is
// discovered exactly once, at the arrival of whichever of its components
// shows up last, no matter the order the components arrived in. The
// pipelined replay mode's per-round conformance oracle relies on this. The
// enumeration order itself is deterministic — slots in byte-wise key order,
// candidates in view order — so runs are reproducible whatever storage the
// caller recycles.
func (s *Subscription) ForEachComplexMatchPartitioned(sc *MatchScratch, mustInclude *Event, fn func(ComplexEvent) bool) {
	slots := s.filterSlots()
	pinned := -1
	if mustInclude != nil {
		if pinned = s.matchSlot(slots, mustInclude); pinned < 0 {
			return
		}
	}
	for len(sc.cands) < len(slots) {
		sc.cands = append(sc.cands, nil)
	}
	buckets := sc.buckets(s.Kind)
	for i := range slots {
		if i == pinned {
			continue
		}
		list := sc.cands[i][:0]
		for _, p := range buckets.bucket(slots[i].key) {
			e := &sc.view[p]
			if !slots[i].iv.Contains(e.Value) {
				continue
			}
			if s.Kind == KindAbstract && !s.Region.Contains(e.Location) {
				continue
			}
			if mustInclude != nil {
				if d := e.Time - mustInclude.Time; d >= s.DeltaT || -d >= s.DeltaT {
					continue
				}
			}
			list = append(list, p)
		}
		sc.cands[i] = list
		if len(list) == 0 {
			return // completeness: every slot needs a candidate
		}
	}
	sc.chosen = sc.chosen[:0]
	s.search(sc, 0, len(slots), pinned, mustInclude, fn)
}

// search extends the scratch's partial selection slot by slot and reports
// false when fn aborted the whole enumeration. A full selection is a match
// by construction: candidates were gathered per slot under that slot's
// filter, each slot contributed exactly one component, and partialFeasible
// verified the δt/δl spans on the complete selection before the call.
func (s *Subscription) search(sc *MatchScratch, slot, slots, pinned int, mustInclude *Event, fn func(ComplexEvent) bool) bool {
	if slot == slots {
		return fn(sc.chosen)
	}
	if slot == pinned {
		sc.chosen = append(sc.chosen, *mustInclude)
		ok := !s.partialFeasible(sc.chosen) || s.search(sc, slot+1, slots, pinned, mustInclude, fn)
		sc.chosen = sc.chosen[:len(sc.chosen)-1]
		return ok
	}
	for _, p := range sc.cands[slot] {
		sc.chosen = append(sc.chosen, sc.view[p])
		ok := !s.partialFeasible(sc.chosen) || s.search(sc, slot+1, slots, pinned, mustInclude, fn)
		sc.chosen = sc.chosen[:len(sc.chosen)-1]
		if !ok {
			return false
		}
	}
	return true
}

// partialFeasible prunes the backtracking search: a partial selection is
// feasible only if its time span is already below δt and (for abstract
// subscriptions) its location span below δl.
func (s *Subscription) partialFeasible(events ComplexEvent) bool {
	if len(events) < 2 {
		return true
	}
	if events.TimeSpan() >= s.DeltaT {
		return false
	}
	if s.Kind == KindAbstract && !math.IsInf(s.DeltaL, 1) && events.LocationSpan() >= s.DeltaL {
		return false
	}
	return true
}

// ComparableWith reports whether the two subscriptions are of one
// comparability class (see Class), the precondition of any coverage decision
// between them.
func (s *Subscription) ComparableWith(other *Subscription) bool {
	// Scans call this once per member: comparing the cached classes in place
	// saves copying both out (10-18 % of a set-filter decision).
	if s.class.Sig != "" && other.class.Sig != "" {
		return s.class == other.class
	}
	return s.Class() == other.Class()
}

// CoveredBy reports whether the subscription is covered (subsumed) by the
// single subscription other: every complex event matching s also matches
// other. Following Section V-B this requires the two subscriptions to be of
// the same kind, defined over exactly the same sensor/attribute set and to
// share the same correlation distances; given that, coverage reduces to
// per-filter range containment (and region containment for abstract
// subscriptions).
func (s *Subscription) CoveredBy(other *Subscription) bool {
	return s != nil && other != nil && s.ComparableWith(other) && s.CoveredByComparable(other)
}

// CoveredByComparable is CoveredBy for a caller that has already established
// that the two subscriptions are ComparableWith each other; scans over one
// comparability class use it to pay for that check once.
func (s *Subscription) CoveredByComparable(other *Subscription) bool {
	if s.Kind == KindAbstract && !other.Region.Covers(s.Region) {
		return false
	}
	// One class means equal filter keys, so the two slot lists pair up.
	mine, theirs := s.filterSlots(), other.filterSlots()
	for i := range mine {
		if !theirs[i].iv.Covers(mine[i].iv) {
			return false
		}
	}
	return true
}
