package model

import "math"

// MatchesEvent reports whether a single simple event matches the
// subscription, i.e. whether the event satisfies the subscription's filter
// for the event's sensor (identified) or attribute type and region
// (abstract). This is the "simple event matches subscription" relation of
// Section IV-A.
func (s *Subscription) MatchesEvent(e Event) bool {
	if s.Kind == KindIdentified {
		f, ok := s.SensorFilters[e.Sensor]
		return ok && f.Range.Contains(e.Value)
	}
	f, ok := s.AttrFilters[e.Attr]
	if !ok {
		return false
	}
	return s.Region.Contains(e.Location) && f.Range.Contains(e.Value)
}

// FilterKeyFor returns the key (sensor for identified, attribute for
// abstract) under which the event would count towards the completeness
// condition of the subscription, and whether the subscription filters that
// key at all.
func (s *Subscription) FilterKeyFor(e Event) (string, bool) {
	if s.Kind == KindIdentified {
		if _, ok := s.SensorFilters[e.Sensor]; ok {
			return "d:" + string(e.Sensor), true
		}
		return "", false
	}
	if _, ok := s.AttrFilters[e.Attr]; ok {
		return "a:" + string(e.Attr), true
	}
	return "", false
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
func (s *Subscription) MatchesComplex(events ComplexEvent) bool {
	if len(events) != s.NumFilters() {
		return false
	}
	seen := map[string]bool{}
	for _, e := range events {
		if !s.MatchesEvent(e) {
			return false
		}
		key, ok := s.FilterKeyFor(e)
		if !ok || seen[key] {
			return false
		}
		seen[key] = true
	}
	if len(seen) != s.NumFilters() {
		return false
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

// FindComplexMatch searches the candidate window for a complex event that
// matches the subscription and that includes the mustInclude event (pass nil
// to disable that constraint). It returns the first matching combination in
// the enumeration order of ForEachComplexMatch and true, or nil and false
// when no combination matches.
func (s *Subscription) FindComplexMatch(window []Event, mustInclude *Event) (ComplexEvent, bool) {
	var out ComplexEvent
	s.ForEachComplexMatch(window, mustInclude, func(match ComplexEvent) bool {
		out = match
		return false
	})
	return out, out != nil
}

// MatchScratch holds the reusable working storage of a complex-match
// enumeration: the per-filter candidate lists and the partial selection of
// the backtracking search. A zero MatchScratch is ready to use; reusing one
// scratch across enumerations (one per protocol node) makes the steady-state
// match path allocation-free. A scratch must not be shared between
// goroutines or used reentrantly from an enumeration callback.
type MatchScratch struct {
	keys   []string  // raw sensor/attribute completeness keys, sorted
	cands  [][]Event // parallel to keys; backing arrays are recycled
	chosen ComplexEvent
}

// grow readies the scratch for an enumeration over n completeness keys,
// retaining every backing array from previous use.
func (sc *MatchScratch) grow(n int) {
	sc.keys = sc.keys[:0]
	for len(sc.cands) < n {
		sc.cands = append(sc.cands, nil)
	}
	for i := range sc.cands {
		sc.cands[i] = sc.cands[i][:0]
	}
	sc.chosen = sc.chosen[:0]
}

// rawKey returns the completeness key of an event under this subscription
// without the "d:"/"a:" type prefix FilterKeyFor adds: a subscription is
// either identified or abstract, never both, so within one enumeration the
// raw names cannot collide and the prefix concatenation (an allocation per
// call) is unnecessary.
func (s *Subscription) rawKey(e Event) string {
	if s.Kind == KindIdentified {
		return string(e.Sensor)
	}
	return string(e.Attr)
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
// working storage: the enumeration allocates nothing once the scratch has
// warmed up. The ComplexEvent passed to fn is the scratch's own selection
// buffer — it is valid only for the duration of the callback and is
// overwritten by the next match; callbacks that retain a match must copy it
// first.
//
// The search is an exact backtracking search over one candidate list per
// required sensor/attribute. Subscriptions in this system have at most a
// handful of filters (the paper uses 3-5 attributes) and windows are short
// (δt), so the search space stays tiny; the time-window and location-span
// constraints additionally prune it.
//
// Enumerating every completion — rather than selecting one — is what makes
// event forwarding and user delivery independent of arrival interleaving:
// with mustInclude set to the newly arrived event, a given complex event is
// discovered exactly once, at the arrival of whichever of its components
// shows up last, no matter the order the components arrived in. The
// pipelined replay mode's per-round conformance oracle relies on this. The
// enumeration order itself is deterministic — keys sorted, candidates in
// window order — so runs are reproducible whatever storage the caller
// recycles.
func (s *Subscription) ForEachComplexMatchScratch(window []Event, mustInclude *Event, sc *MatchScratch, fn func(ComplexEvent) bool) {
	n := s.NumFilters()
	sc.grow(n)
	if s.Kind == KindIdentified {
		for d := range s.SensorFilters {
			sc.keys = append(sc.keys, string(d))
		}
	} else {
		for a := range s.AttrFilters {
			sc.keys = append(sc.keys, string(a))
		}
	}
	sortStrings(sc.keys)
	keys := sc.keys
	cands := sc.cands[:n]
	for _, e := range window {
		if !s.MatchesEvent(e) {
			continue
		}
		key := s.rawKey(e)
		for i, k := range keys {
			if k == key {
				cands[i] = append(cands[i], e)
				break
			}
		}
	}
	var mustKey string
	if mustInclude != nil {
		if !s.MatchesEvent(*mustInclude) {
			return
		}
		mustKey = s.rawKey(*mustInclude)
	}
	// Completeness pre-check: every key needs at least one candidate.
	for i, k := range keys {
		if k == mustKey {
			continue
		}
		if len(cands[i]) == 0 {
			return
		}
	}

	var rec func(i int) bool // returns false to abort the whole enumeration
	rec = func(i int) bool {
		if i == len(keys) {
			// A full selection is a match by construction: candidates were
			// pre-filtered with MatchesEvent, each key contributed exactly
			// one component, and partialFeasible verified the δt/δl spans on
			// the complete selection before this call.
			return fn(sc.chosen)
		}
		if keys[i] == mustKey {
			sc.chosen = append(sc.chosen, *mustInclude)
			ok := !s.partialFeasible(sc.chosen) || rec(i+1)
			sc.chosen = sc.chosen[:len(sc.chosen)-1]
			return ok
		}
		for _, e := range cands[i] {
			sc.chosen = append(sc.chosen, e)
			ok := !s.partialFeasible(sc.chosen) || rec(i+1)
			sc.chosen = sc.chosen[:len(sc.chosen)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)
}

// sortStrings is an allocation-free insertion sort for the (at most a
// handful of) completeness keys; sort.Strings would allocate its interface
// header on every enumeration.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
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
	// One class means equal filter keys, so the two boxes list the filter
	// ranges in the same order as their trailing dimensions (see computeBox).
	sb, ob := s.Box(), other.Box()
	for i := 1; i <= s.NumFilters(); i++ {
		if !ob.At(ob.NumDims() - i).Covers(sb.At(sb.NumDims() - i)) {
			return false
		}
	}
	return true
}
