package model

import (
	"slices"
	"strings"
)

// This file implements the "correlation operator" view of subscriptions used
// by the split-and-forward phase (Section V-B): projecting a subscription
// onto a subset of its filters, and splitting a multi-join into binary joins
// (Section III-B, after Chandramouli & Yang).

// ProjectAttributes returns the operator obtained by restricting an abstract
// subscription to the given attribute types. The result keeps the region and
// correlation distances of the original and records s as its parent. It
// returns nil when none of the requested attributes are filtered by s.
func (s *Subscription) ProjectAttributes(attrs []AttributeType) *Subscription {
	if s.Kind != KindAbstract {
		return nil
	}
	return project(s, attrs)
}

// ProjectSensors returns the operator obtained by restricting an identified
// subscription to the given sensors; see ProjectAttributes.
func (s *Subscription) ProjectSensors(sensors []SensorID) *Subscription {
	if s.Kind != KindIdentified {
		return nil
	}
	return project(s, sensors)
}

// project restricts s to the filters whose raw key (sensor or attribute
// type, by kind) is among keys. It returns nil when no filter is kept and s
// itself when every filter is: subscriptions are immutable once published
// (every mutator clones first), so the split-and-forward hot path shares the
// instance instead of copying it per neighbour. A proper projection records
// s as its parent and gets a deterministic ID built from the kept keys, in
// slot order — "<parent>/[<key>,<key>,…]" — so the same projection of the
// same subscription always has the same ID whichever node splits it. The set
// filter seeds its decisions from that ID.
func project[K ~string](s *Subscription, keys []K) *Subscription {
	slots := s.filterSlots()
	keep := func(sl filterSlot) bool { return slices.Contains(keys, K(sl.key)) }
	n := 0
	for _, sl := range slots {
		if keep(sl) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if n == len(slots) {
		return s
	}
	kept := make([]filterSlot, 0, n)
	var id strings.Builder
	id.WriteString(string(s.ID))
	id.WriteString("/[")
	for _, sl := range slots {
		if keep(sl) {
			if len(kept) > 0 {
				id.WriteByte(',')
			}
			id.WriteString(sl.key)
			kept = append(kept, sl)
		}
	}
	id.WriteByte(']')

	// A plain struct copy suffices: the filter map of s's kind is replaced
	// and the other one is nil, so nothing mutable is shared.
	out := &Subscription{}
	*out = *s
	if s.Kind == KindIdentified {
		out.SensorFilters = make(map[SensorID]SensorFilter, n)
		for _, sl := range kept {
			out.SensorFilters[SensorID(sl.key)] = s.SensorFilters[SensorID(sl.key)]
		}
	} else {
		out.AttrFilters = make(map[AttributeType]AttributeFilter, n)
		for _, sl := range kept {
			out.AttrFilters[AttributeType(sl.key)] = s.AttrFilters[AttributeType(sl.key)]
		}
	}
	out.Parent = s.ID
	out.ID = SubscriptionID(id.String())
	out.cacheDerived(kept)
	return out
}

// SplitBinaryJoins decomposes the subscription into binary joins following
// the multi-join approximation of Section III-B. The pairing is the ring:
// filter i is paired with filter (i+1) mod k, producing k binary joins for a
// k-filter multi-join (k >= 3), so each filter is the "main" one of exactly
// one binary join. Subscriptions with at most two filters are returned
// unchanged (a binary join is exact for them). The resulting operators are
// projections of s onto pairs of its filter keys and therefore lose the
// correlation constraints that span more than two attributes — exactly the
// source of the false positives the paper measures.
func (s *Subscription) SplitBinaryJoins() []*Subscription {
	if s.NumFilters() <= 2 {
		return []*Subscription{s.Clone()}
	}
	slots := s.filterSlots()
	out := make([]*Subscription, len(slots))
	for i, sl := range slots {
		out[i] = project(s, []string{sl.key, slots[(i+1)%len(slots)].key})
	}
	return out
}
