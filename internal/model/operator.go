package model

import (
	"fmt"
	"sort"
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
	kept := map[AttributeType]AttributeFilter{}
	for _, a := range attrs {
		if f, ok := s.AttrFilters[a]; ok {
			kept[a] = f
		}
	}
	if len(kept) == 0 {
		return nil
	}
	if len(kept) == len(s.AttrFilters) {
		// Projection onto the full attribute set is the operator itself.
		// Subscriptions are immutable once published (every mutator clones
		// first), so the split-and-forward hot path shares the instance
		// instead of deep-copying it per neighbour.
		return s
	}
	// A plain struct copy suffices: the copied AttrFilters pointer is
	// replaced by kept, and abstract subscriptions carry no SensorFilters —
	// nothing mutable is shared, without Clone's map copies.
	out := &Subscription{}
	*out = *s
	out.AttrFilters = kept
	out.Parent = s.ID
	out.ID = deriveOperatorID(s.ID, attributeNames(kept))
	out.cacheDerived()
	return out
}

// ProjectSensors returns the operator obtained by restricting an identified
// subscription to the given sensors; see ProjectAttributes.
func (s *Subscription) ProjectSensors(sensors []SensorID) *Subscription {
	if s.Kind != KindIdentified {
		return nil
	}
	kept := map[SensorID]SensorFilter{}
	for _, d := range sensors {
		if f, ok := s.SensorFilters[d]; ok {
			kept[d] = f
		}
	}
	if len(kept) == 0 {
		return nil
	}
	if len(kept) == len(s.SensorFilters) {
		// See ProjectAttributes: the full projection shares the instance.
		return s
	}
	out := s.Clone()
	out.SensorFilters = kept
	out.Parent = s.ID
	out.ID = deriveOperatorID(s.ID, sensorNames(kept))
	out.cacheDerived()
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
	var out []*Subscription
	if s.Kind == KindAbstract {
		attrs := s.Attributes()
		for i, a := range attrs {
			if op := s.ProjectAttributes([]AttributeType{a, attrs[(i+1)%len(attrs)]}); op != nil {
				out = append(out, op)
			}
		}
		return out
	}
	sensors := s.Sensors()
	for i, d := range sensors {
		if op := s.ProjectSensors([]SensorID{d, sensors[(i+1)%len(sensors)]}); op != nil {
			out = append(out, op)
		}
	}
	return out
}

// deriveOperatorID builds a deterministic operator identifier from the parent
// subscription ID and the kept filter keys, so that the same projection of
// the same subscription always yields the same operator ID regardless of the
// node performing the split.
func deriveOperatorID(parent SubscriptionID, keys []string) SubscriptionID {
	sort.Strings(keys)
	return SubscriptionID(fmt.Sprintf("%s/[%s]", parent, strings.Join(keys, ",")))
}

func attributeNames(in map[AttributeType]AttributeFilter) []string {
	out := make([]string, 0, len(in))
	for a := range in {
		out = append(out, string(a))
	}
	return out
}

func sensorNames(in map[SensorID]SensorFilter) []string {
	out := make([]string, 0, len(in))
	for d := range in {
		out = append(out, string(d))
	}
	return out
}
