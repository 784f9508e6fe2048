// Package stores contains the node-local data structures of Figure 2 in the
// paper: the per-neighbour advertisement tables (DSA_m), the per-neighbour
// subscription tables (S_m, split into covered and uncovered sets) and the
// timestamp-ordered event store U with per-destination "already forwarded"
// flags used by the event-propagation algorithm (Algorithm 5) — integer keys
// the protocol node draws and owns, one per destination — plus the
// range index that keeps matching sublinear as the stored population
// grows: EventIndex — a composite multi-attribute match index built on
// geom.BoxTree that stabs every filter dimension (value range × spatial
// region) at once and maintains itself incrementally under
// subscribe/unsubscribe churn, one ordinary entry per registered
// subscription. The advertisement table keeps one bitset of sensor refs per
// origin and answers region questions by walking it over the network's
// sensor registry.
//
// The structures are not safe for concurrent use; each protocol handler owns
// one set of them and the engines guarantee per-node sequential execution.
// The package holds no package-level mutable state.
package stores

import (
	"math/bits"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// AdvertisementTable is the node's view of the data-source advertisements
// received from each neighbour (and from locally attached sensors, filed
// under the node's own ID). Algorithm 1 floods every advertisement to every
// node — n nodes and s sensors make n·s entries — so the table keeps of one
// only its sensor's bit in the origin's bitset over the refs of the
// network's registry (model.SensorRegistry), which holds each sensor's ID,
// attribute type and location once for every node. The bitset answers Add's
// "already advertised by this origin" and Known's and the identified
// Project's "behind this neighbour" exactly; "any of this attribute inside
// this region via this neighbour" (the abstract Project, HasAllSources)
// walks the origin's set bits and reads each sensor's attribute type and
// location from the registry, stopping at the first inside. That is one bit
// per entry, none of it scanned by the garbage collector.
type AdvertisementTable struct {
	sensors *model.SensorRegistry
	// origins has one entry per origin heard from, in order of first
	// advertisement: a node's few neighbours and itself, found by scan.
	origins []originAds

	// sensorScratch/attrScratch back Project's per-call key collections. The
	// projection methods copy what they keep (building their own kept maps)
	// and never retain the slice, so one table-owned buffer serves every
	// call — the advertisement walk of the split-and-forward phase stops
	// allocating per (subscription, neighbour) pair. Safe like the other
	// stores: one table per node, per-node sequential execution.
	sensorScratch []model.SensorID
	attrScratch   []model.AttributeType
}

// originAds is what one origin advertised: its sensors' refs.
type originAds struct {
	origin  topology.NodeID
	sensors refBits
}

// refBits is a set of sensor refs as a bitset, grown to cover the largest
// ref it holds.
type refBits []uint64

func (b refBits) has(ref model.SensorRef) bool {
	w := int(ref / 64)
	return w < len(b) && b[w]&(1<<(ref%64)) != 0
}

// insert adds the ref and reports whether it was absent.
func (b *refBits) insert(ref model.SensorRef) bool {
	w := int(ref / 64)
	if w >= len(*b) {
		*b = append(*b, make(refBits, w+1-len(*b))...)
	}
	bit := uint64(1) << (ref % 64)
	if (*b)[w]&bit != 0 {
		return false
	}
	(*b)[w] |= bit
	return true
}

// anyInRegion reports whether the set holds a sensor of the attribute type
// located inside the region; attrs and locs are the registry's columns.
func (b refBits) anyInRegion(attrs []model.AttributeType, locs []geom.Point2D, attr model.AttributeType, r geom.Region) bool {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			ref := w*64 + bits.TrailingZeros64(word)
			if attrs[ref] == attr && r.Contains(locs[ref]) {
				return true
			}
		}
	}
	return false
}

// NewAdvertisementTable returns an empty table over the registry of the
// node's network. A table without a registry (nil) must not be used.
func NewAdvertisementTable(sensors *model.SensorRegistry) *AdvertisementTable {
	return &AdvertisementTable{sensors: sensors}
}

// from returns the entry of an origin, nil when it advertised nothing yet.
func (t *AdvertisementTable) from(origin topology.NodeID) *originAds {
	for i := range t.origins {
		if t.origins[i].origin == origin {
			return &t.origins[i]
		}
	}
	return nil
}

// Add records an advertisement received from origin (use the node's own ID
// for local sensors). The advertisement must come from the table's registry
// (its Ref set). Add returns false when the same sensor was already
// advertised by that origin, which callers use to stop re-flooding.
func (t *AdvertisementTable) Add(origin topology.NodeID, adv model.Advertisement) bool {
	o := t.from(origin)
	if o == nil {
		t.origins = append(t.origins, originAds{origin: origin})
		o = &t.origins[len(t.origins)-1]
	}
	return o.sensors.insert(adv.Ref)
}

// Known reports whether the sensor was advertised by any origin.
func (t *AdvertisementTable) Known(sensor model.SensorID) bool {
	ref, ok := t.sensors.Lookup(sensor)
	if !ok {
		return false
	}
	for i := range t.origins {
		if t.origins[i].sensors.has(ref) {
			return true
		}
	}
	return false
}

// Count returns the total number of stored advertisements.
func (t *AdvertisementTable) Count() int {
	total := 0
	for i := range t.origins {
		for _, word := range t.origins[i].sensors {
			total += bits.OnesCount64(word)
		}
	}
	return total
}

// Project returns the correlation operator obtained by projecting sub onto
// the data space advertised by origin (Algorithm 3, line 8): the sensors of
// sub advertised by that origin for identified subscriptions, or the
// attribute types advertised by that origin within sub's region for abstract
// subscriptions. It returns nil when the projection is empty.
func (t *AdvertisementTable) Project(sub *model.Subscription, origin topology.NodeID) *model.Subscription {
	o := t.from(origin)
	if o == nil {
		return nil
	}
	if sub.Kind == model.KindIdentified {
		sensors := t.sensorScratch[:0]
		for d := range sub.SensorFilters {
			if ref, ok := t.sensors.Lookup(d); ok && o.sensors.has(ref) {
				sensors = append(sensors, d)
			}
		}
		t.sensorScratch = sensors[:0]
		if len(sensors) == 0 {
			return nil
		}
		return sub.ProjectSensors(sensors)
	}
	attrs := t.attrScratch[:0]
	types, locs := t.sensors.Columns()
	for a := range sub.AttrFilters {
		if o.sensors.anyInRegion(types, locs, a, sub.Region) {
			attrs = append(attrs, a)
		}
	}
	t.attrScratch = attrs[:0]
	if len(attrs) == 0 {
		return nil
	}
	return sub.ProjectAttributes(attrs)
}

// HasAllSources reports whether every filter of the subscription has at
// least one matching advertisement (from any origin). Subscriptions without
// sources are dropped at their originating node (Algorithm 3, line 3).
func (t *AdvertisementTable) HasAllSources(sub *model.Subscription) bool {
	if sub.Kind == model.KindIdentified {
		for d := range sub.SensorFilters {
			if !t.Known(d) {
				return false
			}
		}
		return true
	}
	types, locs := t.sensors.Columns()
next:
	for a := range sub.AttrFilters {
		for i := range t.origins {
			if t.origins[i].sensors.anyInRegion(types, locs, a, sub.Region) {
				continue next
			}
		}
		return false
	}
	return true
}
