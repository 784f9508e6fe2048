// Package stores contains the node-local data structures of Figure 2 in the
// paper: the per-neighbour advertisement tables (DSA_m), the per-neighbour
// subscription tables (S_m, split into covered and uncovered sets) and the
// timestamp-ordered event store U with per-destination "already forwarded"
// flags used by the event-propagation algorithm (Algorithm 5) — integer keys
// the protocol node draws and owns, one per destination — plus the
// range indexes that keep matching sublinear as the stored populations
// grow: EventIndex — a composite multi-attribute match index built on
// geom.BoxTree that stabs every filter dimension (value range × spatial
// region) at once and maintains itself incrementally under
// subscribe/unsubscribe churn, one ordinary entry per registered
// subscription — and the advertisement table's per-origin sets of sensor
// refs and per-(origin, attribute) geom.PointGrid location grids (there is
// no table-wide grid: a question about every origin asks each of the node's
// few origins in turn).
//
// The structures are not safe for concurrent use; each protocol handler owns
// one set of them and the engines guarantee per-node sequential execution.
// The one exception is shared by design: the process-wide, append-only table
// that interns sensor IDs as the dense refs the advertisement tables store,
// which guards itself with an RWMutex.
package stores

import (
	"slices"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// AdvertisementTable is the node's view of the data-source advertisements
// received from each neighbour (and from locally attached sensors, filed
// under the node's own ID). Algorithm 1 floods every advertisement to every
// node — n nodes and s sensors make n·s entries — so the table keeps of one
// only what its readers ask: per origin the set of advertised sensors (the
// exact answer to Add's "already advertised by this origin" and to Known's
// and Project's "behind this neighbour"), and per (origin, attribute) the
// advertised locations, in a grid that answers "any of this attribute inside
// this region via this neighbour" (Project, HasAllSources, OriginsMatching).
// Which sensor sits at which location is not kept.
//
// A sensor is stored as its ref, a uint32 from the process-wide intern
// table (sensorrefs.go) that Add fills on a sensor's first advertisement
// anywhere, and each origin's sensors are a pointer-free open-addressing set
// of refs: 8–16 bytes per entry that the garbage collector never scans. The
// readers only look refs up, so asking about a sensor nobody advertised
// answers "not known" and leaves the intern table as it was.
type AdvertisementTable struct {
	self topology.NodeID
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

// originAds is what one origin advertised: its sensors, and their locations
// per attribute type (a handful of types, found by scan like the origins).
type originAds struct {
	origin  topology.NodeID
	sensors refSet
	attrs   []attrLocations
}

type attrLocations struct {
	attr model.AttributeType
	locs geom.PointGrid
}

// anyInRegion reports whether the origin advertised at least one sensor of
// the attribute type located inside the region.
func (o *originAds) anyInRegion(attr model.AttributeType, r geom.Region) bool {
	for i := range o.attrs {
		if o.attrs[i].attr != attr {
			continue
		}
		found := false
		o.attrs[i].locs.Query(r, func(int) bool {
			found = true
			return false
		})
		return found
	}
	return false
}

// NewAdvertisementTable returns an empty table for the given node.
func NewAdvertisementTable(self topology.NodeID) *AdvertisementTable {
	return &AdvertisementTable{self: self}
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
// for local sensors). It returns false when the same sensor was already
// advertised by that origin, which callers use to stop re-flooding.
func (t *AdvertisementTable) Add(origin topology.NodeID, adv model.Advertisement) bool {
	o := t.from(origin)
	if o == nil {
		t.origins = append(t.origins, originAds{origin: origin})
		o = &t.origins[len(t.origins)-1]
	}
	if !o.sensors.insert(internSensor(adv.Sensor)) {
		return false
	}
	i := 0
	for i < len(o.attrs) && o.attrs[i].attr != adv.Attr {
		i++
	}
	if i == len(o.attrs) {
		o.attrs = append(o.attrs, attrLocations{attr: adv.Attr})
	}
	o.attrs[i].locs.Add(adv.Location)
	return true
}

// Known reports whether the sensor was advertised by any origin.
func (t *AdvertisementTable) Known(sensor model.SensorID) bool {
	ref, ok := lookupSensor(sensor)
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
		total += t.origins[i].sensors.n
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
			if ref, ok := lookupSensor(d); ok && o.sensors.has(ref) {
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
	for a := range sub.AttrFilters {
		if o.anyInRegion(a, sub.Region) {
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
	for a := range sub.AttrFilters {
		if !t.anyInRegion(a, sub.Region) {
			return false
		}
	}
	return true
}

// anyInRegion asks every origin in turn: with few origins per node that
// costs less than a second, table-wide grid would to keep.
func (t *AdvertisementTable) anyInRegion(attr model.AttributeType, r geom.Region) bool {
	for i := range t.origins {
		if t.origins[i].anyInRegion(attr, r) {
			return true
		}
	}
	return false
}

// OriginsMatching returns the origins (excluding the given one) whose
// advertised data space overlaps the subscription, i.e. the neighbours the
// subscription must be forwarded to. The result is sorted.
func (t *AdvertisementTable) OriginsMatching(sub *model.Subscription, exclude topology.NodeID) []topology.NodeID {
	var out []topology.NodeID
	for i := range t.origins {
		origin := t.origins[i].origin
		if origin == exclude || origin == t.self {
			continue
		}
		if t.Project(sub, origin) != nil {
			out = append(out, origin)
		}
	}
	slices.Sort(out)
	return out
}
