package model

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sensorcq/internal/geom"
)

// SensorRef is a sensor's number in the registry of the network it is
// attached to: dense, from 0, in attach order. It means nothing outside that
// network.
type SensorRef uint32

// SensorRegistry is one network's append-only record of its sensors. It
// gives each sensor a SensorRef on its first registration and keeps the
// sensor's ID, attribute type and location once for the whole network, so
// every node's advertisement table stores a bit per ref and reads each
// sensor's attribute type and location here.
//
// Registration takes a lock; reading a registered sensor by ref does not. The
// columns are republished as one snapshot on every registration, and a ref
// reaches a reader only through something handed over after the registration
// that assigned it (the engines queue an attach after registering the
// sensor), so the snapshot a reader loads always covers it. A reader holding
// an older snapshot never looks past its end, where a registration may be
// appending. Looking a sensor up by ID goes through a map under a read lock:
// the control path does it, a flood hop does not.
type SensorRegistry struct {
	mu   sync.RWMutex
	byID map[SensorID]SensorRef
	cols atomic.Pointer[sensorColumns]
}

// sensorColumns is one published snapshot of the registry: entry ref of each
// column describes sensor ref.
type sensorColumns struct {
	ids   []SensorID
	attrs []AttributeType
	locs  []geom.Point2D
}

// NewSensorRegistry returns an empty registry.
func NewSensorRegistry() *SensorRegistry {
	r := &SensorRegistry{byID: map[SensorID]SensorRef{}}
	r.cols.Store(&sensorColumns{})
	return r
}

// Register returns the sensor's ref, assigning the next one when its ID is
// new. Registering an ID again with the same attribute type and location
// returns its ref; with a different one it is an error, because a network
// advertises each sensor once.
func (r *SensorRegistry) Register(s Sensor) (SensorRef, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cols := r.cols.Load()
	if ref, ok := r.byID[s.ID]; ok {
		if cols.attrs[ref] != s.Attr || cols.locs[ref] != s.Location {
			return 0, fmt.Errorf("sensor %q is already attached as %s at %s", s.ID, cols.attrs[ref], cols.locs[ref])
		}
		return ref, nil
	}
	ref := SensorRef(len(cols.ids))
	r.cols.Store(&sensorColumns{
		ids:   append(cols.ids, s.ID),
		attrs: append(cols.attrs, s.Attr),
		locs:  append(cols.locs, s.Location),
	})
	r.byID[s.ID] = ref
	return ref, nil
}

// Lookup returns the ref of a registered sensor.
func (r *SensorRegistry) Lookup(id SensorID) (SensorRef, bool) {
	r.mu.RLock()
	ref, ok := r.byID[id]
	r.mu.RUnlock()
	return ref, ok
}

// Advertisement returns the advertisement of a registered sensor.
func (r *SensorRegistry) Advertisement(ref SensorRef) Advertisement {
	cols := r.cols.Load()
	return Advertisement{Ref: ref, Sensor: cols.ids[ref], Attr: cols.attrs[ref], Location: cols.locs[ref]}
}

// Columns returns the registered sensors' attribute types and locations,
// each indexed by ref, from one snapshot. The slices are shared: callers read
// them and never write them.
func (r *SensorRegistry) Columns() ([]AttributeType, []geom.Point2D) {
	cols := r.cols.Load()
	return cols.attrs, cols.locs
}
