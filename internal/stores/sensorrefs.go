package stores

import (
	"math/bits"
	"sync"

	"sensorcq/internal/model"
)

// sensorRef is a sensor's dense number in the process-wide intern table.
// Refs start at 1: 0 marks an empty slot of a refSet.
type sensorRef uint32

// sensorRefs interns sensor IDs as refs, once per process: the first
// advertisement of a sensor anywhere assigns its ref, and the table never
// shrinks. Every node's AdvertisementTable reads it, and the concurrent
// engine runs nodes on several workers at once, so it sits behind an
// RWMutex; after the flood's first hop every call is a read.
var sensorRefs = struct {
	sync.RWMutex
	ids map[model.SensorID]sensorRef
}{ids: map[model.SensorID]sensorRef{}}

// internSensor returns the sensor's ref, assigning the next one when the
// sensor was never interned.
func internSensor(id model.SensorID) sensorRef {
	if ref, ok := lookupSensor(id); ok {
		return ref
	}
	sensorRefs.Lock()
	defer sensorRefs.Unlock()
	ref, ok := sensorRefs.ids[id]
	if !ok {
		ref = sensorRef(len(sensorRefs.ids) + 1)
		sensorRefs.ids[id] = ref
	}
	return ref
}

// lookupSensor returns the sensor's ref without interning it: a sensor no
// table ever had added has none.
func lookupSensor(id model.SensorID) (sensorRef, bool) {
	sensorRefs.RLock()
	ref, ok := sensorRefs.ids[id]
	sensorRefs.RUnlock()
	return ref, ok
}

// refSet is a set of sensor refs by open addressing with linear probing: a
// power-of-two slice of refs, 0 for an empty slot, grown to twice its size
// before it passes half full. It holds no pointer, so the garbage collector
// never scans it, and costs 8–16 bytes per member. Refs are never removed.
type refSet struct {
	slots []sensorRef
	n     int
	shift uint8 // 32 − log2(len(slots)): hash bits past the index
}

// slot returns the index of the ref in slots, or of the empty slot where it
// belongs. slots must be non-empty and hold an empty slot.
func (s *refSet) slot(ref sensorRef) int {
	mask := len(s.slots) - 1
	// Fibonacci hashing spreads the dense refs of one subtree, which would
	// otherwise fill a contiguous run that absent refs probe through.
	i := int(uint32(ref) * 0x9E3779B9 >> s.shift)
	for s.slots[i] != 0 && s.slots[i] != ref {
		i = (i + 1) & mask
	}
	return i
}

// has reports whether the ref is in the set.
func (s *refSet) has(ref sensorRef) bool {
	return len(s.slots) != 0 && s.slots[s.slot(ref)] == ref
}

// insert adds the ref and reports whether it was absent.
func (s *refSet) insert(ref sensorRef) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	i := s.slot(ref)
	if s.slots[i] == ref {
		return false
	}
	s.slots[i] = ref
	s.n++
	return true
}

func (s *refSet) grow() {
	old := s.slots
	s.slots = make([]sensorRef, max(8, 2*len(old)))
	s.shift = uint8(32 - bits.Len(uint(len(s.slots)-1)))
	for _, ref := range old {
		if ref != 0 {
			s.slots[s.slot(ref)] = ref
		}
	}
}
