package stores

import (
	"sort"

	"sensorcq/internal/model"
)

// EventWindow is the node-local event store U of Algorithm 5: received
// simple events ordered by timestamp, each carrying a set of "already
// forwarded to" flags, with expiry after a configurable validity period.
//
// The flag keys are free-form strings chosen by the protocol: the
// per-neighbour forwarding of Filter-Split-Forward uses one key per
// neighbour, while the per-subscription result sets of the naive and
// operator-placement approaches use one key per (neighbour, subscription)
// pair — that difference is exactly the "event propagation" column of
// Table II. Keys are interned into small integer IDs (KeyID) on first use;
// the steady-state forwarding path then never touches a string.
//
// The window is a structure of arrays: one timestamp-sorted slice of events
// and one parallel slice of per-event sent-key ID lists. Storing events by
// value and recycling the sent lists through a free list keeps the
// steady-state insert/match/prune cycle allocation-free; see the package
// documentation for the invariants callers must follow when holding the
// slices Around returns.
type EventWindow struct {
	// Validity is how long an event stays stored after its timestamp. The
	// paper requires it to be at least δt so that late correlations can
	// still be detected; ObserveDeltaT keeps it at a fixed factor of the
	// largest δt seen.
	Validity model.Timestamp
	// maxDeltaT is the largest δt ObserveDeltaT has seen.
	maxDeltaT model.Timestamp

	evs    []model.Event // sorted by (Time, Seq)
	sent   [][]uint32    // parallel to evs: sorted interned key IDs
	free   [][]uint32    // recycled sent lists (capacity retained)
	latest model.Timestamp

	keyIDs  map[string]uint32
	keyStrs []string // index = key ID, for SentKeys
}

// NewEventWindow returns an empty window with the given validity.
func NewEventWindow(validity model.Timestamp) *EventWindow {
	if validity <= 0 {
		validity = 1
	}
	return &EventWindow{Validity: validity, keyIDs: map[string]uint32{}}
}

// KeyID interns a forwarding key, returning the stable small integer the
// mark fast path uses. Handlers intern each key once (per neighbour or per
// (neighbour, subscription) pair) and cache the ID; a per-event forwarding
// decision then costs one MarkSent — two binary searches, no allocation.
func (w *EventWindow) KeyID(key string) uint32 {
	if id, ok := w.keyIDs[key]; ok {
		return id
	}
	id := uint32(len(w.keyStrs))
	w.keyIDs[key] = id
	w.keyStrs = append(w.keyStrs, key)
	return id
}

// find returns the index of the stored event with this (Time, Seq), or
// (insertion point, false) when absent. Events are sorted by (Time, Seq), so
// identity resolves with one binary search — no per-sequence map is kept.
func (w *EventWindow) find(t model.Timestamp, seq uint64) (int, bool) {
	lo, hi := 0, len(w.evs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := &w.evs[mid]
		if e.Time < t || (e.Time == t && e.Seq < seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(w.evs) && w.evs[lo].Time == t && w.evs[lo].Seq == seq {
		return lo, true
	}
	return lo, false
}

// Insert adds an event to the window. It returns false when the event is
// already stored (duplicate arrivals are expected when per-subscription
// result sets overlap).
func (w *EventWindow) Insert(ev model.Event) bool {
	idx, dup := w.find(ev.Time, ev.Seq)
	if dup {
		return false
	}
	var sentList []uint32
	if n := len(w.free); n > 0 {
		sentList = w.free[n-1][:0]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
	}
	w.evs = append(w.evs, model.Event{})
	copy(w.evs[idx+1:], w.evs[idx:])
	w.evs[idx] = ev
	w.sent = append(w.sent, nil)
	copy(w.sent[idx+1:], w.sent[idx:])
	w.sent[idx] = sentList
	if ev.Time > w.latest {
		w.latest = ev.Time
	}
	return true
}

// ObserveDeltaT is the window-validity rule: once a stored operator's
// temporal correlation distance dt exceeds every δt seen before, Validity
// grows to factor × dt; a factor <= 0 selects the default of 2. It never
// shrinks. Both the distributed nodes and the centralized baseline's centre
// apply it to every operator they store.
func (w *EventWindow) ObserveDeltaT(dt, factor model.Timestamp) {
	if factor <= 0 {
		factor = 2
	}
	if dt > w.maxDeltaT {
		w.maxDeltaT = dt
		w.Validity = factor * dt
	}
}

// MaxDeltaT returns the largest δt ObserveDeltaT has seen: the widest
// ±δt any stored operator matches over.
func (w *EventWindow) MaxDeltaT() model.Timestamp { return w.maxDeltaT }

// Receive stores an arriving event and prunes the window to the newest
// timestamp seen — the arrival step of Algorithm 5, after which the event
// triggers matching. It returns false, leaving the window unchanged, when
// the event is already stored. Like Prune, it invalidates every slice a
// previous Around returned.
func (w *EventWindow) Receive(ev model.Event) bool {
	if !w.Insert(ev) {
		return false
	}
	w.Prune(w.latest)
	return true
}

// Len returns the number of stored (unexpired) events.
func (w *EventWindow) Len() int { return len(w.evs) }

// Latest returns the largest timestamp seen so far.
func (w *EventWindow) Latest() model.Timestamp { return w.latest }

// Prune drops events whose timestamp is older than now - Validity. The
// dropped events' sent lists are recycled for later inserts; pruning
// invalidates every slice a previous Around returned.
func (w *EventWindow) Prune(now model.Timestamp) {
	cutoff := now - w.Validity
	// Events are time-sorted: the expired ones are exactly a prefix.
	k := 0
	for k < len(w.evs) && w.evs[k].Time < cutoff {
		k++
	}
	if k == 0 {
		return
	}
	for i := 0; i < k; i++ {
		if w.sent[i] != nil {
			w.free = append(w.free, w.sent[i][:0])
		}
	}
	n := copy(w.evs, w.evs[k:])
	w.evs = w.evs[:n]
	copy(w.sent, w.sent[k:])
	for i := n; i < n+k; i++ {
		w.sent[i] = nil
	}
	w.sent = w.sent[:n]
}

// Around returns the events whose timestamps lie in the closed interval
// [t-delta, t+delta]: the candidate window for complex events triggered by
// an event at time t with temporal correlation distance delta.
//
// The returned slice is a view into the window's storage — no copy is made.
// It is valid until the next Insert or Prune on this window and must not be
// modified; callers that retain candidate events past the next mutation must
// copy them out first. Marking events sent does not invalidate the view.
func (w *EventWindow) Around(t model.Timestamp, delta model.Timestamp) []model.Event {
	lo, hi := t-delta, t+delta
	i := sort.Search(len(w.evs), func(k int) bool { return w.evs[k].Time >= lo })
	j := sort.Search(len(w.evs), func(k int) bool { return w.evs[k].Time > hi })
	return w.evs[i:j]
}

// Events returns a copy of all stored events in timestamp order.
func (w *EventWindow) Events() []model.Event {
	out := make([]model.Event, len(w.evs))
	copy(out, w.evs)
	return out
}

// sentIdx returns the position of key in the sorted list (or its insertion
// point) and whether it is present.
func sentIdx(list []uint32, key uint32) (int, bool) {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(list) && list[lo] == key
}

// MarkSent records that the stored event has been forwarded under the given
// interned key and reports whether the mark is new, i.e. whether the caller
// should forward the event now. An event not (or no longer) stored reports
// false and is left alone, so that stale events are never re-forwarded.
func (w *EventWindow) MarkSent(ev model.Event, key uint32) bool {
	idx, ok := w.find(ev.Time, ev.Seq)
	if !ok {
		return false
	}
	list := w.sent[idx]
	pos, present := sentIdx(list, key)
	if present {
		return false
	}
	list = append(list, 0)
	copy(list[pos+1:], list[pos:])
	list[pos] = key
	w.sent[idx] = list
	return true
}

// SentKeys returns the forwarding keys recorded for an event, as the strings
// they were interned from, sorted; it is a debugging/testing helper.
func (w *EventWindow) SentKeys(ev model.Event) []string {
	idx, ok := w.find(ev.Time, ev.Seq)
	if !ok {
		return nil
	}
	list := w.sent[idx]
	if len(list) == 0 {
		return nil
	}
	out := make([]string, 0, len(list))
	for _, id := range list {
		out = append(out, w.keyStrs[id])
	}
	sort.Strings(out)
	return out
}
