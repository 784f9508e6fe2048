package stores

import (
	"sensorcq/internal/geom"
	"sensorcq/internal/model"
)

// EventIndex is the indexed event-matching fast path: it stores
// subscriptions (correlation operators) so that, for an incoming simple
// event, the candidate operators — exactly those for which
// Subscription.MatchesEvent would return true — are found by range-pruned
// index lookups instead of a linear scan over every operator filtering the
// event's attribute.
//
// Internally the index keeps one composite box structure (geom.BoxTree) per
// operator class: per filtered sensor for identified subscriptions (the
// filter's value range), and per filtered attribute type for abstract ones —
// where each entry is the filter's value range and the subscription region
// as one three-dimensional box, so a lookup stabs value and location at once
// instead of stabbing a per-attribute interval tree and re-checking region
// containment on every candidate. A candidate lookup for event e stabs
// bySensor[e.Sensor] with e.Value, or byAttr[e.Attr] with
// (e.Value, e.Location). The result set is exactly {s : s.MatchesEvent(e)} —
// verified against the linear scan by the property tests — so callers can
// feed candidates straight into the complex-match enumeration
// (Subscription.ForEachComplexMatchPartitioned) without re-testing the
// trigger.
//
// Maintenance is fully incremental once the index has served its first
// lookup: Add and Remove splice single boxes in and out of the trees in
// O(log n), so steady-state subscribe/unsubscribe churn never tombstones
// entries or rebuilds a structure from scratch. Before the first lookup,
// Adds are staged and the first Candidates call packs the whole staged
// population with geom.BoxTree.BulkLoad — one bottom-up O(n log n) build
// instead of n heuristic descents — which is what makes the initial
// subscription flood (register everything, then start matching) cheap.
// BulkLoad triggers the same packed build explicitly; BulkLoad(nil) on a
// fresh index therefore yields one that inserts every Add immediately.
// This is the only implementation: the churn and rebuilt-from-scratch
// oracles in the tests compare it against a linear scan and against a
// freshly built index, not against a second index type.
//
// A subscription appears at most once per lookup: identified subscriptions
// have one filter per sensor and abstract ones one filter per attribute, so
// no per-query deduplication is needed. Every registered subscription is an
// ordinary member with entries of its own: covered operators (Algorithm 4
// stores them without forwarding them) are indexed like any other.
//
// Like the other stores, an EventIndex is not safe for concurrent use; each
// protocol handler owns its indexes and the engines guarantee per-node
// sequential execution.
type EventIndex struct {
	bySensor map[model.SensorID]*boxList        // 1-D: filter value range
	byAttr   map[model.AttributeType]*boxList   // 3-D: value range × region
	members  map[model.SubscriptionID]*ixMember // every live subscription

	// Until the first lookup, members are staged in pending instead of
	// being inserted into the trees one by one; build() packs them all at
	// once. A staged member removed before the build is deleted from
	// members — the flush skips entries the map no longer owns — so pending
	// may hold dead members, never miss a live one. Remove compacts it once
	// the dead outnumber the live twice over, so an index no reading ever
	// stabs does not keep every subscription ever registered in it.
	pending []*ixMember
	built   bool

	// Lookup tallies for Stats (incremented on the candidates hot path; two
	// integer adds, no allocation).
	lookups int64
	emitted int64
}

// NewEventIndex returns an empty index with incremental maintenance and a
// deferred bulk-packed first build.
func NewEventIndex() *EventIndex {
	return &EventIndex{
		bySensor: map[model.SensorID]*boxList{},
		byAttr:   map[model.AttributeType]*boxList{},
		members:  map[model.SubscriptionID]*ixMember{},
	}
}

// Add registers a subscription (or correlation operator) for event matching.
// Adding an ID already present is a no-op.
func (x *EventIndex) Add(sub *model.Subscription) {
	if sub == nil {
		return
	}
	if _, live := x.members[sub.ID]; live {
		return
	}
	m := &ixMember{sub: sub}
	x.members[sub.ID] = m
	if x.built {
		x.insertEntries(m)
		return
	}
	x.pending = append(x.pending, m)
}

// Remove retracts a subscription from the index by ID. It returns false when
// the ID is not (or no longer) indexed. Removal is incremental: the entry's
// boxes are spliced out of the trees in O(log n).
func (x *EventIndex) Remove(id model.SubscriptionID) bool {
	m, live := x.members[id]
	if !live {
		return false
	}
	delete(x.members, id)
	for _, e := range m.entries {
		e.list.release(e)
	}
	m.entries = nil
	if !x.built && len(x.pending) > 2*len(x.members)+16 {
		x.compactPending()
	}
	return true
}

// compactPending drops the staged members that are no longer live, keeping
// the order of the rest, so the deferred build packs the same batch.
func (x *EventIndex) compactPending() {
	live := x.pending[:0]
	for _, m := range x.pending {
		if x.members[m.sub.ID] == m {
			live = append(live, m)
		}
	}
	clear(x.pending[len(live):])
	x.pending = live
}

// Len returns the number of live subscriptions in the index.
func (x *EventIndex) Len() int { return len(x.members) }

// BulkLoad registers a batch of subscriptions at once. It is equivalent to
// calling Add for each (nil entries and duplicate IDs are skipped the same
// way), but when the index has never served a lookup the whole batch —
// together with anything staged by earlier Adds — is packed into balanced
// trees in one bottom-up pass per tree (geom.BoxTree.BulkLoad) instead of
// one heuristic descent per box. On an index that has already been queried
// it degrades to the incremental Add loop.
func (x *EventIndex) BulkLoad(subs []*model.Subscription) {
	for _, sub := range subs {
		x.Add(sub)
	}
	if !x.built {
		x.build()
	}
}

// IndexStats summarises the shape and observed lookup cost of an EventIndex
// for diagnostics (cqsim -indexstats): tree and entry counts, the tallest
// tree, and the running candidates-per-lookup tally.
type IndexStats struct {
	Trees      int   // composite trees (one per filtered sensor / attribute type)
	Members    int   // registered subscriptions
	Boxes      int   // boxes stored across all trees
	Nodes      int   // pooled tree nodes backing those boxes (2·boxes−1 per packed tree)
	MaxHeight  int   // height of the tallest tree (stab cost is O(height) per visited branch)
	Lookups    int64 // Candidates calls served since construction
	Candidates int64 // candidates emitted by those calls (avg per lookup = Candidates/Lookups)
}

// Merge folds another index's stats into s: counts add up, MaxHeight takes
// the taller tree. Diagnostics use it to aggregate the many per-(node,
// origin) indexes of a distributed run into one report.
func (s *IndexStats) Merge(o IndexStats) {
	s.Trees += o.Trees
	s.Members += o.Members
	s.Boxes += o.Boxes
	s.Nodes += o.Nodes
	if o.MaxHeight > s.MaxHeight {
		s.MaxHeight = o.MaxHeight
	}
	s.Lookups += o.Lookups
	s.Candidates += o.Candidates
}

// boxList pairs one composite tree with the members its slots refer to
// (tree handle i is an index into members; freed slots are reused).
type boxList struct {
	tree    *geom.BoxTree
	members []*ixMember
	free    []int
}

// ixEntry is one tree entry of a member: the list it lives in, the slot its
// handle points at and the token Remove hands back to the tree.
type ixEntry struct {
	list  *boxList
	token int32
	slot  int
}

// ixMember is the per-subscription state: the subscription and its tree
// entries.
type ixMember struct {
	sub     *model.Subscription
	entries []ixEntry
}

// build packs every staged live member's boxes into the composite trees in
// one bottom-up pass per tree, then switches the index to incremental
// maintenance. Each subscription contributes at most one box per tree (one
// filter per sensor or attribute), so grouping by destination tree preserves
// the batch order within every group and the build is deterministic.
func (x *EventIndex) build() {
	x.built = true
	pend := x.pending
	x.pending = nil
	if len(pend) == 0 {
		return
	}
	type bulkGroup struct {
		list  *boxList
		boxes []geom.Interval // flat: one box per member, list.tree.Dims() intervals each
		mems  []*ixMember
	}
	var groups []*bulkGroup
	byList := map[*boxList]*bulkGroup{}
	groupFor := func(l *boxList) *bulkGroup {
		g := byList[l]
		if g == nil {
			g = &bulkGroup{list: l}
			byList[l] = g
			groups = append(groups, g)
		}
		return g
	}
	for _, m := range pend {
		if x.members[m.sub.ID] != m {
			continue // removed (or replaced) before the first lookup
		}
		sub := m.sub
		if sub.Kind == model.KindIdentified {
			for d, f := range sub.SensorFilters {
				g := groupFor(x.sensorList(d))
				g.boxes = append(g.boxes, f.Range)
				g.mems = append(g.mems, m)
			}
			continue
		}
		for a, f := range sub.AttrFilters {
			g := groupFor(x.attrList(a))
			g.boxes = append(g.boxes, f.Range, sub.Region.X, sub.Region.Y)
			g.mems = append(g.mems, m)
		}
	}
	for _, g := range groups {
		l := g.list
		handles := make([]int, len(g.mems))
		for i, m := range g.mems {
			handles[i] = len(l.members)
			l.members = append(l.members, m)
		}
		tokens := l.tree.BulkLoad(g.boxes, handles)
		for i, token := range tokens {
			if token < 0 {
				l.members[handles[i]] = nil
				l.free = append(l.free, handles[i])
				continue
			}
			g.mems[i].entries = append(g.mems[i].entries, ixEntry{list: l, token: token, slot: handles[i]})
		}
	}
}

// sensorList returns (creating on first use) the 1-D list for a sensor.
func (x *EventIndex) sensorList(d model.SensorID) *boxList {
	l := x.bySensor[d]
	if l == nil {
		l = &boxList{tree: geom.NewBoxTree(1)}
		x.bySensor[d] = l
	}
	return l
}

// attrList returns (creating on first use) the 3-D list for an attribute.
func (x *EventIndex) attrList(a model.AttributeType) *boxList {
	l := x.byAttr[a]
	if l == nil {
		l = &boxList{tree: geom.NewBoxTree(3)}
		x.byAttr[a] = l
	}
	return l
}

// insertEntries inserts the member's filter boxes into the composite trees.
func (x *EventIndex) insertEntries(m *ixMember) {
	sub := m.sub
	if sub.Kind == model.KindIdentified {
		var box [1]geom.Interval
		for d, f := range sub.SensorFilters {
			box[0] = f.Range
			x.sensorList(d).insert(box[:], m)
		}
		return
	}
	var box [3]geom.Interval
	box[1] = sub.Region.X
	box[2] = sub.Region.Y
	for a, f := range sub.AttrFilters {
		box[0] = f.Range
		x.attrList(a).insert(box[:], m)
	}
}

// insert stores one box for the member, reusing a freed slot when available.
// Boxes with an empty dimension are unmatchable and not stored (the tree
// reports them with a negative token).
func (l *boxList) insert(box []geom.Interval, m *ixMember) {
	slot := -1
	if n := len(l.free); n > 0 {
		slot = l.free[n-1]
		l.free = l.free[:n-1]
		l.members[slot] = m
	} else {
		slot = len(l.members)
		l.members = append(l.members, m)
	}
	token := l.tree.Insert(box, slot)
	if token < 0 {
		l.members[slot] = nil
		l.free = append(l.free, slot)
		return
	}
	m.entries = append(m.entries, ixEntry{list: l, token: token, slot: slot})
}

// release takes one entry back out of the tree and recycles its slot.
func (l *boxList) release(e ixEntry) {
	l.tree.Remove(e.token)
	l.members[e.slot] = nil
	l.free = append(l.free, e.slot)
}

// Candidates invokes fn with every stored subscription that matches the
// simple event (Subscription.MatchesEvent holds for each candidate, and no
// matching subscription is missed). Iteration stops early when fn returns
// false; the candidate order is unspecified.
func (x *EventIndex) Candidates(ev model.Event, fn func(*model.Subscription) bool) {
	if !x.built {
		x.build()
	}
	x.lookups++
	if l := x.bySensor[ev.Sensor]; l != nil {
		pt := [1]float64{ev.Value}
		stopped := false
		l.tree.Stab(pt[:], func(h int) bool {
			x.emitted++
			if !fn(l.members[h].sub) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
	if l := x.byAttr[ev.Attr]; l != nil {
		pt := [3]float64{ev.Value, ev.Location.X, ev.Location.Y}
		l.tree.Stab(pt[:], func(h int) bool {
			x.emitted++
			return fn(l.members[h].sub)
		})
	}
}

// Stats reports the index's current shape. On an index that has not served a
// lookup yet it forces the deferred bulk build first, so the reported tree
// shape is the one lookups will actually see.
func (x *EventIndex) Stats() IndexStats {
	if !x.built {
		x.build()
	}
	st := IndexStats{
		Members:    len(x.members),
		Lookups:    x.lookups,
		Candidates: x.emitted,
	}
	tally := func(l *boxList) {
		st.Trees++
		n := l.tree.Len()
		st.Boxes += n
		if n > 0 {
			st.Nodes += 2*n - 1 // strictly binary: n leaves, n-1 internal nodes
		}
		if h := l.tree.Height(); h > st.MaxHeight {
			st.MaxHeight = h
		}
	}
	for _, l := range x.bySensor {
		tally(l)
	}
	for _, l := range x.byAttr {
		tally(l)
	}
	return st
}
