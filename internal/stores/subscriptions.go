package stores

import (
	"slices"

	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// SubscriptionTable stores the subscriptions (correlation operators)
// received from each origin, separated into the uncovered set (candidates
// for forwarding and for event matching per Algorithm 5) and the covered set
// (kept for completeness of the node's knowledge, per Algorithm 4 line 12).
// Local user subscriptions are filed under the node's own ID.
//
// Within an origin both sets are bucketed by comparability class
// (model.Class): a coverage decision on a subscription can only involve
// members of its own class, so filtering, cover-link scans and removal look
// at one bucket instead of the origin's whole population. Every bucket keeps
// its members in storage order — the order re-exposure walks them in, which
// the protocol's determinism depends on.
type SubscriptionTable struct {
	self    topology.NodeID
	origins map[topology.NodeID]*originSubs
	// originList caches the sorted origin list Origins returns; event
	// processing asks for it once per event, so it is rebuilt only when a
	// mutation invalidates it rather than on every call.
	originList   []topology.NodeID
	originsValid bool
	// remoteCovers enables cover-link recording for remote origins. Local
	// subscriptions (origin == self) always record links — local delivery
	// matching consumes them on every policy — but remote covered operators
	// are only registered for matching under per-subscription propagation,
	// so handlers whose policy never reads the links disable the recording
	// scan (RecordRemoteCoverLinks) instead of paying it per covered arrival.
	remoteCovers bool
}

// originSubs is what the table holds for one origin.
type originSubs struct {
	// stored maps every stored ID (covered or uncovered) to its subscription,
	// which names the class bucket holding it.
	stored map[model.SubscriptionID]*model.Subscription
	// classes holds the non-empty class buckets; order lists them as they
	// were created, so whole-origin views are deterministic.
	classes map[model.Class]*classSubs
	order   []*classSubs
	// nUncovered and nCovered count the members across all buckets.
	nUncovered, nCovered int
	// coverBy records which single uncovered subscription covered each
	// covered one at the time it was filed (when one exists — set filtering
	// can subsume by union, leaving no single cover). The protocol handlers
	// thread these links into their match indexes (EventIndex.AddCovered) so
	// candidate enumeration can skip a covered set whenever its cover did
	// not match. Links capture the coverage geometry at storage time; they
	// are consumed when the covered operator is registered for matching and
	// never re-read afterwards. covers is the reverse map (cover → the IDs
	// linked to it), so retracting a cover finds its links without visiting
	// the origin's others.
	coverBy map[model.SubscriptionID]model.SubscriptionID
	covers  map[model.SubscriptionID][]model.SubscriptionID
}

// classSubs is one comparability class of one origin, in storage order.
type classSubs struct {
	uncovered, covered []*model.Subscription
}

// NewSubscriptionTable returns an empty table for the given node.
func NewSubscriptionTable(self topology.NodeID) *SubscriptionTable {
	return &SubscriptionTable{
		self:         self,
		origins:      map[topology.NodeID]*originSubs{},
		remoteCovers: true,
	}
}

// RecordRemoteCoverLinks enables or disables cover-link recording for
// covered subscriptions of remote origins (default on). Handlers whose
// event-propagation policy never registers remote covered operators for
// matching turn it off so AddCovered skips the covering scan; links for the
// node's own origin are always recorded.
func (t *SubscriptionTable) RecordRemoteCoverLinks(on bool) { t.remoteCovers = on }

// recordsLinks reports whether cover links are kept for the origin.
func (t *SubscriptionTable) recordsLinks(origin topology.NodeID) bool {
	return origin == t.self || t.remoteCovers
}

// Seen reports whether a subscription with this ID was already stored for
// the origin (covered or uncovered).
func (t *SubscriptionTable) Seen(origin topology.NodeID, id model.SubscriptionID) bool {
	_, sub := t.lookup(origin, id)
	return sub != nil
}

// lookup returns the origin's state and the subscription it stores under the
// ID, covered or uncovered (nil when it stores none).
func (t *SubscriptionTable) lookup(origin topology.NodeID, id model.SubscriptionID) (*originSubs, *model.Subscription) {
	o := t.origins[origin]
	if o == nil {
		return nil, nil
	}
	return o, o.stored[id]
}

// store files a not yet seen subscription under its origin and returns the
// origin's state and the class bucket to append it to; ok is false when the
// ID was already present.
func (t *SubscriptionTable) store(origin topology.NodeID, sub *model.Subscription) (o *originSubs, c *classSubs, ok bool) {
	o = t.origins[origin]
	if o == nil {
		o = &originSubs{
			stored:  map[model.SubscriptionID]*model.Subscription{},
			classes: map[model.Class]*classSubs{},
			coverBy: map[model.SubscriptionID]model.SubscriptionID{},
			covers:  map[model.SubscriptionID][]model.SubscriptionID{},
		}
		t.origins[origin] = o
	}
	if o.stored[sub.ID] != nil {
		return o, nil, false
	}
	o.stored[sub.ID] = sub
	class := sub.Class()
	c = o.classes[class]
	if c == nil {
		c = &classSubs{}
		o.classes[class] = c
		o.order = append(o.order, c)
	}
	t.originsValid = false
	return o, c, true
}

// class returns the origin's bucket of the subscription's comparability
// class, or nil when the origin stores no member of the class.
func (t *SubscriptionTable) class(origin topology.NodeID, sub *model.Subscription) *classSubs {
	if o := t.origins[origin]; o != nil {
		return o.classes[sub.Class()]
	}
	return nil
}

// dropIfEmpty forgets a class bucket whose last member left, so a stream of
// short-lived classes (say, ever new correlation distances) leaves nothing
// behind.
func (o *originSubs) dropIfEmpty(sub *model.Subscription, c *classSubs) {
	if len(c.uncovered)+len(c.covered) > 0 {
		return
	}
	delete(o.classes, sub.Class())
	i := slices.Index(o.order, c)
	o.order = slices.Delete(o.order, i, i+1)
}

// link records cover as the single uncovered subscription covering id.
func (o *originSubs) link(id, cover model.SubscriptionID) {
	o.coverBy[id] = cover
	o.covers[cover] = append(o.covers[cover], id)
}

// unlink forgets the cover link of a covered subscription, if it has one.
func (o *originSubs) unlink(id model.SubscriptionID) {
	cover, linked := o.coverBy[id]
	if !linked {
		return
	}
	delete(o.coverBy, id)
	ids := o.covers[cover]
	if len(ids) == 1 {
		delete(o.covers, cover)
		return
	}
	i := slices.Index(ids, id)
	ids[i] = ids[len(ids)-1]
	o.covers[cover] = ids[:len(ids)-1]
}

// dropLinksTo deletes the cover links pointing at a retracted uncovered
// subscription: the coverage geometry they captured died with it, and a
// covered operator promoted later must not inherit the stale root.
func (o *originSubs) dropLinksTo(cover model.SubscriptionID) {
	for _, id := range o.covers[cover] {
		delete(o.coverBy, id)
	}
	delete(o.covers, cover)
}

// AddUncovered stores a subscription that was not filtered out. It returns
// false if the ID was already present for this origin.
func (t *SubscriptionTable) AddUncovered(origin topology.NodeID, sub *model.Subscription) bool {
	o, c, ok := t.store(origin, sub)
	if !ok {
		return false
	}
	c.uncovered = append(c.uncovered, sub)
	o.nUncovered++
	return true
}

// AddCovered stores a subscription that was filtered out as covered and
// records which single uncovered subscription covers it, when one does (a
// probabilistic set filter may have subsumed it by a union instead, in which
// case no link is recorded and candidate pruning simply does not apply).
func (t *SubscriptionTable) AddCovered(origin topology.NodeID, sub *model.Subscription) bool {
	o, c, ok := t.store(origin, sub)
	if !ok {
		return false
	}
	c.covered = append(c.covered, sub)
	o.nCovered++
	if !t.recordsLinks(origin) {
		return true
	}
	for _, u := range c.uncovered {
		if sub.CoveredBy(u) {
			o.link(sub.ID, u.ID)
			break
		}
	}
	return true
}

// CoverOf returns the ID of the single uncovered subscription recorded as
// covering the given covered subscription of the origin, or "" when none was
// found at storage time. Handlers pass it to EventIndex.AddCovered so
// covered operators registered for matching ride their cover's tree entries
// instead of adding their own.
func (t *SubscriptionTable) CoverOf(origin topology.NodeID, id model.SubscriptionID) model.SubscriptionID {
	if o := t.origins[origin]; o != nil {
		return o.coverBy[id]
	}
	return ""
}

// UncoveredComparable returns the origin's uncovered subscriptions of sub's
// comparability class, in storage order: the only stored ones a coverage
// decision on sub can depend on. The slice is the table's own; callers must
// not hold it across table mutations.
func (t *SubscriptionTable) UncoveredComparable(origin topology.NodeID, sub *model.Subscription) []*model.Subscription {
	if c := t.class(origin, sub); c != nil {
		return c.uncovered
	}
	return nil
}

// CoveredComparable returns the origin's covered subscriptions of sub's
// comparability class, in storage order, under the same rules as
// UncoveredComparable.
func (t *SubscriptionTable) CoveredComparable(origin topology.NodeID, sub *model.Subscription) []*model.Subscription {
	if c := t.class(origin, sub); c != nil {
		return c.covered
	}
	return nil
}

// Uncovered returns a copy of the uncovered subscriptions stored for the
// origin: class by class in order of the classes' creation, storage order
// within a class.
func (t *SubscriptionTable) Uncovered(origin topology.NodeID) []*model.Subscription {
	return t.gather(origin, true, false)
}

// Covered returns a copy of the covered subscriptions stored for the origin,
// ordered like Uncovered.
func (t *SubscriptionTable) Covered(origin topology.NodeID) []*model.Subscription {
	return t.gather(origin, false, true)
}

// All returns covered and uncovered subscriptions stored for the origin (the
// per-subscription event propagation of the operator-placement and naive
// approaches matches against both).
func (t *SubscriptionTable) All(origin topology.NodeID) []*model.Subscription {
	return t.gather(origin, true, true)
}

// gather collects an origin's uncovered and/or covered subscriptions across
// its class buckets, all uncovered ones first.
func (t *SubscriptionTable) gather(origin topology.NodeID, uncovered, covered bool) []*model.Subscription {
	o := t.origins[origin]
	if o == nil {
		return nil
	}
	var out []*model.Subscription
	if uncovered {
		for _, c := range o.order {
			out = append(out, c.uncovered...)
		}
	}
	if covered {
		for _, c := range o.order {
			out = append(out, c.covered...)
		}
	}
	return out
}

// Remove retracts the subscription with the given ID from the origin's
// stores (covered or uncovered). It returns the removed subscription and
// whether it was stored uncovered; ok is false when the origin never stored
// the ID. After Remove the ID is no longer Seen, so a later re-subscription
// is processed afresh.
func (t *SubscriptionTable) Remove(origin topology.NodeID, id model.SubscriptionID) (removed *model.Subscription, wasUncovered, ok bool) {
	o, sub := t.lookup(origin, id)
	if sub == nil {
		return nil, false, false
	}
	delete(o.stored, id)
	t.originsValid = false
	c := o.classes[sub.Class()]
	if wasUncovered = removeByID(&c.uncovered, id); wasUncovered {
		o.nUncovered--
		o.dropLinksTo(id)
	} else {
		removeByID(&c.covered, id)
		o.nCovered--
		o.unlink(id)
	}
	o.dropIfEmpty(sub, c)
	return sub, wasUncovered, true
}

// Promote moves a covered subscription of the origin into the uncovered set,
// re-exposing it after the subscription that covered it was retracted. It returns the promoted subscription, or nil
// when the ID is not stored covered for the origin.
//
// Promotion also refreshes the origin's cover links: covered subscriptions
// whose link died with the retracted cover (Remove drops links pointing at a
// retracted subscription) are re-linked to the promoted one when it covers
// them, so an operator registered or promoted later gets a live pruning root
// instead of the stale — possibly since reused — ID its original link named.
// As in AddCovered, remote origins only pay the scan when the handler's
// policy consumes the links (RecordRemoteCoverLinks).
func (t *SubscriptionTable) Promote(origin topology.NodeID, id model.SubscriptionID) *model.Subscription {
	o, sub := t.lookup(origin, id)
	if sub == nil {
		return nil
	}
	c := o.classes[sub.Class()]
	if !removeByID(&c.covered, id) {
		return nil
	}
	o.unlink(id)
	c.uncovered = append(c.uncovered, sub)
	o.nCovered--
	o.nUncovered++
	if t.recordsLinks(origin) {
		for _, other := range c.covered {
			if _, linked := o.coverBy[other.ID]; !linked && other.CoveredBy(sub) {
				o.link(other.ID, sub.ID)
			}
		}
	}
	return sub
}

// removeByID removes (order-preserving) the subscription with the given ID
// from a class bucket's list and reports whether it was there. The splice is
// in place: the Comparable accessors hand out the live slices and callers
// that walk one across removals snapshot it first (see core's reexpose), so
// churn reuses the backing array instead of reallocating it per retraction.
func removeByID(list *[]*model.Subscription, id model.SubscriptionID) bool {
	subs := *list
	for i, s := range subs {
		if s.ID == id {
			copy(subs[i:], subs[i+1:])
			subs[len(subs)-1] = nil
			*list = subs[:len(subs)-1]
			return true
		}
	}
	return false
}

// Origins returns all origins with at least one stored subscription, sorted.
// The returned slice is the table's cache: callers must treat it as
// read-only and must not hold it across table mutations (Add/Remove
// invalidate it). Event processing calls Origins once per event, so the
// rebuild cost is paid only when the subscription population changed.
func (t *SubscriptionTable) Origins() []topology.NodeID {
	if t.originsValid {
		return t.originList
	}
	out := t.originList[:0]
	for id, o := range t.origins {
		if o.nUncovered+o.nCovered > 0 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	t.originList = out
	t.originsValid = true
	return t.originList
}

// CountUncovered returns the total number of uncovered subscriptions across
// all origins.
func (t *SubscriptionTable) CountUncovered() int {
	total := 0
	for _, o := range t.origins {
		total += o.nUncovered
	}
	return total
}

// CountCovered returns the total number of covered subscriptions across all
// origins.
func (t *SubscriptionTable) CountCovered() int {
	total := 0
	for _, o := range t.origins {
		total += o.nCovered
	}
	return total
}
