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
// members of its own class, so filtering, re-exposure and removal look at one
// bucket instead of the origin's whole population. Every bucket keeps
// its members in storage order — the order re-exposure walks them in, which
// the protocol's determinism depends on.
type SubscriptionTable struct {
	origins map[topology.NodeID]*originSubs
	// originList caches the sorted origin list Origins returns; event
	// processing asks for it once per event, so it is rebuilt only when a
	// mutation invalidates it rather than on every call.
	originList   []topology.NodeID
	originsValid bool
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
}

// classSubs is one comparability class of one origin, in storage order.
type classSubs struct {
	uncovered, covered []*model.Subscription
}

// NewSubscriptionTable returns an empty table.
func NewSubscriptionTable() *SubscriptionTable {
	return &SubscriptionTable{origins: map[topology.NodeID]*originSubs{}}
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

// AddCovered stores a subscription that was filtered out as covered. It
// returns false if the ID was already present for this origin.
func (t *SubscriptionTable) AddCovered(origin topology.NodeID, sub *model.Subscription) bool {
	o, c, ok := t.store(origin, sub)
	if !ok {
		return false
	}
	c.covered = append(c.covered, sub)
	o.nCovered++
	return true
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
	} else {
		removeByID(&c.covered, id)
		o.nCovered--
	}
	o.dropIfEmpty(sub, c)
	return sub, wasUncovered, true
}

// Promote moves a covered subscription of the origin into the uncovered set,
// re-exposing it after the subscription that covered it was retracted. It
// returns the promoted subscription, or nil when the ID is not stored
// covered for the origin.
func (t *SubscriptionTable) Promote(origin topology.NodeID, id model.SubscriptionID) *model.Subscription {
	o, sub := t.lookup(origin, id)
	if sub == nil {
		return nil
	}
	c := o.classes[sub.Class()]
	if !removeByID(&c.covered, id) {
		return nil
	}
	c.uncovered = append(c.uncovered, sub)
	o.nCovered--
	o.nUncovered++
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
