package stores

import (
	"slices"

	"sensorcq/internal/model"
)

// SubscriptionTable is one subscription table S_m: the subscriptions
// (correlation operators) received from one origin m, separated into the
// uncovered set (candidates for forwarding and for event matching per
// Algorithm 5) and the covered set (kept for completeness of the node's
// knowledge, per Algorithm 4 line 12). A node keeps one table per neighbour,
// and one for its local users.
//
// Both sets are bucketed by comparability class (model.Class): a coverage
// decision on a subscription can only involve members of its own class, so
// filtering, re-exposure and removal look at one bucket instead of the
// origin's whole population. Every bucket keeps its members in storage
// order — the order re-exposure walks them in, which the protocol's
// determinism depends on.
type SubscriptionTable struct {
	// stored maps every stored ID (covered or uncovered) to its subscription,
	// which names the class bucket holding it.
	stored map[model.SubscriptionID]*model.Subscription
	// classes holds the non-empty class buckets; order lists them as they
	// were created, so whole-table views are deterministic.
	classes map[model.Class]*classSubs
	order   []*classSubs
}

// classSubs is one comparability class of the table, in storage order.
type classSubs struct {
	uncovered, covered []*model.Subscription
}

// NewSubscriptionTable returns an empty table.
func NewSubscriptionTable() *SubscriptionTable {
	return &SubscriptionTable{
		stored:  map[model.SubscriptionID]*model.Subscription{},
		classes: map[model.Class]*classSubs{},
	}
}

// Seen reports whether a subscription with this ID is stored (covered or
// uncovered).
func (t *SubscriptionTable) Seen(id model.SubscriptionID) bool {
	return t.stored[id] != nil
}

// Len returns the number of stored subscriptions, covered and uncovered.
func (t *SubscriptionTable) Len() int { return len(t.stored) }

// store files a not yet seen subscription and returns the class bucket to
// append it to; ok is false when the ID was already present.
func (t *SubscriptionTable) store(sub *model.Subscription) (c *classSubs, ok bool) {
	if t.stored[sub.ID] != nil {
		return nil, false
	}
	t.stored[sub.ID] = sub
	class := sub.Class()
	c = t.classes[class]
	if c == nil {
		c = &classSubs{}
		t.classes[class] = c
		t.order = append(t.order, c)
	}
	return c, true
}

// dropIfEmpty forgets a class bucket whose last member left, so a stream of
// short-lived classes (say, ever new correlation distances) leaves nothing
// behind.
func (t *SubscriptionTable) dropIfEmpty(sub *model.Subscription, c *classSubs) {
	if len(c.uncovered)+len(c.covered) > 0 {
		return
	}
	delete(t.classes, sub.Class())
	i := slices.Index(t.order, c)
	t.order = slices.Delete(t.order, i, i+1)
}

// AddUncovered stores a subscription that was not filtered out. It returns
// false if the ID was already present.
func (t *SubscriptionTable) AddUncovered(sub *model.Subscription) bool {
	c, ok := t.store(sub)
	if ok {
		c.uncovered = append(c.uncovered, sub)
	}
	return ok
}

// AddCovered stores a subscription that was filtered out as covered. It
// returns false if the ID was already present.
func (t *SubscriptionTable) AddCovered(sub *model.Subscription) bool {
	c, ok := t.store(sub)
	if ok {
		c.covered = append(c.covered, sub)
	}
	return ok
}

// UncoveredComparable returns the uncovered subscriptions of sub's
// comparability class, in storage order: the only stored ones a coverage
// decision on sub can depend on. The slice is the table's own; callers must
// not hold it across table mutations.
func (t *SubscriptionTable) UncoveredComparable(sub *model.Subscription) []*model.Subscription {
	if c := t.classes[sub.Class()]; c != nil {
		return c.uncovered
	}
	return nil
}

// CoveredComparable returns the covered subscriptions of sub's
// comparability class, in storage order, under the same rules as
// UncoveredComparable.
func (t *SubscriptionTable) CoveredComparable(sub *model.Subscription) []*model.Subscription {
	if c := t.classes[sub.Class()]; c != nil {
		return c.covered
	}
	return nil
}

// Uncovered returns a copy of the uncovered subscriptions: class by class in
// order of the classes' creation, storage order within a class.
func (t *SubscriptionTable) Uncovered() []*model.Subscription {
	var out []*model.Subscription
	for _, c := range t.order {
		out = append(out, c.uncovered...)
	}
	return out
}

// Covered returns a copy of the covered subscriptions, ordered like
// Uncovered.
func (t *SubscriptionTable) Covered() []*model.Subscription {
	var out []*model.Subscription
	for _, c := range t.order {
		out = append(out, c.covered...)
	}
	return out
}

// Remove retracts the subscription with the given ID (covered or
// uncovered). It returns the removed subscription and whether it was stored
// uncovered; ok is false when the table never stored the ID. After Remove
// the ID is no longer Seen, so a later re-subscription is processed afresh.
func (t *SubscriptionTable) Remove(id model.SubscriptionID) (removed *model.Subscription, wasUncovered, ok bool) {
	sub := t.stored[id]
	if sub == nil {
		return nil, false, false
	}
	delete(t.stored, id)
	c := t.classes[sub.Class()]
	if wasUncovered = removeByID(&c.uncovered, id); !wasUncovered {
		removeByID(&c.covered, id)
	}
	t.dropIfEmpty(sub, c)
	return sub, wasUncovered, true
}

// Promote moves a covered subscription into the uncovered set, re-exposing
// it after the subscription that covered it was retracted. It returns the
// promoted subscription, or nil when the ID is not stored covered.
func (t *SubscriptionTable) Promote(id model.SubscriptionID) *model.Subscription {
	sub := t.stored[id]
	if sub == nil {
		return nil
	}
	c := t.classes[sub.Class()]
	if !removeByID(&c.covered, id) {
		return nil
	}
	c.uncovered = append(c.uncovered, sub)
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
