// Package core implements the paper's primary contribution: the
// filter-split-forward processing of continuous multi-join queries over a
// distributed network of processing nodes (Section V, Algorithms 1-5).
//
// A Node is the per-processing-node protocol handler hosted by the netsim
// engines. Its behaviour is determined by three policies that correspond
// exactly to the columns of Table II in the paper:
//
//	subscription filtering — which subsumption checker filters incoming
//	    subscriptions (none / pairwise covering / probabilistic set filtering);
//	subscription splitting — how operators are split while following the
//	    reverse advertisement paths (simple per-neighbour projection, or the
//	    binary-join decomposition of the distributed multi-join approach);
//	event propagation — whether result sets are deduplicated per neighbour
//	    link (publish/subscribe forwarding) or constructed per subscription.
//
// The Filter-Split-Forward approach of the paper is NewFSFConfig; the
// competitors differ only in the Config handed to NewFactory, and all four
// rows sit side by side in internal/experiment (ConfigFor), where one table
// test, TestTableIIApproachMatrix, checks them.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/stores"
	"sensorcq/internal/subsume"
	"sensorcq/internal/topology"
)

// SplitPolicy selects how subscriptions are split into correlation operators
// while being forwarded towards the data sources.
type SplitPolicy int

const (
	// SplitSimple projects the subscription onto each neighbour's advertised
	// data space (Algorithm 3); operators shrink naturally as advertisement
	// paths diverge until they reach the sensors as simple operators.
	SplitSimple SplitPolicy = iota
	// SplitBinaryJoin is the distributed adaptation of Chandramouli & Yang
	// (Section III-B): subscriptions are routed like SplitSimple ("the
	// natural splitting into simple operators"), but every node that stores
	// a multi-join over three or more attributes evaluates it as the ring of
	// binary joins model.Subscription.SplitBinaryJoins returns. Binary-join
	// matching sanctions a main attribute's events with a single filtering
	// attribute, so events can be forwarded towards the subscriber even
	// when the full multi-join correlation never completes — the false
	// positives the paper measures.
	SplitBinaryJoin
)

// String implements fmt.Stringer.
func (p SplitPolicy) String() string {
	if p == SplitBinaryJoin {
		return "binary-join"
	}
	return "simple"
}

// EventPropagation selects how result sets are forwarded back towards the
// subscribers.
type EventPropagation int

const (
	// PerNeighbor forwards each simple event at most once per link
	// (publish/subscribe forwarding); overlapping result sets share the
	// dissemination cost. Used by Filter-Split-Forward and the distributed
	// multi-join approach.
	PerNeighbor EventPropagation = iota
	// PerSubscription constructs one result set per stored subscription; the
	// same event is re-sent over a link once per overlapping subscription.
	// Used by the naive and operator-placement approaches.
	PerSubscription
)

// String implements fmt.Stringer.
func (p EventPropagation) String() string {
	if p == PerSubscription {
		return "per-subscription"
	}
	return "per-neighbor"
}

// Config selects the behaviour of a Node. The zero value is not valid; use
// one of the constructors or fill in every field.
type Config struct {
	// Name identifies the approach in reports ("filter-split-forward", ...).
	Name string
	// Checker builds each node's subscription filtering policy, so a stateful
	// checker (the set filter) is never shared by nodes running in parallel;
	// SharedChecker gives every node one stateless checker.
	Checker func(node topology.NodeID) subsume.Checker
	// Split is the subscription splitting policy.
	Split SplitPolicy
	// Propagation is the event propagation policy.
	Propagation EventPropagation
	// ValidityFactor scales each node's event validity: validity =
	// ValidityFactor × (largest δt seen). The paper only requires validity
	// to exceed δt; a factor <= 0 selects the default of 2 (see
	// stores.EventWindow.ObserveDeltaT).
	ValidityFactor int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("core: config needs a name")
	}
	if c.Checker == nil {
		return fmt.Errorf("core: config %q needs a subsumption checker", c.Name)
	}
	return nil
}

// SharedChecker returns a Config.Checker that gives every node the same
// stateless checker (pairwise, none, exact).
func SharedChecker(c subsume.Checker) func(topology.NodeID) subsume.Checker {
	return func(topology.NodeID) subsume.Checker { return c }
}

// DefaultSetFilterError is the error probability the FSF configuration uses
// for its probabilistic set-subsumption checker unless overridden.
const DefaultSetFilterError = 0.02

// NewFSFConfig returns the paper's Filter-Split-Forward configuration:
// probabilistic set filtering, simple splitting, per-neighbour event
// propagation. Each node receives its own set-subsumption checker seeded
// from the given seed and the node ID, so runs are reproducible and nodes
// never share mutable state.
func NewFSFConfig(setFilterError float64, seed int64) Config {
	return Config{
		Name: "filter-split-forward",
		Checker: func(node topology.NodeID) subsume.Checker {
			mixed := seed ^ int64(uint64(node+1)*0x9e3779b97f4a7c15>>1)
			return subsume.NewSetChecker(setFilterError, mixed)
		},
		Split:       SplitSimple,
		Propagation: PerNeighbor,
	}
}

// NewFactory returns a netsim.HandlerFactory producing one Node per
// processing node with the given configuration. It panics on an invalid
// configuration (a programming error, not an input error).
func NewFactory(cfg Config) netsim.HandlerFactory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return func(node topology.NodeID) netsim.Handler {
		return NewNode(node, cfg)
	}
}

// Node is the per-node protocol state and logic.
type Node struct {
	cfg     Config
	checker subsume.Checker
	self    topology.NodeID
	ctx     *netsim.Context

	advs   *stores.AdvertisementTable
	window *stores.EventWindow

	// origins holds one record per origin that ever sent an operator — the
	// node's few neighbours, and the node itself for its local users —
	// sorted by origin ID, the order events are forwarded in. Records live
	// as long as the node, so the forwarding keys they hold stay stable.
	origins []*neighbour

	// keys counts the event-window forwarding keys drawn so far: every key
	// of every origin record comes from this one counter, so keys of
	// different links never collide.
	keys uint32

	// localSubs are the whole user subscriptions registered at this node;
	// localIdx range-indexes them for delivery matching.
	localSubs map[model.SubscriptionID]*model.Subscription
	localIdx  *stores.EventIndex

	// pending is the scratch buffer matchAndForward gathers a trigger's
	// not-yet-sent match components into before sending them in canonical
	// (sequence) order; kept on the node to avoid a per-event allocation.
	pending []model.Event

	// scratch is the node's reusable complex-match working storage (the
	// current trigger's window partition, candidate lists and backtracking
	// selection). processEvent partitions it once per trigger, before any
	// matching. It is safe because each node's handler runs on at most one
	// goroutine at a time, and match callbacks never recurse into another
	// enumeration on the same node.
	scratch model.MatchScratch

	// fwdFree recycles the per-operator forwarding-link slices that
	// retractions release, so subscribe→unsubscribe churn reuses link
	// storage instead of growing fresh slices for every registration.
	fwdFree [][]forwardedOp

	// Aggregates registers the windowed aggregate subscriptions routed
	// through this node. They bypass the subscription table, the
	// subsumption checker and the match indexes entirely (see aggregate.go).
	Aggregates

	// reexposeScratch backs the list of affected covered operators each
	// retraction's re-exposure walk iterates (the walk promotes entries, which
	// mutates the covered list under it). Borrowed and returned within one
	// reexpose call; safe for the same reason scratch is.
	reexposeScratch []*model.Subscription
}

// neighbour is everything a node keeps for one origin m: a neighbour, or
// the node itself for its local users.
type neighbour struct {
	id topology.NodeID
	// subs is S_m, the operators m sent (Algorithm 4).
	subs *stores.SubscriptionTable
	// matcher range-indexes m's operators used for event matching over their
	// filter predicates; nil until the first one is registered. With
	// SplitBinaryJoin, multi-joins are replaced here by their binary joins;
	// with SplitSimple the uncovered (or, for per-subscription propagation,
	// all) operators appear as-is.
	matcher *stores.EventIndex
	// forwards records, per stored operator, the links the operator's split
	// projections were forwarded on (and under which derived operator ID):
	// the reverse forwarding paths a retraction must walk. Entries are
	// released when the operator is retracted.
	forwards map[model.SubscriptionID][]forwardedOp
	// linkKey marks the events forwarded to m under per-neighbour
	// propagation; opKeys marks them per operator under per-subscription
	// propagation. An operator's key is drawn on its first forwarded event
	// and kept for the node's lifetime, so a re-registered operator ID finds
	// the marks its earlier registration left.
	linkKey uint32
	opKeys  map[model.SubscriptionID]uint32
}

// forwardedOp is one recorded forwarding decision: the operator with ID op
// was sent to neighbour to.
type forwardedOp struct {
	to topology.NodeID
	op model.SubscriptionID
}

// NewNode builds a protocol node. Most callers should use NewFactory and let
// the engine construct nodes.
func NewNode(self topology.NodeID, cfg Config) *Node {
	return &Node{
		cfg:       cfg,
		checker:   cfg.Checker(self),
		self:      self,
		advs:      stores.NewAdvertisementTable(nil),
		window:    stores.NewEventWindow(1),
		localSubs: map[model.SubscriptionID]*model.Subscription{},
		localIdx:  stores.NewEventIndex(),
	}
}

// find returns m's record, or nil when m never sent an operator.
func (n *Node) find(m topology.NodeID) *neighbour {
	for _, o := range n.origins {
		if o.id == m {
			return o
		}
	}
	return nil
}

// record returns m's record, adding it in ID order on first use.
func (n *Node) record(m topology.NodeID) *neighbour {
	i, found := slices.BinarySearchFunc(n.origins, m, func(o *neighbour, m topology.NodeID) int { return cmp.Compare(o.id, m) })
	if !found {
		n.origins = slices.Insert(n.origins, i, &neighbour{id: m, subs: stores.NewSubscriptionTable(), linkKey: n.newKey()})
	}
	return n.origins[i]
}

// newKey draws the next event-window forwarding key.
func (n *Node) newKey() uint32 {
	n.keys++
	return n.keys - 1
}

// Init implements netsim.Handler. The advertisement table is rebuilt here
// over the network's sensor registry: until Init it has none to read.
func (n *Node) Init(ctx *netsim.Context) {
	n.ctx = ctx
	n.advs = stores.NewAdvertisementTable(ctx.Sensors())
}

// Name returns the configured approach name.
func (n *Node) Name() string { return n.cfg.Name }

// Self returns the node's identifier.
func (n *Node) Self() topology.NodeID { return n.self }

// Advertisements exposes the node's advertisement table (for tests and
// diagnostics).
func (n *Node) Advertisements() *stores.AdvertisementTable { return n.advs }

// Subscriptions exposes the subscription table S_m of origin m — an empty
// one when m never sent an operator (for tests and diagnostics).
func (n *Node) Subscriptions(m topology.NodeID) *stores.SubscriptionTable {
	if o := n.find(m); o != nil {
		return o.subs
	}
	return stores.NewSubscriptionTable()
}

// Window exposes the node's event window (for tests and diagnostics).
func (n *Node) Window() *stores.EventWindow { return n.window }

// LocalSubscriptions returns the user subscriptions registered at this node,
// sorted by ID (for tests and diagnostics).
func (n *Node) LocalSubscriptions() []*model.Subscription {
	out := make([]*model.Subscription, 0, len(n.localSubs))
	for _, sub := range n.localSubs {
		out = append(out, sub)
	}
	slices.SortFunc(out, func(a, b *model.Subscription) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// IndexStats aggregates the shape and lookup tallies of every match index
// this node maintains: the local delivery index plus one matcher index per
// origin (for tests and diagnostics).
func (n *Node) IndexStats() stores.IndexStats {
	stats := n.localIdx.Stats()
	for _, o := range n.origins {
		if o.matcher != nil {
			stats.Merge(o.matcher.Stats())
		}
	}
	return stats
}

// addMatcher registers an operator of o for event matching (a no-op for an
// operator already registered).
func (n *Node) addMatcher(o *neighbour, sub *model.Subscription) {
	if o.matcher == nil {
		o.matcher = stores.NewEventIndex()
	}
	if n.splitsForMatching(sub) {
		for _, op := range sub.SplitBinaryJoins() {
			o.matcher.Add(op)
		}
		return
	}
	o.matcher.Add(sub)
}

// removeMatcher retracts an operator (and, for the binary-join split, every
// binary join derived from it) from o's match index.
func (n *Node) removeMatcher(o *neighbour, sub *model.Subscription) {
	if o.matcher == nil {
		return
	}
	if n.splitsForMatching(sub) {
		for _, op := range sub.SplitBinaryJoins() {
			o.matcher.Remove(op.ID)
		}
		return
	}
	o.matcher.Remove(sub.ID)
}

// splitsForMatching reports whether the subscription is evaluated as its
// binary-join decomposition rather than as-is. Kept as a predicate — with
// the decomposition slice built only inside the branch that needs it — so
// the common single-operator paths allocate nothing. The decomposition
// derives deterministic operator IDs, so add and remove resolve the same
// entries.
func (n *Node) splitsForMatching(sub *model.Subscription) bool {
	return n.cfg.Split == SplitBinaryJoin && sub.NumFilters() > 2
}
