// Package experiment reproduces the paper's evaluation (Section VI): it
// builds the four deployment scenarios, generates the synthetic SensorScope
// workload, runs every approach on identical inputs and reports the two
// traffic metrics (subscription load and event load) after each batch of
// injected subscriptions, plus the end-user event recall of the
// Filter-Split-Forward approach.
package experiment

import (
	"fmt"

	"sensorcq/internal/core"
	"sensorcq/internal/netsim"
	"sensorcq/internal/protocol/centralized"
	"sensorcq/internal/subsume"
	"sensorcq/internal/topology"
)

// ApproachID names one of the five evaluated approaches.
type ApproachID string

// The five approaches of Table II.
const (
	Centralized        ApproachID = "centralized"
	Naive              ApproachID = "naive"
	OperatorPlacement  ApproachID = "operator-placement"
	MultiJoin          ApproachID = "distributed-multi-join"
	FilterSplitForward ApproachID = "filter-split-forward"
)

// AllDistributed returns the four distributed approaches in the order the
// paper plots them.
func AllDistributed() []ApproachID {
	return []ApproachID{Naive, OperatorPlacement, MultiJoin, FilterSplitForward}
}

// All returns every approach including the centralized baseline.
func All() []ApproachID {
	return append([]ApproachID{Centralized}, AllDistributed()...)
}

// FactorySpec parameterises handler construction beyond the approach itself.
type FactorySpec struct {
	// Seed controls the probabilistic set filter of Filter-Split-Forward.
	Seed int64
	// SetFilterError is the FSF false-positive probability in [0,1); 0 = default.
	SetFilterError float64
	// ValidityFactor scales each node's event-window validity (validity =
	// factor x max δt); 0 keeps the protocol default of 2. Windowed replays
	// with lag L use L+2 (netsim.RequiredValidityFactor) so a late-arriving
	// trigger still finds its in-window partners stored. That bound holds at
	// 5 sensors per group; at 10 it prunes partners that late-forwarded
	// components still need (ROADMAP, direction 5(a)).
	ValidityFactor int
}

// ConfigFor returns the core configuration of a distributed approach — its
// row of the paper's Table II (subscription filtering, subscription
// splitting, event propagation). The centralized baseline is a handler of
// its own and has none.
func ConfigFor(id ApproachID, spec FactorySpec) (core.Config, error) {
	if err := checkSetFilterError(spec.SetFilterError); err != nil {
		return core.Config{}, err
	}
	var cfg core.Config
	switch id {
	case Naive:
		// Section VI's baseline: every subscription travels the reverse
		// advertisement paths unfiltered and gets its own result set.
		cfg = core.Config{Checker: core.SharedChecker(subsume.NoneChecker{}), Split: core.SplitSimple, Propagation: core.PerSubscription}
	case OperatorPlacement:
		// Section III-A: operator placement with local knowledge only.
		// Identical and covered operators are shared through pairwise
		// covering; result sets are built per subscription.
		cfg = core.Config{Checker: core.SharedChecker(subsume.PairwiseChecker{}), Split: core.SplitSimple, Propagation: core.PerSubscription}
	case MultiJoin:
		// Section III-B: routed exactly like operator placement, but a node
		// evaluates a multi-join over three or more attributes as binary
		// joins, whose false positives travel to the subscriber.
		cfg = core.Config{Checker: core.SharedChecker(subsume.PairwiseChecker{}), Split: core.SplitBinaryJoin, Propagation: core.PerNeighbor}
	case FilterSplitForward:
		// Section V: probabilistic set-subsumption filtering, simple
		// splitting, per-neighbour publish/subscribe forwarding.
		if spec.SetFilterError == 0 {
			spec.SetFilterError = core.DefaultSetFilterError
		}
		cfg = core.NewFSFConfig(spec.SetFilterError, spec.Seed)
	default:
		return core.Config{}, fmt.Errorf("experiment: unknown distributed approach %q", id)
	}
	cfg.Name = string(id)
	cfg.ValidityFactor = spec.ValidityFactor
	return cfg, nil
}

// checkSetFilterError rejects a set-filter error probability outside [0, 1),
// NaN included, instead of silently running at the default.
func checkSetFilterError(p float64) error {
	if !(p >= 0 && p < 1) {
		return fmt.Errorf("experiment: set-filter error %g outside [0,1)", p)
	}
	return nil
}

// FactoryForSpec returns a fresh handler factory for the approach with the
// given construction parameters.
func FactoryForSpec(id ApproachID, spec FactorySpec) (netsim.HandlerFactory, error) {
	if id == Centralized {
		return centralized.NewFactory(spec.ValidityFactor), checkSetFilterError(spec.SetFilterError)
	}
	cfg, err := ConfigFor(id, spec)
	if err != nil {
		return nil, err
	}
	return core.NewFactory(cfg), nil
}

// Start builds the network of one run: the approach's handlers on the
// sequential engine, or on the concurrent one with the given worker count,
// and every sensor of the deployment attached at its host in deployment
// order. It returns once the advertisement flood has drained, with the
// queue storage the flood grew released. The caller must Close the runtime.
func Start(dep *topology.Deployment, id ApproachID, spec FactorySpec, concurrent bool, workers int) (netsim.Runtime, error) {
	factory, err := FactoryForSpec(id, spec)
	if err != nil {
		return nil, err
	}
	var rt netsim.Runtime
	if concurrent {
		rt = netsim.NewConcurrentEngineWorkers(dep.Graph, factory, workers)
	} else {
		rt = netsim.NewEngine(dep.Graph, factory)
	}
	for _, sensor := range dep.Sensors {
		host, ok := dep.SensorHost[sensor.ID]
		if !ok {
			rt.Close()
			return nil, fmt.Errorf("experiment: sensor %s has no host node", sensor.ID)
		}
		if err := rt.AttachSensor(host, sensor); err != nil {
			rt.Close()
			return nil, fmt.Errorf("experiment: attaching sensor %s: %w", sensor.ID, err)
		}
	}
	rt.Flush()
	// The flood is sensors × (nodes − 1) messages, far above anything a
	// replay keeps in flight: do not carry its queue high-water marks along.
	rt.Trim()
	return rt, nil
}
