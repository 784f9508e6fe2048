package sensorcq

import (
	"sensorcq/internal/core"
	"sensorcq/internal/netsim"
	"sensorcq/internal/subsume"
)

// dedupFactory builds two configurations that differ only in the event
// propagation policy (per-neighbour vs per-subscription), isolating the
// "event propagation" column of Table II.
func dedupFactory(perNeighbor bool) netsim.HandlerFactory {
	propagation := core.PerSubscription
	name := "pairwise/per-subscription"
	if perNeighbor {
		propagation = core.PerNeighbor
		name = "pairwise/per-neighbor"
	}
	return core.NewFactory(core.Config{
		Name:        name,
		Checker:     subsume.PairwiseChecker{},
		Split:       core.SplitSimple,
		Propagation: propagation,
	})
}
