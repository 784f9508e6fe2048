// Package protocol_test verifies Table II of the paper: the five approaches
// differ exactly in their subscription filtering, subscription splitting and
// event propagation policies.
package protocol_test

import (
	"testing"

	"sensorcq/internal/core"
	"sensorcq/internal/experiment"
	"sensorcq/internal/netsim"
	"sensorcq/internal/protocol/centralized"
	"sensorcq/internal/subsume"
)

// configFor returns the approach's Table II row as the harness builds it.
func configFor(t *testing.T, id experiment.ApproachID, seed int64) core.Config {
	t.Helper()
	cfg, err := experiment.ConfigFor(id, experiment.FactorySpec{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// factoryFor returns the approach's handler factory as the harness builds it.
func factoryFor(t *testing.T, id experiment.ApproachID, seed int64) netsim.HandlerFactory {
	t.Helper()
	factory, err := experiment.FactoryForSpec(id, experiment.FactorySpec{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return factory
}

func TestTableIIApproachMatrix(t *testing.T) {
	cases := []struct {
		name        string
		cfg         core.Config
		filtering   string
		split       core.SplitPolicy
		propagation core.EventPropagation
	}{
		{
			name:        string(experiment.Naive),
			cfg:         configFor(t, experiment.Naive, 0),
			filtering:   "none",
			split:       core.SplitSimple,
			propagation: core.PerSubscription,
		},
		{
			name:        string(experiment.OperatorPlacement),
			cfg:         configFor(t, experiment.OperatorPlacement, 0),
			filtering:   "pairwise",
			split:       core.SplitSimple,
			propagation: core.PerSubscription,
		},
		{
			name:        string(experiment.MultiJoin),
			cfg:         configFor(t, experiment.MultiJoin, 0),
			filtering:   "pairwise",
			split:       core.SplitBinaryJoin,
			propagation: core.PerNeighbor,
		},
		{
			name:        string(experiment.FilterSplitForward),
			cfg:         configFor(t, experiment.FilterSplitForward, 1),
			filtering:   "set-filter",
			split:       core.SplitSimple,
			propagation: core.PerNeighbor,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.cfg.Name != c.name {
				t.Errorf("config name = %q, want %q", c.cfg.Name, c.name)
			}
			if err := c.cfg.Validate(); err != nil {
				t.Fatalf("config invalid: %v", err)
			}
			if c.cfg.Split != c.split {
				t.Errorf("split = %v, want %v", c.cfg.Split, c.split)
			}
			if c.cfg.Propagation != c.propagation {
				t.Errorf("propagation = %v, want %v", c.cfg.Propagation, c.propagation)
			}
			checker := c.cfg.Checker(0)
			switch c.filtering {
			case "none":
				if _, ok := checker.(subsume.NoneChecker); !ok {
					t.Errorf("checker = %T, want NoneChecker", checker)
				}
			case "pairwise":
				if _, ok := checker.(subsume.PairwiseChecker); !ok {
					t.Errorf("checker = %T, want PairwiseChecker", checker)
				}
			case "set-filter":
				if _, ok := checker.(*subsume.SetChecker); !ok {
					t.Errorf("checker = %T, want *SetChecker", checker)
				}
			}
		})
	}
}

func TestFactoriesProduceHandlers(t *testing.T) {
	customError, err := experiment.FactoryForSpec(experiment.FilterSplitForward, experiment.FactorySpec{Seed: 2, SetFilterError: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	factories := map[string]netsim.HandlerFactory{
		"fsf-custom-error": customError,
	}
	for _, id := range experiment.All() {
		factories[string(id)] = factoryFor(t, id, 1)
	}
	for name, factory := range factories {
		if h := factory(0); h == nil {
			t.Errorf("%s factory returned nil handler", name)
		}
	}
	// The core-backed approaches report their configured names; the
	// centralized baseline is a handler of its own.
	for _, id := range experiment.AllDistributed() {
		if n, ok := factories[string(id)](3).(*core.Node); !ok || n.Name() != string(id) {
			t.Errorf("%s factory should produce a core node with that name", id)
		}
	}
	if _, ok := factories[centralized.Name](3).(*core.Node); ok {
		t.Error("the centralized factory should not produce a core node")
	}
}
