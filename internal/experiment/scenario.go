package experiment

import (
	"fmt"

	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// Scenario describes one experimental setup of Section VI. The four
// constructors below reproduce the paper's parameters; Scale derives cheaper
// variants for tests and cqexp's smaller scales.
type Scenario struct {
	// Name identifies the scenario ("small-scale", ...).
	Name string
	// Description is a one-line summary for reports.
	Description string

	// Network shape.
	TotalNodes  int
	SensorNodes int
	Groups      int

	// Subscription workload: Batches batches of BatchSize subscriptions,
	// each over MinAttrs..MaxAttrs attribute types.
	Batches   int
	BatchSize int
	MinAttrs  int
	MaxAttrs  int

	// Event workload: after each batch, RoundsPerBatch measurement rounds
	// (one reading per sensor per round, RoundInterval apart) are replayed.
	RoundsPerBatch int
	RoundInterval  model.Timestamp

	// IncludeCentralized adds the centralized baseline (the paper only
	// reports it for the medium-scale experiment).
	IncludeCentralized bool

	// SetFilterError is the FSF set-filter error probability in [0,1); 0 = default.
	SetFilterError float64

	// ParetoScale and OffsetCap override the subscription-range width
	// distribution of the workload generator (0 keeps its defaults). They
	// control subscription selectivity, which the paper describes as
	// "medium selective".
	ParetoScale float64
	OffsetCap   float64

	// Seed drives topology, trace and workload generation.
	Seed int64
}

// Validate checks the scenario parameters.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("experiment: scenario needs a name")
	}
	if s.Batches <= 0 || s.BatchSize <= 0 {
		return fmt.Errorf("experiment: scenario %s needs positive batches and batch size", s.Name)
	}
	if s.RoundsPerBatch <= 0 {
		return fmt.Errorf("experiment: scenario %s needs positive rounds per batch", s.Name)
	}
	if err := checkSetFilterError(s.SetFilterError); err != nil {
		return err
	}
	cfg := s.DeploymentConfig()
	return cfg.Validate()
}

// DeploymentConfig returns the topology generator configuration for the
// scenario.
func (s Scenario) DeploymentConfig() topology.DeploymentConfig {
	return topology.DeploymentConfig{
		TotalNodes:  s.TotalNodes,
		SensorNodes: s.SensorNodes,
		Groups:      s.Groups,
		Attributes:  model.DefaultAttributes(),
		Seed:        s.Seed,
	}
}

// TotalSubscriptions returns Batches × BatchSize.
func (s Scenario) TotalSubscriptions() int { return s.Batches * s.BatchSize }

// TotalRounds returns the number of measurement rounds generated for the
// whole experiment.
func (s Scenario) TotalRounds() int { return s.Batches * s.RoundsPerBatch }

// Scale returns a copy of the scenario with the subscription and event
// workload scaled down (or up): the number of batches, the batch size and
// the rounds per batch are multiplied by the given factors (minimum 1 each).
// The network shape is never scaled, because the paper's scenarios are
// defined by it.
func (s Scenario) Scale(batchFactor, batchSizeFactor, roundsFactor float64) Scenario {
	scale := func(v int, f float64) int {
		if f <= 0 {
			return v
		}
		out := int(float64(v) * f)
		if out < 1 {
			out = 1
		}
		return out
	}
	s.Batches = scale(s.Batches, batchFactor)
	s.BatchSize = scale(s.BatchSize, batchSizeFactor)
	s.RoundsPerBatch = scale(s.RoundsPerBatch, roundsFactor)
	return s
}

// SmallScale is the first experiment (Section VI-C): 60 nodes, 50 of them
// sensor nodes in 10 groups, 100..1000 subscriptions over 3-5 attributes.
func SmallScale() Scenario {
	return Scenario{
		Name:           "small-scale",
		Description:    "60 nodes, 50 sensor nodes, 10 groups, 3-5 attributes per subscription",
		TotalNodes:     60,
		SensorNodes:    50,
		Groups:         10,
		Batches:        10,
		BatchSize:      100,
		MinAttrs:       3,
		MaxAttrs:       5,
		RoundsPerBatch: 8,
		RoundInterval:  1800,
		Seed:           101,
	}
}

// MediumScale is the second experiment (Section VI-D): 100 nodes, 50 sensor
// nodes, 5 attributes per subscription, centralized baseline included.
func MediumScale() Scenario {
	return Scenario{
		Name:               "medium-scale",
		Description:        "100 nodes, 50 sensor nodes, 10 groups, 5 attributes per subscription, centralized included",
		TotalNodes:         100,
		SensorNodes:        50,
		Groups:             10,
		Batches:            9,
		BatchSize:          100,
		MinAttrs:           5,
		MaxAttrs:           5,
		RoundsPerBatch:     8,
		RoundInterval:      1800,
		IncludeCentralized: true,
		Seed:               102,
	}
}

// LargeScaleNetwork is the third experiment (Section VI-E, first setting):
// 200 nodes, 50 sensor nodes — the influence of the network size.
func LargeScaleNetwork() Scenario {
	return Scenario{
		Name:           "large-scale-network",
		Description:    "200 nodes, 50 sensor nodes, 10 groups, 5 attributes per subscription",
		TotalNodes:     200,
		SensorNodes:    50,
		Groups:         10,
		Batches:        9,
		BatchSize:      100,
		MinAttrs:       5,
		MaxAttrs:       5,
		RoundsPerBatch: 8,
		RoundInterval:  1800,
		Seed:           103,
	}
}

// LargeScaleSources is the fourth experiment (Section VI-E, second setting):
// 200 nodes, 100 sensor nodes in 20 groups — the influence of the number of
// distinct data sources.
func LargeScaleSources() Scenario {
	return Scenario{
		Name:           "large-scale-sources",
		Description:    "200 nodes, 100 sensor nodes, 20 groups, 5 attributes per subscription",
		TotalNodes:     200,
		SensorNodes:    100,
		Groups:         20,
		Batches:        9,
		BatchSize:      100,
		MinAttrs:       5,
		MaxAttrs:       5,
		RoundsPerBatch: 8,
		RoundInterval:  1800,
		Seed:           104,
	}
}

// AllScenarios returns the four scenarios in paper order.
func AllScenarios() []Scenario {
	return []Scenario{SmallScale(), MediumScale(), LargeScaleNetwork(), LargeScaleSources()}
}

// QuickScale scales a scenario down to a smoke-test size while keeping the
// network shape: 4 batches of 25 subscriptions and 3 rounds per batch.
func QuickScale(s Scenario) Scenario {
	s.Batches = 4
	s.BatchSize = 25
	s.RoundsPerBatch = 3
	return s
}
