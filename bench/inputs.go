package main

import (
	"fmt"
	"time"

	"sensorcq"
	"sensorcq/internal/dataset"
	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

const (
	// roundInterval is the sampling period of every trace and the δt of
	// every subscription, so readings of one round correlate.
	roundInterval model.Timestamp = 1800
	// roundsPerDay is the period of the trace's diurnal cycle in rounds. The
	// work a round causes follows that cycle, so throughput is only ever
	// taken over whole days.
	roundsPerDay = int(86400 / roundInterval)
	// seedDays bounds how far --seed fast-forwards the trace.
	seedDays = 64
)

// shape is the size of a workload's network and query population.
type shape struct {
	nodes, sensors, groups, subs int
}

// inputs is everything a workload feeds the system under test, built with
// the paper's generators. The network, its sensors' micro-site offsets and
// the subscription population come from the shape seed and are the same in
// every run, as is the seed of Filter-Split-Forward's probabilistic set
// filter; the run seed picks which stretch of the sensors' stochastic
// reading process is replayed (a whole number of days into one long
// trace). Runs with
// different seeds therefore do statistically equivalent work — which is
// what makes their timings comparable — while a different shape seed is a
// different workload of the same family.
type inputs struct {
	shapeSeed int64
	seed      int64
	dep       *topology.Deployment
	placed    []sensorcq.PlacedSubscription
	stats     dataset.Stats

	// How long each generator took (per-layer metrics).
	topologyGen, datasetGen, workloadGen time.Duration
}

func traceConfig(shapeSeed int64) dataset.Config {
	return dataset.Config{Rounds: 1 << 40, RoundInterval: roundInterval, Seed: shapeSeed + 1}
}

func generateInputs(sh shape, shapeSeed, seed int64) (*inputs, error) {
	in := &inputs{shapeSeed: shapeSeed, seed: seed}
	start := time.Now()
	dep, err := topology.GenerateDeployment(topology.DeploymentConfig{
		TotalNodes: sh.nodes, SensorNodes: sh.sensors, Groups: sh.groups,
		Attributes: model.DefaultAttributes(), Seed: shapeSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("generating deployment: %w", err)
	}
	in.dep = dep
	in.topologyGen = time.Since(start)

	// One day of readings gives the per-attribute medians and spreads the
	// subscription ranges are centred on, as the paper derives them.
	start = time.Now()
	day, err := dataset.NewStreamer(dep, traceConfig(shapeSeed))
	if err != nil {
		return nil, fmt.Errorf("generating trace: %w", err)
	}
	for r := 0; r < roundsPerDay; r++ {
		day.NextRound()
	}
	in.stats = day.Stats()
	in.datasetGen = time.Since(start)

	start = time.Now()
	in.placed, err = in.subscriptions(sh.subs, "q", shapeSeed+2)
	if err != nil {
		return nil, err
	}
	in.workloadGen = time.Since(start)
	return in, nil
}

// subscriptions draws n abstract subscriptions over 3–5 attributes from the
// paper's workload generator.
func (in *inputs) subscriptions(n int, prefix string, seed int64) ([]sensorcq.PlacedSubscription, error) {
	s, err := sensorcq.NewWorkloadStream(in.dep, in.stats, roundInterval, sensorcq.WorkloadConfig{
		Count: n, MinAttrs: 3, MaxAttrs: 5, DeltaT: roundInterval, Seed: seed, IDPrefix: prefix,
	})
	if err != nil {
		return nil, fmt.Errorf("generating subscriptions: %w", err)
	}
	out := make([]sensorcq.PlacedSubscription, 0, n)
	for s.Next() {
		out = append(out, s.Placed())
	}
	return out, s.Err()
}

// fsfSeed seeds Filter-Split-Forward's probabilistic set filter. Which
// subscriptions it declares subsumed is part of the workload's structure —
// one filter seed in twenty loses 1 % of a daemon workload's results — so it
// follows the shape seed.
func (in *inputs) fsfSeed() int64 { return in.shapeSeed + 7 }

// roundSource hands out the run's measurement rounds in order. Every source
// of one inputs value yields the same rounds, so several passes over the
// same stretch of the trace see identical readings.
type roundSource struct {
	stream *dataset.Streamer
	// day recycles the per-day buffers: the system under test copies a
	// round's readings on injection and keeps no reference to the slices.
	day [][]model.Event
}

// rounds starts at the day the run seed selects.
func (in *inputs) rounds() (*roundSource, error) {
	return in.roundsFrom(int(uint64(in.seed) % seedDays))
}

// roundsFrom starts day whole days into the trace.
func (in *inputs) roundsFrom(day int) (*roundSource, error) {
	stream, err := dataset.NewStreamer(in.dep, traceConfig(in.shapeSeed))
	if err != nil {
		return nil, err
	}
	for r := 0; r < day*roundsPerDay; r++ {
		stream.NextRound()
	}
	return &roundSource{stream: stream}, nil
}

// next returns the following n rounds. The returned slices are overwritten
// by the next call unless keep is set.
func (s *roundSource) next(n int, keep bool) [][]model.Event {
	var out [][]model.Event
	if keep {
		out = make([][]model.Event, n)
	} else {
		for len(s.day) < n {
			s.day = append(s.day, nil)
		}
		out = s.day[:n]
	}
	for i := range out {
		out[i] = append(out[i][:0], s.stream.NextRound()...)
	}
	return out
}

func countReadings(rounds [][]model.Event) int {
	n := 0
	for _, r := range rounds {
		n += len(r)
	}
	return n
}
