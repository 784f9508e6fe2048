package experiment

import (
	"context"
	"fmt"
	"sort"

	"sensorcq/internal/agg"
	"sensorcq/internal/dataset"
	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/topology"
)

// AggregateSweepConfig parameterises the error-vs-traffic experiment of the
// in-network aggregation subsystem: one windowed quantile query is replayed
// over a scenario's trace once with the ship-every-reading exact baseline
// and once per q-digest compression setting k, measuring the upstream
// partial-aggregate traffic and the observed rank error of every window
// against an oracle computed directly from the trace.
type AggregateSweepConfig struct {
	// Scenario supplies the network shape and the trace (its subscription
	// workload is not used).
	Scenario Scenario
	// WindowRounds is the tumbling window width (default 4).
	WindowRounds int
	// Quantile is the rank fraction φ of the query (default 0.5, the
	// median).
	Quantile float64
	// Bits is log2 of the sketch's bucket count σ (default 12).
	Bits uint
	// Ks lists the q-digest compression settings to sweep (default
	// 8, 16, 32, 64; the rank-error bound of each is ε = Bits/k).
	Ks []int
	// Concurrent replays on the concurrent engine instead of the
	// deterministic sequential one.
	Concurrent bool
	// Workers sizes the concurrent engine's scheduler pool (0 selects
	// GOMAXPROCS; capped at the node count). Ignored without Concurrent.
	Workers int
}

// withDefaults fills the zero fields.
func (c AggregateSweepConfig) withDefaults() AggregateSweepConfig {
	if c.WindowRounds <= 0 {
		c.WindowRounds = 4
	}
	if c.Quantile <= 0 || c.Quantile >= 1 {
		c.Quantile = 0.5
	}
	if c.Bits == 0 {
		c.Bits = 12
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{8, 16, 32, 64}
	}
	return c
}

// AggregateSweepPoint is the measurement of one sketch setting.
type AggregateSweepPoint struct {
	// K is the q-digest compression parameter of this run.
	K int
	// Epsilon is the configured rank-error bound Bits/K.
	Epsilon float64
	// MaxRankError and MeanRankError are the observed per-window rank
	// errors of the delivered quantiles against the trace oracle, as
	// fractions of each window's reading count.
	MaxRankError, MeanRankError float64
	// PartialLoad and PartialBytes are the run's cumulative upstream
	// partial-aggregate traffic in messages and encoded bytes.
	PartialLoad, PartialBytes int64
	// Windows is the number of windows delivered.
	Windows int
}

// AggregateSweep is the outcome of one error-vs-traffic experiment.
type AggregateSweep struct {
	Config AggregateSweepConfig
	// Attr is the attribute type the query aggregates (the scenario
	// attribute with the most sensors).
	Attr model.AttributeType
	// Subscriber is the node holding the query — the sensor-free node
	// farthest from the matching sensors, so partials cross a deep tree.
	Subscriber topology.NodeID
	// TreeDepth is the subscriber's hop distance to the farthest matching
	// sensor host (the depth of the dissemination tree the partials climb).
	TreeDepth int
	// Readings is the number of matching readings in the trace.
	Readings int
	// ExactLoad and ExactBytes are the traffic of the ship-every-reading
	// baseline, the error-free comparison point.
	ExactLoad, ExactBytes int64
	// Points holds one measurement per sketch setting, in Ks order.
	Points []AggregateSweepPoint
}

// RunAggregateSweep executes the error-vs-traffic experiment. Every run —
// the exact baseline and each sketch setting — replays the identical trace
// through the identical deployment under quiescent delivery.
func RunAggregateSweep(cfg AggregateSweepConfig) (*AggregateSweep, error) {
	cfg = cfg.withDefaults()
	s := cfg.Scenario
	if err := s.Validate(); err != nil {
		return nil, err
	}
	dep, err := topology.GenerateDeployment(s.DeploymentConfig())
	if err != nil {
		return nil, fmt.Errorf("experiment: generating deployment: %w", err)
	}
	trace, err := dataset.Generate(dep, dataset.Config{
		Rounds:        s.TotalRounds(),
		RoundInterval: s.RoundInterval,
		Seed:          s.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: generating trace: %w", err)
	}

	attr := BusiestAttribute(dep)
	lo, hi := trace.Mins[attr], trace.Maxs[attr]
	if !(lo < hi) {
		lo, hi = lo-1, hi+1
	}
	subscriber, depth := deepestSubscriber(dep, attr)

	sweep := &AggregateSweep{
		Config:     cfg,
		Attr:       attr,
		Subscriber: subscriber,
		TreeDepth:  depth,
	}
	spec := model.AggregateSpec{
		Func:         agg.Quantile,
		WindowRounds: cfg.WindowRounds,
		Quantile:     cfg.Quantile,
		Lo:           lo,
		Hi:           hi,
		Bits:         cfg.Bits,
	}
	filter := model.AttributeFilter{Attr: attr, Range: geom.NewInterval(lo, hi)}

	// The exact ship-every-reading baseline; its spec (valid without sketch
	// parameters) doubles as the oracle's filter.
	exact := spec
	exact.Exact = true
	exactSub, err := model.NewAggregateSubscription("agg-exact", filter, geom.WholePlane(), exact)
	if err != nil {
		return nil, err
	}

	// The oracle: the matching readings of every window, straight from the
	// trace. Window g covers rounds [g·W+1, (g+1)·W]; ByRound is 0-based.
	oracleSub := exactSub
	windows := make(map[int][]float64)
	for r, round := range trace.ByRound {
		g := spec.WindowOf(r + 1)
		for _, ev := range round {
			if oracleSub.MatchesReading(ev) {
				windows[g] = append(windows[g], ev.Value)
				sweep.Readings++
			}
		}
	}
	for _, vals := range windows {
		sort.Float64s(vals)
	}

	_, load, bytes, err := replayAggregate(s, dep, trace, subscriber, exactSub, cfg.Concurrent, cfg.Workers)
	if err != nil {
		return nil, err
	}
	sweep.ExactLoad, sweep.ExactBytes = load, bytes

	for _, k := range cfg.Ks {
		sk := spec
		sk.K = k
		sub, err := model.NewAggregateSubscription(model.SubscriptionID(fmt.Sprintf("agg-k%d", k)), filter, geom.WholePlane(), sk)
		if err != nil {
			return nil, err
		}
		results, load, bytes, err := replayAggregate(s, dep, trace, subscriber, sub, cfg.Concurrent, cfg.Workers)
		if err != nil {
			return nil, err
		}
		point := AggregateSweepPoint{K: k, Epsilon: sk.Epsilon(), PartialLoad: load, PartialBytes: bytes}
		var errSum float64
		for _, res := range results {
			vals := windows[res.Window]
			if len(vals) == 0 {
				continue
			}
			e := rankError(vals, res.Value, cfg.Quantile)
			errSum += e
			if e > point.MaxRankError {
				point.MaxRankError = e
			}
			point.Windows++
		}
		if point.Windows > 0 {
			point.MeanRankError = errSum / float64(point.Windows)
		}
		sweep.Points = append(sweep.Points, point)
	}
	return sweep, nil
}

// replayAggregate runs one aggregate query over the trace on a fresh engine
// and returns the delivered windows plus the run's partial-aggregate
// traffic.
func replayAggregate(s Scenario, dep *topology.Deployment, trace *dataset.Trace,
	subscriber topology.NodeID, sub *model.Subscription, concurrent bool, workers int,
) ([]netsim.AggregateResult, int64, int64, error) {
	engine, err := Start(dep, FilterSplitForward, FactorySpec{Seed: s.Seed + 7}, concurrent, workers)
	if err != nil {
		return nil, 0, 0, err
	}
	defer engine.Close()
	if err := engine.SubscribeContext(context.Background(), subscriber, sub); err != nil {
		return nil, 0, 0, fmt.Errorf("experiment: subscribing %s: %w", sub.ID, err)
	}

	rounds := publicationRounds(dep, trace.ByRound)
	if err := engine.ReplayRounds(rounds, netsim.ReplayOptions{Mode: netsim.Quiescent}); err != nil {
		return nil, 0, 0, fmt.Errorf("experiment: replaying %s: %w", sub.ID, err)
	}

	var results []netsim.AggregateResult
	for _, d := range engine.Deliveries() {
		if d.SubID == sub.ID && d.Aggregate != nil {
			results = append(results, *d.Aggregate)
		}
	}
	traffic := engine.Metrics().Snapshot()
	return results, traffic.PartialAggregateLoad, traffic.PartialAggregateBytes, nil
}

// BusiestAttribute returns the deployment's attribute type with the most
// sensors, so an aggregate query over it has the widest source fan-in.
func BusiestAttribute(dep *topology.Deployment) model.AttributeType {
	counts := make(map[model.AttributeType]int)
	for _, sensor := range dep.Sensors {
		counts[sensor.Attr]++
	}
	var best model.AttributeType
	bestN := -1
	for attr, n := range counts {
		if n > bestN || (n == bestN && attr < best) {
			best, bestN = attr, n
		}
	}
	return best
}

// deepestSubscriber picks the query's node: the node (preferring sensor-free
// ones) whose hop distance to the farthest host of a matching sensor is
// maximal, so the dissemination tree the partials climb is as deep as the
// deployment allows.
func deepestSubscriber(dep *topology.Deployment, attr model.AttributeType) (topology.NodeID, int) {
	hosts := make(map[topology.NodeID]bool)
	hasSensor := make(map[topology.NodeID]bool)
	for _, sensor := range dep.Sensors {
		hasSensor[dep.SensorHost[sensor.ID]] = true
		if sensor.Attr == attr {
			hosts[dep.SensorHost[sensor.ID]] = true
		}
	}
	best, bestDepth := topology.NodeID(0), -1
	for n := 0; n < dep.Graph.NumNodes(); n++ {
		id := topology.NodeID(n)
		dist := dep.Graph.BFS(id)
		depth := 0
		for h := range hosts {
			if dist[h] > depth {
				depth = dist[h]
			}
		}
		// A sensor-free relay node beats a sensor host of equal depth: the
		// query's own node then contributes no readings and every window is
		// assembled purely from its children's partials.
		better := depth > bestDepth ||
			(depth == bestDepth && !hasSensor[id] && hasSensor[best])
		if better {
			best, bestDepth = id, depth
		}
	}
	return best, bestDepth
}

// rankError measures how far the reported quantile value sits from the
// target rank in one window's sorted values, as a fraction of the window's
// reading count. The value's achievable rank is the interval [#(x<v),
// #(x<=v)]; the error is its distance to the target rank φ·n.
func rankError(sorted []float64, v float64, phi float64) float64 {
	n := len(sorted)
	lo := sort.SearchFloat64s(sorted, v)                            // #(x < v)
	hi := sort.Search(n, func(i int) bool { return sorted[i] > v }) // #(x <= v)
	target := phi * float64(n)
	if target < 1 {
		target = 1
	}
	if t := float64(n); target > t {
		target = t
	}
	switch {
	case target >= float64(lo) && target <= float64(hi):
		return 0
	case target < float64(lo):
		return (float64(lo) - target) / float64(n)
	default:
		return (target - float64(hi)) / float64(n)
	}
}
