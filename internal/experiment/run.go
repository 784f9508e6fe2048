package experiment

import (
	"context"
	"fmt"

	"sensorcq/internal/dataset"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/oracle"
	"sensorcq/internal/topology"
	"sensorcq/internal/workload"
)

// SeriesPoint is one measurement point of a figure: the state after a batch
// of subscriptions has been injected and the batch's event segment replayed.
type SeriesPoint struct {
	// InjectedQueries is the cumulative number of user subscriptions
	// registered so far (the x axis of every figure).
	InjectedQueries int
	// SubscriptionLoad is the cumulative number of forwarded
	// subscriptions/operators (Figs. 4, 6, 8, 10).
	SubscriptionLoad int64
	// EventLoad is the number of forwarded data units while replaying this
	// batch's event segment (Figs. 5, 7, 9, 11).
	EventLoad int64
	// Recall is the end-user event recall over this batch's segment
	// (Fig. 12); deterministic approaches report 1.
	Recall float64
}

// ApproachSeries is the measurement series of one approach.
type ApproachSeries struct {
	Approach ApproachID
	Points   []SeriesPoint
}

// Final returns the last point of the series (zero value when empty).
func (s ApproachSeries) Final() SeriesPoint {
	if len(s.Points) == 0 {
		return SeriesPoint{}
	}
	return s.Points[len(s.Points)-1]
}

// Result holds the full outcome of one scenario run.
type Result struct {
	Scenario   Scenario
	Approaches []ApproachSeries
}

// SeriesFor returns the series of the given approach, or nil.
func (r *Result) SeriesFor(id ApproachID) *ApproachSeries {
	for i := range r.Approaches {
		if r.Approaches[i].Approach == id {
			return &r.Approaches[i]
		}
	}
	return nil
}

// Options tweak a run without changing the scenario definition.
type Options struct {
	// Approaches lists the approaches to run; nil means the scenario
	// default (all distributed approaches, plus centralized when the
	// scenario includes it).
	Approaches []ApproachID
	// ComputeRecall enables oracle-based recall measurement (it costs one
	// lossless matching pass per batch). Default true.
	ComputeRecall bool
	// Progress, when non-nil, receives a short line after each batch of
	// each approach (used by the CLI).
	Progress func(format string, args ...interface{})
	// Concurrent runs each approach on the concurrent engine (a worker pool
	// sharing one run queue of active nodes) instead of the deterministic
	// sequential engine.
	Concurrent bool
	// Workers sizes the concurrent engine's scheduler pool (0 selects
	// GOMAXPROCS; capped at the node count). Ignored without Concurrent.
	Workers int
	// Delivery selects the replay delivery semantics: Quiescent (default)
	// drains the network after every event, Pipelined injects a whole
	// measurement round before draining, Windowed overlaps up to Lag+1
	// rounds in flight under watermark accounting. Pipelined or Windowed
	// together with Concurrent are the configurations that actually run in
	// parallel.
	Delivery netsim.DeliveryMode
	// Lag is the cross-round pipelining bound of the Windowed delivery
	// mode (it must be 0 for the other modes; Windowed with Lag 0 behaves
	// like Pipelined). Nodes are built with the matching event-window
	// validity factor (netsim.RequiredValidityFactor).
	Lag int
	// Churn is the fraction (in [0,1]) of each batch's subscriptions that
	// are retracted again after the batch's measurement rounds have been
	// replayed, modelling long-running query churn: later batches then run
	// against the surviving population only. Recall is computed against the
	// subscriptions active while each segment replayed. Zero (the default)
	// reproduces the paper's churn-free evaluation.
	Churn float64
}

// DefaultOptions returns the options used when nil is passed to Run.
func DefaultOptions() Options {
	return Options{ComputeRecall: true}
}

// Workload bundles everything generated for a scenario so that every
// approach replays exactly the same inputs.
type Workload struct {
	Scenario   Scenario
	Deployment *topology.Deployment
	Trace      *dataset.Trace
	Placed     []workload.Placed
	// Segments holds the event rounds replayed after each batch.
	Segments [][]model.Event
	// Expectations[b] is the oracle ground truth for segment b with the
	// subscriptions of batches 0..b active (filled lazily by Run when
	// recall is requested).
	Expectations []*oracle.Expectation
	// churnExpectations caches the ground truth of churned runs per
	// (batch, churn fraction); see churnExpectation.
	churnExpectations map[string]*oracle.Expectation
}

// BuildWorkload generates the deployment, trace and subscription workload of
// a scenario.
func BuildWorkload(s Scenario) (*Workload, error) {
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
	placed, err := workload.Generate(dep, trace, workload.Config{
		Count:       s.TotalSubscriptions(),
		MinAttrs:    s.MinAttrs,
		MaxAttrs:    s.MaxAttrs,
		DeltaT:      s.RoundInterval,
		ParetoScale: s.ParetoScale,
		OffsetCap:   s.OffsetCap,
		Seed:        s.Seed + 2,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: generating workload: %w", err)
	}
	w := &Workload{
		Scenario:     s,
		Deployment:   dep,
		Trace:        trace,
		Placed:       placed,
		Expectations: make([]*oracle.Expectation, s.Batches),
	}
	// Split the trace rounds into one segment per batch (a segment is its
	// batch's rounds, flattened).
	for b := 0; b < s.Batches; b++ {
		var segment []model.Event
		for _, round := range w.RoundsForBatch(b) {
			segment = append(segment, round...)
		}
		w.Segments = append(w.Segments, segment)
	}
	return w, nil
}

// RoundsForBatch returns the measurement rounds replayed after the given
// batch, preserving the trace's round structure (Segments flattens them).
func (w *Workload) RoundsForBatch(batch int) [][]model.Event {
	start := batch * w.Scenario.RoundsPerBatch
	end := start + w.Scenario.RoundsPerBatch
	if end > len(w.Trace.ByRound) {
		end = len(w.Trace.ByRound)
	}
	if start > end {
		start = end
	}
	return w.Trace.ByRound[start:end]
}

// PublicationRounds returns the batch's measurement rounds converted to the
// runtime's replay representation, each event paired with the node hosting
// its sensor — ready to hand to Runtime.ReplayRounds.
func (w *Workload) PublicationRounds(batch int) [][]netsim.Publication {
	return publicationRounds(w.Deployment, w.RoundsForBatch(batch))
}

func publicationRounds(dep *topology.Deployment, rounds [][]model.Event) [][]netsim.Publication {
	out := make([][]netsim.Publication, len(rounds))
	for r, events := range rounds {
		out[r] = make([]netsim.Publication, len(events))
		for i, ev := range events {
			out[r][i] = netsim.Publication{Node: dep.SensorHost[ev.Sensor], Event: ev}
		}
	}
	return out
}

// SubscriptionsUpTo returns the subscriptions of batches 0..batch inclusive.
func (w *Workload) SubscriptionsUpTo(batch int) []*model.Subscription {
	end := (batch + 1) * w.Scenario.BatchSize
	if end > len(w.Placed) {
		end = len(w.Placed)
	}
	out := make([]*model.Subscription, 0, end)
	for _, p := range w.Placed[:end] {
		out = append(out, p.Sub)
	}
	return out
}

// expectation returns (computing lazily) the oracle ground truth for the
// given batch.
func (w *Workload) expectation(batch int) *oracle.Expectation {
	if w.Expectations[batch] == nil {
		w.Expectations[batch] = oracle.Compute(w.SubscriptionsUpTo(batch), w.Segments[batch])
	}
	return w.Expectations[batch]
}

// churnCount returns how many of a batch's n subscriptions the churn
// schedule retires. The retraction loop in runApproach and the oracle
// schedule in survivorsForBatch must agree bit-for-bit on this count, so
// both call this helper.
func churnCount(n int, churn float64) int {
	return int(float64(n) * churn)
}

// survivorsForBatch returns the subscriptions active while the given batch's
// segment replays under the churn schedule: every subscription of the batch
// itself plus the not-yet-retired tail of each earlier batch (the first
// churnCount of a batch are retired after its segment). The schedule
// depends only on the workload and the churn fraction, never on the
// approach.
func (w *Workload) survivorsForBatch(batch int, churn float64) []*model.Subscription {
	var out []*model.Subscription
	for b := 0; b <= batch; b++ {
		start := b * w.Scenario.BatchSize
		end := start + w.Scenario.BatchSize
		if end > len(w.Placed) {
			end = len(w.Placed)
		}
		if start > end {
			start = end
		}
		placed := w.Placed[start:end]
		if b < batch {
			placed = placed[churnCount(len(placed), churn):]
		}
		for _, p := range placed {
			out = append(out, p.Sub)
		}
	}
	return out
}

// churnExpectation returns (computing lazily) the oracle ground truth for a
// batch under the churn schedule. The survivor population is identical for
// every approach, so the expectation is cached on the workload and computed
// once per (batch, churn) rather than once per approach.
func (w *Workload) churnExpectation(batch int, churn float64) *oracle.Expectation {
	key := fmt.Sprintf("%d|%g", batch, churn)
	if w.churnExpectations == nil {
		w.churnExpectations = map[string]*oracle.Expectation{}
	}
	if w.churnExpectations[key] == nil {
		w.churnExpectations[key] = oracle.Compute(w.survivorsForBatch(batch, churn), w.Segments[batch])
	}
	return w.churnExpectations[key]
}

// approachesFor resolves the approach list of a run.
func approachesFor(s Scenario, opts Options) []ApproachID {
	if len(opts.Approaches) > 0 {
		return opts.Approaches
	}
	ids := AllDistributed()
	if s.IncludeCentralized {
		ids = append([]ApproachID{Centralized}, ids...)
	}
	return ids
}

// Run executes the scenario for every requested approach on one shared
// workload and returns the per-approach measurement series.
func Run(s Scenario, opts *Options) (*Result, error) {
	o := DefaultOptions()
	if opts != nil {
		o = *opts
		if opts.Approaches == nil {
			o.Approaches = nil
		}
	}
	w, err := BuildWorkload(s)
	if err != nil {
		return nil, err
	}
	return RunOnWorkload(w, o)
}

// RunOnWorkload executes the requested approaches against an already built
// workload (so callers can share one workload across runs, e.g. ablations).
func RunOnWorkload(w *Workload, o Options) (*Result, error) {
	s := w.Scenario
	result := &Result{Scenario: s}
	for _, id := range approachesFor(s, o) {
		series, err := runApproach(w, id, o)
		if err != nil {
			return nil, err
		}
		result.Approaches = append(result.Approaches, *series)
	}
	return result, nil
}

// runApproach runs one approach over the shared workload: the paper's
// experiment. Each batch's subscriptions propagate to quiescence, then its
// measurement rounds replay under the configured delivery semantics — which
// end with a flush — and the point is read from the quiescent network: the
// cumulative subscription load, the event load as the snapshot difference
// across the replay, and the recall from the delivery record. The batch's
// churned fraction is retracted, again to quiescence, before the next batch
// subscribes.
func runApproach(w *Workload, id ApproachID, o Options) (*ApproachSeries, error) {
	s := w.Scenario
	if o.Churn < 0 || o.Churn > 1 {
		return nil, fmt.Errorf("experiment: churn %g outside [0,1]", o.Churn)
	}
	opts := netsim.ReplayOptions{Mode: o.Delivery, Lag: o.Lag}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	engine, err := Start(w.Deployment, id, FactorySpec{
		Seed:           s.Seed + 7,
		SetFilterError: s.SetFilterError,
		ValidityFactor: netsim.RequiredValidityFactor(o.Delivery, o.Lag),
	}, o.Concurrent, o.Workers)
	if err != nil {
		return nil, err
	}
	defer engine.Close()

	series := &ApproachSeries{Approach: id}
	for b := 0; b < s.Batches; b++ {
		start := b * s.BatchSize
		end := start + s.BatchSize
		if end > len(w.Placed) {
			end = len(w.Placed)
		}
		batch := w.Placed[start:end]
		for _, p := range batch {
			if err := engine.SubscribeContext(context.Background(), p.Node, p.Sub); err != nil {
				return nil, fmt.Errorf("experiment: subscribing %s: %w", p.Sub.ID, err)
			}
		}
		before := engine.Metrics().Snapshot()
		if err := engine.ReplayRounds(w.PublicationRounds(b), opts); err != nil {
			return nil, fmt.Errorf("experiment: replaying batch %d: %w", b, err)
		}
		after := engine.Metrics().Snapshot()
		point := SeriesPoint{
			InjectedQueries:  end,
			SubscriptionLoad: after.SubscriptionLoad,
			EventLoad:        after.EventLoad - before.EventLoad,
			Recall:           1,
		}
		if o.ComputeRecall {
			point.Recall = batchRecall(w, b, o, engine)
		}
		series.Points = append(series.Points, point)
		if o.Progress != nil {
			o.Progress("%-24s %-22s queries=%4d  sub-load=%7d  event-load=%8d  recall=%.3f",
				s.Name, id, point.InjectedQueries, point.SubscriptionLoad, point.EventLoad, point.Recall)
		}
		// Retract this batch's churned fraction (oldest first, the schedule
		// survivorsForBatch mirrors) now that its segment has replayed;
		// later batches run against the survivors.
		for _, p := range batch[:churnCount(len(batch), o.Churn)] {
			if err := engine.Unsubscribe(p.Node, p.Sub.ID); err != nil {
				return nil, fmt.Errorf("experiment: unsubscribing %s: %w", p.Sub.ID, err)
			}
			engine.Flush()
		}
	}
	return series, nil
}

// batchRecall measures the end-user recall of one batch's segment. The plain
// expectation assumes every injected subscription is still active; under
// churn the ground truth is the surviving population instead (cached across
// approaches — the schedule is approach-independent).
func batchRecall(w *Workload, b int, o Options, engine netsim.Runtime) float64 {
	var exp *oracle.Expectation
	if o.Churn > 0 {
		exp = w.churnExpectation(b, o.Churn)
	} else {
		exp = w.expectation(b)
	}
	return exp.Recall(engine.Metrics().DeliveredSeqs)
}
