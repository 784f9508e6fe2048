// Cross-engine conformance suite: the sequential Engine and the
// ConcurrentEngine must be observationally equivalent for every protocol
// variant — identical traffic totals and identical delivery multisets —
// over randomized seeded workloads.
//
// Two design decisions make this equivalence exact rather than statistical:
// the topologies are trees (every message follows a unique path, so each
// node processes a deterministic stream per link), and the probabilistic
// set filter derives its sampling RNG per decision from the candidate
// identity, so filtering verdicts cannot depend on how the engines
// interleave unrelated decisions.
//
// The suites are one matrix. A row names a fixture and its seeds, the trace
// plan its runs replay (plain, churn with a retraction set, or plain plus
// aggregate queries) and the replay variants it checks. runConformance
// builds every run with experiment.Start, replays it with replay and holds
// each variant to checkConformance against the sequential quiescent
// baseline; a suite adds only its own checks, through its trace plan.
package netsim_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"sensorcq/internal/agg"
	"sensorcq/internal/experiment"
	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/topology"
)

// conformanceScenario is a small randomized workload: 24 nodes, 15 sensor
// nodes in 5 groups (3 sensors per group); the seed varies the topology,
// the trace and the subscription population.
func conformanceScenario(seed int64) experiment.Scenario {
	return experiment.Scenario{
		Name:           "conformance",
		TotalNodes:     24,
		SensorNodes:    15,
		Groups:         5,
		Batches:        2,
		BatchSize:      12,
		MinAttrs:       2,
		MaxAttrs:       4,
		RoundsPerBatch: 3,
		RoundInterval:  1800,
		Seed:           seed,
	}
}

// denseConformanceScenario is the conformance workload at 10 sensors per
// group: 40 nodes, 30 sensor nodes in 3 groups, 2–5 attributes per
// subscription. At this density the lag-0 replays already deliver fewer
// complex events than the quiescent run (ROADMAP, direction 5(a)), so only
// the quiescent row runs it.
func denseConformanceScenario(seed int64) experiment.Scenario {
	s := conformanceScenario(seed)
	s.Name = "conformance-dense"
	s.TotalNodes, s.SensorNodes, s.Groups, s.MaxAttrs = 40, 30, 3, 5
	return s
}

var quiescent = netsim.ReplayOptions{Mode: netsim.Quiescent}

// aggPlacement pins one aggregate query to its subscriber node.
type aggPlacement struct {
	node topology.NodeID
	sub  *model.Subscription
}

// tracePlan is what a run replays beyond the workload's subscriptions and
// rounds, and the checks its suite adds to the shared one. The zero plan is
// the plain trace.
type tracePlan struct {
	// aggs are registered after the workload's subscriptions, before any
	// event replay — the registration shape the aggregate oracle assumes
	// (mid-stream registration is delivery-mode dependent; see
	// core.registerAggregate).
	aggs []aggPlacement
	// retract names the subscriptions retracted once the first batch's
	// rounds have drained.
	retract map[model.SubscriptionID]bool
	// checkBaseline and checkRun, when set, are the suite's own checks of
	// the baseline run and of every variant run.
	checkBaseline func(t *testing.T, base netsim.Runtime)
	checkRun      func(t *testing.T, label string, rt netsim.Runtime)
}

// start builds one run of the approach on the workload's deployment with
// experiment.Start — every sensor attached, the flood drained — at the
// validity factor the replay options need, and closes it when the test
// ends.
func start(t *testing.T, w *experiment.Workload, id experiment.ApproachID, concurrent bool, workers int, opts netsim.ReplayOptions) netsim.Runtime {
	t.Helper()
	rt, err := experiment.Start(w.Deployment, id, experiment.FactorySpec{
		Seed:           w.Scenario.Seed + 7,
		ValidityFactor: netsim.RequiredValidityFactor(opts.Mode, opts.Lag),
	}, concurrent, workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// replay plays one run's trace, the same way for every suite: every
// subscription of the workload, then the plan's aggregate queries, each
// propagated to quiescence; then one Runtime.ReplayRounds call per batch
// with the batch's true round structure (the replay shape of the experiment
// harness), with the plan's retractions, each drained, between the first
// batch and the second.
func replay(t *testing.T, rt netsim.Runtime, w *experiment.Workload, plan tracePlan, opts netsim.ReplayOptions) {
	t.Helper()
	ctx := context.Background()
	for _, p := range w.Placed {
		if err := rt.SubscribeContext(ctx, p.Node, p.Sub.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range plan.aggs {
		if err := rt.SubscribeContext(ctx, p.node, p.sub.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < w.Scenario.Batches; b++ {
		if b == 1 {
			for _, p := range w.Placed {
				if !plan.retract[p.Sub.ID] {
					continue
				}
				if err := rt.Unsubscribe(p.Node, p.Sub.ID); err != nil {
					t.Fatal(err)
				}
				rt.Flush()
			}
		}
		if err := rt.ReplayRounds(w.PublicationRounds(b), opts); err != nil {
			t.Fatal(err)
		}
	}
	rt.Flush()
}

// deliveryKey canonicalizes one delivery. Complex events key on (node,
// subscription, sorted component sequence numbers); aggregate deliveries —
// whose Events set is empty — key on the full window result, with the value
// compared bit-for-bit (Float64bits also distinguishes the NaN an empty
// scalar window delivers), so two runs agree only if every window produced
// the identical aggregate.
func deliveryKey(d netsim.Delivery) string {
	if a := d.Aggregate; a != nil {
		return fmt.Sprintf("%d|%s|w%d:%d-%d:%x:%d", d.Node, d.SubID, a.Window, a.StartRound, a.EndRound, math.Float64bits(a.Value), a.Count)
	}
	return fmt.Sprintf("%d|%s|%v", d.Node, d.SubID, d.Events.Seqs())
}

// deliveryMultiset canonicalizes deliveries into a multiset keyed by
// deliveryKey, so engines may deliver in any order but must deliver the
// same complex events and window aggregates the same number of times.
func deliveryMultiset(ds []netsim.Delivery) map[string]int {
	m := map[string]int{}
	for _, d := range ds {
		m[deliveryKey(d)]++
	}
	return m
}

// perRoundMultisets groups the delivery multiset by replay round.
func perRoundMultisets(ds []netsim.Delivery) map[int]map[string]int {
	out := map[int]map[string]int{}
	for _, d := range ds {
		m := out[d.Round]
		if m == nil {
			m = map[string]int{}
			out[d.Round] = m
		}
		m[deliveryKey(d)]++
	}
	return out
}

// assertSamePerRoundDeliveries compares delivery multisets round by round.
func assertSamePerRoundDeliveries(t *testing.T, label string, base, got []netsim.Delivery) {
	t.Helper()
	bm, gm := perRoundMultisets(base), perRoundMultisets(got)
	if len(bm) == 0 {
		t.Fatalf("%s: baseline produced no deliveries; the conformance check is vacuous", label)
	}
	for round, bset := range bm {
		gset := gm[round]
		for k, n := range bset {
			if gset[k] != n {
				t.Errorf("%s: round %d delivery %q: baseline=%d got=%d", label, round, k, n, gset[k])
			}
		}
		for k, n := range gset {
			if _, ok := bset[k]; !ok {
				t.Errorf("%s: round %d delivery %q: baseline=0 got=%d", label, round, k, n)
			}
		}
	}
	for round := range gm {
		if _, ok := bm[round]; !ok {
			t.Errorf("%s: round %d has deliveries only in the variant run", label, round)
		}
	}
}

// checkConformance is the one check every variant run must pass against the
// sequential quiescent baseline: the same traffic totals (every counter of
// the snapshot), the same per-round delivery multisets, no dropped message
// and every round retired.
func checkConformance(t *testing.T, label string, w *experiment.Workload, base, rt netsim.Runtime) {
	t.Helper()
	if a, b := base.Metrics().Snapshot(), rt.Metrics().Snapshot(); a != b {
		t.Errorf("%s: traffic totals:\nbaseline %+v\ngot      %+v", label, a, b)
	}
	assertSamePerRoundDeliveries(t, label, base.Deliveries(), rt.Deliveries())
	if n := rt.Metrics().DroppedMessages(); n != 0 {
		t.Errorf("%s dropped %d messages", label, n)
	}
	if wm, want := rt.Watermark(), w.Scenario.Batches*w.Scenario.RoundsPerBatch; wm != want {
		t.Errorf("%s: final watermark = %d, want %d (all rounds retired)", label, wm, want)
	}
}

// conformanceVariant is one replay configuration validated against the
// sequential quiescent baseline.
type conformanceVariant struct {
	name       string
	concurrent bool
	opts       netsim.ReplayOptions
}

// replayVariants are the pipelined mode on both engines, the windowed mode
// at lag 0 (which must degenerate to exactly pipelined behaviour) on both
// engines, and the windowed mode at lag >= 1 — genuine cross-round overlap —
// where the relaxed oracle still requires identical traffic totals and
// identical per-round delivery multisets, with only the ordering inside the
// lag window left free.
var replayVariants = []conformanceVariant{
	{"sequential-pipelined", false, netsim.ReplayOptions{Mode: netsim.Pipelined}},
	{"concurrent-pipelined", true, netsim.ReplayOptions{Mode: netsim.Pipelined}},
	{"sequential-windowed-lag0", false, netsim.ReplayOptions{Mode: netsim.Windowed, Lag: 0}},
	{"concurrent-windowed-lag0", true, netsim.ReplayOptions{Mode: netsim.Windowed, Lag: 0}},
	{"sequential-windowed-lag1", false, netsim.ReplayOptions{Mode: netsim.Windowed, Lag: 1}},
	{"concurrent-windowed-lag1", true, netsim.ReplayOptions{Mode: netsim.Windowed, Lag: 1}},
	{"concurrent-windowed-lag2", true, netsim.ReplayOptions{Mode: netsim.Windowed, Lag: 2}},
}

// workerCounts returns the scheduler pool sizes the conformance suite sweeps
// for every concurrent variant: serial, the smallest truly concurrent pool,
// and one worker per CPU. The oracles must hold bit-identically at each.
func workerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		counts = append(counts, n)
	}
	return counts
}

// conformanceRow is one row of the matrix: a fixture at its seeds, the trace
// plan of its runs (nil: the plain trace) and the replay variants checked
// against the sequential quiescent baseline, concurrent ones once per
// worker count (0 selects GOMAXPROCS).
type conformanceRow struct {
	fixture  string // subtest-name prefix; empty for conformanceScenario
	scenario func(seed int64) experiment.Scenario
	seeds    []int64
	plan     func(t *testing.T, id experiment.ApproachID, w *experiment.Workload) tracePlan
	variants []conformanceVariant
	workers  []int
}

// runConformance runs the rows: one subtest per seed and approach, named
// "<approach>/seed=<seed>" behind the fixture's prefix, in which the
// sequential quiescent baseline must drop nothing and pass the plan's
// baseline checks, and every variant run must pass checkConformance and the
// plan's run checks.
func runConformance(t *testing.T, rows ...conformanceRow) {
	for _, row := range rows {
		for _, seed := range row.seeds {
			w, err := experiment.BuildWorkload(row.scenario(seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range experiment.All() {
				name := fmt.Sprintf("%s/seed=%d", id, seed)
				if row.fixture != "" {
					name = row.fixture + "/" + name
				}
				t.Run(name, func(t *testing.T) {
					var plan tracePlan
					if row.plan != nil {
						plan = row.plan(t, id, w)
					}
					base := start(t, w, id, false, 0, quiescent)
					replay(t, base, w, plan, quiescent)
					if n := base.Metrics().DroppedMessages(); n != 0 {
						t.Errorf("baseline dropped %d messages", n)
					}
					if plan.checkBaseline != nil {
						plan.checkBaseline(t, base)
					}
					for _, v := range row.variants {
						workers := []int{0}
						if v.concurrent {
							workers = row.workers
						}
						for _, n := range workers {
							label := v.name
							if v.concurrent {
								label = fmt.Sprintf("%s/workers=%d", v.name, n)
							}
							rt := start(t, w, id, v.concurrent, n, v.opts)
							replay(t, rt, w, plan, v.opts)
							checkConformance(t, label, w, base, rt)
							if plan.checkRun != nil {
								plan.checkRun(t, label, rt)
							}
						}
					}
				})
			}
		}
	}
}

// TestPipelinedConformanceAllApproaches is the per-round oracle of the
// pipelined and windowed delivery modes: for every approach, each replay
// variant must produce the sequential quiescent run's traffic totals and,
// round by round, the same multiset of deliveries — the interleaving within
// the lag window is free, the outcome of each round is not. Windowed
// variants build their nodes with the lag-matched validity factor and are
// compared with the default-validity baseline, which holds at this
// scenario's 3 sensors per group; at 10 the lag-0 variants already diverge
// (see netsim.RequiredValidityFactor and ROADMAP direction 5(a)).
func TestPipelinedConformanceAllApproaches(t *testing.T) {
	runConformance(t, conformanceRow{
		scenario: conformanceScenario, seeds: []int64{11, 42, 1234},
		variants: replayVariants, workers: workerCounts(),
	})
}

// TestEngineConformanceAllApproaches is the quiescent row: the concurrent
// engine at GOMAXPROCS workers must replay the plain trace exactly like the
// sequential one, on the conformance fixture and on its 10-per-group
// version.
func TestEngineConformanceAllApproaches(t *testing.T) {
	variants := []conformanceVariant{{"concurrent-quiescent", true, quiescent}}
	runConformance(t,
		conformanceRow{scenario: conformanceScenario, seeds: []int64{11, 42}, variants: variants, workers: []int{0}},
		conformanceRow{fixture: "dense", scenario: denseConformanceScenario, seeds: []int64{11, 42, 1234},
			variants: variants, workers: []int{0}},
	)
}

// aggregateConformancePlacements builds a mixed population of windowed
// aggregate queries over the workload's dominant attribute: scalar folds,
// a q-digest sketch and the ship-every-reading exact baseline, spread over
// distinct subscriber nodes and two window widths (both dividing the six
// replay rounds, so every window closes by the final watermark tick).
//
// floatSums gates the mean query. Float accumulation is not associative;
// the in-network path folds child partials in canonical child order, which
// makes sums bit-deterministic, but paths that accumulate raw relayed
// readings in arrival order (the centralized approach) stay schedule-
// dependent on the concurrent engine, so those runs drop the mean query.
func aggregateConformancePlacements(t *testing.T, w *experiment.Workload, floatSums bool) []aggPlacement {
	t.Helper()
	counts := map[model.AttributeType]int{}
	for _, s := range w.Deployment.Sensors {
		counts[s.Attr]++
	}
	var attr model.AttributeType
	for a, n := range counts {
		if attr == "" || n > counts[attr] || (n == counts[attr] && a < attr) {
			attr = a
		}
	}
	lo, hi := w.Trace.Mins[attr], w.Trace.Maxs[attr]
	if !(lo < hi) {
		lo, hi = lo-1, hi+1
	}
	filter := model.AttributeFilter{Attr: attr, Range: geom.NewInterval(lo, hi)}
	specs := []struct {
		id   model.SubscriptionID
		node topology.NodeID
		spec model.AggregateSpec
	}{
		{"agg-count", 0, model.AggregateSpec{Func: agg.Count, WindowRounds: 2}},
		{"agg-min", 5, model.AggregateSpec{Func: agg.Min, WindowRounds: 3}},
		{"agg-q16", 11, model.AggregateSpec{Func: agg.Quantile, WindowRounds: 2, Quantile: 0.5, Lo: lo, Hi: hi, Bits: 10, K: 16}},
		{"agg-exact", 17, model.AggregateSpec{Func: agg.Quantile, WindowRounds: 2, Quantile: 0.9, Exact: true}},
	}
	if floatSums {
		specs = append(specs, struct {
			id   model.SubscriptionID
			node topology.NodeID
			spec model.AggregateSpec
		}{"agg-mean", 23, model.AggregateSpec{Func: agg.Mean, WindowRounds: 2}})
	}
	out := make([]aggPlacement, 0, len(specs))
	for _, s := range specs {
		sub, err := model.NewAggregateSubscription(s.id, filter, geom.WholePlane(), s.spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, aggPlacement{node: s.node, sub: sub})
	}
	return out
}

// aggregateTrace is the aggregate suite's trace plan: the plain trace plus
// aggregateConformancePlacements' queries. The baseline must ship partials
// and close exactly total rounds / window rounds windows per query, each
// reaching its subscriber once.
func aggregateTrace(t *testing.T, id experiment.ApproachID, w *experiment.Workload) tracePlan {
	placements := aggregateConformancePlacements(t, w, id != experiment.Centralized)
	totalRounds := w.Scenario.Batches * w.Scenario.RoundsPerBatch
	return tracePlan{aggs: placements, checkBaseline: func(t *testing.T, base netsim.Runtime) {
		if base.Metrics().Snapshot().PartialAggregateLoad == 0 {
			t.Fatal("baseline shipped no partial aggregates; the conformance check is vacuous")
		}
		perSub := map[model.SubscriptionID]int{}
		for _, d := range base.Deliveries() {
			if d.Aggregate != nil {
				perSub[d.SubID]++
			}
		}
		for _, p := range placements {
			if got, want := perSub[p.sub.ID], totalRounds/p.sub.Aggregate.WindowRounds; got != want {
				t.Errorf("baseline delivered %d windows for %s, want %d", got, p.sub.ID, want)
			}
		}
	}}
}

// TestAggregateConformanceAllApproaches extends the per-round oracle to
// windowed aggregate queries: for every approach, both engines and every
// replay variant must produce the sequential quiescent run's per-window
// aggregate results bit-for-bit — same window bounds, same value, same
// count, delivered at the same watermark round — alongside identical
// traffic totals (partial-aggregate load and bytes included) and the
// unchanged complex-event delivery multisets.
func TestAggregateConformanceAllApproaches(t *testing.T) {
	runConformance(t, conformanceRow{
		scenario: conformanceScenario, seeds: []int64{11, 42}, plan: aggregateTrace,
		variants: replayVariants, workers: workerCounts(),
	})
}

// aggregateResultKey canonicalizes one aggregate delivery without its node:
// the centralized baseline delivers at the centre, the other approaches at
// the subscriber's node, and the result must be the same either way.
func aggregateResultKey(d netsim.Delivery) string {
	a := d.Aggregate
	return fmt.Sprintf("%s|w%d:%d-%d:%x:%d|r%d", d.SubID, a.Window, a.StartRound, a.EndRound, math.Float64bits(a.Value), a.Count, d.Round)
}

// TestAggregateResultsAgreeAcrossApproaches pins the five approaches to one
// answer: on the sequential engine under quiescent replay, every approach
// must deliver the centralized baseline's multiset of window results — same
// window, bounds, value bits, count and round stamp — for the count, min,
// q-digest and exact-quantile queries. The per-approach conformance suite
// cannot see a defect that moves every engine and mode of one approach
// alike; this comparison does. The float mean is left out: the centre sums
// readings in arrival order, the in-network path folds child partials in
// child order, and the two differ in the last bit (ROADMAP direction 5(b),
// "close the excused corners").
func TestAggregateResultsAgreeAcrossApproaches(t *testing.T) {
	for _, seed := range []int64{11, 42} {
		w, err := experiment.BuildWorkload(conformanceScenario(seed))
		if err != nil {
			t.Fatal(err)
		}
		placements := aggregateConformancePlacements(t, w, false)
		totalRounds := w.Scenario.Batches * w.Scenario.RoundsPerBatch
		results := map[experiment.ApproachID]map[string]int{}
		windows, readings := 0, int64(0)
		for _, id := range experiment.All() {
			rt := start(t, w, id, false, 0, quiescent)
			replay(t, rt, w, tracePlan{aggs: placements}, quiescent)
			m := map[string]int{}
			for _, d := range rt.Deliveries() {
				if d.Aggregate == nil {
					continue
				}
				m[aggregateResultKey(d)]++
				if id == experiment.Centralized {
					windows++
					readings += d.Aggregate.Count
				}
			}
			results[id] = m
		}

		want := 0
		for _, p := range placements {
			want += totalRounds / p.sub.Aggregate.WindowRounds
		}
		if windows != want || readings == 0 {
			t.Fatalf("seed %d: centralized delivered %d windows (want %d) over %d readings; the comparison is vacuous", seed, windows, want, readings)
		}
		base := results[experiment.Centralized]
		for _, id := range experiment.All() {
			if id == experiment.Centralized {
				continue
			}
			var diffs []string
			for k, c := range base {
				if got := results[id][k]; got != c {
					diffs = append(diffs, fmt.Sprintf("%s %d times, centralized %d", k, got, c))
				}
			}
			for k, c := range results[id] {
				if _, ok := base[k]; !ok {
					diffs = append(diffs, fmt.Sprintf("%s %d times, centralized 0", k, c))
				}
			}
			if len(diffs) > 0 {
				sort.Strings(diffs)
				t.Errorf("seed %d: %s differs from centralized in %d window results, first: %s", seed, id, len(diffs), diffs[0])
			}
		}
	}
}

// TestAggregateRetractionStopsWindows retracts every aggregate query on
// every approach and both engines, then replays the trace again: once the
// retraction has drained, no node may ship another partial or result and
// no aggregate result may be delivered. Windows left registered anywhere —
// at a tree node or at the centralized baseline's centre — keep closing on
// watermark ticks and show up in both counts.
func TestAggregateRetractionStopsWindows(t *testing.T) {
	const seed = 11
	w, err := experiment.BuildWorkload(conformanceScenario(seed))
	if err != nil {
		t.Fatal(err)
	}
	placements := aggregateConformancePlacements(t, w, true)
	for _, id := range experiment.All() {
		for _, concurrent := range []bool{false, true} {
			name := fmt.Sprintf("%s/concurrent=%v", id, concurrent)
			rt := start(t, w, id, concurrent, 2, quiescent)
			replay(t, rt, w, tracePlan{aggs: placements}, quiescent)
			before := rt.Metrics().Snapshot().PartialAggregateLoad
			if before == 0 {
				t.Fatalf("%s: no partial aggregates before the retraction; the check is vacuous", name)
			}
			for _, p := range placements {
				if err := rt.Unsubscribe(p.node, p.sub.ID); err != nil {
					t.Fatal(err)
				}
			}
			rt.Flush()
			retracted := len(rt.Deliveries())
			for b := 0; b < w.Scenario.Batches; b++ {
				if err := rt.ReplayRounds(w.PublicationRounds(b), quiescent); err != nil {
					t.Fatal(err)
				}
			}
			rt.Flush()
			if after := rt.Metrics().Snapshot().PartialAggregateLoad; after != before {
				t.Errorf("%s: partial-aggregate load grew after the retraction: %d -> %d", name, before, after)
			}
			late := 0
			for _, d := range rt.Deliveries()[retracted:] {
				if d.Aggregate != nil {
					late++
				}
			}
			if late != 0 {
				t.Errorf("%s: %d aggregate windows delivered after the retraction", name, late)
			}
		}
	}
}

// TestAdvertisementFloodReachesEveryNode pins the size of Algorithm 1's
// flood on both engines: on a tree every sensor's advertisement crosses
// every link exactly once, sensors × (nodes − 1) messages in all. A table
// that mistook a new sensor for a known one (or the reverse) would move the
// count; so would a set-up that "saved" messages by not telling some node,
// which the subscriptions routed by those tables would then pay for. The
// Trim that follows the flood in experiment.Start must leave the engines
// ready for the next burst.
func TestAdvertisementFloodReachesEveryNode(t *testing.T) {
	w, err := experiment.BuildWorkload(conformanceScenario(5))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(w.Deployment.Sensors)) * int64(w.Deployment.Graph.NumNodes()-1)
	for _, concurrent := range []bool{false, true} {
		name := "sequential"
		if concurrent {
			name = "concurrent"
		}
		rt := start(t, w, experiment.FilterSplitForward, concurrent, 2, quiescent)
		if got := rt.Metrics().Snapshot().AdvertisementLoad; got != want {
			t.Errorf("%s: advertisement load %d, want %d sensors × %d links = %d", name, got,
				len(w.Deployment.Sensors), w.Deployment.Graph.NumNodes()-1, want)
		}
		// Re-attaching is a duplicate at the host and must not flood again —
		// and it is the first burst through the trimmed queues.
		for _, sensor := range w.Deployment.Sensors {
			if err := rt.AttachSensor(w.Deployment.SensorHost[sensor.ID], sensor); err != nil {
				t.Fatal(err)
			}
		}
		rt.Flush()
		if got := rt.Metrics().Snapshot().AdvertisementLoad; got != want {
			t.Errorf("%s: advertisement load %d after re-attaching every sensor, want it unchanged at %d", name, got, want)
		}
	}
}
