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

// conformanceScenario is a small randomized workload; the seed varies the
// topology, the trace and the subscription population.
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

// drive replays the workload on the runtime: sensors first (sorted, like
// the experiment harness), then each subscription propagated to quiescence,
// then every event segment through the batched replay path.
func drive(t *testing.T, rt netsim.Runtime, w *experiment.Workload) {
	t.Helper()
	sensors := make([]model.Sensor, len(w.Deployment.Sensors))
	copy(sensors, w.Deployment.Sensors)
	sort.Slice(sensors, func(i, j int) bool { return sensors[i].ID < sensors[j].ID })
	for _, sensor := range sensors {
		if err := rt.AttachSensor(w.Deployment.SensorHost[sensor.ID], sensor); err != nil {
			t.Fatal(err)
		}
		rt.Flush()
	}
	for _, p := range w.Placed {
		if err := rt.SubscribeContext(context.Background(), p.Node, p.Sub.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for _, segment := range w.Segments {
		batch := make([]netsim.Publication, len(segment))
		for i, ev := range segment {
			batch[i] = netsim.Publication{Node: w.Deployment.SensorHost[ev.Sensor], Event: ev}
		}
		if err := rt.ReplayRounds([][]netsim.Publication{batch}, netsim.ReplayOptions{}); err != nil {
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

// driveRounds replays the workload like drive, but pushes the event trace
// through Runtime.ReplayRounds with the given replay options, one
// ReplayRounds call per batch with the batch's true round structure — the
// replay shape the experiment harness and the replay benchmarks use.
func driveRounds(t *testing.T, rt netsim.Runtime, w *experiment.Workload, opts netsim.ReplayOptions) {
	t.Helper()
	driveRoundsWith(t, rt, w, nil, opts)
}

// aggPlacement pins one aggregate query to its subscriber node.
type aggPlacement struct {
	node topology.NodeID
	sub  *model.Subscription
}

// driveRoundsWith is driveRounds with extra aggregate queries registered
// after the sensors and the regular subscription population, before any
// event replay — the registration shape the aggregate conformance oracle
// assumes (mid-stream registration is delivery-mode dependent; see
// core.registerAggregate).
func driveRoundsWith(t *testing.T, rt netsim.Runtime, w *experiment.Workload, aggs []aggPlacement, opts netsim.ReplayOptions) {
	t.Helper()
	sensors := make([]model.Sensor, len(w.Deployment.Sensors))
	copy(sensors, w.Deployment.Sensors)
	sort.Slice(sensors, func(i, j int) bool { return sensors[i].ID < sensors[j].ID })
	for _, sensor := range sensors {
		if err := rt.AttachSensor(w.Deployment.SensorHost[sensor.ID], sensor); err != nil {
			t.Fatal(err)
		}
		rt.Flush()
	}
	for _, p := range w.Placed {
		if err := rt.SubscribeContext(context.Background(), p.Node, p.Sub.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range aggs {
		if err := rt.SubscribeContext(context.Background(), p.node, p.sub.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < w.Scenario.Batches; b++ {
		if err := rt.ReplayRounds(w.PublicationRounds(b), opts); err != nil {
			t.Fatal(err)
		}
	}
	rt.Flush()
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

// assertSameTraffic compares the headline traffic counters of two runs.
func assertSameTraffic(t *testing.T, label string, a, b netsim.Snapshot) {
	t.Helper()
	if a.AdvertisementLoad != b.AdvertisementLoad {
		t.Errorf("%s: advertisement load: baseline=%d got=%d", label, a.AdvertisementLoad, b.AdvertisementLoad)
	}
	if a.SubscriptionLoad != b.SubscriptionLoad {
		t.Errorf("%s: subscription load: baseline=%d got=%d", label, a.SubscriptionLoad, b.SubscriptionLoad)
	}
	if a.EventLoad != b.EventLoad {
		t.Errorf("%s: event load: baseline=%d got=%d", label, a.EventLoad, b.EventLoad)
	}
	if a.PartialAggregateLoad != b.PartialAggregateLoad {
		t.Errorf("%s: partial-aggregate load: baseline=%d got=%d", label, a.PartialAggregateLoad, b.PartialAggregateLoad)
	}
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
			t.Errorf("%s: round %d has deliveries only in the pipelined run", label, round)
		}
	}
}

// conformanceVariants are the replay configurations validated against the
// sequential quiescent baseline: the pipelined mode on both engines, the
// windowed mode at lag 0 (which must degenerate to exactly pipelined
// behaviour) on both engines, and the windowed mode at lag >= 1 — genuine
// cross-round overlap — where the relaxed oracle still requires identical
// traffic totals and identical per-round delivery multisets, with only the
// ordering inside the lag window left free.
var conformanceVariants = []struct {
	name       string
	concurrent bool
	opts       netsim.ReplayOptions
}{
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

// variantRun is one engine run of a conformance variant: sequential variants
// run once (workers is ignored by the sequential engine), concurrent ones
// once per swept worker count, each labelled for the failure messages.
type variantRun struct {
	name    string
	workers int
}

func variantRuns(name string, concurrent bool) []variantRun {
	if !concurrent {
		return []variantRun{{name: name}}
	}
	var runs []variantRun
	for _, wc := range workerCounts() {
		runs = append(runs, variantRun{name: fmt.Sprintf("%s/workers=%d", name, wc), workers: wc})
	}
	return runs
}

// TestPipelinedConformanceAllApproaches is the per-round oracle of the
// pipelined and windowed delivery modes: for every approach, each replay
// variant must produce the sequential quiescent run's traffic totals and,
// round by round, the same multiset of deliveries — the interleaving within
// the lag window is free, the outcome of each round is not. Windowed
// variants build their nodes with the lag-matched validity factor and are
// compared with the default-validity baseline, which holds at this
// scenario's 5 sensors per group; at 10 the factor changes match sets (see
// netsim.RequiredValidityFactor and ROADMAP direction 5(a)).
func TestPipelinedConformanceAllApproaches(t *testing.T) {
	for _, seed := range []int64{11, 42, 1234} {
		w, err := experiment.BuildWorkload(conformanceScenario(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range experiment.All() {
			id := id
			t.Run(fmt.Sprintf("%s/seed=%d", id, seed), func(t *testing.T) {
				newRuntime := func(concurrent bool, workers int, opts netsim.ReplayOptions) netsim.Runtime {
					factory, err := experiment.FactoryForSpec(id, experiment.FactorySpec{
						Seed:           seed + 7,
						ValidityFactor: netsim.RequiredValidityFactor(opts.Mode, opts.Lag),
					})
					if err != nil {
						t.Fatal(err)
					}
					if concurrent {
						return netsim.NewConcurrentEngineWorkers(w.Deployment.Graph, factory, workers)
					}
					return netsim.NewEngine(w.Deployment.Graph, factory)
				}

				baseline := newRuntime(false, 0, netsim.ReplayOptions{Mode: netsim.Quiescent})
				driveRounds(t, baseline, w, netsim.ReplayOptions{Mode: netsim.Quiescent})
				base := baseline.Metrics().Snapshot()
				if n := baseline.Metrics().DroppedMessages(); n != 0 {
					t.Errorf("baseline dropped %d messages", n)
				}

				for _, v := range conformanceVariants {
					for _, run := range variantRuns(v.name, v.concurrent) {
						rt := newRuntime(v.concurrent, run.workers, v.opts)
						if conc, ok := rt.(*netsim.ConcurrentEngine); ok {
							defer conc.Close()
						}
						driveRounds(t, rt, w, v.opts)
						assertSameTraffic(t, run.name, base, rt.Metrics().Snapshot())
						assertSamePerRoundDeliveries(t, run.name, baseline.Deliveries(), rt.Deliveries())
						if n := rt.Metrics().DroppedMessages(); n != 0 {
							t.Errorf("%s dropped %d messages", run.name, n)
						}
						if wm, want := rt.Watermark(), w.Scenario.Batches*w.Scenario.RoundsPerBatch; wm != want {
							t.Errorf("%s: final watermark = %d, want %d (all rounds retired)", run.name, wm, want)
						}
					}
				}
			})
		}
	}
}

func TestEngineConformanceAllApproaches(t *testing.T) {
	for _, seed := range []int64{11, 42} {
		w, err := experiment.BuildWorkload(conformanceScenario(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range experiment.All() {
			id := id
			t.Run(fmt.Sprintf("%s/seed=%d", id, seed), func(t *testing.T) {
				seqFactory, err := experiment.FactoryForSpec(id, experiment.FactorySpec{Seed: seed + 7})
				if err != nil {
					t.Fatal(err)
				}
				concFactory, err := experiment.FactoryForSpec(id, experiment.FactorySpec{Seed: seed + 7})
				if err != nil {
					t.Fatal(err)
				}
				seq := netsim.NewEngine(w.Deployment.Graph, seqFactory)
				conc := netsim.NewConcurrentEngineWorkers(w.Deployment.Graph, concFactory, 0)
				defer conc.Close()

				drive(t, seq, w)
				drive(t, conc, w)

				a, b := seq.Metrics().Snapshot(), conc.Metrics().Snapshot()
				if a.AdvertisementLoad != b.AdvertisementLoad {
					t.Errorf("advertisement load: sequential=%d concurrent=%d", a.AdvertisementLoad, b.AdvertisementLoad)
				}
				if a.SubscriptionLoad != b.SubscriptionLoad {
					t.Errorf("subscription load: sequential=%d concurrent=%d", a.SubscriptionLoad, b.SubscriptionLoad)
				}
				if a.EventLoad != b.EventLoad {
					t.Errorf("event load: sequential=%d concurrent=%d", a.EventLoad, b.EventLoad)
				}

				sd, cd := seq.Deliveries(), conc.Deliveries()
				if len(sd) == 0 {
					t.Fatalf("workload produced no deliveries; the conformance check is vacuous")
				}
				sm, cm := deliveryMultiset(sd), deliveryMultiset(cd)
				if len(sm) != len(cm) {
					t.Fatalf("delivery multisets differ in size: sequential=%d concurrent=%d", len(sm), len(cm))
				}
				for k, n := range sm {
					if cm[k] != n {
						t.Errorf("delivery %q: sequential=%d concurrent=%d", k, n, cm[k])
					}
				}
				if n := seq.Metrics().DroppedMessages(); n != 0 {
					t.Errorf("sequential engine dropped %d messages", n)
				}
				if n := conc.Metrics().DroppedMessages(); n != 0 {
					t.Errorf("concurrent engine dropped %d messages", n)
				}
			})
		}
	}
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

// TestAggregateConformanceAllApproaches extends the per-round oracle to
// windowed aggregate queries: for every approach, both engines and every
// replay variant must produce the sequential quiescent run's per-window
// aggregate results bit-for-bit — same window bounds, same value, same
// count, delivered at the same watermark round — alongside identical
// traffic totals (partial-aggregate load and bytes included) and the
// unchanged complex-event delivery multisets.
func TestAggregateConformanceAllApproaches(t *testing.T) {
	for _, seed := range []int64{11, 42} {
		w, err := experiment.BuildWorkload(conformanceScenario(seed))
		if err != nil {
			t.Fatal(err)
		}
		totalRounds := w.Scenario.Batches * w.Scenario.RoundsPerBatch
		for _, id := range experiment.All() {
			id := id
			t.Run(fmt.Sprintf("%s/seed=%d", id, seed), func(t *testing.T) {
				placements := aggregateConformancePlacements(t, w, id != experiment.Centralized)
				newRuntime := func(concurrent bool, workers int, opts netsim.ReplayOptions) netsim.Runtime {
					factory, err := experiment.FactoryForSpec(id, experiment.FactorySpec{
						Seed:           seed + 7,
						ValidityFactor: netsim.RequiredValidityFactor(opts.Mode, opts.Lag),
					})
					if err != nil {
						t.Fatal(err)
					}
					if concurrent {
						return netsim.NewConcurrentEngineWorkers(w.Deployment.Graph, factory, workers)
					}
					return netsim.NewEngine(w.Deployment.Graph, factory)
				}

				baseline := newRuntime(false, 0, netsim.ReplayOptions{Mode: netsim.Quiescent})
				driveRoundsWith(t, baseline, w, placements, netsim.ReplayOptions{Mode: netsim.Quiescent})
				base := baseline.Metrics().Snapshot()
				baseBytes := baseline.Metrics().Snapshot().PartialAggregateBytes
				if n := baseline.Metrics().DroppedMessages(); n != 0 {
					t.Errorf("baseline dropped %d messages", n)
				}
				if base.PartialAggregateLoad == 0 {
					t.Fatal("baseline shipped no partial aggregates; the conformance check is vacuous")
				}
				// Every query closes exactly totalRounds/W windows, and each
				// closed window reaches its subscriber exactly once.
				perSub := map[model.SubscriptionID]int{}
				for _, d := range baseline.Deliveries() {
					if d.Aggregate != nil {
						perSub[d.SubID]++
					}
				}
				for _, p := range placements {
					if got, want := perSub[p.sub.ID], totalRounds/p.sub.Aggregate.WindowRounds; got != want {
						t.Errorf("baseline delivered %d windows for %s, want %d", got, p.sub.ID, want)
					}
				}

				for _, v := range conformanceVariants {
					for _, run := range variantRuns(v.name, v.concurrent) {
						rt := newRuntime(v.concurrent, run.workers, v.opts)
						if conc, ok := rt.(*netsim.ConcurrentEngine); ok {
							defer conc.Close()
						}
						driveRoundsWith(t, rt, w, placements, v.opts)
						assertSameTraffic(t, run.name, base, rt.Metrics().Snapshot())
						if got := rt.Metrics().Snapshot().PartialAggregateBytes; got != baseBytes {
							t.Errorf("%s: partial-aggregate bytes: baseline=%d got=%d", run.name, baseBytes, got)
						}
						assertSamePerRoundDeliveries(t, run.name, baseline.Deliveries(), rt.Deliveries())
						if n := rt.Metrics().DroppedMessages(); n != 0 {
							t.Errorf("%s dropped %d messages", run.name, n)
						}
						if wm := rt.Watermark(); wm != totalRounds {
							t.Errorf("%s: final watermark = %d, want %d (all rounds retired)", run.name, wm, totalRounds)
						}
					}
				}
			})
		}
	}
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
			factory, err := experiment.FactoryForSpec(id, experiment.FactorySpec{Seed: seed + 7})
			if err != nil {
				t.Fatal(err)
			}
			rt := netsim.NewEngine(w.Deployment.Graph, factory)
			driveRoundsWith(t, rt, w, placements, netsim.ReplayOptions{Mode: netsim.Quiescent})
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
			factory, err := experiment.FactoryForSpec(id, experiment.FactorySpec{Seed: seed + 7})
			if err != nil {
				t.Fatal(err)
			}
			var rt netsim.Runtime
			if concurrent {
				conc := netsim.NewConcurrentEngineWorkers(w.Deployment.Graph, factory, 2)
				defer conc.Close()
				rt = conc
			} else {
				rt = netsim.NewEngine(w.Deployment.Graph, factory)
			}
			opts := netsim.ReplayOptions{Mode: netsim.Quiescent}
			driveRoundsWith(t, rt, w, placements, opts)
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
				if err := rt.ReplayRounds(w.PublicationRounds(b), opts); err != nil {
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
// Trim that follows the flood in NewSystem must leave the engines ready for
// the next burst.
func TestAdvertisementFloodReachesEveryNode(t *testing.T) {
	w, err := experiment.BuildWorkload(conformanceScenario(5))
	if err != nil {
		t.Fatal(err)
	}
	factory, err := experiment.FactoryForSpec(experiment.FilterSplitForward, experiment.FactorySpec{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	conc := netsim.NewConcurrentEngineWorkers(w.Deployment.Graph, factory, 2)
	defer conc.Close()
	engines := map[string]netsim.Runtime{
		"sequential": netsim.NewEngine(w.Deployment.Graph, factory),
		"concurrent": conc,
	}
	want := int64(len(w.Deployment.Sensors)) * int64(w.Deployment.Graph.NumNodes()-1)
	for name, rt := range engines {
		for _, sensor := range w.Deployment.Sensors {
			if err := rt.AttachSensor(w.Deployment.SensorHost[sensor.ID], sensor); err != nil {
				t.Fatal(err)
			}
		}
		rt.Flush()
		if got := rt.Metrics().Snapshot().AdvertisementLoad; got != want {
			t.Errorf("%s: advertisement load %d, want %d sensors × %d links = %d", name, got,
				len(w.Deployment.Sensors), w.Deployment.Graph.NumNodes()-1, want)
		}
		// Re-attaching is a duplicate at the host and must not flood again —
		// and it is the first burst through the trimmed queues.
		rt.Trim()
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
