package sensorcq

// This file holds the layer benchmarks: each times one layer, for profiling
// and on-demand comparison. End-to-end time claims are made with the
// repository benchmark (`go run ./bench`, paired parent/change runs), the
// allocation contracts of the hot paths are ordinary tests (alloc_test.go)
// that share these benchmarks' set-up, and the paper's figures are checked by
// TestPaperEvaluation (internal/experiment) and printed by `go run
// ./cmd/cqexp`.

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"testing"

	"sensorcq/internal/agg"
	"sensorcq/internal/core"
	"sensorcq/internal/experiment"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/stats"
	"sensorcq/internal/stores"
	"sensorcq/internal/subsume"
	"sensorcq/internal/topology"
)

// benchScale sizes the set-up of the layer benchmarks that have more than
// one: quick shrinks it (the CI smoke run), full adds the largest sizes.
var benchScale = flag.String("benchscale", "default", "layer benchmark set-up size: quick, default or full")

// --- index-vs-linear scaling: the event-matching fast path ---

// indexBenchPopulation builds n abstract subscriptions with medium-selective
// ranges (about 2% of the value domain each) over the five default
// attributes, plus a deterministic stream of probe events.
func indexBenchPopulation(n int) ([]*model.Subscription, []model.Event) {
	rng := stats.NewRNG(42)
	attrs := model.DefaultAttributes()
	subs := make([]*model.Subscription, 0, n)
	for i := 0; i < n; i++ {
		na := 1 + rng.Intn(3)
		picked := rng.Choose(len(attrs), na)
		filters := make([]model.AttributeFilter, 0, na)
		for _, a := range picked {
			lo := rng.Range(0, 980)
			filters = append(filters, model.AttributeFilter{
				Attr:  attrs[a],
				Range: NewInterval(lo, lo+rng.Range(5, 20)),
			})
		}
		sub, err := model.NewAbstractSubscription(
			model.SubscriptionID(fmt.Sprintf("ix%06d", i)),
			filters, Everywhere(), 30, model.NoSpatialConstraint)
		if err != nil {
			panic(err)
		}
		subs = append(subs, sub)
	}
	events := make([]model.Event, 512)
	for i := range events {
		a := rng.Intn(len(attrs))
		events[i] = model.Event{
			Seq:    uint64(i + 1),
			Sensor: model.SensorID(fmt.Sprintf("d%d", a)),
			Attr:   attrs[a],
			Value:  rng.Range(0, 1000),
			Time:   model.Timestamp(i),
		}
	}
	return subs, events
}

// BenchmarkEventMatchScaling compares the indexed candidate selection
// (stores.EventIndex, the fast path the protocol nodes now use) against the
// per-attribute linear scan it replaced, at growing subscription
// populations. The per-event cost of the linear scan grows with the
// population; the indexed cost grows with the number of actual matches.
func BenchmarkEventMatchScaling(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		subs, events := indexBenchPopulation(n)

		b.Run(fmt.Sprintf("indexed/subs=%d", n), func(b *testing.B) {
			idx := stores.NewEventIndex()
			for _, s := range subs {
				idx.Add(s)
			}
			// Run the staged bulk build outside the timed region.
			idx.Candidates(events[0], func(*model.Subscription) bool { return true })
			matches := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Candidates(events[i%len(events)], func(*model.Subscription) bool {
					matches++
					return true
				})
			}
			b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
		})

		b.Run(fmt.Sprintf("linear/subs=%d", n), func(b *testing.B) {
			byAttr := map[model.AttributeType][]*model.Subscription{}
			for _, s := range subs {
				for _, a := range s.Attributes() {
					byAttr[a] = append(byAttr[a], s)
				}
			}
			matches := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := events[i%len(events)]
				for _, s := range byAttr[ev.Attr] {
					if s.MatchesEvent(ev) {
						matches++
					}
				}
			}
			b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
		})
	}
}

// BenchmarkIndexChurn measures the match index under steady-state
// subscription churn: every iteration retracts the oldest live subscription,
// registers a fresh one and matches an event — the interleaved
// subscribe/match/unsubscribe workload the PR 4 lifecycle API produces. The
// index splices single entries in and out in O(log n). events/sec counts
// lifecycle operations.
func BenchmarkIndexChurn(b *testing.B) {
	const live = 4000
	pool, events := indexBenchPopulation(2 * live)
	b.Run(fmt.Sprintf("incremental/subs=%d", live), func(b *testing.B) {
		idx := stores.NewEventIndex()
		for _, s := range pool[:live] {
			idx.Add(s)
		}
		// Run the staged bulk build outside the timed region.
		idx.Candidates(events[0], func(*model.Subscription) bool { return true })
		matches := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The live population is a sliding window over the pool:
			// pool[i..i+live-1] (mod 2*live) is live at iteration i.
			idx.Remove(pool[i%len(pool)].ID)
			idx.Add(pool[(i+live)%len(pool)])
			idx.Candidates(events[i%len(events)], func(*model.Subscription) bool {
				matches++
				return true
			})
		}
		b.StopTimer()
		if idx.Len() != live {
			b.Fatalf("live population drifted to %d, want %d", idx.Len(), live)
		}
		b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
		// Three lifecycle operations per iteration: one retraction, one
		// registration, one match.
		b.ReportMetric(float64(b.N)*3/b.Elapsed().Seconds(), "events/sec")
	})
}

// replayThroughputWorkload builds the wide replay-benchmark workload: 100
// sensor nodes in 20 groups means every round spreads 100 readings across
// many independent subtrees, which is what gives the pipelined/windowed
// modes parallelism to exploit. quick (the -benchscale=quick setting, and
// what the allocation contract tests run) shrinks the subscription
// population and the round count.
func replayThroughputWorkload(tb testing.TB, quick bool) (*experiment.Workload, [][]netsim.Publication, int) {
	tb.Helper()
	s := experiment.Scenario{
		Name:           "replay-throughput",
		TotalNodes:     120,
		SensorNodes:    100,
		Groups:         20,
		Batches:        1,
		BatchSize:      80,
		MinAttrs:       2,
		MaxAttrs:       4,
		RoundsPerBatch: 6,
		RoundInterval:  1800,
		Seed:           77,
	}
	if quick {
		s.BatchSize = 40
		s.RoundsPerBatch = 4
	}
	w, err := experiment.BuildWorkload(s)
	if err != nil {
		tb.Fatal(err)
	}
	replay := w.PublicationRounds(0)
	events := 0
	for _, round := range replay {
		events += len(round)
	}
	return w, replay, events
}

// BenchmarkReplayWindowed sweeps the cross-round pipelining bound of the
// windowed delivery mode on the concurrent engine. Lag 0 is the pipelined
// schedule (drain at every round boundary); higher lags let the per-node
// goroutines keep working across round boundaries, which removes the
// round-barrier idle time on multi-core machines (run with -cpu 1,2,4 to
// see the effect appear with parallelism). Deliveries and traffic stay
// conformant with the quiescent baseline at every lag — that is enforced
// by TestPipelinedConformanceAllApproaches, not measured here. Every
// iteration replays into a fresh engine (built and populated outside the timed
// region), so this is the lag sweep from a cold engine; the repository
// benchmark's replay-wide workload is the long-running windowed measurement,
// at lag 2 only.
func BenchmarkReplayWindowed(b *testing.B) {
	w, replay, events := replayThroughputWorkload(b, *benchScale == "quick")
	for _, lag := range []int{0, 1, 2, 4} {
		opts := netsim.ReplayOptions{Mode: netsim.Windowed, Lag: lag}
		b.Run(fmt.Sprintf("lag=%d", lag), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				factory, err := experiment.FactoryForSpec(experiment.FilterSplitForward, experiment.FactorySpec{
					Seed:           w.Scenario.Seed + 7,
					ValidityFactor: netsim.RequiredValidityFactor(opts.Mode, opts.Lag),
				})
				if err != nil {
					b.Fatal(err)
				}
				conc := netsim.NewConcurrentEngineWorkers(w.Deployment.Graph, factory, 0)
				for _, sensor := range w.Deployment.Sensors {
					if err := conc.AttachSensor(w.Deployment.SensorHost[sensor.ID], sensor); err != nil {
						b.Fatal(err)
					}
					conc.Flush()
				}
				for _, p := range w.Placed {
					if err := conc.SubscribeContext(context.Background(), p.Node, p.Sub.Clone()); err != nil {
						b.Fatal(err)
					}
					conc.Flush()
				}
				b.StartTimer()
				if err := conc.ReplayRounds(replay, opts); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if n := conc.Metrics().DroppedMessages(); n != 0 {
					b.Fatalf("dropped %d messages", n)
				}
				conc.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			// The parallel speedup only exists with GOMAXPROCS > 1; report it
			// so single-core results are not misread as "lag does nothing".
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// wideTopologyWorkload builds the topology-scale sweep workload: the node
// count grows into the ten-thousands while the sensor population, the
// subscription population and the trace stay fixed, so what the benchmark
// scales is the engine's cost of carrying a wide topology — execution
// contexts, wakeups, scheduler churn — not the traffic itself.
func wideTopologyWorkload(b *testing.B, nodes int) (*experiment.Workload, [][]netsim.Publication, int) {
	b.Helper()
	s := experiment.Scenario{
		Name:           fmt.Sprintf("wide-topology-%d", nodes),
		TotalNodes:     nodes,
		SensorNodes:    32,
		Groups:         8,
		Batches:        1,
		BatchSize:      16,
		MinAttrs:       2,
		MaxAttrs:       4,
		RoundsPerBatch: 6,
		RoundInterval:  1800,
		Seed:           77,
	}
	w, err := experiment.BuildWorkload(s)
	if err != nil {
		b.Fatal(err)
	}
	replay := w.PublicationRounds(0)
	events := 0
	for _, round := range replay {
		events += len(round)
	}
	return w, replay, events
}

// BenchmarkReplayWideTopology sweeps the topology size under the concurrent
// engine. Unlike BenchmarkReplayWindowed, the engine lifecycle — construction,
// replay, Close — is deliberately inside the timed region: what a wide topology
// stresses is the per-node state the engine sets up and tears down
// (mailboxes, contexts, delivery shards) next to a worker pool whose size
// does not grow with it.
func BenchmarkReplayWideTopology(b *testing.B) {
	for _, nodes := range []int{1000, 4000, 16000} {
		w, replay, events := wideTopologyWorkload(b, nodes)
		b.Run(fmt.Sprintf("pooled/nodes=%d", nodes), func(b *testing.B) {
			factory, err := experiment.FactoryForSpec(experiment.FilterSplitForward, experiment.FactorySpec{
				Seed: w.Scenario.Seed + 7,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conc := netsim.NewConcurrentEngineWorkers(w.Deployment.Graph, factory, 0)
				for _, sensor := range w.Deployment.Sensors {
					if err := conc.AttachSensor(w.Deployment.SensorHost[sensor.ID], sensor); err != nil {
						b.Fatal(err)
					}
				}
				conc.Flush()
				for _, p := range w.Placed {
					if err := conc.SubscribeContext(context.Background(), p.Node, p.Sub.Clone()); err != nil {
						b.Fatal(err)
					}
				}
				conc.Flush()
				if err := conc.ReplayRounds(replay, netsim.ReplayOptions{Mode: netsim.Pipelined}); err != nil {
					b.Fatal(err)
				}
				conc.Flush()
				if n := conc.Metrics().DroppedMessages(); n != 0 {
					b.Fatalf("dropped %d messages", n)
				}
				conc.Close()
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// BenchmarkAdvertisementFlood measures set-up at width: Algorithm 1 floods
// every sensor's advertisement to every node, sensors × (nodes − 1) messages
// and as many table entries, which is what NewSystem spends its time and
// memory on once the topology is wide (nodes=4000 is the repository
// benchmark's replay-wide shape, 1000 sensors). The timed region is the
// sensor attachments and the flush that drains the flood, on the concurrent
// engine as NewSystem runs them; engine construction, the Trim NewSystem
// follows the flush with, and the forced GC behind live-MB — the heap the
// flooded network retains — sit outside it. events/sec counts advertisement
// messages. TestAdvertisementFloodRetainedHeap pins the retained bytes per
// message at nodes=1000.
func BenchmarkAdvertisementFlood(b *testing.B) {
	for _, nodes := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			dep, factory := floodDeployment(b, nodes)
			var live, messages int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				live, messages = floodOnce(b, dep, factory, b.StartTimer, b.StopTimer)
				b.StartTimer()
			}
			b.ReportMetric(float64(live)/(1<<20), "live-MB")
			b.ReportMetric(float64(messages)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// floodDeployment generates the flood's network — a sensor on every fourth
// node, twenty nodes to a group — and the Filter-Split-Forward factory.
func floodDeployment(tb testing.TB, nodes int) (*topology.Deployment, netsim.HandlerFactory) {
	tb.Helper()
	dep, err := topology.GenerateDeployment(topology.DeploymentConfig{
		TotalNodes: nodes, SensorNodes: nodes / 4, Groups: nodes / 20,
		Attributes: model.DefaultAttributes(), Seed: 77,
	})
	if err != nil {
		tb.Fatal(err)
	}
	factory, err := experiment.FactoryForSpec(experiment.FilterSplitForward, experiment.FactorySpec{Seed: 84})
	if err != nil {
		tb.Fatal(err)
	}
	return dep, factory
}

// floodOnce floods a fresh concurrent engine with the deployment's
// advertisements — the attachments and the flush run between start() and
// stop() — checks that sensors × (nodes − 1) advertisement messages were sent,
// and returns the heap the flooded, trimmed network retains after a forced GC
// together with that message count.
func floodOnce(tb testing.TB, dep *topology.Deployment, factory netsim.HandlerFactory, start, stop func()) (live, messages int64) {
	tb.Helper()
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	idle := runtime.NumGoroutine()
	before := liveHeap()
	conc := netsim.NewConcurrentEngineWorkers(dep.Graph, factory, 0)
	start()
	for _, sensor := range dep.Sensors {
		if err := conc.AttachSensor(dep.SensorHost[sensor.ID], sensor); err != nil {
			tb.Fatal(err)
		}
	}
	conc.Flush()
	stop()
	messages = int64(len(dep.Sensors)) * int64(dep.Graph.NumNodes()-1)
	if got := conc.Metrics().Snapshot().AdvertisementLoad; got != messages {
		tb.Fatalf("advertisement load %d, want %d", got, messages)
	}
	conc.Trim()
	live = liveHeap() - before
	conc.Close()
	// Close does not wait for the workers, and until they have exited they
	// keep this engine in the next heap reading.
	for runtime.NumGoroutine() > idle {
		runtime.Gosched()
	}
	return live, messages
}

// BenchmarkSubscriptionFlood measures bulk registration of large subscription
// populations. The stack variants flood a fresh Filter-Split-Forward network
// with n user subscriptions — full split-and-forward propagation, one
// injection at a time, the way the serving layer registers them — and then
// publish one probe event, which triggers the staged bottom-up build of the
// match indexes the flood populated (registration only stages; no tree is
// built until an event needs one). The index-bulk variant isolates the build
// itself on one index: it stages all n subscriptions and packs each tree
// bottom-up on the first lookup (stores.EventIndex.BulkLoad).
func BenchmarkSubscriptionFlood(b *testing.B) {
	// The full-stack flood pays the real protocol cost per registration,
	// including the subsumption scan over the arriving operator's
	// comparability class at every node on its path. This population has few
	// classes, so that scan still grows with it (10× the subscriptions cost
	// ~27× the time); 50k is reserved for -benchscale=full.
	stackSizes := []int{1000, 10000}
	if *benchScale == "full" {
		stackSizes = []int{1000, 10000, 50000}
	}
	w, _, _ := replayThroughputWorkload(b, *benchScale == "quick")
	for _, n := range stackSizes {
		subs, events := indexBenchPopulation(n)
		b.Run(fmt.Sprintf("stack/subs=%d", n), func(b *testing.B) {
			nodes := w.Deployment.Graph.NumNodes()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				factory, err := experiment.FactoryForSpec(experiment.FilterSplitForward, experiment.FactorySpec{
					Seed: w.Scenario.Seed + 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				engine := netsim.NewEngine(w.Deployment.Graph, factory)
				for _, sensor := range w.Deployment.Sensors {
					if err := engine.AttachSensor(w.Deployment.SensorHost[sensor.ID], sensor); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for j, sub := range subs {
					if err := engine.SubscribeContext(context.Background(), topology.NodeID(j%nodes), sub); err != nil {
						b.Fatal(err)
					}
				}
				if err := engine.PublishContext(context.Background(), 0, events[0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(subs))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
	for _, n := range []int{1000, 10000, 50000} {
		subs, events := indexBenchPopulation(n)
		probe := events[0]
		b.Run(fmt.Sprintf("index-bulk/subs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx := stores.NewEventIndex()
				idx.BulkLoad(subs)
				idx.Candidates(probe, func(*model.Subscription) bool { return true })
			}
		})
	}
}

// BenchmarkReplaySteadyState measures the steady state of a long-lived
// windowed replay on the sequential engine: a pre-warmed subscription
// population and the same round-structured trace replayed per iteration
// under Windowed delivery (lag 2), with timestamps shifted forward one full
// trace span — a seamless continuation of the stream, with the window pruning
// old rounds as new ones arrive. Sequence numbers are deliberately reused so the
// per-subscription delivered-sequence sets stay at their steady-state size
// (the window dedups on (time, seq), so shifted reuses are new events to it).
// After warm-up, Engine.Preallocate sizes the delivery log, its
// per-subscription index and the per-node delivery arenas for the whole
// measured run, so the timed region performs zero heap allocations —
// TestReplaySteadyStateAllocatesNothing holds it to exactly that.
func BenchmarkReplaySteadyState(b *testing.B) {
	eng, replayOnce, events := steadyStateReplay(b, *benchScale == "quick")
	eng.Preallocate(b.N + 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayOnce()
	}
	b.StopTimer()
	if n := eng.Metrics().DroppedMessages(); n != 0 {
		b.Fatalf("dropped %d messages", n)
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// steadyStateReplay builds the steady-state replay: a sequential
// Filter-Split-Forward engine over the replay-throughput workload, warmed up
// to its allocation fixed point. replayOnce replays the trace once under
// Windowed{Lag: 2} and shifts it forward one trace span; the caller sizes the
// delivery record for the replays it is going to measure (Engine.Preallocate).
func steadyStateReplay(tb testing.TB, quick bool) (eng *netsim.Engine, replayOnce func(), events int) {
	tb.Helper()
	w, replay, events := replayThroughputWorkload(tb, quick)
	opts := netsim.ReplayOptions{Mode: netsim.Windowed, Lag: 2}
	factory, err := experiment.FactoryForSpec(experiment.FilterSplitForward, experiment.FactorySpec{
		Seed:           w.Scenario.Seed + 7,
		ValidityFactor: netsim.RequiredValidityFactor(opts.Mode, opts.Lag),
	})
	if err != nil {
		tb.Fatal(err)
	}
	eng = netsim.NewEngine(w.Deployment.Graph, factory)
	for _, sensor := range w.Deployment.Sensors {
		if err := eng.AttachSensor(w.Deployment.SensorHost[sensor.ID], sensor); err != nil {
			tb.Fatal(err)
		}
	}
	for _, p := range w.Placed {
		if err := eng.SubscribeContext(context.Background(), p.Node, p.Sub.Clone()); err != nil {
			tb.Fatal(err)
		}
	}
	shift := model.Timestamp(len(replay)) * w.Scenario.RoundInterval
	replayOnce = func() {
		if err := eng.ReplayRounds(replay, opts); err != nil {
			tb.Fatal(err)
		}
		for _, round := range replay {
			for i := range round {
				round[i].Event.Time += shift
			}
		}
	}
	// Warm up to the allocation fixed point: the first replays populate the
	// lazy structures (staged index builds, dedup-key interning, scratch
	// buffers, queue backing storage) and ratchet the recycled buffers —
	// window sent-lists, free lists, per-node scratch — up to their
	// steady-state high-water marks. Capacity growth tails off over several
	// replays rather than stopping after one, so the warm-up measures itself:
	// it stops only after a whole replay completes without a single heap
	// allocation, which is the state the callers are meant to measure.
	var ms runtime.MemStats
	for k := 0; k < 64; k++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		replayOnce()
		runtime.ReadMemStats(&ms)
		if k >= 2 && ms.Mallocs == before {
			break
		}
	}
	return eng, replayOnce, events
}

// BenchmarkAggregateReplay measures the windowed aggregation data path on the
// sequential engine over the wide replay topology: one continuous median
// query, the full round-structured trace, every window closed by the
// watermark. The in-network variant merges q-digest partials up the
// dissemination tree (one partial per tree edge per window); the ship-all
// variant is the Exact baseline that relays every matching reading hop by hop
// to the subscriber and aggregates there. events/sec is the replay
// throughput; msgs-up and bytes-up report each variant's upstream
// partial-aggregate traffic per replay, so the run itself shows the traffic
// gap the aggregation subsystem exists to open.
func BenchmarkAggregateReplay(b *testing.B) {
	w, replay, events := replayThroughputWorkload(b, *benchScale == "quick")
	attr := experiment.BusiestAttribute(w.Deployment)
	lo, hi := w.Trace.Mins[attr], w.Trace.Maxs[attr]
	if !(lo < hi) {
		lo, hi = lo-1, hi+1
	}
	bench := func(spec model.AggregateSpec) func(*testing.B) {
		return func(b *testing.B) {
			sub, err := model.NewAggregateSubscription("agg-bench",
				model.AttributeFilter{Attr: attr, Range: NewInterval(lo, hi)}, Everywhere(), spec)
			if err != nil {
				b.Fatal(err)
			}
			var load, bytes int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				factory, err := experiment.FactoryForSpec(experiment.FilterSplitForward, experiment.FactorySpec{
					Seed: w.Scenario.Seed + 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				eng := netsim.NewEngine(w.Deployment.Graph, factory)
				for _, sensor := range w.Deployment.Sensors {
					if err := eng.AttachSensor(w.Deployment.SensorHost[sensor.ID], sensor); err != nil {
						b.Fatal(err)
					}
				}
				eng.Flush()
				if err := eng.SubscribeContext(context.Background(), 0, sub.Clone()); err != nil {
					b.Fatal(err)
				}
				eng.Flush()
				b.StartTimer()
				if err := eng.ReplayRounds(replay, netsim.ReplayOptions{Mode: netsim.Quiescent}); err != nil {
					b.Fatal(err)
				}
				eng.Flush()
				b.StopTimer()
				if n := eng.Metrics().DroppedMessages(); n != 0 {
					b.Fatalf("dropped %d messages", n)
				}
				load = eng.Metrics().Snapshot().PartialAggregateLoad
				bytes = eng.Metrics().Snapshot().PartialAggregateBytes
				if load == 0 {
					b.Fatal("replay shipped no partial aggregates; the benchmark is vacuous")
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(float64(load), "msgs-up")
			b.ReportMetric(float64(bytes), "bytes-up")
		}
	}
	b.Run("in-network", bench(model.AggregateSpec{
		Func: agg.Quantile, WindowRounds: 2, Quantile: 0.5, Lo: lo, Hi: hi, Bits: 10, K: 32,
	}))
	b.Run("ship-all", bench(model.AggregateSpec{
		Func: agg.Quantile, WindowRounds: 2, Quantile: 0.5, Exact: true,
	}))
}

var qdigestBenchSink int64

// BenchmarkQDigestMerge measures the sketch primitive of the aggregation
// subsystem: merging a compressed child q-digest into an accumulating parent
// and re-compressing for the upstream ship — the per-node, per-window work a
// dissemination-tree hop performs. The compression parameter k trades sketch
// size for rank error (ε = Bits/k), so the two settings bound the cheap and
// the accurate end of the sweep the experiment runs.
func BenchmarkQDigestMerge(b *testing.B) {
	for _, k := range []int{16, 64} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			cfg := agg.Config{Func: agg.Quantile, Quantile: 0.5, Lo: 0, Hi: 4096, Bits: 12, K: k}
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
			// Deterministic pseudo-random readings from a bare LCG; the
			// bucket distribution is what drives compression cost.
			v := uint64(1)
			next := func() float64 {
				v = v*6364136223846793005 + 1442695040888963407
				return float64(v >> 52)
			}
			child := agg.NewQDigest(cfg)
			for i := 0; i < 4096; i++ {
				child.Add(next())
			}
			child.Compress()
			parent := agg.NewQDigest(cfg)
			for i := 0; i < 512; i++ {
				parent.Add(next())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parent.Merge(child)
				parent.Compress()
			}
			b.StopTimer()
			qdigestBenchSink = parent.Count()
		})
	}
}

// --- micro-benchmarks of the core building blocks ---

// BenchmarkSetCheckerSubsumed measures one set-filter decision against 50
// comparable members: "covered" is decided by the first member alone (the
// exact fast path), "union" by none of them, so the candidate's box is
// sampled to the end against the overlapping members. Either way the steady
// state allocates nothing — the checker's scratch is warm after one call
// (TestSetCheckerSubsumedAllocatesNothing).
func BenchmarkSetCheckerSubsumed(b *testing.B) {
	candidate, cases := setCheckerCases(b)
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			checker := subsume.NewSetChecker(0.02, 1)
			if !checker.Subsumed(candidate, bc.set) {
				b.Fatal("candidate not subsumed")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checker.Subsumed(candidate, bc.set)
			}
		})
	}
}

// setCheckerCase is one member set the set-checker candidate is decided
// against.
type setCheckerCase struct {
	name string
	set  []*model.Subscription
}

// setCheckerCases returns the candidate and its two 50-member sets: "covered"
// (nested boxes, the first of which covers the candidate alone) and "union"
// (overlapping strips of the wind range that cover it only together).
func setCheckerCases(tb testing.TB) (*model.Subscription, []setCheckerCase) {
	tb.Helper()
	sub := func(id string, temp, wind Interval) *model.Subscription {
		s, err := model.NewAbstractSubscription(model.SubscriptionID(id),
			[]model.AttributeFilter{
				{Attr: model.AmbientTemperature, Range: temp},
				{Attr: model.WindSpeed, Range: wind},
			},
			Everywhere(), 30, model.NoSpatialConstraint)
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	var nested, strips []*model.Subscription
	for i := 0; i < 50; i++ {
		lo := float64(i % 10)
		nested = append(nested, sub(fmt.Sprintf("s%d", i), NewInterval(-lo-5, lo+5), NewInterval(0, 10+lo)))
		strips = append(strips, sub(fmt.Sprintf("t%d", i), NewInterval(-5, 5), NewInterval(lo-0.5, lo+1.5)))
	}
	candidate := sub("cand", NewInterval(-3, 3), NewInterval(2, 8))
	return candidate, []setCheckerCase{{"covered", nested}, {"union", strips}}
}

// BenchmarkReexpose measures what one retraction costs at a node holding n
// operators of one origin: a single-node Filter-Split-Forward network (no
// sensors, so nothing is forwarded and the subscription table, the checker
// and the local match index are all that works) holds n/8 wide subscriptions,
// each covering seven narrow ones. The timed region is the retraction of one
// wide subscription, which re-exposes its seven; putting the eight back is
// untimed. With classes=1 every operator shares one comparability class, the
// worst case: gathering the affected operators and the seven decisions each
// scan that class once. With classes=16 the groups
// spread over sixteen correlation distances, and the cost follows the class,
// not n. The retraction allocates nothing (TestReexposeAllocatesNothing).
func BenchmarkReexpose(b *testing.B) {
	for _, bc := range []struct{ n, classes int }{{1000, 1}, {1000, 16}, {4000, 1}, {4000, 16}} {
		b.Run(fmt.Sprintf("subs=%d/classes=%d", bc.n, bc.classes), func(b *testing.B) {
			f := newReexposeFixture(b, bc.n, bc.classes)
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				g := i % len(f.groups)
				b.StartTimer()
				f.retract(b, g)
				b.StopTimer()
				f.restore(b, g)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// reexposeFixture is the single-node network of BenchmarkReexpose: groups of
// one wide subscription (index 0) covering reexposePerCover narrow ones.
type reexposeFixture struct {
	engine *netsim.Engine
	node   *core.Node
	groups [][]*model.Subscription
}

const reexposePerCover = 7

// newReexposeFixture registers n operators in n/8 groups spread over the
// given number of comparability classes, then retracts and restores a few
// groups, so scratch buffers and list capacities have reached their working
// size and the steady state allocates nothing.
func newReexposeFixture(tb testing.TB, n, classes int) *reexposeFixture {
	tb.Helper()
	factory, err := experiment.FactoryForSpec(experiment.FilterSplitForward, experiment.FactorySpec{Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	f := &reexposeFixture{
		engine: netsim.NewEngine(topology.NewGraph(1), factory),
		groups: make([][]*model.Subscription, n/(reexposePerCover+1)),
	}
	f.node = f.engine.Handler(0).(*core.Node)
	sub := func(id string, deltaT model.Timestamp, lo, hi float64) *model.Subscription {
		s, err := model.NewAbstractSubscription(model.SubscriptionID(id),
			[]model.AttributeFilter{{Attr: model.WindSpeed, Range: NewInterval(lo, hi)}},
			Everywhere(), deltaT, model.NoSpatialConstraint)
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	for g := range f.groups {
		lo, deltaT := float64(10*g), model.Timestamp(30+g%classes)
		f.groups[g] = append(f.groups[g], sub(fmt.Sprintf("wide%d", g), deltaT, lo, lo+8))
		for k := 0; k < reexposePerCover; k++ {
			f.groups[g] = append(f.groups[g], sub(fmt.Sprintf("narrow%d.%d", g, k), deltaT, lo+float64(k), lo+float64(k)+1))
		}
		f.register(tb, g)
	}
	for g := 0; g < 8; g++ {
		f.retract(tb, g)
		f.restore(tb, g)
	}
	return f
}

func (f *reexposeFixture) register(tb testing.TB, g int) {
	for _, s := range f.groups[g] {
		if err := f.engine.SubscribeContext(context.Background(), 0, s); err != nil {
			tb.Fatal(err)
		}
	}
}

// retract retracts a group's wide subscription, which re-exposes its narrow
// ones: the measured operation.
func (f *reexposeFixture) retract(tb testing.TB, g int) {
	if err := f.engine.Unsubscribe(0, f.groups[g][0].ID); err != nil {
		tb.Fatal(err)
	}
}

// restore puts a retracted group back as it was registered.
func (f *reexposeFixture) restore(tb testing.TB, g int) {
	tb.Helper()
	if got, want := len(f.node.Subscriptions(0).Covered()), (len(f.groups)-1)*reexposePerCover; got != want {
		tb.Fatalf("%d operators covered after the retraction, want %d", got, want)
	}
	for _, s := range f.groups[g][1:] {
		if err := f.engine.Unsubscribe(0, s.ID); err != nil {
			tb.Fatal(err)
		}
	}
	f.register(tb, g)
}

// BenchmarkComplexMatchGather is the complex-match layer on its own: one
// trigger against one W-event window stabbing C candidate operators — the
// work a node does per reading between the index lookup and the forwarding
// decision. The timed region holds only the partition of the window view and
// the C gather + enumeration passes (ns/op is ns per trigger); the window,
// the operators and the trigger are built outside it. The window holds the
// five attribute types round-robin, one reading per time unit, and every
// operator correlates three of them within ±W/2, with value ranges narrowed
// as W grows so that they admit two or three readings of a bucket — each
// pass walks two buckets, keeps a few candidates per slot and enumerates
// around ten matches at most, whatever W. The steady state allocates
// nothing: the scratch is warm after one trigger
// (TestComplexMatchGatherAllocatesNothing).
func BenchmarkComplexMatchGather(b *testing.B) {
	for _, bc := range []struct{ c, w int }{{1, 50}, {16, 50}, {64, 50}, {1, 300}, {16, 300}, {64, 300}} {
		b.Run(fmt.Sprintf("C=%d/W=%d", bc.c, bc.w), func(b *testing.B) {
			gather, matches := complexMatchGather(b, bc.c, bc.w)
			*matches = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gather()
			}
			b.ReportMetric(float64(*matches)/float64(b.N), "matches/op")
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// complexMatchGather builds a w-event window, its middle event as the
// trigger and c operators the trigger stabs, and returns the work of one
// trigger — partition the window, then gather and enumerate per operator —
// with the running count of enumerated matches. It has run once on return, so
// the scratch is warm.
func complexMatchGather(tb testing.TB, c, w int) (gather func(), matches *int) {
	tb.Helper()
	attrs := model.DefaultAttributes()
	window := make([]model.Event, w)
	for i := range window {
		window[i] = model.Event{
			Seq:      uint64(i + 1),
			Sensor:   model.SensorID(fmt.Sprintf("s%d", i%20)),
			Attr:     attrs[i%len(attrs)],
			Location: Point{X: float64(i % 7), Y: float64(i % 11)},
			Value:    float64(i * 7 % 50),
			Time:     model.Timestamp(i),
		}
	}
	trigger := window[w/2]
	width := 500 / float64(w)
	ops := make([]*model.Subscription, c)
	for k := range ops {
		// Every operator filters the trigger's attribute (around the
		// trigger's value, as the index guarantees) and the next two.
		filters := []model.AttributeFilter{{Attr: trigger.Attr, Range: NewInterval(trigger.Value-1, trigger.Value+1)}}
		for j := 1; j <= 2; j++ {
			lo := float64((k*13 + j*17) % 40)
			filters = append(filters, model.AttributeFilter{Attr: attrs[(w/2+j)%len(attrs)], Range: NewInterval(lo, lo+width)})
		}
		op, err := model.NewAbstractSubscription(model.SubscriptionID(fmt.Sprintf("op%d", k)),
			filters, Everywhere(), model.Timestamp(w/2), model.NoSpatialConstraint)
		if err != nil {
			tb.Fatal(err)
		}
		ops[k] = op
	}
	var scratch model.MatchScratch
	matches = new(int)
	gather = func() {
		scratch.Partition(window)
		for _, op := range ops {
			op.ForEachComplexMatchPartitioned(&scratch, &trigger, func(model.ComplexEvent) bool {
				*matches++
				return true
			})
		}
	}
	gather()
	if *matches == 0 {
		tb.Fatal("the operators complete no match")
	}
	return gather, matches
}
