package main

import (
	"fmt"
	"time"

	"sensorcq"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/stores"
)

var replayGated = map[string]string{
	"throughput_per_s": "replay_events_per_s",
	"latency_p50_ms":   "round_latency_p50_ms",
	"latency_p95_ms":   "round_latency_p95_ms",
}

var replayDense = &workload{
	name:    "replay-dense",
	why:     "the paper's setting on the sequential engine with quiescent delivery: 1000 subscriptions over 100 sensors, so matching, index and window work dominate and the engine does little",
	minCPUs: 1,
	gated:   replayGated,
	run: func(w *workload, rc *runContext) (*workloadReport, error) {
		return runReplay(w, rc, replaySpec{
			shape:         shape{nodes: 120, sensors: 100, groups: 20, subs: 1000},
			roundsPerCall: 1,
			setUps:        5,
			stateDay:      2,
		})
	},
}

var replayWide = &workload{
	name:    "replay-wide",
	why:     "little protocol work per reading spread over 4000 nodes on the 2-worker work-stealing engine with windowed delivery, so injection, mailboxes, run deques and watermarks take their largest share",
	minCPUs: 2,
	gated:   replayGated,
	run: func(w *workload, rc *runContext) (*workloadReport, error) {
		return runReplay(w, rc, replaySpec{
			shape:         shape{nodes: 4000, sensors: 1000, groups: 200, subs: 100},
			engine:        engineConfig{concurrent: true, workers: 2, delivery: netsim.Windowed, lag: 2},
			roundsPerCall: roundsPerDay,
			setUps:        3,
			stateDay:      checkDays,
		})
	},
}

// replaySpec parameterises the two replay workloads.
type replaySpec struct {
	shape  shape
	engine engineConfig
	// roundsPerCall is how many rounds one ReplayRounds call carries. One
	// round per call times every round on its own; a whole day per call
	// lets a windowed replay overlap rounds.
	roundsPerCall int
	// setUps is how often set-up is repeated for setup_s.
	setUps int
	// stateDay is the day after which state_mb is read: a fixed amount of
	// work, so a faster program does not look like a bigger one.
	stateDay int
}

// checkDays is how many leading days are kept for the reference comparison
// and the recall sample.
const checkDays = 1

// replayInstance is one set-up network with its inputs.
type replayInstance struct {
	in        *inputs
	net       network
	newSystem time.Duration
	subscribe samples // per registration
}

// setUpReplay generates the inputs, builds the network and registers the
// whole subscription population.
func setUpReplay(rc *runContext, sh shape, build func(*inputs) (network, error)) (*replayInstance, error) {
	in, err := generateInputs(sh, rc.shapeSeed, rc.seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	net, err := build(in)
	if err != nil {
		return nil, err
	}
	inst := &replayInstance{in: in, net: net, newSystem: time.Since(start)}
	for _, p := range in.placed {
		start := time.Now()
		if err := net.subscribe(p.Node, p.Sub.Clone()); err != nil {
			net.close()
			return nil, fmt.Errorf("subscribing %s: %w", p.Sub.ID, err)
		}
		inst.subscribe.add(time.Since(start))
	}
	return inst, nil
}

// replayRun is what one timed replay loop measured.
type replayRun struct {
	dayRates []float64 // readings per second of replay span, per whole day
	rounds   samples   // time to fully propagate one round
	span     time.Duration
	readings int
	days     int
	// firstDays holds the rounds of the leading checkDays days.
	firstDays [][]model.Event
	// afterFirstDays is the traffic once those days were fully replayed.
	afterFirstDays traffic
	stateHeap      uint64
}

// replayDays replays whole days from src until the budget is spent, timing
// only the replay calls: generating the next day's readings is the load
// generator's work and stays outside the span.
func replayDays(net network, src *roundSource, perCall, stateDay int, budget time.Duration) (*replayRun, error) {
	run := &replayRun{}
	start := time.Now()
	for {
		run.days++
		keep := run.days <= checkDays
		day := src.next(roundsPerDay, keep)
		if keep {
			run.firstDays = append(run.firstDays, day...)
		}
		var daySpan time.Duration
		for i := 0; i < len(day); i += perCall {
			t0 := time.Now()
			if err := net.replay(day[i : i+perCall]); err != nil {
				return nil, err
			}
			d := time.Since(t0)
			daySpan += d
			run.rounds.add(d / time.Duration(perCall))
		}
		n := countReadings(day)
		run.readings += n
		run.span += daySpan
		run.dayRates = append(run.dayRates, float64(n)/daySpan.Seconds())
		if run.days == checkDays {
			run.afterFirstDays = net.traffic()
		}
		spent := time.Since(start) >= budget
		if run.days == stateDay || (spent && run.stateHeap == 0) {
			run.stateHeap = liveHeap()
		}
		if spent {
			return run, nil
		}
	}
}

func (r *replayRun) rate() float64 { return median(r.dayRates) }

func runReplay(w *workload, rc *runContext, spec replaySpec) (*workloadReport, error) {
	rep := newWorkloadReport(w)
	var t tally
	layers := metrics{}

	// A workload on the concurrent engine is checked against the sequential
	// quiescent schedule over the leading days: same per-round delivery
	// multisets, same traffic. (The sequential workload is that schedule.)
	var refKeys []string
	var refTraffic traffic
	var refState float64
	if spec.engine.concurrent {
		start := time.Now()
		refBefore := liveHeap()
		ref, err := setUpReplay(rc, spec.shape, func(in *inputs) (network, error) {
			return newSystemNet(in, engineConfig{}, sensorcq.WithSinkBuffer(0))
		})
		if err != nil {
			return nil, err
		}
		src, err := ref.in.rounds()
		if err != nil {
			return nil, err
		}
		before := ref.net.traffic()
		if err := ref.net.replay(src.next(checkDays*roundsPerDay, true)); err != nil {
			return nil, err
		}
		refTraffic = ref.net.traffic().minus(before)
		refKeys = keysOf(ref.net.deliveries(), 0)
		refState = stateMB(liveHeap(), refBefore)
		ref.net.close()
		layers.set("bench.reference_run_s", time.Since(start).Seconds(), "s")
	}

	systemBudget := rc.budget
	if rc.trace {
		systemBudget = rc.budget * 2 / 5
	}
	inst, heapBefore, setUps, err := repeatSetUp(spec.setUps, func() (*replayInstance, error) {
		return setUpReplay(rc, spec.shape, func(in *inputs) (network, error) {
			return newSystemNet(in, spec.engine, sensorcq.WithSinkBuffer(0))
		})
	}, func(i *replayInstance) { i.net.close() })
	if err != nil {
		return nil, err
	}
	in, net := inst.in, inst.net
	registered := net.traffic()
	src, err := in.rounds()
	if err != nil {
		net.close()
		return nil, err
	}
	run, err := replayDays(net, src, spec.roundsPerCall, spec.stateDay, systemBudget)
	if err != nil {
		net.close()
		return nil, err
	}
	published := net.traffic().minus(registered)

	// Checks.
	t.attempted += int64(run.readings)
	t.expect("no dropped messages", net.dropped(), fmt.Sprintf("%d readings published", run.readings))
	deliveries := net.deliveries()
	if spec.engine.concurrent {
		t.expectSameDeliveries("deliveries equal sequential quiescent run", keysOf(deliveries, checkDays*roundsPerDay), refKeys)
		var diff int64
		if got := run.afterFirstDays.minus(registered); got.event != refTraffic.event {
			diff = 1
		}
		t.expect("traffic equals sequential quiescent run", diff, fmt.Sprintf("%d forwarded data units over the first %d rounds", refTraffic.event, checkDays*roundsPerDay))
	}
	subs := make([]*model.Subscription, len(in.placed))
	for i, p := range in.placed {
		subs[i] = p.Sub
	}
	recall, expected := recallSample(subs, run.firstDays, net.deliveredSeqs)
	t.expectRecall(recall, expected, "(subscription, reading) pairs")

	// End-to-end metrics.
	e := rep.EndToEnd
	e.setN("setup_s", median(setUps)/1e3, "s", len(setUps))
	e.setN("replay_events_per_s", run.rate(), "1/s", len(run.dayRates))
	rounds := rep.addTiming("round_latency", run.rounds)
	e.setN("round_latency_p50_ms", rounds.P50, "ms", rounds.N)
	e.setN("round_latency_p95_ms", percentile(run.rounds.sorted(), 95), "ms", rounds.N)
	e.set("event_load_per_event", float64(published.event)/float64(run.readings), "count")
	e.set("subscription_load_per_query", float64(registered.subscription)/float64(len(in.placed)), "count")
	e.set("recall", recall, "ratio")
	// The work-stealing engine keeps its mailbox and deque buffers at their
	// high-water marks, which depend on how the advertisement flood happened
	// to be scheduled: the same set-up retains anything between 1.1 and
	// 1.6 GB. state_mb is therefore read off the sequential reference of the
	// same network at the same point, and the difference is a layer metric.
	state := stateMB(run.stateHeap, heapBefore)
	if spec.engine.concurrent {
		layers.set("netsim.scheduler_state_mb", state-refState, "MB")
		state = refState
	}
	e.set("state_mb", state, "MB")
	rep.addTiming("setup", setUps)
	rep.finish(&t)
	facadeLayers(layers, net.(*systemNet).sys)
	dropped := net.dropped()
	net.close()
	if !rc.trace {
		return rep, nil
	}

	// Traced run: the same stretch of the trace on bare engines, first with
	// the approach's own handlers, then with the tracing handler around them.
	// The facade's network is dropped first, so the passes do not collect
	// garbage on its behalf.
	newSystem, subscribe := inst.newSystem, inst.subscribe
	inst, net = nil, nil
	bare, err := replayEnginePass(rc, spec, spec.engine, nil, rc.budget/5)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(in.dep.Graph.NumNodes())
	traced, err := replayEnginePass(rc, spec, spec.engine, rec, rc.budget*2/5)
	if err != nil {
		return nil, err
	}
	workers := 1
	if spec.engine.concurrent {
		workers = spec.engine.workers
		seq := spec.engine
		seq.concurrent, seq.workers = false, 0
		baseline, err := replayEnginePass(rc, spec, seq, nil, rc.budget/5)
		if err != nil {
			return nil, err
		}
		layers.set("netsim.parallel_speedup", bare.run.rate()/baseline.run.rate(), "ratio")
	}
	engineLayers(layers, traced.run.span.Seconds()*float64(workers), rec.busyTotal().Seconds())
	layers.set("netsim.allocs_per_event", float64(bare.mallocs)/float64(bare.run.readings), "count")
	layers.set("trace.overhead_ratio", bare.run.rate()/traced.run.rate(), "ratio")
	layers.set("sensorcq.system_overhead_share", 1-run.rate()/bare.run.rate(), "ratio")
	handlerLayers(layers, rec, traced.setUp)
	trafficLayers(layers, registered.subscription, 0, published.event, len(deliveries), dropped)
	generatorLayers(layers, in, newSystem)
	layers.setN("sensorcq.subscribe_p50_us", 1e3*subscribe.timing().P50, "us", len(subscribe))
	runProbes(layers, in, run.firstDays, deliveries)
	rep.PerLayer = layers
	rep.SpansFile, err = writeSpans(rc.outDir, w.name, rec.spans())
	return rep, err
}

// enginePass is one replay of the workload on a bare netsim engine.
type enginePass struct {
	run     *replayRun
	mallocs uint64
	// setUp holds the handler totals of set-up (advertisement flood and
	// registrations) of a traced pass.
	setUp *recorder
}

func replayEnginePass(rc *runContext, spec replaySpec, engine engineConfig, rec *recorder, budget time.Duration) (*enginePass, error) {
	inst, err := setUpReplay(rc, spec.shape, func(in *inputs) (network, error) {
		return newEngineNet(in, engine, rec)
	})
	if err != nil {
		return nil, err
	}
	defer inst.net.close()
	pass := &enginePass{setUp: rec.endSetUp()}
	src, err := inst.in.rounds()
	if err != nil {
		return nil, err
	}
	before := mallocs()
	pass.run, err = replayDays(inst.net, src, spec.roundsPerCall, spec.stateDay, budget)
	pass.mallocs = mallocs() - before
	return pass, err
}

// handlerLayers reports the handler spans of a traced pass: the event and
// control handlers from the timed region, the advertisement flood from
// set-up.
func handlerLayers(layers metrics, timed, setUp *recorder) {
	for _, o := range []op{opLocalPublish, opHandleEvent, opHandleSubscription, opHandleUnsubscription} {
		calls, busy := timed.opTotals(o)
		if o == opHandleSubscription || o == opHandleUnsubscription {
			c, b := setUp.opTotals(o)
			calls, busy = calls+c, busy+b
		}
		layers.set("core."+opNames[o]+".busy_s", busy.Seconds(), "s")
		layers.set("core."+opNames[o]+".calls", float64(calls), "count")
	}
	hist := timed.eventHistogram()
	layers.setN("core.handle_event.p99_us", float64(hist.quantile(99))/1e3, "us", int(hist.count()))
	_, adv := setUp.opTotals(opHandleAdvertisement)
	layers.set("core.handle_advertisement.busy_s", adv.Seconds(), "s")
}

// engineLayers splits an engine's capacity — its timed span times the
// goroutines that run handlers — into the time inside handler spans and the
// rest: dispatch, queues, scheduling and, on the concurrent engine, workers
// waiting for work.
func engineLayers(layers metrics, capacity, busy float64) {
	layers.set("netsim.self_s", capacity-busy, "s")
	layers.set("netsim.self_share", (capacity-busy)/capacity, "ratio")
	layers.set("netsim.worker_busy_share", busy/capacity, "ratio")
}

func trafficLayers(layers metrics, subscription, unsubscription, event int64, deliveries int, dropped int64) {
	layers.set("netsim.subscription_load", float64(subscription), "count")
	layers.set("netsim.unsubscription_load", float64(unsubscription), "count")
	layers.set("netsim.event_load", float64(event), "count")
	layers.set("netsim.deliveries", float64(deliveries), "count")
	layers.set("netsim.dropped_messages", float64(dropped), "count")
}

func generatorLayers(layers metrics, in *inputs, newSystem time.Duration) {
	layers.set("topology.generate_s", in.topologyGen.Seconds(), "s")
	layers.set("dataset.generate_s", in.datasetGen.Seconds(), "s")
	layers.set("workload.generate_s", in.workloadGen.Seconds(), "s")
	layers.set("sensorcq.new_system_s", newSystem.Seconds(), "s")
}

// indexLayers reports how many candidates the run's own match indexes
// handed out per lookup.
func indexLayers(layers metrics, st stores.IndexStats) {
	layers.setN("stores.index.candidates_per_lookup", float64(st.Candidates)/float64(max(st.Lookups, 1)), "count", int(st.Lookups))
}

// facadeLayers reads what only the facade knows off a System: the push
// counters of its live subscription handles and its index statistics.
func facadeLayers(layers metrics, sys *sensorcq.System) {
	indexLayers(layers, sys.IndexStats())
	var delivered, dropped int64
	for _, h := range sys.Handles() {
		delivered += h.Delivered()
		dropped += h.DroppedPushes()
	}
	layers.set("sensorcq.handle.delivered", float64(delivered), "count")
	layers.set("sensorcq.handle.dropped_pushes", float64(dropped), "count")
}
