package main

import (
	"fmt"
	"time"

	"sensorcq"
	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

var controlChurn = &workload{
	name:    "control-churn",
	why:     "the library control path: a 3000-subscription flood, then unsubscribe-oldest / subscribe-new pairs beside published rounds, so subsumption, split/forward, the tables and index writes do the work and matching does little",
	minCPUs: 1,
	gated: map[string]string{
		"throughput_per_s": "churn_ops_per_s",
		"latency_p50_ms":   "churn_pair_latency_p50_ms",
		"latency_p95_ms":   "churn_pair_latency_p95_ms",
	},
	run: runChurn,
}

var churnShape = shape{nodes: 120, sensors: 100, groups: 20, subs: 3000}

const (
	// churnBlock is how many (unsubscribe, subscribe) pairs run between two
	// published rounds.
	churnBlock = 100
	// churnStateBlock is the block after which state_mb and the traffic
	// counts are read: a fixed amount of work, whatever the machine's speed.
	churnStateBlock = 5
	// churnClosing rounds are published once the churn is over, always from
	// churnClosingDay whole days into the trace — past every run seed's
	// stretch — so event_load_per_event and recall are counted over the same
	// readings in every run; over a handful of rounds from wherever the churn
	// happened to stop, the count follows the hour of day (±12 %).
	churnClosing    = 12
	churnClosingDay = seedDays + 6
	churnSetUps     = 9
	// churnSinkBuffer is the push-channel capacity per subscription: the
	// daemon's default rather than the library's 1024, whose 64 KiB channel
	// per handle would make the heap a measure of channel buffers.
	churnSinkBuffer = 64
)

// liveSub is one registered subscription awaiting its turn to be retracted.
type liveSub struct {
	node topology.NodeID
	sub  *model.Subscription
}

// churnRun is what one pass over the control workload measured.
type churnRun struct {
	register, subscribe, unsubscribe, pair samples
	floodSpan                              time.Duration
	blockRates                             []float64 // control calls per second, per block
	readings, registered                   int
	closing                                [][]model.Event
	survivors                              []*model.Subscription
	retiredAt                              map[model.SubscriptionID]int
	stateHeap                              uint64
	// atState is the traffic, and registeredAtState the subscriptions
	// registered, when stateHeap was read.
	atState           traffic
	registeredAtState int
	// closingLoad is the forwarded data units per reading of the closing
	// rounds.
	closingLoad float64
	// span sums the timed calls into the network: control calls and replays.
	span time.Duration
}

// churn drives the control workload on a freshly built network until the
// budget is spent.
func churn(net network, in *inputs, budget time.Duration) (*churnRun, error) {
	run := &churnRun{retiredAt: map[model.SubscriptionID]int{}}
	src, err := in.rounds()
	if err != nil {
		return nil, err
	}
	fresh, err := sensorcq.NewWorkloadStream(in.dep, in.stats, roundInterval, sensorcq.WorkloadConfig{
		Count: 1 << 40, MinAttrs: 3, MaxAttrs: 5, DeltaT: roundInterval, Seed: in.shapeSeed + 3, IDPrefix: "r",
	})
	if err != nil {
		return nil, err
	}
	publishedRounds := 0
	publish := func(src *roundSource, n int, keep bool) error {
		rounds := src.next(n, keep)
		if keep {
			run.closing = rounds
		}
		publishedRounds += n
		run.readings += countReadings(rounds)
		t0 := time.Now()
		err := net.replay(rounds)
		run.span += time.Since(t0)
		return err
	}

	start := time.Now()
	live := make([]liveSub, 0, len(in.placed))
	for _, p := range in.placed {
		sub := p.Sub.Clone()
		t0 := time.Now()
		if err := net.subscribe(p.Node, sub); err != nil {
			return nil, fmt.Errorf("subscribing %s: %w", sub.ID, err)
		}
		run.register.add(time.Since(t0))
		live = append(live, liveSub{p.Node, sub})
	}
	run.floodSpan = time.Since(start)
	run.span += run.floodSpan
	run.registered = len(live)
	if err := publish(src, 1, false); err != nil {
		return nil, err
	}

	for block := 1; ; block++ {
		// Draw the block's new subscriptions before its clock starts.
		incoming := make([]liveSub, 0, churnBlock)
		for len(incoming) < churnBlock && fresh.Next() {
			p := fresh.Placed()
			incoming = append(incoming, liveSub{p.Node, p.Sub})
		}
		if err := fresh.Err(); err != nil {
			return nil, err
		}
		blockStart := time.Now()
		for _, next := range incoming {
			oldest := live[0]
			live = live[1:]
			t0 := time.Now()
			if err := net.unsubscribe(oldest.node, oldest.sub.ID); err != nil {
				return nil, fmt.Errorf("unsubscribing %s: %w", oldest.sub.ID, err)
			}
			t1 := time.Now()
			if err := net.subscribe(next.node, next.sub); err != nil {
				return nil, fmt.Errorf("subscribing %s: %w", next.sub.ID, err)
			}
			t2 := time.Now()
			run.unsubscribe.add(t1.Sub(t0))
			run.subscribe.add(t2.Sub(t1))
			run.pair.add(t2.Sub(t0))
			run.span += t2.Sub(t0)
			run.retiredAt[oldest.sub.ID] = publishedRounds
			live = append(live, next)
		}
		run.registered += len(incoming)
		if err := publish(src, 1, false); err != nil {
			return nil, err
		}
		run.blockRates = append(run.blockRates, float64(2*len(incoming))/time.Since(blockStart).Seconds())
		spent := time.Since(start) >= budget
		if block == churnStateBlock || (spent && run.stateHeap == 0) {
			run.stateHeap = liveHeap()
			run.atState, run.registeredAtState = net.traffic(), run.registered
		}
		if spent {
			break
		}
	}
	closing, err := in.roundsFrom(churnClosingDay)
	if err != nil {
		return nil, err
	}
	beforeClosing, readings := net.traffic(), run.readings
	if err := publish(closing, churnClosing, true); err != nil {
		return nil, err
	}
	run.closingLoad = float64(net.traffic().minus(beforeClosing).event) / float64(run.readings-readings)
	for _, l := range live {
		run.survivors = append(run.survivors, l.sub)
	}
	return run, nil
}

func (r *churnRun) rate() float64 { return median(r.blockRates) }

func runChurn(w *workload, rc *runContext) (*workloadReport, error) {
	rep := newWorkloadReport(w)
	var t tally

	type instance struct {
		in        *inputs
		net       *systemNet
		newSystem time.Duration
	}
	inst, heapBefore, setUps, err := repeatSetUp(churnSetUps, func() (*instance, error) {
		in, err := generateInputs(churnShape, rc.shapeSeed, rc.seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		net, err := newSystemNet(in, engineConfig{}, sensorcq.WithSinkBuffer(churnSinkBuffer))
		return &instance{in, net, time.Since(start)}, err
	}, func(i *instance) { i.net.close() })
	if err != nil {
		return nil, err
	}
	in, net := inst.in, inst.net
	defer net.close()

	budget := rc.budget
	if rc.trace {
		budget = rc.budget * 2 / 5
	}
	run, err := churn(net, in, budget)
	if err != nil {
		return nil, err
	}
	total := net.traffic()
	deliveries := net.deliveries()

	// Checks. Every control call returned nil, or churn would have failed.
	calls := len(run.register) + len(run.subscribe) + len(run.unsubscribe)
	t.attempted += int64(calls + run.readings)
	t.expect("no dropped messages", net.dropped(), fmt.Sprintf("%d control calls, %d readings", calls, run.readings))
	var late int64
	for _, d := range deliveries {
		if retired, ok := run.retiredAt[d.SubID]; ok && d.Round > retired {
			late++
		}
	}
	t.expect("nothing delivered after retraction", late, fmt.Sprintf("%d retracted subscriptions, %d deliveries", len(run.retiredAt), len(deliveries)))
	recall, expected := recallSample(run.survivors, run.closing, net.deliveredSeqs)
	t.expectRecall(recall, expected, "pairs of the surviving population in the closing rounds")

	e := rep.EndToEnd
	e.setN("setup_s", median(setUps)/1e3, "s", len(setUps))
	e.setN("register_per_s", float64(len(run.register))/run.floodSpan.Seconds(), "1/s", len(run.register))
	e.setN("churn_ops_per_s", run.rate(), "1/s", len(run.blockRates))
	pair := rep.addTiming("churn_pair_latency", run.pair)
	e.setN("churn_pair_latency_p50_ms", pair.P50, "ms", pair.N)
	e.setN("churn_pair_latency_p95_ms", percentile(run.pair.sorted(), 95), "ms", pair.N)
	control := append(append(samples{}, run.subscribe...), run.unsubscribe...)
	e.setN("control_latency_p99_ms", percentile(control.sorted(), 99), "ms", len(control))
	e.set("event_load_per_event", run.closingLoad, "count")
	e.set("subscription_load_per_query", float64(run.atState.subscription)/float64(run.registeredAtState), "count")
	e.set("recall", recall, "ratio")
	e.set("state_mb", stateMB(run.stateHeap, heapBefore), "MB")
	rep.addTiming("setup", setUps)
	rep.addTiming("register", run.register)
	rep.addTiming("subscribe", run.subscribe)
	rep.addTiming("unsubscribe", run.unsubscribe)
	rep.addTiming("control_latency", control)
	rep.finish(&t)
	if !rc.trace {
		return rep, nil
	}

	layers := metrics{}
	facadeLayers(layers, net.sys)
	net.close()
	bare, _, err := churnEnginePass(rc, nil, rc.budget/5)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(in.dep.Graph.NumNodes())
	traced, setUp, err := churnEnginePass(rc, rec, rc.budget*2/5)
	if err != nil {
		return nil, err
	}
	engineLayers(layers, traced.span.Seconds(), rec.busyTotal().Seconds())
	// Control calls outnumber readings here, so allocations are per operation
	// of either kind.
	bareOps := len(bare.register) + len(bare.subscribe) + len(bare.unsubscribe) + bare.readings
	layers.set("netsim.allocs_per_event", float64(bare.mallocs)/float64(bareOps), "count")
	layers.set("trace.overhead_ratio", bare.rate()/traced.rate(), "ratio")
	layers.set("sensorcq.system_overhead_share", 1-run.rate()/bare.rate(), "ratio")
	handlerLayers(layers, rec, setUp)
	trafficLayers(layers, total.subscription, total.unsubscription, total.event, len(deliveries), net.dropped())
	generatorLayers(layers, in, inst.newSystem)
	layers.setN("sensorcq.subscribe_p50_us", 1e3*run.subscribe.timing().P50, "us", len(run.subscribe))
	layers.setN("sensorcq.unsubscribe_p50_us", 1e3*run.unsubscribe.timing().P50, "us", len(run.unsubscribe))
	runProbes(layers, in, run.closing, deliveries)
	rep.PerLayer = layers
	rep.SpansFile, err = writeSpans(rc.outDir, w.name, rec.spans())
	return rep, err
}

// churnPass is one pass of the control workload on a bare engine.
type churnPass struct {
	*churnRun
	mallocs uint64
}

func churnEnginePass(rc *runContext, rec *recorder, budget time.Duration) (*churnPass, *recorder, error) {
	in, err := generateInputs(churnShape, rc.shapeSeed, rc.seed)
	if err != nil {
		return nil, nil, err
	}
	net, err := newEngineNet(in, engineConfig{}, rec)
	if err != nil {
		return nil, nil, err
	}
	defer net.close()
	setUp := rec.endSetUp()
	before := mallocs()
	run, err := churn(net, in, budget)
	if err != nil {
		return nil, nil, err
	}
	return &churnPass{churnRun: run, mallocs: mallocs() - before}, setUp, nil
}
