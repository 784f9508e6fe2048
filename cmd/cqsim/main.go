// Command cqsim runs a single simulation: one deployment, one approach, a
// generated workload and trace, and prints the resulting traffic counters
// and deliveries. It is the quickest way to poke at one configuration
// without running the whole experiment matrix.
//
// Usage:
//
//	cqsim -approach filter-split-forward -nodes 60 -sensors 50 -groups 10 \
//	      -subs 200 -rounds 12
//	cqsim -concurrent -delivery pipelined        # parallel round-by-round replay
//	cqsim -concurrent -delivery windowed -lag 2  # overlap up to 3 rounds in flight
//	cqsim -agg quantile -agg-window 4 -agg-k 32  # add a windowed aggregate query
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sensorcq"
	"sensorcq/internal/engineflags"
	"sensorcq/internal/experiment"
)

func main() {
	var (
		approach = flag.String("approach", string(sensorcq.FilterSplitForward),
			"approach: centralized, naive, operator-placement, distributed-multi-join or filter-split-forward")
		nodes    = flag.Int("nodes", 60, "total processing nodes")
		sensors  = flag.Int("sensors", 50, "sensor nodes")
		groups   = flag.Int("groups", 10, "sensor groups (base stations)")
		subs     = flag.Int("subs", 200, "number of subscriptions")
		minAttrs = flag.Int("min-attrs", 3, "minimum attributes per subscription")
		maxAttrs = flag.Int("max-attrs", 5, "maximum attributes per subscription")
		rounds   = flag.Int("rounds", 12, "measurement rounds to replay")
		seed     = flag.Int64("seed", 1, "random seed")
		eng      = engineflags.Register(flag.CommandLine)
		churn    = flag.Float64("churn", 0,
			"fraction of subscriptions to unsubscribe halfway through the replay (0..1); exercises the retraction path and prints the traffic it saves")
		indexStats = flag.Bool("indexstats", false,
			"print the aggregate shape and lookup cost of the network's match indexes after the replay")
		aggFunc = flag.String("agg", "",
			"also register one windowed aggregate query with this function (count, sum, min, max, mean or quantile) over the deployment's busiest attribute")
		aggWindow   = flag.Int("agg-window", 4, "tumbling window width in rounds of the -agg query")
		aggQuantile = flag.Float64("agg-quantile", 0.5, "rank fraction of the -agg quantile query")
		aggBits     = flag.Uint("agg-bits", 12, "log2 of the q-digest bucket count of the -agg quantile query")
		aggK        = flag.Int("agg-k", 32, "q-digest compression parameter of the -agg quantile query (ε = bits/k)")
		aggExact    = flag.Bool("agg-exact", false,
			"run the -agg query with the exact ship-every-reading baseline instead of in-network sketch merging")
	)
	flag.Parse()

	if err := eng.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if *churn < 0 || *churn > 1 {
		fmt.Fprintf(os.Stderr, "invalid -churn %g: it must be in [0,1]\n", *churn)
		flag.Usage()
		os.Exit(2)
	}
	agg := aggConfig{
		fn:       *aggFunc,
		window:   *aggWindow,
		quantile: *aggQuantile,
		bits:     *aggBits,
		k:        *aggK,
		exact:    *aggExact,
	}
	if err := run(*approach, *nodes, *sensors, *groups, *subs, *minAttrs, *maxAttrs, *rounds, *seed, eng.Concurrent, eng.Workers, eng.Delivery, eng.Lag, *churn, *indexStats, agg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// aggConfig bundles the -agg* flags.
type aggConfig struct {
	fn       string
	window   int
	quantile float64
	bits     uint
	k        int
	exact    bool
}

func run(approach string, nodes, sensors, groups, subs, minAttrs, maxAttrs, rounds int, seed int64, concurrent bool, workers int, mode sensorcq.DeliveryMode, lag int, churn float64, indexStats bool, agg aggConfig) error {
	dep, err := sensorcq.GenerateDeployment(sensorcq.DeploymentConfig{
		TotalNodes:  nodes,
		SensorNodes: sensors,
		Groups:      groups,
		Attributes:  sensorcq.DefaultAttributes(),
		Seed:        seed,
	})
	if err != nil {
		return err
	}
	trace, err := sensorcq.GenerateTrace(dep, sensorcq.TraceConfig{Rounds: rounds, Seed: seed + 1})
	if err != nil {
		return err
	}
	placed, err := sensorcq.GenerateWorkload(dep, trace, sensorcq.WorkloadConfig{
		Count:    subs,
		MinAttrs: minAttrs,
		MaxAttrs: maxAttrs,
		Seed:     seed + 2,
	})
	if err != nil {
		return err
	}

	sys, err := sensorcq.NewSystem(dep, sensorcq.Config{
		Approach:   sensorcq.Approach(approach),
		Seed:       seed,
		Concurrent: concurrent,
		Delivery:   mode,
		Lag:        lag,
		Workers:    workers,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	handles := make([]*sensorcq.SubscriptionHandle, 0, len(placed))
	for _, p := range placed {
		// The delivery channel is unused here (the counters and the pull
		// log are enough for a batch report), so disable it instead of
		// buffering deliveries nobody reads.
		h, err := sys.Subscribe(p.Node, p.Sub, sensorcq.WithSinkBuffer(0))
		if err != nil {
			return fmt.Errorf("subscribing %s: %w", p.Sub.ID, err)
		}
		handles = append(handles, h)
	}
	// The optional windowed aggregate query rides along with the workload: it
	// covers the busiest attribute's full observed value domain, so every
	// reading of that attribute folds into a window.
	const aggID = sensorcq.SubscriptionID("agg-query")
	var aggSpec sensorcq.AggregateSpec
	var aggAttr sensorcq.AttributeType
	if agg.fn != "" {
		fn, err := sensorcq.ParseAggregateFunc(agg.fn)
		if err != nil {
			return err
		}
		aggAttr = experiment.BusiestAttribute(dep)
		lo, hi := trace.Mins[aggAttr], trace.Maxs[aggAttr]
		if !(lo < hi) {
			lo, hi = lo-1, hi+1
		}
		aggSpec = sensorcq.AggregateSpec{
			Func:         fn,
			WindowRounds: agg.window,
			Quantile:     agg.quantile,
			Lo:           lo,
			Hi:           hi,
			Bits:         agg.bits,
			K:            agg.k,
			Exact:        agg.exact,
		}
		sub, err := sensorcq.NewAggregateSubscription(aggID,
			sensorcq.AttributeFilter{Attr: aggAttr, Range: sensorcq.NewInterval(lo, hi)},
			sensorcq.Everywhere(), aggSpec)
		if err != nil {
			return err
		}
		if _, err := sys.Subscribe(0, sub, sensorcq.WithSinkBuffer(0)); err != nil {
			return fmt.Errorf("subscribing aggregate query: %w", err)
		}
	}

	afterSubs := sys.Traffic()
	start := time.Now()
	retracted := 0
	if churn > 0 {
		// Replay the first half, retract the requested fraction, replay the
		// rest: the traffic report then shows the event load the retraction
		// saved on the second half.
		half := len(trace.ByRound) / 2
		if err := sys.ReplayRounds(trace.ByRound[:half]); err != nil {
			return err
		}
		for _, h := range handles[:int(float64(len(handles))*churn)] {
			if err := h.Unsubscribe(); err != nil {
				return fmt.Errorf("unsubscribing %s: %w", h.ID(), err)
			}
			retracted++
		}
		if err := sys.ReplayRounds(trace.ByRound[half:]); err != nil {
			return err
		}
	} else if err := sys.ReplayRounds(trace.ByRound); err != nil {
		return err
	}
	elapsed := time.Since(start)
	final := sys.Traffic()

	engine := "sequential"
	if concurrent {
		engine = "concurrent"
	}
	deliveryDesc := mode.String()
	if mode == sensorcq.Windowed {
		deliveryDesc = fmt.Sprintf("%s (lag %d, final watermark %d)", mode, lag, sys.Watermark())
	}
	fmt.Printf("approach:            %s\n", approach)
	fmt.Printf("engine:              %s, %s delivery\n", engine, deliveryDesc)
	fmt.Printf("network:             %d nodes (%d sensor nodes in %d groups)\n", nodes, sensors, groups)
	fmt.Printf("workload:            %d subscriptions (%d-%d attrs), %d rounds (%d readings)\n",
		subs, minAttrs, maxAttrs, rounds, trace.NumEvents())
	fmt.Printf("advertisement load:  %d\n", final.AdvertisementLoad)
	fmt.Printf("subscription load:   %d\n", afterSubs.SubscriptionLoad)
	if retracted > 0 {
		fmt.Printf("churn:               %d subscriptions retracted mid-replay (%d unsubscription messages)\n",
			retracted, final.UnsubscriptionLoad)
	}
	fmt.Printf("event load:          %d\n", final.EventLoad)
	rate := fmt.Sprintf("replay wall-clock:   %s (%.0f events/sec",
		elapsed.Round(time.Microsecond), float64(trace.NumEvents())/elapsed.Seconds())
	if concurrent {
		rate += fmt.Sprintf(", %d workers", sys.Workers())
	}
	fmt.Println(rate + ")")
	if n := sys.DroppedMessages(); n != 0 {
		fmt.Printf("DROPPED MESSAGES:    %d (run lost traffic!)\n", n)
	}

	if indexStats {
		ix := sys.IndexStats()
		fmt.Printf("match indexes:       %d trees (%d members indexed)\n", ix.Trees, ix.Members)
		fmt.Printf("index shape:         %d boxes in %d tree nodes, max height %d\n",
			ix.Boxes, ix.Nodes, ix.MaxHeight)
		if ix.Lookups > 0 {
			fmt.Printf("index lookups:       %d stabs, %.1f candidates/stab\n",
				ix.Lookups, float64(ix.Candidates)/float64(ix.Lookups))
		}
	}

	delivered := 0
	for _, p := range placed {
		delivered += len(sys.DeliveredEventSeqs(p.Sub.ID))
	}
	fmt.Printf("delivered events:    %d (across %d complex-event notifications)\n",
		delivered, len(sys.Deliveries()))

	if agg.fn != "" {
		mode := fmt.Sprintf("in-network sketch (k=%d, ε=%.3f)", aggSpec.K, aggSpec.Epsilon())
		if aggSpec.Func != sensorcq.AggQuantile {
			mode = "in-network exact merge"
		}
		if aggSpec.Exact {
			mode = "ship-every-reading exact baseline"
		}
		fmt.Printf("aggregate query:     %s over %s, window %d rounds, %s\n",
			aggSpec.Func, aggAttr, aggSpec.WindowRounds, mode)
		windows := sys.DeliveriesFor(aggID)
		fmt.Printf("aggregate windows:   %d delivered\n", len(windows))
		fmt.Printf("partial-agg load:    %d messages, %d bytes upstream\n",
			final.PartialAggregateLoad, final.PartialAggregateBytes)
	}
	return nil
}
