// Command cqexp reproduces the paper's evaluation: it runs the four
// experimental scenarios (small scale, medium scale, large scale #1 and #2)
// for every approach and prints, for each one, the subscription-load series
// (Figs. 4, 6, 8, 10), the event-load series (Figs. 5, 7, 9, 11) and the
// Filter-Split-Forward recall (Fig. 12), plus a final-point summary with the
// relative traffic reduction of Filter-Split-Forward.
//
// Usage:
//
//	cqexp                      # all scenarios at the default (reduced) scale
//	cqexp -scenario medium     # one scenario
//	cqexp -scale full          # the paper's full workload (slow)
//	cqexp -scale quick         # smoke-test scale
//	cqexp -csv results.csv     # also write every series as CSV
//	cqexp -concurrent -delivery pipelined        # parallel round-by-round replay
//	cqexp -concurrent -delivery windowed -lag 2  # overlap up to 3 rounds in flight
//	cqexp -concurrent -lagsweep 0,1,2,4          # windowed lag comparison table
//	cqexp -aggsweep 8,16,32,64                   # aggregate error-vs-traffic table
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sensorcq/internal/engineflags"
	"sensorcq/internal/experiment"
	"sensorcq/internal/netsim"
	"sensorcq/internal/report"
)

func main() {
	var (
		scenarioFlag = flag.String("scenario", "all", "scenario to run: small, medium, large-net, large-src or all")
		scaleFlag    = flag.String("scale", "default", "workload scale: quick, default or full")
		csvPath      = flag.String("csv", "", "also append all series to this CSV file")
		seed         = flag.Int64("seed", 0, "override the scenario seed (0 keeps the default)")
		noRecall     = flag.Bool("no-recall", false, "skip the oracle-based recall computation")
		quiet        = flag.Bool("quiet", false, "suppress per-batch progress lines")
		eng          = engineflags.Register(flag.CommandLine)
		churn        = flag.Float64("churn", 0,
			"fraction of each batch's subscriptions to retract after the batch's rounds replayed (0..1); later batches run against the survivors")
		lagSweep = flag.String("lagsweep", "",
			"comma-separated windowed lag settings (e.g. 0,1,2,4): run each scenario's Filter-Split-Forward replay once per lag on one shared workload and print a comparison table instead of the figure series; use instead of -delivery/-lag (the sweep is always windowed)")
		aggSweep = flag.String("aggsweep", "",
			"comma-separated q-digest compression settings k (e.g. 8,16,32,64): replay one windowed quantile query per scenario once per k plus once with the exact ship-every-reading baseline and print an error-vs-traffic table instead of the figure series")
		aggWindow   = flag.Int("agg-window", 4, "tumbling window width in rounds of the -aggsweep query")
		aggQuantile = flag.Float64("agg-quantile", 0.5, "rank fraction of the -aggsweep quantile query")
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
	scenarios, err := selectScenarios(*scenarioFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *aggSweep != "" {
		ks, err := parseKs(*aggSweep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "invalid -aggsweep %q: %v\n", *aggSweep, err)
			flag.Usage()
			os.Exit(2)
		}
		for _, s := range scenarios {
			s = applyScale(s, *scaleFlag)
			if *seed != 0 {
				s.Seed = *seed
			}
			if err := runAggSweep(s, ks, *aggWindow, *aggQuantile, eng.Concurrent, eng.Workers); err != nil {
				fmt.Fprintf(os.Stderr, "aggregate sweep %s: %v\n", s.Name, err)
				os.Exit(1)
			}
		}
		return
	}

	if *lagSweep != "" {
		lags, err := parseLags(*lagSweep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "invalid -lagsweep %q: %v\n", *lagSweep, err)
			flag.Usage()
			os.Exit(2)
		}
		for _, s := range scenarios {
			s = applyScale(s, *scaleFlag)
			if *seed != 0 {
				s.Seed = *seed
			}
			if err := runLagSweep(s, lags, eng.Concurrent, eng.Workers, *noRecall, *churn); err != nil {
				fmt.Fprintf(os.Stderr, "lag sweep %s: %v\n", s.Name, err)
				os.Exit(1)
			}
		}
		return
	}

	var csvFile *os.File
	if *csvPath != "" {
		csvFile, err = os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *csvPath, err)
			os.Exit(1)
		}
		defer csvFile.Close()
	}

	for _, s := range scenarios {
		s = applyScale(s, *scaleFlag)
		if *seed != 0 {
			s.Seed = *seed
		}
		opts := experiment.DefaultOptions()
		opts.ComputeRecall = !*noRecall
		opts.Concurrent = eng.Concurrent
		opts.Workers = eng.Workers
		opts.Delivery = eng.Delivery
		opts.Lag = eng.Lag
		opts.Churn = *churn
		if !*quiet {
			opts.Progress = func(format string, args ...interface{}) {
				fmt.Printf(format+"\n", args...)
			}
		}
		engine := ""
		if eng.Concurrent {
			engine = fmt.Sprintf(" [concurrent, %d workers]", netsim.EffectiveWorkers(eng.Workers, s.TotalNodes))
		}
		fmt.Printf("=== %s (%s) — %d queries in %d batches, %d rounds/batch%s ===\n",
			s.Name, s.Description, s.TotalSubscriptions(), s.Batches, s.RoundsPerBatch, engine)
		start := time.Now()
		res, err := experiment.Run(s, &opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "running %s: %v\n", s.Name, err)
			os.Exit(1)
		}
		fmt.Printf("--- completed in %s ---\n\n", time.Since(start).Round(time.Millisecond))
		if err := report.WriteAll(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if csvFile != nil {
			if err := report.WriteCSV(csvFile, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

// parseLags parses the -lagsweep flag: a comma-separated list of
// non-negative windowed lag settings.
func parseLags(spec string) ([]int, error) {
	var lags []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("lag %q is not an integer", part)
		}
		if n < 0 || n > netsim.MaxReplayLag {
			return nil, fmt.Errorf("lag %d outside 0..%d", n, netsim.MaxReplayLag)
		}
		lags = append(lags, n)
	}
	if len(lags) == 0 {
		return nil, fmt.Errorf("no lag settings given")
	}
	return lags, nil
}

// runLagSweep replays one scenario's Filter-Split-Forward workload once per
// windowed lag setting — every lag against the identical generated workload —
// and prints a comparison table: wall-clock and throughput per lag, plus the
// paper's load metrics and recall, which do not change with the lag: every
// batch's subscriptions propagate to quiescence and every replay ends with a
// flush, so the lag only decides how many rounds overlap in flight
// (experiment.TestLagSweepIsConformant pins it; the table still flags any
// deviation from the first lag's totals).
func runLagSweep(s experiment.Scenario, lags []int, concurrent bool, workers int, noRecall bool, churn float64) error {
	w, err := experiment.BuildWorkload(s)
	if err != nil {
		return err
	}
	events := 0
	for _, segment := range w.Segments {
		events += len(segment)
	}
	engine := "sequential engine"
	if concurrent {
		engine = fmt.Sprintf("concurrent engine, %d workers", netsim.EffectiveWorkers(workers, w.Deployment.Graph.NumNodes()))
	}
	fmt.Printf("=== %s windowed lag sweep (%s, filter-split-forward) — %d queries, %d events ===\n",
		s.Name, engine, s.TotalSubscriptions(), events)
	fmt.Printf("%-6s %12s %12s %10s %12s %8s %10s\n",
		"lag", "wall-clock", "events/sec", "sub-load", "event-load", "recall", "conformant")

	type sweepPoint struct {
		subLoad, eventLoad int64
		recall             float64
	}
	optsFor := func(lag int) experiment.Options {
		opts := experiment.DefaultOptions()
		opts.Approaches = []experiment.ApproachID{experiment.FilterSplitForward}
		opts.ComputeRecall = !noRecall
		opts.Concurrent = concurrent
		opts.Workers = workers
		opts.Delivery = netsim.Windowed
		opts.Lag = lag
		opts.Churn = churn
		return opts
	}
	if !noRecall {
		// The oracle ground truth is computed lazily and cached on the
		// workload; pay for it in an untimed warm-up run so the first lag's
		// wall-clock is comparable with the rest.
		if _, err := experiment.RunOnWorkload(w, optsFor(lags[0])); err != nil {
			return err
		}
	}
	var baseline *sweepPoint
	for _, lag := range lags {
		opts := optsFor(lag)
		start := time.Now()
		res, err := experiment.RunOnWorkload(w, opts)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		final := res.Approaches[0].Final()
		pt := sweepPoint{subLoad: final.SubscriptionLoad, eventLoad: final.EventLoad, recall: final.Recall}
		conformant := "-"
		if baseline == nil {
			baseline = &pt
		} else if pt == *baseline {
			conformant = "yes"
		} else {
			conformant = "NO"
		}
		recallCol := "n/a"
		if !noRecall {
			recallCol = fmt.Sprintf("%.3f", pt.recall)
		}
		fmt.Printf("%-6d %12s %12.0f %10d %12d %8s %10s\n",
			lag, elapsed.Round(time.Millisecond), float64(events)/elapsed.Seconds(),
			pt.subLoad, pt.eventLoad, recallCol, conformant)
	}
	fmt.Println()
	return nil
}

// parseKs parses the -aggsweep flag: a comma-separated list of positive
// q-digest compression settings.
func parseKs(spec string) ([]int, error) {
	var ks []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("k %q is not an integer", part)
		}
		if n < 1 {
			return nil, fmt.Errorf("k %d must be >= 1", n)
		}
		ks = append(ks, n)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("no compression settings given")
	}
	return ks, nil
}

// runAggSweep runs the in-network aggregation error-vs-traffic experiment
// for one scenario and prints the comparison table: the exact
// ship-every-reading baseline's traffic first, then one line per q-digest
// compression setting with its error bound, the observed per-window rank
// errors and the upstream partial-aggregate traffic.
func runAggSweep(s experiment.Scenario, ks []int, window int, quantile float64, concurrent bool, workers int) error {
	res, err := experiment.RunAggregateSweep(experiment.AggregateSweepConfig{
		Scenario:     s,
		WindowRounds: window,
		Quantile:     quantile,
		Ks:           ks,
		Concurrent:   concurrent,
		Workers:      workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("=== %s aggregate error-vs-traffic sweep — φ=%.2f over %s, window %d rounds, %d readings, tree depth %d ===\n",
		s.Name, quantile, res.Attr, window, res.Readings, res.TreeDepth)
	fmt.Printf("%-10s %10s %10s %10s %12s %14s\n",
		"setting", "ε bound", "max err", "mean err", "partials", "bytes-up")
	fmt.Printf("%-10s %10s %10s %10s %12d %14d\n",
		"exact", "0", "0", "0", res.ExactLoad, res.ExactBytes)
	for _, p := range res.Points {
		fmt.Printf("%-10s %10.4f %10.4f %10.4f %12d %14d\n",
			fmt.Sprintf("k=%d", p.K), p.Epsilon, p.MaxRankError, p.MeanRankError, p.PartialLoad, p.PartialBytes)
	}
	fmt.Println()
	return nil
}

func selectScenarios(name string) ([]experiment.Scenario, error) {
	switch strings.ToLower(name) {
	case "all", "":
		return experiment.AllScenarios(), nil
	case "small", "small-scale":
		return []experiment.Scenario{experiment.SmallScale()}, nil
	case "medium", "medium-scale":
		return []experiment.Scenario{experiment.MediumScale()}, nil
	case "large-net", "large-scale-network":
		return []experiment.Scenario{experiment.LargeScaleNetwork()}, nil
	case "large-src", "large-scale-sources":
		return []experiment.Scenario{experiment.LargeScaleSources()}, nil
	default:
		return nil, fmt.Errorf("unknown scenario %q (want small, medium, large-net, large-src or all)", name)
	}
}

// applyScale maps the -scale flag onto a workload size. The "default" scale
// keeps the paper's network shapes and batch structure but reduces the batch
// size and per-batch rounds so that a full sweep finishes in minutes on a
// laptop; "full" is the paper's exact workload.
func applyScale(s experiment.Scenario, scale string) experiment.Scenario {
	switch strings.ToLower(scale) {
	case "quick":
		return experiment.QuickScale(s)
	case "full":
		return s
	default: // "default"
		return s.Scale(1, 0.4, 0.5)
	}
}
