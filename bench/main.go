// Command bench is the repository's performance benchmark: five workloads
// over the replay path, the control path and the daemon, each reporting
// end-to-end metrics with tracing off and, with -trace 1, per-layer metrics
// from the benchmark's own spans and probes. README.md describes the
// workloads, the metrics and how they relate; BENCHMARK.json at the root of
// the repository names this command to the pipeline.
//
// Run it from the root of the repository:
//
//	go run ./bench [-workload w] [-seed n] [-seconds s] [-trace 0|1] [-json] [-out dir] [-repeat k] [-shape-seed n]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "", "run only this workload (default: all); ends with the one-line result the pipeline reads")
		seed      = flag.Int64("seed", 3, "run seed: which days of the sensor trace are replayed, and the FSF set filter's seed")
		shapeSeed = flag.Int64("shape-seed", 3, "seed of the network, its sensors and the subscription population (11 is the hold-out)")
		secs      = flag.Float64("seconds", 10, "how long each workload's timed region measures")
		trace     = flag.String("trace", "0", "1 repeats each workload with the benchmark's spans on and reports the per-layer metrics")
		asJSON    = flag.Bool("json", false, "print the report as JSON")
		out       = flag.String("out", ".bench_out", "directory the traced run writes its spans to")
		repeat    = flag.Int("repeat", 1, "run the whole set this many times and compare the first with the last")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return usage("unexpected argument %q", flag.Arg(0))
	}
	var tracing bool
	switch *trace {
	case "0", "false":
	case "1", "true":
		tracing = true
	default:
		return usage("-trace takes 0 or 1, got %q", *trace)
	}
	if *secs <= 0 || *repeat < 1 {
		return usage("-seconds and -repeat must be positive")
	}
	// The workloads are built from the repository's own packages and are
	// only meaningful from its root, where BENCHMARK.json names this command.
	for _, f := range []string{"go.mod", "BENCHMARK.json"} {
		if _, err := os.Stat(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: run from the root of the repository: %v\n", err)
			return 2
		}
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			names := make([]string, len(workloads))
			for i, w := range workloads {
				names[i] = w.name
			}
			return usage("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
		}
		selected = []*workload{w}
	}
	for _, w := range selected {
		if runtime.NumCPU() < w.minCPUs || runtime.GOMAXPROCS(0) < w.minCPUs {
			fmt.Fprintf(os.Stderr, "bench: %s needs %d CPUs (have %d, GOMAXPROCS %d): with fewer its numbers measure the OS scheduler\n",
				w.name, w.minCPUs, runtime.NumCPU(), runtime.GOMAXPROCS(0))
			return 2
		}
	}

	rc := &runContext{
		seed: *seed, shapeSeed: *shapeSeed, budget: time.Duration(*secs * float64(time.Second)),
		trace: tracing, outDir: *out,
	}
	var runs []*report
	ok := true
	for i := 0; i < *repeat; i++ {
		rep := &report{Env: currentEnvironment(*seed, *shapeSeed, *secs, tracing), Workloads: map[string]*workloadReport{}}
		for _, w := range selected {
			start := time.Now()
			r, err := w.run(w, rc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			r.WallS = time.Since(start).Seconds()
			rep.Workloads[w.name] = r
			rep.order = append(rep.order, w.name)
			ok = ok && r.Correct
		}
		if *asJSON {
			if err := rep.writeJSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		} else {
			rep.writeText(os.Stdout)
		}
		runs = append(runs, rep)
	}
	if len(runs) > 1 {
		fmt.Println()
		ok = compareRuns(os.Stdout, runs) && ok
	}
	if *name != "" {
		line, err := resultLine(runs[len(runs)-1].Workloads[*name], tracing)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed or two runs differ by more than a bound")
		return 1
	}
	return 0
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	flag.Usage()
	return 2
}
