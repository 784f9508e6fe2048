package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
)

// metric is one reported number. Samples is how many measurements the value
// summarises (0 for counts and single readings).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

func (m metrics) setN(name string, value float64, unit string, samples int) {
	m[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// spec describes a gated end-to-end metric: its unit, which direction is
// better and how far its median may worsen, as a share of the earlier
// median, before that counts as a regression. BENCHMARK.json carries the
// same table; a test keeps the two in step.
type spec struct {
	name, unit, better string
	bound              float64
}

// gatedSpecs are the end-to-end metrics every workload reports and the
// driver gates. Three of them are one name for the workload's own headline
// number (see the aliases of each workload and README.md).
var gatedSpecs = []spec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.15},
	{"latency_p50_ms", "ms", "lower", 0.2},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"event_load_per_event", "count", "lower", 0.03},
	{"subscription_load_per_query", "count", "lower", 0.03},
	{"recall", "ratio", "higher", 0.01},
	{"state_mb", "MB", "lower", 0.15},
}

// workloadReport is the outcome of one workload run.
type workloadReport struct {
	Why       string            `json:"why"`
	WallS     float64           `json:"wall_s"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Checks    []check           `json:"checks"`
	EndToEnd  metrics           `json:"end_to_end"`
	Gated     map[string]string `json:"gated_as"`
	Timings   map[string]timing `json:"timings"`
	PerLayer  metrics           `json:"per_layer,omitempty"`
	SpansFile string            `json:"spans_file,omitempty"`
}

func newWorkloadReport(w *workload) *workloadReport {
	return &workloadReport{Why: w.why, EndToEnd: metrics{}, Gated: w.gated, Timings: map[string]timing{}}
}

// finish copies the tally into the report and derives failed_ops_ratio.
func (r *workloadReport) finish(t *tally) {
	r.Attempted, r.Failed, r.Checks, r.Correct = max(t.attempted, 1), t.failed, t.checks, t.correct()
	r.EndToEnd.set("failed_ops_ratio", float64(r.Failed)/float64(r.Attempted), "ratio")
}

// addTiming records a timing under name and returns it.
func (r *workloadReport) addTiming(name string, s samples) timing {
	t := s.timing()
	r.Timings[name] = t
	return t
}

// gatedValue resolves a gated metric to the workload's own metric.
func (r *workloadReport) gatedValue(name string) (metric, bool) {
	if alias, ok := r.Gated[name]; ok {
		name = alias
	}
	m, ok := r.EndToEnd[name]
	return m, ok
}

// environment is recorded in every report.
type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	ShapeSeed  int64   `json:"shape_seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func currentEnvironment(seed, shapeSeed int64, seconds float64, trace bool) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: seed, ShapeSeed: shapeSeed, Seconds: seconds, Trace: trace,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// report is one set of runs: every selected workload once.
type report struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
	order     []string
}

func (rep *report) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (rep *report) writeText(w io.Writer) {
	e := rep.Env
	fmt.Fprintf(w, "sensorcq bench: %d CPUs, GOMAXPROCS %d, %s, commit %s, seed %d, shape seed %d, %.0f s per workload, trace %v\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Seed, e.ShapeSeed, e.Seconds, e.Trace)
	for _, name := range rep.order {
		r := rep.Workloads[name]
		fmt.Fprintf(w, "\n== %s (%.1f s wall) — %s\n", name, r.WallS, r.Why)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		aliasOf := map[string]string{}
		for gated, own := range r.Gated {
			aliasOf[own] = gated
		}
		for _, n := range sortedNames(r.EndToEnd) {
			m := r.EndToEnd[n]
			note := ""
			if m.Samples > 0 {
				note = fmt.Sprintf("n=%d", m.Samples)
			}
			if g, ok := aliasOf[n]; ok {
				note = strings.TrimSpace(note + " gated as " + g)
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", n, m.Value, m.Unit, note)
		}
		tw.Flush()
		names := make([]string, 0, len(r.Timings))
		for n := range r.Timings {
			names = append(names, n)
		}
		sort.Strings(names)
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, n := range names {
			t := r.Timings[n]
			tail := "tail n/a (<10 samples beyond p75)"
			if t.TailP > 0 {
				tail = fmt.Sprintf("p%g %.4g ms", t.TailP, t.TailMS)
			}
			fmt.Fprintf(tw, "  timing %s\tp50 %.4g ms\t%s\tn=%d\n", n, t.P50, tail, t.N)
		}
		tw.Flush()
		for _, c := range r.Checks {
			status := "ok"
			if !c.OK {
				status = "FAILED"
			}
			fmt.Fprintf(w, "  check %-28s %s  %s\n", c.Name, status, c.Detail)
		}
		fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
		if len(r.PerLayer) > 0 {
			fmt.Fprintln(w, "  per layer:")
			tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
			for _, n := range sortedNames(r.PerLayer) {
				m := r.PerLayer[n]
				note := ""
				if m.Samples > 0 {
					note = fmt.Sprintf("n=%d", m.Samples)
				}
				fmt.Fprintf(tw, "    %s\t%.6g\t%s\t%s\n", n, m.Value, m.Unit, note)
			}
			tw.Flush()
		}
		if r.SpansFile != "" {
			fmt.Fprintf(w, "  spans written to %s\n", r.SpansFile)
		}
	}
}

// resultLine is the last line of a single-workload run: the form the
// pipeline reads. With tracing off it carries every gated end-to-end
// metric, with tracing on every per-layer metric (0 where the workload does
// not exercise the layer).
func resultLine(r *workloadReport, trace bool) ([]byte, error) {
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics{}}
	if trace {
		for _, l := range perLayerSpecs {
			m := r.PerLayer[l.name]
			out.Metrics[l.name] = metric{Value: m.Value, Unit: l.unit}
		}
	} else {
		for _, s := range gatedSpecs {
			m, ok := r.gatedValue(s.name)
			if !ok {
				return nil, fmt.Errorf("workload reports no %s", s.name)
			}
			out.Metrics[s.name] = metric{Value: m.Value, Unit: s.unit}
		}
	}
	return json.Marshal(out)
}

// compareRuns prints, per gated metric and workload, the values of every
// run, the relative difference between the first and the last and whether
// that stays within the metric's bound. It reports whether all did.
func compareRuns(w io.Writer, runs []*report) bool {
	first, last := runs[0], runs[len(runs)-1]
	allOK := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\truns\tworse by\tbound\t\n")
	for _, name := range first.order {
		for _, s := range gatedSpecs {
			a, okA := first.Workloads[name].gatedValue(s.name)
			b, okB := last.Workloads[name].gatedValue(s.name)
			if !okA || !okB {
				continue
			}
			var values []string
			for _, run := range runs {
				m, _ := run.Workloads[name].gatedValue(s.name)
				values = append(values, fmt.Sprintf("%.5g", m.Value))
			}
			worse := (b.Value - a.Value) / a.Value
			if s.better == "higher" {
				worse = -worse
			}
			verdict := "pass"
			if worse > s.bound {
				verdict, allOK = "FAIL", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%+.2f%%\t%.0f%%\t%s\n", name, s.name, strings.Join(values, " "), 100*worse, 100*s.bound, verdict)
		}
	}
	tw.Flush()
	return allOK
}
