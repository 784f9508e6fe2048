package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json names this command's workloads and metrics to the
// pipeline; the tables in this package are what the command prints.
func TestBenchmarkFileMatchesTheCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q, the command has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) != len(gatedSpecs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the command", len(f.EndToEnd), len(gatedSpecs))
	}
	for i, m := range f.EndToEnd {
		s := gatedSpecs[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound != s.bound {
			t.Errorf("end-to-end metric %d is %+v, the command has %+v", i, m, s)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract's limits", m)
		}
	}
	if len(f.PerLayer) != len(perLayerSpecs) || len(f.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the command", len(f.PerLayer), len(perLayerSpecs))
	}
	for i, m := range f.PerLayer {
		l := perLayerSpecs[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer metric %d is %+v, the command has %+v", i, m, l)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %+v breaks the contract's limits", m)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", f.RunSeconds, f.Paths)
	}

	// Every workload resolves every gated metric to a metric of its own.
	for _, w := range workloads {
		for gated := range w.gated {
			found := false
			for _, s := range gatedSpecs {
				found = found || s.name == gated
			}
			if !found {
				t.Errorf("workload %s aliases %q, which is not a gated metric", w.name, gated)
			}
		}
	}
}
