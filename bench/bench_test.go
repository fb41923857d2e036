package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the tables in metrics.go and workloads.go name the
// same workloads and metrics, with no drift either way.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), workloads.go %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.go %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s %q: bad name or unit %q", kind, d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s %q: better is %q", kind, d.name, d.better)
			}
			if d.clock != "host" && d.clock != "sim" {
				t.Errorf("%s %q: clock is %q", kind, d.name, d.clock)
			}
			if seen[d.name] {
				t.Errorf("%s %q listed twice", kind, d.name)
			}
			seen[d.name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %q: bound %v in BENCHMARK.json, %v in metrics.go", kind, d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q carries a bound", kind, d.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(b.PerLayer))
	}
}

// Every workload, shrunk a hundredfold, emits exactly the declared
// metrics with their units on both kinds of run, passes its output
// checks, and prints the same model digest for the same seed, traced or
// not.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			o := options{seed: 7, seconds: 0.02, scale: 0.01, outDir: t.TempDir()}
			res, plain, err := runWorkload(spec, o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("result %+v", res)
			}
			expect(t, "end_to_end", res.Metrics, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.name)
				}
			}
			o.trace = true
			res, traced, err := runWorkload(spec, o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			expect(t, "per_layer", res.Metrics, perLayer)
			if _, err := os.Stat(o.outDir + "/spans-" + spec.name + ".json"); err != nil {
				t.Errorf("traced run wrote no span file: %v", err)
			}
			if plain.Digest == "" || plain.Digest != traced.Digest {
				t.Errorf("same seed, different model digests: %q untraced, %q traced", plain.Digest, traced.Digest)
			}
		})
	}
}

func expect(t *testing.T, kind string, got map[string]metric, want []metricDef) {
	t.Helper()
	for _, d := range want {
		m, ok := got[d.name]
		if !ok {
			t.Errorf("%s metric %s not emitted", kind, d.name)
		} else if m.Unit != d.unit {
			t.Errorf("%s metric %s has unit %q, want %q", kind, d.name, m.Unit, d.unit)
		}
	}
	if len(got) != len(want) {
		for name := range got {
			found := false
			for _, d := range want {
				found = found || d.name == name
			}
			if !found {
				t.Errorf("%s metric %s emitted but not declared", kind, name)
			}
		}
	}
}
