// Command bench is the repository's benchmark: four fixed-shape
// workloads driven through the public entry points of the MYRTUS
// continuum simulator, measured on two clocks. Host metrics say what our
// Go code costs; sim metrics say what the modelled continuum delivers
// and are exact per seed. See README.md for the glossary.
//
//	bash bench/run.sh --workload serve-steady --seed 1 --seconds 10 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// modelLine is what a run prints before its result: the simulated
// statistics of the model rounds, their digest, and every round's host
// rate.
type modelLine struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Rounds      int                `json:"rounds"`
	ModelDigest string             `json:"model_digest"`
	Sim         map[string]float64 `json:"sim"`
	RoundRates  []float64          `json:"round_ops_per_s"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64
	outDir   string
}

func main() {
	var o options
	var traceFlag int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (empty = all four, one result line each)")
	flag.Uint64Var(&o.seed, "seed", 1, "the only input that varies the generated load (1 = development seed, 101 = held-out seed)")
	flag.Float64Var(&o.seconds, "seconds", 10, "host seconds of timed rounds per workload")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: record the benchmark's own spans, run the probes, print per-layer metrics")
	flag.Float64Var(&o.scale, "scale", 1, "shrink round sizes (bench_test.go only; BENCHMARK.json pins 1)")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory the traced run writes spans-<workload>.json to")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice in fresh processes and compare against the bounds")
	flag.Parse()
	o.trace = traceFlag != 0

	if selfcheck {
		os.Exit(runSelfcheck(o))
	}
	specs := workloads
	if o.workload != "" {
		spec, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			os.Exit(2)
		}
		specs = []workloadSpec{spec}
	}
	code := 0
	for _, spec := range specs {
		res, _, err := runWorkload(spec, o, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// runWorkload measures one workload and returns its result line and its
// simulated statistics; the model line and, on a traced run, the
// attribution table go to info.
func runWorkload(spec workloadSpec, o options, info io.Writer) (*result, modelStats, error) {
	r := spec.make(o.seed, o.scale)
	var rec *recorder
	var layer map[string]float64
	if o.trace {
		// Probes first, from the fresh process's heap, so they read the
		// same whichever workload follows; plan-churn leaves hundreds of
		// MB behind, and probes run after it came out up to ten times
		// slow.
		var err error
		if layer, err = runProbes(o.seed, o.scale); err != nil {
			return nil, modelStats{}, fmt.Errorf("probes: %w", err)
		}
		debug.FreeOSMemory()
		rec = newRecorder(spec.name)
	}
	m, err := measure(r, time.Duration(o.seconds*float64(time.Second)), rec)
	if err != nil {
		// A broken output check or an unexpected error from a public
		// call: the run is incorrect, and says so instead of reporting
		// numbers for work that did not happen.
		return nil, modelStats{}, err
	}
	st := r.model()
	res := &result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	model, err := json.Marshal(modelLine{spec.name, o.seed, len(m.rounds), st.Digest, st.Sim, m.roundRates()})
	if err != nil {
		return nil, st, err
	}
	fmt.Fprintln(info, string(model))

	if !o.trace {
		ops := float64(m.allocOps)
		e2e := map[string]float64{
			"setup_s":       m.setupS,
			"ops_per_s":     m.rate(false),
			"allocs_per_op": float64(m.mallocs) / ops,
			"bytes_per_op":  float64(m.allocBytes) / ops,
			"live_heap_mb":  float64(m.liveHeap) / (1 << 20),
			"ok_frac":       float64(st.OK) / float64(st.Attempted),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{e2e[d.name], d.unit}
		}
		return res, st, nil
	}

	path, err := rec.write(o.outDir)
	if err != nil {
		return nil, st, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(info, "spans: %s (%d kept, %d dropped)\n", path, len(rec.spans), rec.dropped)
	for k, v := range st.Sim {
		layer[k] = v
	}
	untraced, traced := m.rate(false), m.rate(true)
	layer["sim.events_per_s"] = layer["sim.events_per_op"] * untraced
	if untraced > 0 {
		layer["bench.trace_overhead_frac"] = (untraced - traced) / untraced
	}
	var tracedOps int64
	for _, s := range m.rounds {
		if s.traced {
			tracedOps += s.ops
		}
	}
	layer["bench.unattributed_frac"] = attribute(info, spec.name, st, layer, untraced, rec, tracedOps)
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{layer[d.name], d.unit}
	}
	return res, st, nil
}
