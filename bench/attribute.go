package main

import (
	"fmt"
	"io"
	"sort"
)

// attribute prints, for one traced workload, where an operation's host
// time goes, and returns the share no row accounts for.
//
// Two sources, both from outside the program. The benchmark's own spans
// give exact self times for the calls the driver makes (setup, one call
// per operation or per round). Below a call there are no spans yet, so
// a layer's time there is modelled: calls into it per operation (from
// the counters the layers export) times the probe's time per call,
// where a probe that fired sim events has events x sim.step_ns.d1
// subtracted so the kernel is not counted twice. What the rows leave is
// the time of code with no boundary the benchmark can reach from
// outside; spans inside the program are a later issue.
func attribute(w io.Writer, workload string, st modelStats, layer map[string]float64, untracedRate float64, rec *recorder, tracedOps int64) float64 {
	fmt.Fprintf(w, "attribution %s (host clock)\n", workload)
	fmt.Fprintf(w, "  driver spans, traced rounds: %d ops\n", tracedOps)
	names := make([]string, 0, len(rec.selfNs))
	for name := range rec.selfNs {
		names = append(names, name)
	}
	sort.Strings(names)
	var roundTotal int64
	for _, name := range names {
		if name != "setup" {
			roundTotal += rec.selfNs[name]
		}
	}
	for _, name := range names {
		share := 0.0
		if name != "setup" && roundTotal > 0 {
			share = float64(rec.selfNs[name]) / float64(roundTotal)
		}
		fmt.Fprintf(w, "    %-14s calls=%-8d self=%10.3fms  share=%.4f\n",
			name, rec.calls[name], float64(rec.selfNs[name])/1e6, share)
	}
	if untracedRate <= 0 {
		return 1
	}
	perOp := 1e9 / untracedRate
	step := layer["sim.step_ns.d1"]
	type row struct {
		name  string
		calls float64
		ns    float64
	}
	var rows []row
	add := func(name string, calls, nsPerCall float64) {
		if calls > 0 && nsPerCall > 0 {
			rows = append(rows, row{name, calls, nsPerCall})
		}
	}
	switch workload {
	case "serve-steady":
		// A send's self time is linear in its hops: fit the 1-hop and
		// 3-hop probes, each net of the events it fired.
		s1 := layer["network.send_ns.1hop"] - layer["probe.send_events.1hop"]*step
		s3 := layer["network.send_ns.3hop"] - layer["probe.send_events.3hop"]*step
		h1, h3 := layer["probe.send_hops.1hop"], layer["probe.send_hops.3hop"]
		perHop := 0.0
		if h3 > h1 {
			perHop = (s3 - s1) / (h3 - h1)
		}
		add("sim kernel (events)", st.Calls["sim.events"], step)
		add("network send (fixed)", st.Calls["network.sends"], s1-perHop*h1)
		add("network send (per hop)", st.Calls["network.hops"], perHop)
		add("device run (cpu)", st.Calls["device.cpu"], layer["device.run_ns.cpu"])
		add("device run (fpga)", st.Calls["device.fpga"], layer["device.run_ns.fpga"])
		// The virtual tracer's share is measured, not modelled: the
		// serve rate with sampling off over the default.
		if r := layer["trace.off_over_on"]; r > 1 {
			add("virtual tracer (on vs off)", 1, perOp*(1-1/r))
		}
		add("health observe", st.Calls["device.cpu"]+st.Calls["device.fpga"], layer["health.observe_ns"])
	case "overload-sweep":
		add("runtime shed", st.Calls["runtime.shed"], layer["runtime.shed_ns"])
		add("serve path (admitted)", st.Calls["runtime.serve"], layer["runtime.serve_us_p50"]*1e3)
		add("continuum build", st.Calls["continuum.build"], layer["continuum.build_ms.default"]*1e6)
		add("deploy", st.Calls["deploy"], layer["deploy_us"]*1e3)
	case "chaos-recover":
		add("serve path (chaos arm)", st.Calls["runtime.serve"], layer["runtime.serve_us_p50"]*1e3)
		add("serve path (reference arm)", st.Calls["reference.serve"], layer["runtime.serve_us_p50"]*1e3)
		add("continuum build", st.Calls["continuum.build"], layer["continuum.build_ms.default"]*1e6)
		add("deploy", st.Calls["deploy"], layer["deploy_us"]*1e3)
		add("sensing ticks", st.Calls["ticks"],
			(layer["detector.tick_us"]+layer["health.tick_us"]+layer["mapek.iterate_us"])*1e3)
		add("state apply", st.Calls["state.apply"], layer["state.apply_ns.fresh"])
	case "plan-churn":
		// Every call of an iteration is a driver span: the table above
		// is the attribution, and what the round span keeps for itself
		// (victim choice, validity check) is the remainder.
		if roundTotal == 0 {
			return 1
		}
		return float64(rec.selfNs["round"]) / float64(roundTotal)
	}
	fmt.Fprintf(w, "  model below the call: %.0f ns per op untraced\n", perOp)
	var sum float64
	for _, r := range rows {
		ns := r.calls * r.ns
		sum += ns
		fmt.Fprintf(w, "    %-26s calls/op=%-10.4g ns/call=%-12.4g ns/op=%-12.4g share=%.4f\n",
			r.name, r.calls, r.ns, ns, ns/perOp)
	}
	rest := 1 - sum/perOp
	fmt.Fprintf(w, "    %-26s share=%.4f\n", "unattributed", rest)
	if t := layer["bench.timer_ns"]; workload == "serve-steady" && 2*t > 0.03*perOp {
		fmt.Fprintf(w, "  note: a time.Now pair (%.0f ns) exceeds 3%% of an op (%.0f ns)\n", 2*t, perOp)
	}
	return rest
}
