package main

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; bench_test.go checks the two against each other.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	clock  string  // "host" or "sim"
}

// endToEnd is what a user of the simulator sees. Every workload emits
// every one of them, none is ever 0, and each states its clock.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host"},
	{"ops_per_s", "1/s", "higher", 0.25, "host"},
	{"allocs_per_op", "count", "lower", 0.05, "host"},
	{"bytes_per_op", "B", "lower", 0.05, "host"},
	{"live_heap_mb", "MB", "lower", 0.15, "host"},
	{"ok_frac", "ratio", "higher", 0.02, "sim"},
}

// perLayer is one layer's numbers: probe timings are host time per call
// and the same on every workload; counters and model.* statistics are
// exact sim counts read from the traced workload, 0 where the workload
// does not reach the layer.
var perLayer = []metricDef{
	// sim kernel
	{name: "sim.events_per_op", unit: "count", better: "lower", clock: "sim"},
	{name: "sim.events_per_s", unit: "1/s", better: "higher", clock: "host"},
	{name: "sim.step_ns.d1", unit: "ns", better: "lower", clock: "host"},
	{name: "sim.step_ns.d1k", unit: "ns", better: "lower", clock: "host"},
	{name: "sim.step_ns.d100k", unit: "ns", better: "lower", clock: "host"},
	{name: "sim.step_allocs", unit: "count", better: "lower", clock: "host"},
	// network fabric
	{name: "network.send_ns.1hop", unit: "ns", better: "lower", clock: "host"},
	{name: "network.send_ns.3hop", unit: "ns", better: "lower", clock: "host"},
	{name: "network.send_allocs", unit: "count", better: "lower", clock: "host"},
	{name: "network.route_ns", unit: "ns", better: "lower", clock: "host"},
	{name: "network.delivered", unit: "count", better: "higher", clock: "sim"},
	{name: "network.retries", unit: "count", better: "lower", clock: "sim"},
	{name: "network.lost", unit: "count", better: "lower", clock: "sim"},
	{name: "network.queue_drops", unit: "count", better: "lower", clock: "sim"},
	{name: "network.backoff_ms", unit: "ms", better: "lower", clock: "sim"},
	// devices
	{name: "device.run_ns.cpu", unit: "ns", better: "lower", clock: "host"},
	{name: "device.run_ns.fpga", unit: "ns", better: "lower", clock: "host"},
	{name: "device.run_allocs", unit: "count", better: "lower", clock: "host"},
	{name: "device.rejected", unit: "count", better: "lower", clock: "sim"},
	// mirto serve path
	{name: "runtime.serve_us_p50", unit: "us", better: "lower", clock: "host"},
	{name: "runtime.serve_us_p99", unit: "us", better: "lower", clock: "host"},
	{name: "runtime.serve_allocs", unit: "count", better: "lower", clock: "host"},
	{name: "runtime.serve_bytes", unit: "B", better: "lower", clock: "host"},
	{name: "runtime.shed_ns", unit: "ns", better: "lower", clock: "host"},
	{name: "runtime.shed_allocs", unit: "count", better: "lower", clock: "host"},
	{name: "runtime.retries", unit: "count", better: "lower", clock: "sim"},
	{name: "runtime.recovered", unit: "count", better: "higher", clock: "sim"},
	{name: "runtime.lost", unit: "count", better: "lower", clock: "sim"},
	// admission
	{name: "admission.admit_ns.ok", unit: "ns", better: "lower", clock: "host"},
	{name: "admission.admit_ns.shed", unit: "ns", better: "lower", clock: "host"},
	{name: "admission.admit_allocs", unit: "count", better: "lower", clock: "host"},
	{name: "admission.shed_frac.high", unit: "ratio", better: "lower", clock: "sim"},
	{name: "admission.shed_frac.med", unit: "ratio", better: "lower", clock: "sim"},
	{name: "admission.shed_frac.low", unit: "ratio", better: "lower", clock: "sim"},
	{name: "admission.useful_frac", unit: "ratio", better: "higher", clock: "sim"},
	// breakers
	{name: "breaker.allow_ns", unit: "ns", better: "lower", clock: "host"},
	{name: "breaker.opens", unit: "count", better: "lower", clock: "sim"},
	{name: "breaker.fast_fails", unit: "count", better: "lower", clock: "sim"},
	// planner
	{name: "planner.plan_us.edge6", unit: "us", better: "lower", clock: "host"},
	{name: "planner.plan_us.edge1000", unit: "us", better: "lower", clock: "host"},
	{name: "planner.plan_us.edge10000", unit: "us", better: "lower", clock: "host"},
	{name: "planner.plan_allocs.edge1000", unit: "count", better: "lower", clock: "host"},
	{name: "planner.wide_plan_us", unit: "us", better: "lower", clock: "host"},
	{name: "planner.delta_us_p50", unit: "us", better: "lower", clock: "host"},
	{name: "planner.delta_us_p99", unit: "us", better: "lower", clock: "host"},
	{name: "planner.delta_allocs", unit: "count", better: "lower", clock: "host"},
	{name: "planner.full_over_delta", unit: "ratio", better: "higher", clock: "host"},
	{name: "planner.dirty_per_replan", unit: "count", better: "lower", clock: "sim"},
	{name: "planner.replaced_per_replan", unit: "count", better: "lower", clock: "sim"},
	{name: "planner.scored_per_replan", unit: "count", better: "lower", clock: "sim"},
	{name: "planner.dirty_scan_us", unit: "us", better: "lower", clock: "host"},
	{name: "planner.execute_us", unit: "us", better: "lower", clock: "host"},
	{name: "planner.index_event_us", unit: "us", better: "lower", clock: "host"},
	// state, fence, checkpoint
	{name: "state.apply_ns.fresh", unit: "ns", better: "lower", clock: "host"},
	{name: "state.apply_ns.dup", unit: "ns", better: "lower", clock: "host"},
	{name: "state.apply_ns.stale", unit: "ns", better: "lower", clock: "host"},
	{name: "state.apply_allocs", unit: "count", better: "lower", clock: "host"},
	{name: "state.applied", unit: "count", better: "higher", clock: "sim"},
	{name: "state.dedup_hits", unit: "count", better: "lower", clock: "sim"},
	{name: "state.invalidations", unit: "count", better: "lower", clock: "sim"},
	{name: "state.journal_replayed", unit: "count", better: "lower", clock: "sim"},
	{name: "state.rto_ms_p95", unit: "ms", better: "lower", clock: "sim"},
	{name: "fence.mint_us", unit: "us", better: "lower", clock: "host"},
	{name: "fence.tokens_minted", unit: "count", better: "lower", clock: "sim"},
	{name: "fence.fenced_writes", unit: "count", better: "lower", clock: "sim"},
	{name: "fence.epoch_rejects", unit: "count", better: "lower", clock: "sim"},
	{name: "checkpoint.fulls", unit: "count", better: "lower", clock: "sim"},
	{name: "checkpoint.deltas", unit: "count", better: "lower", clock: "sim"},
	{name: "checkpoint.bytes", unit: "B", better: "lower", clock: "sim"},
	{name: "checkpoint.restores", unit: "count", better: "lower", clock: "sim"},
	{name: "checkpoint.gc_keys", unit: "count", better: "higher", clock: "sim"},
	// knowledge base
	{name: "kb.put_us.r1", unit: "us", better: "lower", clock: "host"},
	{name: "kb.put_us.r3", unit: "us", better: "lower", clock: "host"},
	{name: "kb.put_us.r5", unit: "us", better: "lower", clock: "host"},
	{name: "kb.put_allocs.r3", unit: "count", better: "lower", clock: "host"},
	{name: "kb.cas_us.r3", unit: "us", better: "lower", clock: "host"},
	{name: "kb.get_ns.r3", unit: "ns", better: "lower", clock: "host"},
	{name: "kb.store_put_ns", unit: "ns", better: "lower", clock: "host"},
	{name: "kb.msgs_per_put.r3", unit: "count", better: "lower", clock: "sim"},
	// health, detector, MAPE-K
	{name: "health.observe_ns", unit: "ns", better: "lower", clock: "host"},
	{name: "health.tick_us", unit: "us", better: "lower", clock: "host"},
	{name: "health.suspects", unit: "count", better: "lower", clock: "sim"},
	{name: "health.quarantines", unit: "count", better: "lower", clock: "sim"},
	{name: "health.hedges_fired", unit: "count", better: "lower", clock: "sim"},
	{name: "detector.tick_us", unit: "us", better: "lower", clock: "host"},
	{name: "detector.suspected", unit: "count", better: "lower", clock: "sim"},
	{name: "detector.confirmed", unit: "count", better: "lower", clock: "sim"},
	{name: "mapek.iterate_us", unit: "us", better: "lower", clock: "host"},
	{name: "mapek.iterations", unit: "count", better: "lower", clock: "sim"},
	{name: "mapek.replans", unit: "count", better: "lower", clock: "sim"},
	{name: "mapek.delta_replans", unit: "count", better: "higher", clock: "sim"},
	// tenancy
	{name: "tenant.drr_ns.t2", unit: "ns", better: "lower", clock: "host"},
	{name: "tenant.drr_ns.t64", unit: "ns", better: "lower", clock: "host"},
	{name: "tenant.drr_allocs", unit: "count", better: "lower", clock: "host"},
	{name: "tenant.sweep_req_per_s", unit: "1/s", better: "higher", clock: "host"},
	{name: "tenant.victim_goodput_frac", unit: "ratio", better: "higher", clock: "sim"},
	{name: "tenant.victim_p95_ms", unit: "ms", better: "lower", clock: "sim"},
	// trace and telemetry
	{name: "trace.off_over_on", unit: "ratio", better: "higher", clock: "host"},
	{name: "trace.span_ns", unit: "ns", better: "lower", clock: "host"},
	{name: "trace.span_allocs", unit: "count", better: "lower", clock: "host"},
	{name: "trace.spans_per_op", unit: "count", better: "lower", clock: "sim"},
	{name: "trace.spans_dropped", unit: "count", better: "lower", clock: "sim"},
	{name: "trace.summarize_us", unit: "us", better: "lower", clock: "host"},
	{name: "telemetry.observe_ns", unit: "ns", better: "lower", clock: "host"},
	{name: "telemetry.snapshot_us", unit: "us", better: "lower", clock: "host"},
	// tosca, continuum, cluster
	{name: "tosca.parse_us.p3", unit: "us", better: "lower", clock: "host"},
	{name: "tosca.parse_us.wide", unit: "us", better: "lower", clock: "host"},
	{name: "continuum.build_ms.default", unit: "ms", better: "lower", clock: "host"},
	{name: "continuum.build_ms.edge1000", unit: "ms", better: "lower", clock: "host"},
	{name: "cluster.bind_us", unit: "us", better: "lower", clock: "host"},
	{name: "deploy_us", unit: "us", better: "lower", clock: "host"},
	// what the modelled continuum delivers (exact per seed)
	{name: "model.fail_frac", unit: "ratio", better: "lower", clock: "sim"},
	{name: "model.sim_lat_ms_p50", unit: "ms", better: "lower", clock: "sim"},
	{name: "model.sim_lat_ms_p95", unit: "ms", better: "lower", clock: "sim"},
	{name: "model.goodput_retention", unit: "ratio", better: "higher", clock: "sim"},
	{name: "model.availability", unit: "ratio", better: "higher", clock: "sim"},
	{name: "model.mttr_ms_p95", unit: "ms", better: "lower", clock: "sim"},
	{name: "model.rpo_items", unit: "count", better: "lower", clock: "sim"},
	{name: "model.share.device", unit: "ratio", better: "lower", clock: "sim"},
	{name: "model.share.network", unit: "ratio", better: "lower", clock: "sim"},
	{name: "model.share.broker", unit: "ratio", better: "lower", clock: "sim"},
	{name: "model.share.cluster", unit: "ratio", better: "lower", clock: "sim"},
	{name: "model.share.agent", unit: "ratio", better: "lower", clock: "sim"},
	// the harness itself
	{name: "bench.timer_ns", unit: "ns", better: "lower", clock: "host"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower", clock: "host"},
	{name: "bench.unattributed_frac", unit: "ratio", better: "lower", clock: "host"},
}
