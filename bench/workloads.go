package main

import (
	_ "embed"
	"errors"
	"fmt"
	"strings"

	"myrtus"
	"myrtus/internal/chaos"
	"myrtus/internal/continuum"
	"myrtus/internal/mirto"
	"myrtus/internal/overload"
	"myrtus/internal/sim"
	"myrtus/internal/tosca"
	"myrtus/internal/trace"
)

//go:embed testdata/pipeline3.yaml
var pipeline3 string

// ingress is the edge device every request's input originates at.
const ingress = "edge-rv-0"

// workloadSpec names one workload; BENCHMARK.json carries the same
// names and reasons, and bench_test.go checks they do not drift.
type workloadSpec struct {
	name string
	why  string
	make func(seed uint64, scale float64) runner
}

var workloads = []workloadSpec{
	{"serve-steady", "closed loop, 1 client, one long-lived default continuum: the serve hot path (runtime, fabric, device, sim, trace, telemetry); planner, KB and state idle",
		func(seed uint64, scale float64) runner { return newServeSteady(seed, scale) }},
	{"overload-sweep", "open loop on the sim clock at 0.5x-4x capacity: same serve path with hundreds in flight, a deep event heap and most submits refused by admission; bypasses planner churn",
		func(seed uint64, scale float64) runner { return newOverloadSweep(seed, scale) }},
	{"chaos-recover", "open loop with retries under seeded faults: detector, health, MAPE-K delta replans, fenced state, checkpoints and the raft KB, plus two full stack builds per run",
		func(seed uint64, scale float64) runner { return newChaosRecover(seed, scale) }},
	{"plan-churn", "closed loop, 1 caller at edge-1000: fail/dirty/delta-replan/repair/plan; planner reads beside index writes, serve path idle",
		func(seed uint64, scale float64) runner { return newPlanChurn(seed, scale) }},
}

func scaled(n int, scale float64, min int) int {
	v := int(float64(n)*scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

func simMs(ts []sim.Time) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.Seconds() * 1e3
	}
	return out
}

// ---------------------------------------------------------------------
// serve-steady
// ---------------------------------------------------------------------

// serveSteady drives ServeRequest on one deployed three-stage pipeline.
type serveSteady struct {
	seed     uint64
	perRound int

	sys *myrtus.System
	app string

	served, errs int64 // every request since the last setup, warm-up included
	// Model rounds only: what each request returned, and the statistics
	// frozen when the last of them ended.
	lats      []sim.Time
	energy    float64
	modelErrs int64
	fired0    uint64 // engine events before the first timed round
	stats     modelStats
}

// serveModelRounds x perRound requests feed the simulated statistics.
const serveModelRounds = 10

func newServeSteady(seed uint64, scale float64) *serveSteady {
	return &serveSteady{seed: seed, perRound: scaled(10_000, scale, 50)}
}

func (w *serveSteady) setup(rec *recorder) error {
	opts := myrtus.DefaultOptions()
	opts.Infrastructure.Seed = w.seed
	id := rec.begin("myrtus.New")
	sys, err := myrtus.New(opts)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("DeployYAML")
	plan, err := sys.DeployYAML(pipeline3)
	rec.end(id)
	if err != nil {
		return err
	}
	*w = serveSteady{seed: w.seed, perRound: w.perRound, sys: sys, app: plan.App}
	return nil
}

func (w *serveSteady) serve(n int, keep bool, rec *recorder) (failed int64) {
	for i := 0; i < n; i++ {
		id := rec.begin("ServeRequest")
		lat, en, err := w.sys.ServeRequest(w.app, ingress, 4)
		rec.end(id)
		w.served++
		if err != nil {
			w.errs++
			failed++
			continue
		}
		if keep {
			w.lats = append(w.lats, lat)
			w.energy += en
		}
	}
	return failed
}

func (w *serveSteady) warm() error {
	w.serve(scaled(w.perRound, 0.1, 5), false, nil)
	w.fired0 = w.sys.Continuum.Engine.Fired()
	return nil
}

func (w *serveSteady) minRounds() int { return serveModelRounds }

func (w *serveSteady) round(i int, rec *recorder) (int64, int64, error) {
	inModel := i < serveModelRounds
	failed := w.serve(w.perRound, inModel, rec)
	if inModel {
		w.modelErrs += failed
	}
	if i == serveModelRounds-1 {
		w.freeze()
	}
	// Request conservation: everything the driver sent is accounted for
	// by the runtime as served or failed.
	k, ok := w.sys.KPIs(w.app)
	if !ok {
		return 0, 0, errors.New("no KPIs for the deployed app")
	}
	if k.Requests != w.served || k.Failed != w.errs {
		return 0, 0, fmt.Errorf("request conservation: sent %d (failed %d), runtime counted %d (failed %d)",
			w.served, w.errs, k.Requests, k.Failed)
	}
	return int64(w.perRound), failed, nil
}

// freeze computes the simulated statistics at the end of the model
// rounds, so they do not depend on how many more rounds the host fits
// into the budget.
func (w *serveSteady) freeze() {
	c := w.sys.Continuum
	ops := float64(serveModelRounds * w.perRound)
	served := float64(w.served)
	ms := simMs(w.lats)
	fs := c.Fabric.Stats()
	ts := c.Tracer.Stats()
	fired := c.Engine.Fired()
	var hops int64
	for _, ls := range c.Topo.Stats() {
		hops += ls.Transfers
	}
	st := modelStats{
		OK: int64(len(w.lats)), Attempted: int64(ops),
		Sim: map[string]float64{
			"model.fail_frac":      float64(w.modelErrs) / ops,
			"model.sim_lat_ms_p50": quantile(ms, 0.50),
			"model.sim_lat_ms_p95": quantile(ms, 0.95),
			"sim.events_per_op":    float64(fired-w.fired0) / ops,
			"network.delivered":    float64(fs.Delivered),
			"network.retries":      float64(fs.Retries),
			"network.lost":         float64(fs.Lost),
			"network.queue_drops":  float64(fs.QueueDrops),
			"network.backoff_ms":   fs.BackoffTime.Seconds() * 1e3,
			"trace.spans_per_op":   float64(ts.SpansRecorded) / served,
			"trace.spans_dropped":  float64(ts.SpansDropped),
		},
		Calls: map[string]float64{
			"sim.events":    float64(fired-w.fired0) / ops,
			"network.sends": float64(fs.Delivered) / served,
			"network.hops":  float64(hops) / served,
			// pipeline3: camera and aggregator run on cores, the detector
			// on the FPGA fabric.
			"device.cpu":  2,
			"device.fpga": 1,
		},
	}
	sum := trace.Summarize(w.sys.Traces())
	for _, ls := range sum.Layers {
		st.Sim["model.share."+string(ls.Layer)] = ls.Share
	}
	var d digest
	var latSum sim.Time
	for _, l := range w.lats {
		latSum += l
	}
	d.add("serve-steady n=%d ok=%d latsum=%d energy=%.9g fired=%d now=%d delivered=%d spans=%d\n%s",
		int64(ops), len(w.lats), latSum, w.energy, fired, c.Engine.Now(), fs.Delivered, ts.SpansRecorded,
		trace.RenderSummary(sum))
	st.Digest = d.String()
	w.stats = st
}

func (w *serveSteady) model() modelStats { return w.stats }

// ---------------------------------------------------------------------
// overload-sweep
// ---------------------------------------------------------------------

// overloadSweep runs the protected overload sweep again and again; every
// sweep of one seed must render byte-identically.
type overloadSweep struct {
	seed     uint64
	duration sim.Time

	first  *overload.Report
	render string
}

func newOverloadSweep(seed uint64, scale float64) *overloadSweep {
	d := sim.Time(20 * scale * float64(sim.Second))
	if d < 200*sim.Millisecond {
		d = 200 * sim.Millisecond
	}
	return &overloadSweep{seed: seed, duration: d}
}

// setup is the same public call at negligible load: the sweep builds and
// deploys seven continua (one to calibrate, one per point) inside Run.
func (w *overloadSweep) setup(*recorder) error {
	_, err := overload.Run(overload.Config{Seed: w.seed, Admission: true, Duration: 200 * sim.Millisecond})
	return err
}

func (w *overloadSweep) warm() error { return nil } // the set-up repetitions are the warm-up

// Two sweeps at least, so the byte-identity check always compares.
func (w *overloadSweep) minRounds() int { return 2 }

func (w *overloadSweep) round(i int, rec *recorder) (int64, int64, error) {
	id := rec.begin("overload.Run")
	rep, err := overload.Run(overload.Config{Seed: w.seed, Admission: true, Duration: w.duration})
	rec.end(id)
	if err != nil {
		return 0, 0, err
	}
	var submitted int64
	for _, p := range rep.Points {
		submitted += p.Submitted
		var sum int64
		for _, c := range p.Classes {
			sum += c.Good + c.Late + c.Failed + c.Shed
		}
		if sum != p.Submitted {
			return 0, 0, fmt.Errorf("request conservation at %.2fx: submitted %d, good+late+failed+shed %d",
				p.Multiplier, p.Submitted, sum)
		}
	}
	render := rep.Render()
	if w.first == nil {
		w.first, w.render = rep, render
	} else if render != w.render {
		return 0, 0, fmt.Errorf("sweep %d rendered differently from sweep 0", i)
	}
	return submitted, 0, nil
}

func (w *overloadSweep) model() modelStats {
	rep := w.first
	st := modelStats{Sim: map[string]float64{}, Calls: map[string]float64{}}
	var failed, shed, late, rejects, drops, opens, fast int64
	for _, p := range rep.Points {
		st.Attempted += p.Submitted
		st.OK += p.Good
		for _, c := range p.Classes {
			failed += c.Failed
			shed += c.Shed
			late += c.Late
		}
		rejects += p.DeviceRejects
		drops += p.LinkDrops
		opens += p.BreakerOpens
		fast += p.BreakerFast
		if p.Multiplier == 1 {
			st.Sim["model.sim_lat_ms_p95"] = p.P95Ms
		}
	}
	last := rep.Points[len(rep.Points)-1]
	st.Sim["model.fail_frac"] = 1 - float64(st.OK)/float64(st.Attempted)
	if peak := rep.PeakGoodput(); peak > 0 {
		st.Sim["model.goodput_retention"] = last.GoodputRPS / peak
	}
	st.Sim["device.rejected"] = float64(rejects)
	st.Sim["network.queue_drops"] = float64(drops)
	st.Sim["breaker.opens"] = float64(opens)
	st.Sim["breaker.fast_fails"] = float64(fast)
	st.Sim["admission.shed_frac.high"] = last.Classes[mirto.PriorityHigh].ShedFrac()
	st.Sim["admission.shed_frac.med"] = last.Classes[mirto.PriorityMedium].ShedFrac()
	st.Sim["admission.shed_frac.low"] = last.Classes[mirto.PriorityLow].ShedFrac()
	var lastShed int64
	for _, c := range last.Classes {
		lastShed += c.Shed
	}
	if admitted := last.Submitted - lastShed; admitted > 0 {
		st.Sim["admission.useful_frac"] = float64(last.Good) / float64(admitted)
	}
	ops := float64(st.Attempted)
	st.Calls["runtime.shed"] = float64(shed) / ops
	st.Calls["runtime.serve"] = float64(st.Attempted-shed) / ops
	// One continuum to calibrate and one per point, three apps on each.
	builds := float64(1 + len(rep.Points))
	st.Calls["continuum.build"] = builds / ops
	st.Calls["deploy"] = 3 * builds / ops
	var d digest
	d.add("overload-sweep %s", w.render)
	st.Digest = d.String()
	return st
}

// ---------------------------------------------------------------------
// chaos-recover
// ---------------------------------------------------------------------

var chaosScenarios = []string{"edge-flap", "fog-partition"}

// chaosRecover runs the two bundled fault scenarios, stateful, with the
// whole defense stack attached, over consecutive seeds: round i is
// scenario i mod 2 at seed + (i/2) mod nSeeds. Past the last seed it
// starts over and compares each report with its first rendering.
type chaosRecover struct {
	seed   uint64
	nSeeds int
	// cut shortens the scenarios for the -scale test (0 = full length).
	cut sim.Time

	renders []string         // model rounds, in run order
	reports []*chaos.Report  // model rounds, in run order
	handles chaos.RunHandles // of the most recent chaos arm
	fired   uint64           // engine events of the chaos arms, model rounds
}

func newChaosRecover(seed uint64, scale float64) *chaosRecover {
	w := &chaosRecover{seed: seed, nSeeds: scaled(12, scale, 1)}
	if scale < 1 {
		w.cut = sim.Time(60 * scale * float64(sim.Second))
		if w.cut < 2*sim.Second {
			w.cut = 2 * sim.Second
		}
	}
	return w
}

func (w *chaosRecover) config(seed uint64) chaos.Config {
	return chaos.Config{Seed: seed, MAPEK: true, Stateful: true, Health: true, Fencing: true,
		Hook: func(h chaos.RunHandles) { w.handles = h }}
}

// setup is chaos.Run on an event-free one-second scenario with the same
// config: two full stack builds and deploys, next to no load.
func (w *chaosRecover) setup(*recorder) error {
	idle := chaos.Statefulize(chaos.Scenario{
		Name: "idle", Ingress: ingress, Duration: sim.Second,
		SLO: mirto.SLO{P95LatencyMs: 250, MaxFailureRate: 0.05},
	})
	_, err := chaos.Run(idle, w.config(w.seed))
	return err
}

func (w *chaosRecover) warm() error { return nil } // the set-up repetitions are the warm-up

func (w *chaosRecover) modelRounds() int { return len(chaosScenarios) * w.nSeeds }

// One more than the model rounds, so the first report is always produced
// twice and compared.
func (w *chaosRecover) minRounds() int { return w.modelRounds() + 1 }

func (w *chaosRecover) round(i int, rec *recorder) (int64, int64, error) {
	k := i % w.modelRounds()
	name := chaosScenarios[k%len(chaosScenarios)]
	seed := w.seed + uint64(k/len(chaosScenarios))
	sc, err := chaos.BuiltIn(name, seed)
	if err != nil {
		return 0, 0, err
	}
	sc = chaos.Statefulize(sc)
	if w.cut > 0 {
		sc.Duration = w.cut
	}
	id := rec.begin("chaos.Run")
	rep, err := chaos.Run(sc, w.config(seed))
	rec.end(id)
	if err != nil {
		return 0, 0, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	if rep.Total != rep.OK+rep.Recovered+rep.Lost {
		return 0, 0, fmt.Errorf("%s seed %d: request conservation: total %d, ok+recovered+lost %d",
			name, seed, rep.Total, rep.OK+rep.Recovered+rep.Lost)
	}
	if len(rep.DivergentCells) > 0 {
		return 0, 0, fmt.Errorf("%s seed %d: state diverged from the fault-free reference in %v",
			name, seed, rep.DivergentCells)
	}
	render := rep.Render()
	if i < w.modelRounds() {
		w.renders = append(w.renders, render)
		w.reports = append(w.reports, rep)
		w.fired += w.handles.C.Engine.Fired()
	} else if render != w.renders[k] {
		return 0, 0, fmt.Errorf("%s seed %d rendered differently on a later pass", name, seed)
	}
	return int64(rep.Total), 0, nil
}

func (w *chaosRecover) model() modelStats {
	st := modelStats{Sim: map[string]float64{}, Calls: map[string]float64{}}
	var lats, mttr, rto []sim.Time
	var d digest
	attr := map[trace.Layer]sim.Time{}
	var attrTotal sim.Time
	add := func(name string, v float64) { st.Sim[name] += v }
	for _, rep := range w.reports {
		st.Attempted += int64(rep.Total)
		st.OK += int64(rep.OK + rep.Recovered)
		lats = append(lats, rep.Latencies...)
		mttr = append(mttr, rep.MTTRSamples...)
		rto = append(rto, rep.RTOSamples...)
		add("model.rpo_items", float64(rep.RPOItems))
		add("runtime.retries", float64(rep.AttemptFailures))
		add("runtime.recovered", float64(rep.Recovered))
		add("runtime.lost", float64(rep.Lost))
		add("network.delivered", float64(rep.Fabric.Delivered))
		add("network.retries", float64(rep.Fabric.Retries))
		add("network.lost", float64(rep.Fabric.Lost))
		add("network.queue_drops", float64(rep.Fabric.QueueDrops))
		add("network.backoff_ms", rep.Fabric.BackoffTime.Seconds()*1e3)
		add("breaker.opens", float64(rep.BreakerOpens))
		add("breaker.fast_fails", float64(rep.BreakerFastFails))
		add("state.applied", float64(rep.StateApplied))
		add("state.dedup_hits", float64(rep.DedupHits))
		add("state.invalidations", float64(rep.Invalidations))
		add("state.journal_replayed", float64(rep.JournalReplayed))
		add("fence.tokens_minted", float64(rep.Fence.TokensMinted))
		add("fence.fenced_writes", float64(rep.FencedWrites))
		add("fence.epoch_rejects", float64(rep.Fence.PlanEpochRejects))
		add("checkpoint.fulls", float64(rep.Ckpt.Fulls))
		add("checkpoint.deltas", float64(rep.Ckpt.Deltas))
		add("checkpoint.bytes", float64(rep.Ckpt.BytesSent))
		add("checkpoint.restores", float64(rep.Ckpt.Restores))
		add("checkpoint.gc_keys", float64(rep.Ckpt.KeysDeleted))
		add("health.suspects", float64(rep.Health.Suspects))
		add("health.quarantines", float64(rep.Health.Quarantines))
		add("health.hedges_fired", float64(rep.Health.HedgesFired))
		add("detector.suspected", float64(rep.Suspected))
		add("detector.confirmed", float64(rep.Confirmed))
		add("mapek.iterations", float64(rep.LoopIterations))
		add("mapek.replans", float64(rep.Replans))
		add("mapek.delta_replans", float64(rep.DeltaReplans))
		for _, ls := range rep.Attribution() {
			attr[ls.Layer] += ls.Time
			attrTotal += ls.Time
		}
	}
	for _, render := range w.renders {
		d.add("%s", render)
	}
	lm := simMs(lats)
	st.Sim["model.fail_frac"] = 1 - float64(st.OK)/float64(st.Attempted)
	st.Sim["model.availability"] = float64(st.OK) / float64(st.Attempted)
	st.Sim["model.sim_lat_ms_p50"] = quantile(lm, 0.50)
	st.Sim["model.sim_lat_ms_p95"] = quantile(lm, 0.95)
	st.Sim["model.mttr_ms_p95"] = quantile(simMs(mttr), 0.95)
	st.Sim["state.rto_ms_p95"] = quantile(simMs(rto), 0.95)
	st.Sim["sim.events_per_op"] = float64(w.fired) / float64(st.Attempted)
	if attrTotal > 0 {
		for l, t := range attr {
			st.Sim["model.share."+string(l)] = float64(t) / float64(attrTotal)
		}
	}
	ops := float64(st.Attempted)
	runs := float64(len(w.reports))
	st.Calls["runtime.serve"] = 1
	// Each run wires the stack twice: the chaos arm and its fault-free
	// reference, which serves the same schedule again.
	st.Calls["continuum.build"] = 2 * runs / ops
	st.Calls["deploy"] = 2 * runs / ops
	st.Calls["reference.serve"] = 1
	st.Calls["ticks"] = 2 * st.Sim["mapek.iterations"] / ops
	st.Calls["state.apply"] = 2 * st.Sim["state.applied"] / ops
	st.Digest = d.String()
	return st
}

// ---------------------------------------------------------------------
// plan-churn
// ---------------------------------------------------------------------

// planChurn keeps a wide deployment alive at edge-1000 while devices
// fail and come back: each iteration fails one stage's device, replans
// the dirty stages incrementally, repairs the device and plans a small
// app from scratch.
type planChurn struct {
	seed     uint64
	edge     int
	chains   int
	perRound int

	c     *continuum.Continuum
	m     *mirto.Manager
	wide  *mirto.Plan
	small *tosca.ServiceTemplate
	rng   *sim.RNG
	iter  int

	// model-round statistics
	replans, dirty, replaced, scored, kept int64
	d                                      digest
}

const planModelRounds = 10

func newPlanChurn(seed uint64, scale float64) *planChurn {
	return &planChurn{
		seed:     seed,
		edge:     scaled(1000, scale, 30),
		chains:   scaled(96, scale, 3),
		perRound: scaled(50, scale, 4),
	}
}

// wideApp generates `chains` independent camera -> detector -> aggregator
// pipelines; cameras and aggregators are pinned to the edge and
// aggregators carry medium security, so one device failure dirties one
// or two stages out of 3 x chains.
func wideApp(chains int) string {
	var sb strings.Builder
	sb.WriteString("tosca_definitions_version: tosca_2_0\nmetadata:\n  template_name: bench-wide\ntopology_template:\n  node_templates:\n")
	var cams, aggs []string
	for i := 0; i < chains; i++ {
		cam, det, agg := fmt.Sprintf("cam-%02d", i), fmt.Sprintf("det-%02d", i), fmt.Sprintf("agg-%02d", i)
		cams, aggs = append(cams, cam), append(aggs, agg)
		fmt.Fprintf(&sb, "    %s:\n      type: myrtus.nodes.Container\n      properties: {cpu: 2, memoryMB: 256, gops: 0.4, outMB: 2.0, inMB: 4.0}\n", cam)
		fmt.Fprintf(&sb, "    %s:\n      type: myrtus.nodes.Container\n      properties: {cpu: 2, memoryMB: 512, gops: 6, outMB: 0.2}\n      requirements:\n        - source: %s\n", det, cam)
		fmt.Fprintf(&sb, "    %s:\n      type: myrtus.nodes.Container\n      properties: {cpu: 3, memoryMB: 1024, gops: 4, outMB: 0.05}\n      requirements:\n        - source: %s\n", agg, det)
	}
	sb.WriteString("  policies:\n")
	fmt.Fprintf(&sb, "    - cam-edge:\n        type: myrtus.policies.Placement\n        targets: [%s]\n        properties: {layer: edge}\n", strings.Join(cams, ", "))
	fmt.Fprintf(&sb, "    - agg-edge:\n        type: myrtus.policies.Placement\n        targets: [%s]\n        properties: {layer: edge}\n", strings.Join(aggs, ", "))
	fmt.Fprintf(&sb, "    - agg-medium:\n        type: myrtus.policies.Security\n        targets: [%s]\n        properties: {level: medium}\n", strings.Join(aggs, ", "))
	return sb.String()
}

// scaleOptions sizes a continuum with about `edge` edge devices, split
// evenly over the three edge kinds, one KB replica.
func scaleOptions(seed uint64, edge int) continuum.Options {
	opts := continuum.DefaultOptions()
	opts.Seed = seed
	opts.KBReplicas = 1
	opts.Multicores, opts.HMPSoCs, opts.RISCVs = edge/3, edge/3, edge/3
	opts.FMDCServers = 2 + edge/10
	return opts
}

func (w *planChurn) setup(rec *recorder) error {
	id := rec.begin("continuum.Build")
	c, err := continuum.Build(scaleOptions(w.seed, w.edge))
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("tosca.Parse")
	wide, err := tosca.Parse(wideApp(w.chains))
	rec.end(id)
	if err != nil {
		return err
	}
	small, err := tosca.Parse(pipeline3)
	if err != nil {
		return err
	}
	m := mirto.NewManager(c, mirto.LatencyGoal())
	id = rec.begin("Plan.wide")
	plan, err := m.Plan(wide)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("Execute")
	err = m.Execute(plan)
	rec.end(id)
	if err != nil {
		return err
	}
	*w = planChurn{seed: w.seed, edge: w.edge, chains: w.chains, perRound: w.perRound,
		c: c, m: m, wide: plan, small: small, rng: sim.NewRNG(w.seed).Fork("bench/plan-churn")}
	return nil
}

// iterate is one fail -> dirty -> delta replan -> repair -> small plan
// cycle; keep folds its statistics into the model.
func (w *planChurn) iterate(keep bool, rec *recorder) error {
	w.iter++
	victim := w.wide.Assignments[w.rng.Intn(len(w.wide.Assignments))]
	id := rec.begin("FailDevice")
	err := w.c.FailDevice(victim.Device)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("DirtyStages")
	dirty := w.m.DirtyStages(w.wide)
	rec.end(id)
	if !dirty[victim.TemplateNode] {
		return fmt.Errorf("stage %s on failed device %s is not dirty", victim.TemplateNode, victim.Device)
	}
	id = rec.begin("DeltaReplan")
	np, stats, err := w.m.DeltaReplan(w.wide, dirty)
	rec.end(id)
	if err != nil {
		return fmt.Errorf("delta replan after failing %s: %w", victim.Device, err)
	}
	// Plan validity: nothing may stay on the failed device.
	for _, a := range np.Assignments {
		if a.Device == victim.Device {
			return fmt.Errorf("delta replan left %s on failed device %s", a.TemplateNode, a.Device)
		}
	}
	if len(np.Assignments) != len(w.wide.Assignments) {
		return fmt.Errorf("delta replan has %d assignments, want %d", len(np.Assignments), len(w.wide.Assignments))
	}
	w.wide = np
	id = rec.begin("RepairDevice")
	err = w.c.RepairDevice(victim.Device)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("Plan")
	sp, err := w.m.Plan(w.small)
	rec.end(id)
	if err != nil {
		return err
	}
	var wideScore float64
	if w.iter%50 == 0 {
		id = rec.begin("Plan.wide")
		full, err := w.m.Plan(w.wide.Template)
		rec.end(id)
		if err != nil {
			return err
		}
		wideScore = full.Score
	}
	if keep {
		w.replans++
		w.dirty += int64(len(dirty))
		w.replaced += int64(stats.Replaced)
		w.scored += int64(stats.Scored)
		w.kept += int64(stats.Kept)
		w.d.add("%s %d %d %d %d %d %.17g %.17g %.17g", victim.Device, len(dirty),
			stats.Kept, stats.Replaced, stats.Moved, stats.Scored, np.Score, sp.Score, wideScore)
	}
	return nil
}

func (w *planChurn) warm() error {
	for i := 0; i < scaled(w.perRound, 0.1, 1); i++ {
		if err := w.iterate(false, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *planChurn) minRounds() int { return planModelRounds }

func (w *planChurn) round(i int, rec *recorder) (int64, int64, error) {
	for j := 0; j < w.perRound; j++ {
		if err := w.iterate(i < planModelRounds, rec); err != nil {
			return 0, 0, err
		}
	}
	return int64(w.perRound), 0, nil
}

func (w *planChurn) model() modelStats {
	n := float64(w.replans)
	return modelStats{
		OK: w.replans, Attempted: w.replans,
		Sim: map[string]float64{
			"planner.dirty_per_replan":    float64(w.dirty) / n,
			"planner.replaced_per_replan": float64(w.replaced) / n,
			"planner.scored_per_replan":   float64(w.scored) / n,
		},
		Calls:  map[string]float64{},
		Digest: w.d.String(),
	}
}
