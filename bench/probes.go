package main

import (
	"fmt"
	"runtime"
	"time"

	"myrtus"
	"myrtus/internal/cluster"
	"myrtus/internal/continuum"
	"myrtus/internal/device"
	"myrtus/internal/kb"
	"myrtus/internal/mirto"
	"myrtus/internal/network"
	"myrtus/internal/overload"
	"myrtus/internal/sim"
	"myrtus/internal/telemetry"
	"myrtus/internal/tenant"
	"myrtus/internal/tosca"
	"myrtus/internal/trace"
)

// Probes are fixed-count micro-loops: each calls one public function of
// one layer on state shaped like a workload's and reports the median
// batch's host time per call. They run in the traced run only, before
// the workload, from the fresh process's heap, so they do not depend on
// which workload that is.

// probeBatches is how many equal batches a probe's calls are split
// into; the reported time is the median batch.
const probeBatches = 12

// cost is what one probed call costs on the host.
type cost struct{ ns, allocs float64 }

// timeCalls runs fn perBatch times in each of probeBatches batches,
// after one untimed batch.
func timeCalls(perBatch int, fn func()) cost {
	if perBatch < 1 {
		perBatch = 1
	}
	for i := 0; i < perBatch; i++ {
		fn()
	}
	per := make([]float64, probeBatches)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(perBatch)
	}
	runtime.ReadMemStats(&after)
	n := float64(probeBatches * perBatch)
	return cost{ns: median(per), allocs: float64(after.Mallocs-before.Mallocs) / n}
}

// prober collects the probe results; the first error stops the rest.
type prober struct {
	seed  uint64
	scale float64
	out   map[string]float64
	err   error
}

func (p *prober) n(full int) int { return scaled(full, p.scale, 2) }

func (p *prober) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// runProbes runs every probe and returns the per-layer host metrics.
func runProbes(seed uint64, scale float64) (map[string]float64, error) {
	p := &prober{seed: seed, scale: scale, out: map[string]float64{}}
	for _, f := range []func(){
		p.harness, p.simKernel, p.fabricAndDevice, p.servePath, p.admissionAndBreaker,
		p.planner, p.stateAndFence, p.knowledgeBase, p.controlLoops, p.tenancy,
		p.traceAndTelemetry, p.buildAndDeploy,
	} {
		if p.err == nil {
			f()
		}
	}
	return p.out, p.err
}

func (p *prober) harness() {
	var sink time.Duration
	c := timeCalls(p.n(200_000), func() {
		t0 := time.Now()
		sink += time.Since(t0)
	})
	_ = sink
	p.out["bench.timer_ns"] = c.ns
}

// simKernel times Engine.At + Engine.Step with 1, 1k and 100k events
// standing in the heap: the scheduled event is always the earliest, so
// it sifts the whole depth up and the pop sifts the last leaf down.
func (p *prober) simKernel() {
	nop := func() {}
	for _, d := range []struct {
		name  string
		depth int
	}{{"d1", 1}, {"d1k", 1000}, {"d100k", p.n(100_000)}} {
		eng := sim.NewEngine(p.seed)
		for i := 0; i < d.depth; i++ {
			eng.At(sim.Time(1_000_000+i)*sim.Second, nop)
		}
		c := timeCalls(p.n(50_000), func() {
			eng.At(eng.Now(), nop)
			eng.Step()
		})
		p.out["sim.step_ns."+d.name] = c.ns
		if d.depth == 1 {
			p.out["sim.step_allocs"] = c.allocs
		}
	}
}

func (p *prober) defaultContinuum() *continuum.Continuum {
	opts := continuum.DefaultOptions()
	opts.Seed = p.seed
	c, err := continuum.Build(opts)
	p.fail(err)
	return c
}

// servedSystem is a default system with pipeline3 deployed and a few
// hundred requests behind it, so tracer ring and histograms are full.
func (p *prober) servedSystem() (*myrtus.System, *mirto.Plan) {
	opts := myrtus.DefaultOptions()
	opts.Infrastructure.Seed = p.seed
	sys, err := myrtus.New(opts)
	if err != nil {
		p.fail(err)
		return nil, nil
	}
	plan, err := sys.DeployYAML(pipeline3)
	if err != nil {
		p.fail(err)
		return nil, nil
	}
	for i := 0; i < p.n(600); i++ {
		if _, _, err := sys.ServeRequest(plan.App, ingress, 4); err != nil {
			p.fail(err)
			return nil, nil
		}
	}
	return sys, plan
}

func (p *prober) fabricAndDevice() {
	c := p.defaultContinuum()
	if p.err != nil {
		return
	}
	// send also records, under probe.*, the hops of the route and the
	// sim events one transfer fires: the attribution table needs both.
	send := func(label, dst string) cost {
		path, _, err := c.Topo.Route(ingress, dst)
		if err != nil {
			p.fail(err)
			return cost{}
		}
		fired, sends := c.Engine.Fired(), 0
		got := timeCalls(p.n(20_000), func() {
			// 100 kB is the camera's output in pipeline3.
			if err := c.Fabric.Send(ingress, dst, 100_000, network.Options{Retries: 3}, nil); err != nil {
				p.fail(err)
			}
			c.Engine.Run()
			sends++
		})
		p.out["probe.send_hops."+label] = float64(len(path) - 1)
		p.out["probe.send_events."+label] = float64(c.Engine.Fired()-fired) / float64(sends)
		p.out["network.send_ns."+label] = got.ns
		return got
	}
	p.out["network.send_allocs"] = send("1hop", "fog-gw-0").allocs
	send("3hop", "cloud-srv-0")
	p.out["network.route_ns"] = timeCalls(p.n(200_000), func() {
		if _, ok := c.Topo.RouteLatency(ingress, "cloud-srv-0"); !ok {
			p.fail(fmt.Errorf("no route %s -> cloud-srv-0", ingress))
		}
	}).ns

	sys, plan := p.servedSystem()
	if p.err != nil {
		return
	}
	run := func(stage string, w device.Work) cost {
		a, ok := plan.Assignment(stage)
		if !ok {
			p.fail(fmt.Errorf("no assignment for %s", stage))
			return cost{}
		}
		dev := sys.Continuum.Devices[a.Device]
		now := sys.Continuum.Engine.Now()
		return timeCalls(p.n(100_000), func() {
			if _, err := dev.Run(w, now); err != nil {
				p.fail(err)
			}
		})
	}
	cpu := run("camera", device.Work{Name: "camera", GOps: 0.2, Items: 4})
	p.out["device.run_ns.cpu"] = cpu.ns
	p.out["device.run_allocs"] = cpu.allocs
	p.out["device.run_ns.fpga"] = run("detector", device.Work{Name: "detector", GOps: 2, Kernel: "conv2d", Items: 4}).ns
}

// servePath times ServeRequest call by call, and SubmitFrom against an
// admission controller with no tokens left.
func (p *prober) servePath() {
	sys, plan := p.servedSystem()
	if p.err != nil {
		return
	}
	n := p.n(40_000)
	us := make([]float64, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range us {
		t0 := time.Now()
		_, _, err := sys.ServeRequest(plan.App, ingress, 4)
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil {
			p.fail(err)
			return
		}
	}
	runtime.ReadMemStats(&after)
	p.out["runtime.serve_us_p50"] = quantile(us, 0.50)
	p.out["runtime.serve_us_p99"] = quantile(us, 0.99)
	p.out["runtime.serve_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	p.out["runtime.serve_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)

	eng := sys.Continuum.Engine
	rt := sys.Orchestrator.R
	rt.SetAdmission(mirto.NewAdmissionController(eng, mirto.AdmissionConfig{Rate: 1e-6, Burst: 8}))
	for rt.SubmitFrom(plan.App, ingress, 4, func(sim.Time, float64, error) {}) == nil {
		eng.Run()
	}
	shed := timeCalls(p.n(100_000), func() {
		if err := rt.SubmitFrom(plan.App, ingress, 4, nil); err == nil {
			p.fail(fmt.Errorf("submit admitted by an exhausted admission controller"))
		}
	})
	p.out["runtime.shed_ns"] = shed.ns
	p.out["runtime.shed_allocs"] = shed.allocs
}

func (p *prober) admissionAndBreaker() {
	eng := sim.NewEngine(p.seed)
	open := mirto.NewAdmissionController(eng, mirto.AdmissionConfig{Rate: 1e12, Burst: 1e12})
	ok := timeCalls(p.n(200_000), func() {
		if err := open.Admit(mirto.PriorityMedium, 0); err != nil {
			p.fail(err)
		}
	})
	p.out["admission.admit_ns.ok"] = ok.ns
	p.out["admission.admit_allocs"] = ok.allocs
	dry := mirto.NewAdmissionController(eng, mirto.AdmissionConfig{Rate: 1e-6, Burst: 8})
	for dry.Admit(mirto.PriorityHigh, 0) == nil {
	}
	p.out["admission.admit_ns.shed"] = timeCalls(p.n(200_000), func() {
		if err := dry.Admit(mirto.PriorityMedium, 0); err == nil {
			p.fail(fmt.Errorf("exhausted admission controller admitted"))
		}
	}).ns
	bs := mirto.NewBreakerSet(eng, mirto.BreakerConfig{})
	p.out["breaker.allow_ns"] = timeCalls(p.n(200_000), func() {
		if !bs.Allow(ingress) {
			p.fail(fmt.Errorf("closed breaker refused"))
		}
	}).ns
}

// planner times Manager.Plan of pipeline3 at three continuum sizes, and
// the pieces of a plan-churn iteration one by one at edge-1000.
func (p *prober) planner() {
	small, err := tosca.Parse(pipeline3)
	if err != nil {
		p.fail(err)
		return
	}
	planAt := func(c *continuum.Continuum, reps int) cost {
		m := mirto.NewManager(c, mirto.LatencyGoal())
		return timeCalls(reps, func() {
			if _, err := m.Plan(small); err != nil {
				p.fail(err)
			}
		})
	}
	p.out["planner.plan_us.edge6"] = planAt(p.defaultContinuum(), p.n(400)).ns / 1e3
	big, err := continuum.Build(scaleOptions(p.seed, p.n(10_000)))
	if err != nil {
		p.fail(err)
		return
	}
	p.out["planner.plan_us.edge10000"] = planAt(big, p.n(20)).ns / 1e3

	w := newPlanChurn(p.seed, p.scale)
	if err := w.setup(nil); err != nil {
		p.fail(err)
		return
	}
	at1000 := planAt(w.c, p.n(150))
	p.out["planner.plan_us.edge1000"] = at1000.ns / 1e3
	p.out["planner.plan_allocs.edge1000"] = at1000.allocs
	wide := timeCalls(p.n(3), func() {
		if _, err := w.m.Plan(w.wide.Template); err != nil {
			p.fail(err)
		}
	})
	p.out["planner.wide_plan_us"] = wide.ns / 1e3
	p.out["planner.execute_us"] = timeCalls(p.n(100), func() {
		plan, err := w.m.Plan(small)
		if err == nil {
			err = w.m.Execute(plan)
		}
		if err != nil {
			p.fail(err)
			return
		}
		w.m.Teardown(plan)
	}).ns/1e3 - at1000.ns/1e3

	// One churn iteration, piece by piece.
	n := p.n(240)
	var failUs, scanUs, deltaUs []float64
	var dirty, replaced, scored int
	var before, after runtime.MemStats
	var deltaMallocs uint64
	lap := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
	for i := 0; i < n; i++ {
		victim := w.wide.Assignments[w.rng.Intn(len(w.wide.Assignments))]
		t0 := time.Now()
		err := w.c.FailDevice(victim.Device)
		event := lap(t0)
		if err != nil {
			p.fail(err)
			return
		}
		t0 = time.Now()
		d := w.m.DirtyStages(w.wide)
		scanUs = append(scanUs, lap(t0))
		runtime.ReadMemStats(&before)
		t0 = time.Now()
		np, stats, err := w.m.DeltaReplan(w.wide, d)
		deltaUs = append(deltaUs, lap(t0))
		runtime.ReadMemStats(&after)
		if err != nil {
			p.fail(err)
			return
		}
		deltaMallocs += after.Mallocs - before.Mallocs
		w.wide = np
		dirty += len(d)
		replaced += stats.Replaced
		scored += stats.Scored
		t0 = time.Now()
		err = w.c.RepairDevice(victim.Device)
		failUs = append(failUs, event+lap(t0))
		if err != nil {
			p.fail(err)
			return
		}
	}
	p.out["planner.delta_us_p50"] = quantile(deltaUs, 0.50)
	p.out["planner.delta_us_p99"] = quantile(deltaUs, 0.99)
	p.out["planner.delta_allocs"] = float64(deltaMallocs) / float64(n)
	if d := p.out["planner.delta_us_p50"]; d > 0 {
		p.out["planner.full_over_delta"] = wide.ns / 1e3 / d
	}
	p.out["planner.dirty_scan_us"] = median(scanUs)
	p.out["planner.index_event_us"] = median(failUs)
	p.out["planner.dirty_per_replan"] = float64(dirty) / float64(n)
	p.out["planner.replaced_per_replan"] = float64(replaced) / float64(n)
	p.out["planner.scored_per_replan"] = float64(scored) / float64(n)
}

func (p *prober) stateAndFence() {
	ss := mirto.NewStateStore(0)
	ss.SetFencing(true)
	const app, stage, dev = "bench-cam", "detector", "edge-hmp-0"
	ss.RaiseToken(app, stage, dev, 5)
	var id uint64
	fresh := timeCalls(p.n(100_000), func() {
		id++
		if !ss.ApplyFenced(app, stage, dev, id, 4, sim.Time(id), 5) {
			p.fail(fmt.Errorf("fresh apply %d rejected", id))
		}
	})
	p.out["state.apply_ns.fresh"] = fresh.ns
	p.out["state.apply_allocs"] = fresh.allocs
	p.out["state.apply_ns.dup"] = timeCalls(p.n(100_000), func() {
		if ss.ApplyFenced(app, stage, dev, id, 4, sim.Time(id), 5) {
			p.fail(fmt.Errorf("duplicate apply %d took effect", id))
		}
	}).ns
	p.out["state.apply_ns.stale"] = timeCalls(p.n(100_000), func() {
		id++
		if ss.ApplyFenced(app, stage, dev, id, 4, sim.Time(id), 3) {
			p.fail(fmt.Errorf("stale-token apply %d took effect", id))
		}
	}).ns

	fl := mirto.NewFenceLedger(kb.NewCluster(3, p.seed))
	_, rev := fl.Ensure(app, stage, "edge-hmp-0")
	owners := [2]string{"edge-hmp-1", "edge-hmp-0"}
	var i int
	p.out["fence.mint_us"] = timeCalls(p.n(300), func() {
		if _, ok := fl.Mint(app, stage, owners[i%2], rev); !ok {
			p.fail(fmt.Errorf("mint %d lost its CAS", i))
		}
		_, _, rev, _ = fl.Current(app, stage)
		i++
	}).ns / 1e3
}

// knowledgeBase times propose -> commit on the raft cluster at 1, 3 and
// 5 replicas, next to a bare store.
func (p *prober) knowledgeBase() {
	val := make([]byte, 256)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench/key-%02d", i)
	}
	var i int
	for _, r := range []int{1, 3, 5} {
		cl := kb.NewCluster(r, p.seed)
		d0, _ := cl.Stats()
		put := timeCalls(p.n(300), func() {
			cl.Put(keys[i%len(keys)], val)
			i++
		})
		p.out[fmt.Sprintf("kb.put_us.r%d", r)] = put.ns / 1e3
		if r != 3 {
			continue
		}
		d1, _ := cl.Stats()
		p.out["kb.put_allocs.r3"] = put.allocs
		p.out["kb.msgs_per_put.r3"] = float64(d1-d0) / float64((probeBatches+1)*p.n(300))
		rev := cl.Put("bench/cas", val)
		p.out["kb.cas_us.r3"] = timeCalls(p.n(300), func() {
			next, ok := cl.CAS("bench/cas", rev, val)
			if !ok {
				p.fail(fmt.Errorf("CAS at revision %d lost", rev))
			}
			rev = next
		}).ns / 1e3
		p.out["kb.get_ns.r3"] = timeCalls(p.n(2_000), func() {
			if _, ok := cl.Get("bench/cas"); !ok {
				p.fail(fmt.Errorf("committed key missing"))
			}
		}).ns
	}
	st := kb.NewStore()
	p.out["kb.store_put_ns"] = timeCalls(p.n(50_000), func() {
		st.Put(keys[i%len(keys)], val)
		i++
	}).ns
}

// controlLoops times one sensing pass of each control-plane loop on a
// healthy default continuum with pipeline3 deployed and served.
func (p *prober) controlLoops() {
	sys, plan := p.servedSystem()
	if p.err != nil {
		return
	}
	c := sys.Continuum
	a, _ := plan.Assignment("camera")
	dev := c.Devices[a.Device]
	now := c.Engine.Now()
	var seen int
	p.out["health.observe_ns"] = timeCalls(p.n(100_000), func() {
		now += sim.Millisecond
		sys.Health.Observe(dev, 0.2, now-sim.Millisecond, now)
		if seen++; seen%4096 == 0 {
			sys.Health.Tick(now) // drain the pending buffer as a ticked monitor would
		}
	}).ns
	p.out["health.tick_us"] = timeCalls(p.n(1_000), func() {
		now += 250 * sim.Millisecond
		sys.Health.Tick(now)
	}).ns / 1e3
	fd := mirto.NewFailureDetector(c, 2)
	p.out["detector.tick_us"] = timeCalls(p.n(150), func() {
		c.Heartbeat()
		fd.Tick()
	}).ns / 1e3
	loop, err := sys.Orchestrator.AttachLoop(plan.App, mirto.SLO{P95LatencyMs: 250, MaxFailureRate: 0.05})
	if err != nil {
		p.fail(err)
		return
	}
	p.out["mapek.iterate_us"] = timeCalls(p.n(300), func() { loop.Iterate() }).ns / 1e3
}

func (p *prober) tenancy() {
	drr := func(tenants int) cost {
		s := tenant.NewScheduler(64)
		ids := make([]string, tenants)
		for i := range ids {
			ids[i] = fmt.Sprintf("t%02d", i)
			s.AddTenant(ids[i], float64(1+i%3))
			for j := 0; j < 8; j++ {
				s.Enqueue(ids[i], 4, nil)
			}
		}
		var i int
		return timeCalls(p.n(100_000), func() {
			s.Enqueue(ids[i%tenants], 4, nil)
			if _, ok := s.Next(); !ok {
				p.fail(fmt.Errorf("DRR scheduler empty with a standing backlog"))
			}
			i++
		})
	}
	two := drr(2)
	p.out["tenant.drr_ns.t2"] = two.ns
	p.out["tenant.drr_allocs"] = two.allocs
	p.out["tenant.drr_ns.t64"] = drr(64).ns

	d := sim.Time(10 * p.scale * float64(sim.Second))
	if d < 200*sim.Millisecond {
		d = 200 * sim.Millisecond
	}
	t0 := time.Now()
	rep, err := overload.RunTenants(overload.TenantsConfig{Seed: p.seed, Quotas: true, Duration: d})
	took := time.Since(t0).Seconds()
	if err != nil {
		p.fail(err)
		return
	}
	var submitted int64
	for _, pt := range rep.Points {
		for _, ts := range pt.Tenants {
			submitted += ts.Submitted
		}
	}
	p.out["tenant.sweep_req_per_s"] = float64(submitted) / took
	for _, ts := range rep.Points[len(rep.Points)-1].Tenants {
		if ts.Tenant == overload.VictimTenant {
			p.out["tenant.victim_goodput_frac"] = ts.GoodputFrac()
			p.out["tenant.victim_p95_ms"] = ts.P95Ms
		}
	}
}

func (p *prober) traceAndTelemetry() {
	sys, plan := p.servedSystem()
	if p.err != nil {
		return
	}
	// Serve rate with the virtual tracer off over the default (every
	// request sampled), alternating so drift hits both alike.
	tr := sys.Continuum.Tracer
	every := tr.SampleEvery()
	var on, off []float64
	n := p.n(4_000)
	for b := 0; b < 2*probeBatches; b++ {
		if b%2 == 0 {
			tr.SetSampleEvery(every)
		} else {
			tr.SetSampleEvery(0)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, _, err := sys.ServeRequest(plan.App, ingress, 4); err != nil {
				p.fail(err)
				return
			}
		}
		rate := float64(n) / time.Since(t0).Seconds()
		if b%2 == 0 {
			on = append(on, rate)
		} else {
			off = append(off, rate)
		}
	}
	tr.SetSampleEvery(every)
	p.out["trace.off_over_on"] = median(off) / median(on)

	eng := sim.NewEngine(p.seed)
	bare := trace.NewTracer(eng)
	span := timeCalls(p.n(50_000), func() {
		root := bare.StartRoot("bench", trace.LayerAgent)
		sp := bare.StartSpan(root.Context(), "stage", trace.LayerDevice)
		sp.EndNow()
		root.EndNow()
	})
	p.out["trace.span_ns"] = span.ns / 2
	p.out["trace.span_allocs"] = span.allocs / 2
	traces := sys.Traces()
	p.out["trace.summarize_us"] = timeCalls(p.n(10), func() { trace.Summarize(traces) }).ns / 1e3

	h := telemetry.NewHistogram(0)
	var v float64
	obs := func() {
		v += 0.37
		h.Observe(v)
	}
	for i := 0; i < p.n(20_000); i++ {
		obs() // fill the reservoir
	}
	p.out["telemetry.observe_ns"] = timeCalls(p.n(200_000), obs).ns
	p.out["telemetry.snapshot_us"] = timeCalls(p.n(20), func() { h.Snapshot() }).ns / 1e3
}

func (p *prober) buildAndDeploy() {
	wideDoc := wideApp(scaled(96, p.scale, 3))
	p.out["tosca.parse_us.p3"] = timeCalls(p.n(300), func() {
		if _, err := tosca.Parse(pipeline3); err != nil {
			p.fail(err)
		}
	}).ns / 1e3
	p.out["tosca.parse_us.wide"] = timeCalls(p.n(4), func() {
		if _, err := tosca.Parse(wideDoc); err != nil {
			p.fail(err)
		}
	}).ns / 1e3
	opts := continuum.DefaultOptions()
	opts.Seed = p.seed
	p.out["continuum.build_ms.default"] = timeCalls(p.n(40), func() {
		if _, err := continuum.Build(opts); err != nil {
			p.fail(err)
		}
	}).ns / 1e6
	at1000 := scaleOptions(p.seed, p.n(1000))
	p.out["continuum.build_ms.edge1000"] = timeCalls(1, func() {
		if _, err := continuum.Build(at1000); err != nil {
			p.fail(err)
		}
	}).ns / 1e6

	c := p.defaultContinuum()
	if p.err != nil {
		return
	}
	spec := cluster.PodSpec{App: "bench", Requests: cluster.Resources{CPU: 0.5, MemMB: 128}}
	p.out["cluster.bind_us"] = timeCalls(p.n(20_000), func() {
		name, err := c.Edge.CreatePod(spec)
		if err == nil {
			err = c.Edge.Bind(name, ingress)
		}
		if err != nil {
			p.fail(err)
			return
		}
		c.Edge.DeletePod(name)
	}).ns / 1e3
	st, err := tosca.Parse(pipeline3)
	if err != nil {
		p.fail(err)
		return
	}
	o := mirto.NewOrchestrator(mirto.NewManager(c, mirto.LatencyGoal()))
	p.out["deploy_us"] = timeCalls(p.n(300), func() {
		plan, err := o.Deploy(st)
		if err == nil {
			err = o.Undeploy(plan.App)
		}
		if err != nil {
			p.fail(err)
		}
	}).ns / 1e3
}
