package mirto

import (
	"fmt"

	"myrtus/internal/device"
	"myrtus/internal/network"
	"myrtus/internal/sim"
	"myrtus/internal/telemetry"
	"myrtus/internal/trace"
)

// request is one admitted request. Its methods are the phases of its
// life, in order: Runtime.admit builds it, start opens the trace and
// feeds the source stages (ingest), runStage runs one stage through
// dispatch (dispatch.go) and hands the result to applyState and forward,
// deliver joins a consumer's inputs, and finish or fail ends it.
// Everything after admit runs on the engine's goroutine.
type request struct {
	r       *Runtime
	as      *appState
	ingress string
	items   int64
	id      uint64 // deterministic; retries reuse it, stateful stages dedup on it
	done    func(lat sim.Time, energy float64, err error)

	// The snapshot: read once under Runtime.mu at submit and never
	// re-read, so a request sees one plan and one set of hooks however
	// long it runs. The fencing token is the one exception (applyState).
	plan     *Plan
	bs       *BreakerSet
	hm       *HealthMonitor
	ss       *StateStore
	brownout int
	latency  *telemetry.Histogram
	energyC  *telemetry.Counter
	tracked  bool // holds one of the app's in-flight slots

	shape     *planShape
	begin     sim.Time
	root      *trace.Span
	rootCtx   trace.SpanContext
	stages    map[string]*stageState
	energy    float64
	sinksLeft int      // sink stages still to finish
	finishAt  sim.Time // latest sink finish so far
	// finished guards the terminal state: a multi-branch request may hit
	// several failures (or a failure plus surviving sinks), but done, the
	// counters and the in-flight slot are settled exactly once.
	finished bool
}

// stageState is one stage's join state within a request.
type stageState struct {
	arrived int
	ready   sim.Time
	failed  bool
	// ctx references the operation whose completion made this stage
	// runnable (last arrival wins: events fire in time order, so the
	// final writer is the critical input).
	ctx trace.SpanContext
}

// Submit schedules one request through the app's pipeline starting at
// the current virtual time. done (optional) fires in virtual time with
// the end-to-end latency and energy. The caller drives the engine.
func (r *Runtime) Submit(app string, items int64, done func(lat sim.Time, energy float64, err error)) error {
	return r.SubmitFrom(app, "", items, done)
}

// SubmitFrom is Submit with an explicit ingress: the request's input data
// (source stages' "inMB" property) physically originates at the ingress
// device, so source stages placed elsewhere pay the transfer — this is
// what makes edge placement of sensor-adjacent stages pay off.
func (r *Runtime) SubmitFrom(app, ingress string, items int64, done func(lat sim.Time, energy float64, err error)) error {
	return r.submitRequest(app, ingress, items, r.nextReqID(app), done)
}

// submitRequest is the serve path proper. reqID is the request's
// deterministic identity: a retry resubmits with the same ID, and
// stateful stages dedup on it so re-execution never double-applies.
// A refusal (unknown app, admission, in-flight bound) is returned and
// done never fires; otherwise done fires exactly once.
func (r *Runtime) submitRequest(app, ingress string, items int64, reqID uint64, done func(lat sim.Time, energy float64, err error)) error {
	q, err := r.admit(app, ingress, items, reqID, done)
	if q != nil {
		q.start()
	}
	return err
}

// admit runs the gates in front of the serve path — intake gate, plan
// lookup, admission control, in-flight bound — and returns the request
// once it is through all of them. A parked request returns (nil, nil):
// it re-enters here when the gate reopens.
func (r *Runtime) admit(app, ingress string, items int64, reqID uint64, done func(lat sim.Time, energy float64, err error)) (*request, error) {
	r.mu.Lock()
	as := r.apps[app]
	if as != nil && as.gate.paused {
		// Intake is paused for a migration flip: park the whole submit and
		// replay it on resume — it will re-read the flipped plan, so queued
		// requests are effectively forwarded to the new owner. The request
		// ID travels with the replay, keeping dedup exactly-once. A refused
		// replay has no caller left to return to: done gets the refusal.
		as.gate.waiters = append(as.gate.waiters, func() {
			if err := r.submitRequest(app, ingress, items, reqID, done); err != nil && done != nil {
				done(0, 0, err)
			}
		})
		r.mu.Unlock()
		return nil, nil
	}
	if as == nil || as.plan == nil {
		r.mu.Unlock()
		return nil, errNoPlan
	}
	// snap stays on the stack: a refused request allocates nothing.
	snap := request{
		r: r, as: as, ingress: ingress, items: max(items, 1), id: reqID, done: done,
		plan: as.plan, bs: r.breakers, hm: r.health, ss: r.stateStore,
		brownout: as.brownout, latency: as.latency, energyC: as.energy,
	}
	ac, maxIF := r.admission, int64(r.maxInFlight)
	if as.admission != nil {
		ac = as.admission
	}
	r.mu.Unlock()

	// Admission gate: the controller sees the app's priority class and the
	// serve path's measured sojourn, and sheds deterministically before
	// the request touches any device.
	if ac != nil {
		if err := ac.Admit(snap.plan.Priority(), r.PlanSojourn(snap.plan)); err != nil {
			as.shed.Inc()
			return nil, err
		}
	}
	// In-flight bound: the serve path's concurrency is capped, so a flood
	// of accepted requests cannot build an unbounded internal backlog.
	if maxIF > 0 {
		if as.inflight.Add(1) > maxIF {
			as.inflight.Add(-1)
			as.shed.Inc()
			return nil, fmt.Errorf("mirto: app %s at in-flight limit %d: %w", app, maxIF, ErrOverloaded)
		}
		snap.tracked = true
	}
	q := snap
	return &q, nil
}

// start applies brownout, opens the request's root span and feeds every
// source stage.
func (q *request) start() {
	r := q.r
	q.shape = q.plan.pipelineShape()
	if q.brownout >= 1 {
		// Brownout: serve a reduced pipeline rather than shed. Level 1
		// splices out optional stages; level 2 also halves the batch.
		if b := q.plan.brownoutShape(); len(b.order) > 0 && len(b.order) < len(q.shape.order) {
			q.shape = b
		}
		if q.brownout >= 2 && q.items > 1 {
			q.items = (q.items + 1) / 2
		}
		q.as.degraded.Inc()
	}
	q.begin = r.engine.Now()
	if q.latency == nil {
		// First admitted request: Registry.Export lists whatever exists,
		// so these two are created here and not at Register.
		r.mu.Lock()
		if q.as.latency == nil {
			q.as.latency = q.as.reg.Histogram(telemetry.Application, "latency_ms")
			q.as.energy = q.as.reg.Counter(telemetry.Application, "energy_joules")
		}
		q.latency, q.energyC = q.as.latency, q.as.energy
		r.mu.Unlock()
	}

	// Request root span. Every operation the request causally touches —
	// ingress transfer, stage execution, inter-stage transfer — parents
	// its span on the operation that enabled it, so the terminal span's
	// ancestry is exactly the critical path and its segments telescope to
	// the end-to-end latency. It opens only here, past the gates: a shed
	// request leaves no span and takes no trace ID.
	q.root = r.tracer.StartRoot("request/"+q.plan.App, trace.LayerAgent)
	q.root.SetAttr("ingress", q.ingress)
	q.root.SetAttr("tenant", q.plan.Tenant())
	q.rootCtx = q.root.Context()

	q.stages = make(map[string]*stageState, len(q.shape.order))
	for _, n := range q.shape.order {
		q.stages[n] = &stageState{}
	}
	q.sinksLeft = q.shape.sinks
	// Every source is fed even after an earlier one failed the request:
	// its device still does the work it was sent.
	for _, n := range q.shape.order {
		if q.shape.indeg[n] == 0 {
			q.ingest(n)
		}
	}
}

// ingest starts source stage n: directly, or after its input data has
// travelled from the ingress device.
func (q *request) ingest(n string) {
	a, ok := q.plan.Assignment(n)
	if !ok {
		q.fail(fmt.Errorf("mirto: stage %s unassigned", n))
		return
	}
	inMB := q.plan.Template.Nodes[n].PropFloat("inMB", 0)
	if q.ingress == "" || q.ingress == a.Device || inMB <= 0 {
		q.runStage(n)
		return
	}
	ikey := q.ingress + "->" + a.Device
	if q.bs != nil && !q.bs.Allow(ikey) {
		q.fail(fmt.Errorf("mirto: ingress link %s: %w", ikey, ErrCircuitOpen))
		return
	}
	// ictx may be captured before it is assigned: see forward.
	var ictx trace.SpanContext
	var serr error
	ictx, serr = q.r.fabric.SendCtx(q.rootCtx, q.ingress, a.Device, int64(inMB*1e6), network.Options{Retries: 3}, func(err error) {
		q.linkOutcome(ikey, err)
		if err != nil {
			q.fail(fmt.Errorf("mirto: ingress transfer to %s: %w", n, err))
			return
		}
		st := q.stages[n]
		st.ready, st.ctx = q.r.engine.Now(), ictx
		q.runStage(n)
	})
	if serr != nil {
		q.linkOutcome(ikey, serr)
		q.fail(serr)
	}
}

// runStage executes stage n once all its inputs have arrived.
func (q *request) runStage(n string) {
	st := q.stages[n]
	if st.failed {
		return
	}
	a, ok := q.plan.Assignment(n)
	if !ok {
		q.fail(fmt.Errorf("mirto: stage %s unassigned", n))
		return
	}
	dev := q.r.devices[a.Device]
	if dev == nil || dev.Failed() {
		q.fail(fmt.Errorf("mirto: device %s down for stage %s", a.Device, n))
		return
	}
	nt := q.plan.Template.Nodes[n]
	pctx := st.ctx
	if !pctx.Valid() {
		pctx = q.rootCtx
	}
	work := device.Work{
		Name:   q.plan.App + "/" + n,
		GOps:   nt.PropFloat("gops", 1),
		Kernel: nt.PropString("kernel", ""),
		Items:  q.items,
		Ctx:    pctx,
	}
	run, err := q.dispatch(n, a.Device, dev, work, max(st.ready, q.r.engine.Now()))
	if err != nil {
		q.fail(err)
		return
	}
	if q.ss != nil && q.plan.StatefulStages()[n] {
		q.applyState(n, run)
	}
	q.energy += run.res.EnergyJoules
	q.forward(n, run, int64(nt.PropFloat("outMB", 0.1)*1e6))
}

// applyState schedules the stage's state update for when the work
// finishes. Apply dedups on the request ID, so a retry that re-executes a
// stage whose first run already applied is a no-op — the exactly-once
// half of the recovery contract. A losing hedge's apply lands at or after
// the winner's (same-timestamp events fire FIFO, and the winner is
// scheduled first), so it always dedups.
//
// The fencing token is read at apply time, not capture time: a request
// legitimately in flight across a migration flip or replan applies with
// the cell's current token and lands; only writers carrying an
// explicitly captured old token (a partitioned zombie) are fenced.
func (q *request) applyState(n string, run stageRun) {
	dev, finish := run.dev, run.res.Finish
	q.r.engine.At(finish, func() {
		q.ss.ApplyFenced(q.plan.App, n, dev, q.id, q.items, finish, q.r.applyToken(q.as, n))
	})
	if run.lostDev != "" {
		dev, finish := run.lostDev, run.lostAt
		q.r.engine.At(finish, func() {
			if !q.ss.ApplyFenced(q.plan.App, n, dev, q.id, q.items, finish, q.r.applyToken(q.as, n)) {
				q.hm.NoteHedgeSuppressed()
			}
		})
	}
}

// forward passes stage n's output on. A sink completes the request when
// it finishes; otherwise each consumer, in shape order, receives the
// output at the finish time — in place when co-located, else over the
// fabric.
func (q *request) forward(n string, run stageRun, size int64) {
	from, finish, ctx := run.dev, run.res.Finish, run.res.Ctx
	consumers := q.shape.consumers[n]
	if len(consumers) == 0 {
		q.r.engine.At(finish, func() { q.finish(finish) })
		return
	}
	for _, consumer := range consumers {
		ca, ok := q.plan.Assignment(consumer)
		if !ok {
			q.fail(fmt.Errorf("mirto: consumer %s unassigned", consumer))
			return
		}
		if ca.Device == from {
			q.r.engine.At(finish, func() { q.deliver(n, consumer, ctx, nil) })
			continue
		}
		lkey := from + "->" + ca.Device
		q.r.engine.At(finish, func() {
			// Link breaker: a link that keeps losing transfers (or a
			// flooded broker path shedding with ErrQueueFull) is
			// fast-failed until its cooldown probe succeeds.
			if q.bs != nil && !q.bs.Allow(lkey) {
				q.deliver(n, consumer, trace.SpanContext{}, fmt.Errorf("link %s: %w", lkey, ErrCircuitOpen))
				return
			}
			// tctx is captured by the done closure; SendCtx returns
			// before any delivery event can fire, so the assignment
			// is always visible to the callback.
			var tctx trace.SpanContext
			var serr error
			tctx, serr = q.r.fabric.SendCtx(ctx, from, ca.Device, size, network.Options{Retries: 3}, func(err error) {
				q.linkOutcome(lkey, err)
				q.deliver(n, consumer, tctx, err)
			})
			if serr != nil {
				q.linkOutcome(lkey, serr)
				q.deliver(n, consumer, trace.SpanContext{}, serr)
			}
		})
	}
}

// deliver records one input of consumer arriving from stage n and runs
// the consumer once all of them have.
func (q *request) deliver(n, consumer string, arrCtx trace.SpanContext, err error) {
	cs := q.stages[consumer]
	if err != nil {
		cs.failed = true
		q.fail(fmt.Errorf("mirto: transfer %s->%s: %w", n, consumer, err))
		return
	}
	cs.ready = max(cs.ready, q.r.engine.Now())
	cs.ctx = arrCtx
	cs.arrived++
	if cs.arrived == q.shape.indeg[consumer] {
		q.runStage(consumer)
	}
}

// finish records one sink stage finishing at time at; the last sink
// completes the request.
func (q *request) finish(at sim.Time) {
	if q.finished {
		return
	}
	q.finishAt = max(q.finishAt, at)
	q.sinksLeft--
	if q.sinksLeft > 0 {
		return
	}
	q.release()
	lat := q.finishAt - q.begin
	q.latency.Observe(lat.Seconds() * 1e3)
	q.as.recent.Push(int64(q.finishAt), lat.Seconds()*1e3)
	q.energyC.Add(q.energy)
	q.as.ok.Inc()
	q.root.SetAttr("latency", lat.String())
	q.root.EndAt(q.finishAt)
	if q.done != nil {
		q.done(lat, q.energy, nil)
	}
}

// fail ends the request with err, unless it has already ended.
func (q *request) fail(err error) {
	if q.finished {
		return
	}
	q.release()
	q.as.failed.Inc()
	q.root.SetError(err)
	q.root.EndNow()
	if q.done != nil {
		q.done(0, 0, err)
	}
}

// release marks the request terminal and returns its in-flight slot.
func (q *request) release() {
	q.finished = true
	if q.tracked {
		q.as.inflight.Add(-1)
	}
}

// RetryPolicy shapes the serve path's self-healing retries.
type RetryPolicy struct {
	// Attempts is the total number of tries (minimum 1).
	Attempts int
	// Base is the first retry's backoff; successive retries double it.
	Base sim.Time
	// Max caps the backoff (0 = 32×Base). Deterministic jitter of up to
	// +50% is added on top of the capped value.
	Max sim.Time
	// OnAttemptFail, if set, observes each failed attempt at its virtual
	// failure time — chaos harnesses use it to stamp incident starts.
	OnAttemptFail func(attempt int, err error)
}

// SubmitWithRetry is SubmitFrom with exponential-backoff retries: a
// failed request (crashed device, lost transfer) is resubmitted after a
// deterministic jittered backoff, riding out the window between a fault
// and the MAPE-K loop's reallocation. done fires exactly once with the
// final outcome and the number of attempts spent; a request that
// succeeds on attempt > 1 counts as recovered, one that exhausts all
// attempts as lost.
func (r *Runtime) SubmitWithRetry(app, ingress string, items int64, pol RetryPolicy, done func(lat sim.Time, energy float64, attempts int, err error)) error {
	if pol.Attempts < 1 {
		pol.Attempts = 1
	}
	if pol.Base <= 0 {
		pol.Base = 100 * sim.Millisecond
	}
	max := pol.Max
	if max <= 0 {
		max = 32 * pol.Base
	}
	r.mu.Lock()
	as := r.apps[app]
	if as == nil || as.reg == nil {
		r.mu.Unlock()
		return errNoPlan
	}
	if as.recovered == nil {
		as.recovered = as.reg.Counter(telemetry.Application, "requests_recovered")
		as.lost = as.reg.Counter(telemetry.Application, "requests_lost")
		as.retries = as.reg.Counter(telemetry.Application, "serve_retries")
	}
	recoveredC, lostC, retriesC := as.recovered, as.lost, as.retries
	// One deterministic request ID for the whole logical request: every
	// retry resubmits under it, so a stateful stage that already applied
	// the request before the failure dedups the re-execution.
	as.reqSeq++
	reqID := as.reqSeq
	r.mu.Unlock()

	attempt := 0
	var try func() error
	try = func() error {
		attempt++
		a := attempt
		return r.submitRequest(app, ingress, items, reqID, func(lat sim.Time, energy float64, err error) {
			if err == nil {
				if a > 1 {
					recoveredC.Inc()
				}
				if done != nil {
					done(lat, energy, a, nil)
				}
				return
			}
			if pol.OnAttemptFail != nil {
				pol.OnAttemptFail(a, err)
			}
			// Non-retryable classes (overload shed, security refusal) fail
			// fast: retrying a deterministic policy decision only feeds the
			// very overload that produced it — the retry-storm antipattern.
			if a >= pol.Attempts || !Retryable(err) {
				lostC.Inc()
				if done != nil {
					done(0, 0, a, err)
				}
				return
			}
			retriesC.Inc()
			shift := a - 1
			if shift > 6 {
				shift = 6
			}
			backoff := pol.Base << shift
			if backoff > max {
				backoff = max
			}
			backoff += sim.Time(r.retryRNG.Float64() * float64(backoff) / 2)
			r.engine.After(backoff, func() {
				if err := try(); err != nil && done != nil {
					// The app vanished mid-retry (undeployed): final loss.
					lostC.Inc()
					done(0, 0, attempt, err)
				}
			})
		})
	}
	return try()
}

// ServeRequestFrom is the synchronous form of SubmitFrom.
func (r *Runtime) ServeRequestFrom(app, ingress string, items int64) (sim.Time, float64, error) {
	var lat sim.Time
	var energy float64
	var rerr error
	doneFired := false
	if err := r.SubmitFrom(app, ingress, items, func(l sim.Time, e float64, err error) {
		lat, energy, rerr = l, e, err
		doneFired = true
	}); err != nil {
		return 0, 0, err
	}
	r.engine.Run()
	if !doneFired {
		return 0, 0, fmt.Errorf("mirto: request to %s never completed", app)
	}
	return lat, energy, rerr
}

// ServeRequest submits a request and drives the simulation until it
// completes, returning its latency and energy — the synchronous
// convenience used by the examples.
func (r *Runtime) ServeRequest(app string, items int64) (sim.Time, float64, error) {
	return r.ServeRequestFrom(app, "", items)
}
