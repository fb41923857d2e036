package mirto

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"myrtus/internal/device"
	"myrtus/internal/network"
	"myrtus/internal/sim"
	"myrtus/internal/telemetry"
	"myrtus/internal/trace"
)

// Runtime executes application requests over a deployed plan on the
// simulated data plane, producing the KPIs (end-to-end latency, energy)
// that the MAPE-K loop senses. A request flows through the template DAG:
// each component runs on its assigned device, and inter-component data
// rides the network fabric with real queuing. This file holds the wiring
// and the per-app record; serve.go is the request lifecycle and
// dispatch.go the device-side concerns of one stage.
type Runtime struct {
	engine  *sim.Engine
	fabric  *network.Fabric
	devices map[string]*device.Device
	tracer  *trace.Tracer
	// manager answers hedge-alternate placements (immutable after New).
	manager *Manager

	// retryRNG jitters serve-path retry backoffs; its stream is forked
	// from the engine seed so retries stay deterministic without
	// perturbing any other consumer's draws.
	retryRNG *sim.RNG

	mu sync.Mutex
	// apps holds one record per app name the runtime has been told about.
	apps map[string]*appState

	// Overload-protection hooks (all optional; wire before serving):
	// admission gates every submit, breakers fast-fail suspect targets,
	// maxInFlight bounds concurrent requests per app.
	admission *AdmissionController
	breakers  *BreakerSet
	// health, when set, observes stage service times for peer-relative
	// gray-failure scoring and arms hedged dispatches to suspect-slow
	// devices.
	health      *HealthMonitor
	maxInFlight int

	// stateStore, when set, receives one apply per (request, stateful
	// stage) at the stage's finish time; the request's deterministic ID
	// makes the apply exactly-once across serve-path retries.
	stateStore *StateStore

	// fence, when set, is the split-brain fencing ledger (fence.go):
	// Register ensures each stateful stage's ownership token and rejects
	// plans from a superseded epoch; serve-path applies carry the cell's
	// current token so a stale writer can never mutate state.
	fence *FenceLedger
}

// appState is everything the runtime holds about one app. A record is
// created the first time the app is named (Register, or an operator
// setting that precedes it) and never deleted: Deregister only clears
// plan, so request IDs, the accepted epoch, telemetry and operator
// settings carry across undeploy/redeploy and replans. Runtime.mu guards
// every field except inflight and the telemetry objects, which
// synchronise themselves. DESIGN.md ("Serve path") lists who writes what.
type appState struct {
	plan *Plan // nil while the app is undeployed

	// reg down to recent are created by the first Register and never
	// replaced. The others are created at first use — latency and energy
	// by the first admitted request, the retry counters by the first
	// SubmitWithRetry — because Registry.Export lists whatever exists.
	reg    *telemetry.Registry
	ok     *telemetry.Counter
	failed *telemetry.Counter
	// shed counts requests rejected at the door (admission control or the
	// in-flight bound) — deliberately separate from failed: a shed
	// request never consumed serve-path capacity.
	shed *telemetry.Counter
	// degraded counts requests served at reduced quality under brownout.
	degraded *telemetry.Counter
	// recent is the sliding window of successful request latencies; the
	// MAPE-K monitor prefers its p95 over the cumulative histogram so
	// violations subside once their cause heals.
	recent                   *telemetry.Window
	latency                  *telemetry.Histogram
	energy                   *telemetry.Counter
	recovered, lost, retries *telemetry.Counter

	// admission overrides the global admission controller: the tenant
	// layer points every app of a tenant at that tenant's own controller,
	// so a tenant over its carved-out budget sheds only its own traffic
	// while the others keep their full reserves.
	admission *AdmissionController
	// inflight counts requests past the gates and not yet finished; it is
	// maintained only while a maxInFlight bound is set.
	inflight atomic.Int64
	brownout int        // current degradation level (SetBrownout)
	gate     intakeGate // live migration's pause-and-flip
	// reqSeq allocates deterministic request IDs — assigned once per
	// logical request and reused verbatim by every retry. It only grows:
	// stateful stages dedup on the ID.
	reqSeq uint64
	epoch  uint64 // newest plan epoch Register accepted
	// tokens caches each stateful stage's current fencing token, written
	// by Register and RefreshFence and read at apply time.
	tokens map[string]uint64
}

// NewRuntime builds a runtime over the manager's continuum.
func NewRuntime(m *Manager) *Runtime {
	return &Runtime{
		engine:   m.C.Engine,
		fabric:   m.C.Fabric,
		devices:  m.C.Devices,
		tracer:   m.C.Tracer,
		manager:  m,
		retryRNG: m.C.Engine.RNG().Fork("mirto/serve-retry"),
		apps:     map[string]*appState{},
	}
}

// state returns app's record, creating it on first touch. Callers hold
// r.mu.
func (r *Runtime) state(app string) *appState {
	as := r.apps[app]
	if as == nil {
		as = &appState{tokens: map[string]uint64{}}
		r.apps[app] = as
	}
	return as
}

// SetFence wires the split-brain fencing ledger into the serve path.
// Wire before serving; nil detaches (tokens become inert).
func (r *Runtime) SetFence(fl *FenceLedger) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fence = fl
}

// Fence returns the attached fencing ledger (nil when none).
func (r *Runtime) Fence() *FenceLedger {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fence
}

// CellToken returns the runtime's cached fencing token for a stateful
// cell — the token its serve-path applies currently carry.
func (r *Runtime) CellToken(app, stage string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if as := r.apps[app]; as != nil {
		return as.tokens[stage]
	}
	return 0
}

// applyToken is the token a serve-path apply carries: the cell's cached
// ledger token when fencing is wired, the un-fenced sentinel otherwise
// (so the healthy path rejects nothing).
func (r *Runtime) applyToken(as *appState, stage string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fence == nil {
		return ^uint64(0)
	}
	return as.tokens[stage]
}

// RefreshFence re-reads the fencing ledger for an app's stateful cells
// and raises the cached tokens (and cell watermarks) to match. The
// migration flip calls this after minting the new owner's tokens, so
// the serve path carries them even when the flip spliced no new plan.
func (r *Runtime) RefreshFence(app string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	as := r.apps[app]
	if r.fence == nil || r.stateStore == nil || as == nil || as.plan == nil {
		return
	}
	for _, n := range slices.Sorted(maps.Keys(as.plan.StatefulStages())) {
		if dev, tok, _, ok := r.fence.Current(app, n); ok {
			as.tokens[n] = tok
			r.stateStore.RaiseToken(app, n, dev, tok)
		}
	}
}

// Epoch returns the newest plan epoch the runtime has accepted for app.
func (r *Runtime) Epoch(app string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if as := r.apps[app]; as != nil {
		return as.epoch
	}
	return 0
}

// SetStateStore wires the stateful-stage state store into the serve
// path. Wire before serving; nil detaches.
func (r *Runtime) SetStateStore(ss *StateStore) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stateStore = ss
	if ss != nil {
		ss.SetFailedFn(func(name string) bool {
			d := r.devices[name]
			return d != nil && d.Failed()
		})
	}
}

// StateStore returns the attached state store (nil when none).
func (r *Runtime) StateStore() *StateStore {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stateStore
}

// StageDevice resolves a stage's current placement to a live device:
// it reports false while the assignment points at a failed device (the
// restore path waits for the MAPE-K replan to move the stage).
func (r *Runtime) StageDevice(app, stage string) (string, bool) {
	plan, ok := r.Plan(app)
	if !ok {
		return "", false
	}
	a, ok := plan.Assignment(stage)
	if !ok {
		return "", false
	}
	d := r.devices[a.Device]
	if d == nil || d.Failed() {
		return "", false
	}
	return a.Device, true
}

// nextReqID allocates the next deterministic request ID for an app.
func (r *Runtime) nextReqID(app string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	as := r.state(app)
	as.reqSeq++
	return as.reqSeq
}

// SetAdmission wires an admission controller in front of every Submit:
// requests the controller refuses return ErrOverloaded without touching
// a device. Wire before serving; nil detaches.
func (r *Runtime) SetAdmission(ac *AdmissionController) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.admission = ac
}

// Admission returns the attached admission controller (nil when none).
func (r *Runtime) Admission() *AdmissionController {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.admission
}

// SetAppAdmission overrides the admission controller for one app —
// the per-tenant carve-out: every app of a tenant shares that tenant's
// controller, whose rate is the tenant's slice of the global budget.
// nil removes the override (the app falls back to the global gate).
func (r *Runtime) SetAppAdmission(app string, ac *AdmissionController) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state(app).admission = ac
}

// SetBreakers wires per-device and per-link circuit breakers into the
// serve path: stages and transfers consult the breaker before touching
// their target and record the outcome after. Wire before serving.
func (r *Runtime) SetBreakers(bs *BreakerSet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.breakers = bs
}

// Breakers returns the attached breaker set (nil when none).
func (r *Runtime) Breakers() *BreakerSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.breakers
}

// SetHealth wires a gray-failure health monitor into the serve path:
// every stage execution is observed, and dispatches to degraded devices
// gain a budgeted hedge plus a failover on outright rejection. Wire
// before serving; nil detaches.
func (r *Runtime) SetHealth(h *HealthMonitor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.health = h
}

// Health returns the wired health monitor, nil if none.
func (r *Runtime) Health() *HealthMonitor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.health
}

// SetMaxInFlight bounds how many requests per app may be in flight at
// once; submits beyond the bound are shed with ErrOverloaded. Zero
// restores the unbounded legacy behavior. Wire before serving.
func (r *Runtime) SetMaxInFlight(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxInFlight = n
}

// SetBrownout sets an app's brownout level: 0 serves the full pipeline,
// 1 drops optional stages (template nodes with property optional: 1),
// 2 additionally halves the per-request batch size (reduced replica
// quality). The MAPE-K loop drives this under sustained shedding and
// restores it on recovery.
func (r *Runtime) SetBrownout(app string, level int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state(app).brownout = max(level, 0)
}

// Brownout returns an app's current brownout level.
func (r *Runtime) Brownout(app string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if as := r.apps[app]; as != nil {
		return as.brownout
	}
	return 0
}

// PlanSojourn measures the serve path's current queue delay for a plan:
// the worst per-device backlog across its assignments — the sojourn
// signal the admission controller's delay gate watches.
func (r *Runtime) PlanSojourn(plan *Plan) sim.Time {
	now := r.engine.Now()
	var worst sim.Time
	for _, a := range plan.Assignments {
		if d := r.devices[a.Device]; d != nil && !d.Failed() {
			if qd := d.QueueDelay(now); qd > worst {
				worst = qd
			}
		}
	}
	return worst
}

// Register makes an executed plan runnable.
func (r *Runtime) Register(plan *Plan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	as := r.state(plan.App)
	// Plan-epoch gate: a plan stamped with an epoch older than the newest
	// accepted one was built by a superseded authority (a partitioned
	// orchestrator's view); registering it would route dispatches with a
	// stale placement. Reject it outright — its dispatches never happen.
	// Epoch 0 marks hand-built (unstamped) plans and is always accepted.
	if r.fence != nil && plan.Epoch != 0 {
		if plan.Epoch < as.epoch {
			r.fence.NoteEpochReject()
			return
		}
		as.epoch = plan.Epoch
	}
	as.plan = plan
	if ss := r.stateStore; ss != nil {
		// Sorted, so the ledger mints in a deterministic order. Ensure each
		// stateful cell's ownership token: a stage that moved gets a fresh
		// mint, and the cell's watermark rises before the new owner's
		// first apply — from this instant the old owner's captured token
		// is stale.
		for _, n := range slices.Sorted(maps.Keys(plan.StatefulStages())) {
			ss.SetHint(plan.App, n, plan.Template.Nodes[n].PropFloat("stateMB", 1))
			a, ok := plan.Assignment(n)
			if r.fence == nil || !ok {
				continue
			}
			tok, _ := r.fence.Ensure(plan.App, n, a.Device)
			as.tokens[n] = tok
			ss.RaiseToken(plan.App, n, a.Device, tok)
		}
	}
	if as.reg == nil {
		as.reg = telemetry.NewRegistry(plan.App)
		as.ok = as.reg.Counter(telemetry.Application, "requests_ok")
		as.failed = as.reg.Counter(telemetry.Application, "requests_failed")
		as.shed = as.reg.Counter(telemetry.Application, "requests_shed")
		as.degraded = as.reg.Counter(telemetry.Application, "requests_degraded")
		as.recent = telemetry.NewWindow(128)
	}
}

// Deregister removes an app's plan; its record stays (see appState).
func (r *Runtime) Deregister(app string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if as := r.apps[app]; as != nil {
		as.plan = nil
	}
}

// Apps lists registered app names, sorted.
func (r *Runtime) Apps() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.apps))
	for name, as := range r.apps {
		if as.plan != nil {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// Plan returns the registered plan for app.
func (r *Runtime) Plan(app string) (*Plan, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if as := r.apps[app]; as != nil && as.plan != nil {
		return as.plan, true
	}
	return nil, false
}

// Metrics returns the app's telemetry registry.
func (r *Runtime) Metrics(app string) (*telemetry.Registry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if as := r.apps[app]; as != nil && as.reg != nil {
		return as.reg, true
	}
	return nil, false
}

var errNoPlan = fmt.Errorf("mirto: app not registered")

// intakeGate parks an app's submits during a live migration's
// pause-and-flip window. Parked requests are not shed: each holds a
// closure that resubmits it (same request ID, so dedup semantics carry
// across the flip) once the gate reopens against the new plan.
type intakeGate struct {
	paused  bool
	waiters []func()
}

// PauseIntake closes the app's intake gate: subsequent submits park
// until ResumeIntake. Pausing an already-paused app is a no-op.
func (r *Runtime) PauseIntake(app string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state(app).gate.paused = true
}

// ResumeIntake reopens the app's intake gate and replays every parked
// submit as an immediate engine event (so the replays observe the plan
// registered at flip time). It returns how many requests were parked.
func (r *Runtime) ResumeIntake(app string) int {
	r.mu.Lock()
	as := r.apps[app]
	if as == nil || !as.gate.paused {
		r.mu.Unlock()
		return 0
	}
	waiters := as.gate.waiters
	as.gate = intakeGate{}
	r.mu.Unlock()
	for _, w := range waiters {
		r.engine.After(0, w)
	}
	return len(waiters)
}

// IntakePaused reports whether the app's intake gate is closed.
func (r *Runtime) IntakePaused(app string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	as := r.apps[app]
	return as != nil && as.gate.paused
}

// KPIs summarizes an app's recent performance.
type KPIs struct {
	App      string
	Requests int64
	Failed   int64
	// Shed counts requests rejected by admission control or the in-flight
	// bound — overload protection working, not the serve path failing.
	Shed int64
	// Degraded counts requests served under brownout (optional stages
	// dropped and/or batch halved).
	Degraded  int64
	LatencyMs telemetry.Snapshot
	// RecentP95Ms is the p95 over the sliding window of the latest
	// successful requests (0 until the first success). Unlike the
	// cumulative LatencyMs histogram it forgets a healed incident, so
	// SLO checks against it stop firing once the cause is gone.
	RecentP95Ms  float64
	EnergyJoules float64
}

// KPIs returns current indicators for an app.
func (r *Runtime) KPIs(app string) (KPIs, bool) {
	r.mu.Lock()
	as := r.apps[app]
	if as == nil || as.reg == nil {
		r.mu.Unlock()
		return KPIs{}, false
	}
	latency, energy := as.latency, as.energy
	r.mu.Unlock()
	k := KPIs{
		App:      app,
		Requests: int64(as.ok.Value()),
		Failed:   int64(as.failed.Value()),
		Shed:     int64(as.shed.Value()),
		Degraded: int64(as.degraded.Value()),
	}
	if pts := as.recent.Points(); len(pts) > 0 {
		vals := make([]float64, len(pts))
		for i, p := range pts {
			vals[i] = p.Value
		}
		k.RecentP95Ms = telemetry.Quantiles(vals, 0.95)[0]
	}
	if latency != nil {
		k.LatencyMs = latency.Snapshot()
	}
	if energy != nil {
		k.EnergyJoules = energy.Value()
	}
	return k, true
}
