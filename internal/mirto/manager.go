// Package mirto implements the MIRTO Cognitive Engine — MYRTUS technical
// pillar 2 and the core contribution of the paper. It provides, per
// Fig. 3:
//
//   - the MIRTO Agent: an API daemon exposing a REST-like interface that
//     accepts orchestration requests as TOSCA object models, with an
//     authentication module and a TOSCA validation processor (agent.go);
//   - the MIRTO Manager unifying the four optimization drivers —
//     Workload, Node, Network, and Privacy & Security management
//     (manager.go);
//   - proxies to the Knowledge Base and to the Liqo/Kubernetes deployment
//     mechanism (the continuum clusters);
//   - the runtime MAPE-K orchestration loop for continuous optimization
//     (loop.go) and the request execution engine measuring the KPIs the
//     loop senses (runtime.go).
package mirto

import (
	"fmt"
	"sync"
	"sync/atomic"

	"myrtus/internal/cluster"
	"myrtus/internal/continuum"
	"myrtus/internal/network"
	"myrtus/internal/sim"
	"myrtus/internal/tosca"
)

// Goal weighs the four optimization drivers when scoring placements.
type Goal struct {
	WLatency float64 // optimal workload execution
	WEnergy  float64 // optimal node configuration
	WNetwork float64 // optimal network usage
	// TrustThreshold is the minimum component reputation the Privacy &
	// Security Manager accepts.
	TrustThreshold float64
}

// BalancedGoal returns equal latency/energy/network weights with a
// permissive trust threshold.
func BalancedGoal() Goal {
	return Goal{WLatency: 1, WEnergy: 1, WNetwork: 1, TrustThreshold: 0.25}
}

// LatencyGoal prioritizes end-to-end latency.
func LatencyGoal() Goal {
	return Goal{WLatency: 3, WEnergy: 0.5, WNetwork: 1.5, TrustThreshold: 0.25}
}

// EnergyGoal prioritizes energy efficiency.
func EnergyGoal() Goal {
	return Goal{WLatency: 0.5, WEnergy: 3, WNetwork: 0.5, TrustThreshold: 0.25}
}

// Offer is one candidate hosting proposal returned by a layer agent
// during inter-agent negotiation.
type Offer struct {
	Device  string
	Layer   string
	Cluster *cluster.Cluster
	FreeCPU float64
	FreeMem float64
	// EffGOPS is the effective compute rate for the workload's kernel on
	// this device (accelerators included).
	EffGOPS float64
	// PowerPerCore is the marginal active power per core.
	PowerPerCore float64
	// QueueDelay is the device's current backlog.
	QueueDelay sim.Time
}

// LayerAgent is the layer-/component-specific MIRTO agent of §III: it
// owns one layer's devices and answers capacity negotiations from peers.
// Candidates come from an incrementally-maintained index (index.go)
// rather than per-negotiation cluster scans.
type LayerAgent struct {
	Layer string
	c     *continuum.Continuum
	cl    *cluster.Cluster
	idx   *candIndex

	// NegotiationCount tallies inter-agent requests (observability);
	// read with atomic.LoadInt64 when agents negotiate concurrently.
	NegotiationCount int64
}

// NewLayerAgent builds the agent for one layer cluster and subscribes
// its candidate index to the cluster's change feed.
func NewLayerAgent(c *continuum.Continuum, cl *cluster.Cluster, layer string) *LayerAgent {
	a := &LayerAgent{Layer: layer, c: c, cl: cl, idx: newCandIndex()}
	cl.Subscribe(a.onNodeChange)
	return a
}

// Offers answers a negotiation: candidate devices in this layer able to
// host a workload with the given requests, kernel, and security level,
// sorted by device name.
func (a *LayerAgent) Offers(req cluster.Resources, kernel, secLevel string) []Offer {
	return a.OffersAppend(nil, req, kernel, secLevel)
}

// OffersAppend is Offers appending into dst — the allocation-free form
// the planner uses with a reused buffer.
func (a *LayerAgent) OffersAppend(dst []Offer, req cluster.Resources, kernel, secLevel string) []Offer {
	atomic.AddInt64(&a.NegotiationCount, 1)
	a.rlockBuilt()
	defer a.idx.mu.RUnlock()
	bsEff := a.kernelFabricEff(kernel)
	now := a.c.Engine.Now()
	for _, sh := range a.idx.bySec[secLevel] {
		if !sh.dig.canFit(req) {
			continue // digest proves no member fits
		}
		for _, e := range sh.entries {
			if !e.ready || e.cordoned || !req.Fits(e.free) || e.dev.Failed() {
				continue
			}
			dst = append(dst, Offer{
				Device: e.name, Layer: a.Layer, Cluster: a.cl,
				FreeCPU: e.free.CPU, FreeMem: e.free.MemMB,
				EffGOPS:      e.effFor(kernel, bsEff),
				PowerPerCore: e.powerPerCore,
				QueueDelay:   e.dev.QueueDelay(now),
			})
		}
	}
	return dst
}

// kernelFabricEff returns the kernel's fabric pseudo-rate: with a
// loadable bitstream the fabric becomes the execution engine, its
// effective rate approximated from the fastest operating point.
func (a *LayerAgent) kernelFabricEff(kernel string) float64 {
	if kernel == "" {
		return 0
	}
	if bss := a.c.Bitstreams.ForKernel(kernel); len(bss) > 0 {
		if perItem := bss[0].Points[0].LatencyPerItem.Seconds(); perItem > 0 {
			return 1.0 / perItem // items/s as pseudo-GOPS
		}
	}
	return 0
}

// effFor is the entry's effective compute rate for a kernel: base rate,
// boosted by a custom-unit speedup when the device has one, overridden
// by the fabric when a bitstream outruns both.
func (e *candEntry) effFor(kernel string, bsEff float64) float64 {
	eff := e.gopsPerCore
	if s, ok := e.custom[kernel]; ok && s > 1 {
		eff *= s
	}
	if e.hasFabric && bsEff > eff {
		eff = bsEff
	}
	return eff
}

// Assignment is one template-node → device decision.
type Assignment struct {
	TemplateNode string
	Device       string
	Layer        string
	Cluster      *cluster.Cluster
	PodName      string
	SecurityLvl  string
	// Score is this stage's contribution to the plan objective, recorded
	// so an incremental replan can splice a surviving stage through
	// without re-deriving it (the cluster state a kept stage was scored
	// against is exactly the state a from-scratch replan would see).
	Score float64
}

// Plan is the output of deployment-time orchestration.
type Plan struct {
	App         string
	Template    *tosca.ServiceTemplate
	Assignments []Assignment
	// Score is the planner's objective value (lower is better).
	Score float64
	// Negotiations counts inter-agent capacity exchanges.
	Negotiations int
	// Scored counts candidates scored while planning — the
	// deterministic planning-cost unit (wall-clock-free, so chaos
	// reports built on it stay byte-identical per seed). A delta replan
	// scores O(affected stages); a full plan O(stages × candidates).
	Scored int
	// Epoch is the plan's fencing epoch, stamped through the KB when a
	// FenceLedger is attached to the manager (fence.go). The runtime and
	// the splice path reject a plan whose epoch is older than the newest
	// accepted one; 0 marks a hand-built (unstamped) plan, always
	// accepted.
	Epoch uint64

	// lookupOnce builds byNode for O(1) Assignment lookups on the serve
	// path; it works for hand-built plans too, but Assignments must not
	// be re-keyed after the first lookup.
	lookupOnce sync.Once
	byNode     map[string]int

	// shapeOnce caches the template's pipeline shape (topological order,
	// consumer lists, in-degrees) so the runtime does not rebuild it on
	// every request.
	shapeOnce sync.Once
	shape     *planShape

	// brownoutOnce caches the degraded pipeline shape with optional
	// stages spliced out (see brownoutShape).
	brownoutOnce sync.Once
	bshape       *planShape

	// prioOnce caches the admission priority derived from the template's
	// Table II security policies.
	prioOnce sync.Once
	prio     Priority

	// statefulOnce caches the set of stages declared "stateful: true" so
	// the serve path's per-request lookup is a map probe.
	statefulOnce sync.Once
	statefulSet  map[string]bool
}

// StatefulStages returns the template nodes declared stateful — the
// stages whose per-request state the runtime tracks, checkpoints, and
// restores across failures.
func (p *Plan) StatefulStages() map[string]bool {
	p.statefulOnce.Do(func() {
		p.statefulSet = map[string]bool{}
		for _, n := range p.Template.NodeNames() {
			if p.Template.Nodes[n].PropBool("stateful", false) {
				p.statefulSet[n] = true
			}
		}
	})
	return p.statefulSet
}

// DefaultTenant is the implicit tenant of templates that declare none:
// single-app deployments keep working unchanged on a multi-tenant
// runtime, charged to this catch-all stakeholder.
const DefaultTenant = "default"

// Tenant returns the plan's owning tenant: the template's declared
// tenant, or DefaultTenant when the manifest names none.
func (p *Plan) Tenant() string {
	if p.Template != nil && p.Template.Tenant != "" {
		return p.Template.Tenant
	}
	return DefaultTenant
}

// Priority derives the plan's admission priority class from its
// template: the strongest Table II security level any stage carries wins
// (a pipeline with one High-security stage is High-priority end to end —
// shedding its cheap stages still kills the critical request).
func (p *Plan) Priority() Priority {
	p.prioOnce.Do(func() {
		p.prio = PriorityLow
		for _, n := range p.Template.NodeNames() {
			if pr := PriorityFromSecurity(p.Template.SecurityLevelFor(n)); pr < p.prio {
				p.prio = pr
			}
		}
	})
	return p.prio
}

// planShape is the static dataflow shape of a plan's template.
type planShape struct {
	order     []string
	consumers map[string][]string
	indeg     map[string]int
	sinks     int
	// reqs caches each stage's resolved placement request. A stageReq
	// is pure template data (demand, kernel, security level, layer,
	// pin), so resolving it once per template — instead of once per
	// stage per (re)plan — is free for incremental replans, which adopt
	// the old plan's shape. Stored by pointer: a stageReq is wide, and
	// the keep path reads one per stage.
	reqs map[string]*stageReq
	// ups lists each stage's upstream targets (requirement edges),
	// mirroring consumers in the other direction.
	ups map[string][]string
}

// Assignment returns the assignment for a template node in O(1).
func (p *Plan) Assignment(node string) (Assignment, bool) {
	if a := p.assignmentRef(node); a != nil {
		return *a, true
	}
	return Assignment{}, false
}

// assignmentRef is the copy-free sibling of Assignment for hot replan
// walks: the Assignment struct is wide enough that per-stage value
// copies show up at ten-thousand-stage scale. Returns nil when the
// node has no assignment; the pointer aliases p.Assignments.
func (p *Plan) assignmentRef(node string) *Assignment {
	p.lookupOnce.Do(func() {
		p.byNode = make(map[string]int, len(p.Assignments))
		for i, a := range p.Assignments {
			p.byNode[a.TemplateNode] = i
		}
	})
	i, ok := p.byNode[node]
	if !ok {
		return nil
	}
	return &p.Assignments[i]
}

// brownoutShape returns the template's degraded dataflow shape: every
// node marked "optional: 1" is spliced out, with requirements that
// passed through an optional node re-routed to its nearest kept
// ancestors, so the remaining pipeline stays a connected DAG. Brownout
// level 1 serves this shape instead of the full one — dropping optional
// enrichment work frees capacity without shedding whole requests. With
// no optional nodes the full shape is returned unchanged.
func (p *Plan) brownoutShape() *planShape {
	p.brownoutOnce.Do(func() {
		full := p.pipelineShape()
		optional := map[string]bool{}
		for _, n := range full.order {
			if p.Template.Nodes[n].PropFloat("optional", 0) > 0 {
				optional[n] = true
			}
		}
		if len(optional) == 0 || len(optional) == len(full.order) {
			p.bshape = full
			return
		}
		// expand resolves one upstream target through any chain of
		// optional nodes to the non-optional ancestors behind it.
		var expand func(n string, seen map[string]bool) []string
		expand = func(n string, seen map[string]bool) []string {
			if !optional[n] {
				return []string{n}
			}
			if seen[n] {
				return nil
			}
			seen[n] = true
			var out []string
			for _, r := range p.Template.Nodes[n].Requirements {
				if _, ok := p.Template.Nodes[r.Target]; ok {
					out = append(out, expand(r.Target, seen)...)
				}
			}
			return out
		}
		s := &planShape{}
		for _, n := range full.order {
			if !optional[n] {
				s.order = append(s.order, n)
			}
		}
		s.consumers = make(map[string][]string, len(s.order))
		s.indeg = make(map[string]int, len(s.order))
		for _, n := range s.order {
			s.indeg[n] = 0
		}
		for _, n := range s.order {
			dedup := map[string]bool{}
			for _, r := range p.Template.Nodes[n].Requirements {
				if _, ok := p.Template.Nodes[r.Target]; !ok {
					continue
				}
				for _, t := range expand(r.Target, map[string]bool{}) {
					if dedup[t] {
						continue
					}
					dedup[t] = true
					s.consumers[t] = append(s.consumers[t], n)
					s.indeg[n]++
				}
			}
		}
		for _, n := range s.order {
			if len(s.consumers[n]) == 0 {
				s.sinks++
			}
		}
		p.bshape = s
	})
	return p.bshape
}

// pipelineShape returns the cached dataflow shape of the template.
func (p *Plan) pipelineShape() *planShape {
	p.shapeOnce.Do(func() {
		s := &planShape{order: topoOrder(p.Template)}
		s.consumers = make(map[string][]string, len(s.order))
		s.indeg = make(map[string]int, len(s.order))
		for _, n := range s.order {
			s.indeg[n] = 0
		}
		s.ups = make(map[string][]string, len(s.order))
		for _, n := range s.order {
			for _, req := range p.Template.Nodes[n].Requirements {
				s.consumers[req.Target] = append(s.consumers[req.Target], n)
				s.ups[n] = append(s.ups[n], req.Target)
				s.indeg[n]++
			}
		}
		for _, n := range s.order {
			if len(s.consumers[n]) == 0 {
				s.sinks++
			}
		}
		s.reqs = make(map[string]*stageReq, len(s.order))
		for _, n := range s.order {
			r := stageRequest(p.Template, n)
			s.reqs[n] = &r
		}
		p.shape = s
	})
	return p.shape
}

// adoptShape seeds the plan's memoized shape from another plan over the
// same template, so incremental replans skip the topo-sort rebuild.
func (p *Plan) adoptShape(s *planShape) {
	p.shapeOnce.Do(func() { p.shape = s })
}

// Manager is the MIRTO Manager: the cognitive block unifying the four
// drivers. It decides; the deployment proxy (continuum clusters) obeys.
//
// Route latencies come straight from the topology's epoch-cached
// all-pairs table (lock-free reads, automatic invalidation on topology
// edits), so planning holds no route lock and plans always see current
// latencies.
type Manager struct {
	C     *continuum.Continuum
	Goal  Goal
	Edge  *LayerAgent
	Fog   *LayerAgent
	Cloud *LayerAgent

	// ScoreWorkers caps the offer-scoring worker pool: 0 sizes it from
	// GOMAXPROCS, 1 forces sequential scoring. Parallel and sequential
	// scoring produce byte-identical plans (ties break on offer order).
	ScoreWorkers int
	// scoreThreshold is the candidate-set size at which scoring fans
	// out; 0 means defaultScoreThreshold (tests lower it).
	scoreThreshold int

	// health, when attached, biases scoring away from suspect-slow
	// devices and answers hedge-alternate lookups. Wire before planning;
	// nil-checked on the hot path so detached managers pay nothing.
	health *HealthMonitor

	// fence, when attached, stamps every produced plan with a fresh
	// epoch CAS'd through the KB and rejects splices from a superseded
	// epoch — a partitioned orchestrator's replans become inert.
	fence *FenceLedger
}

// SetHealth attaches a gray-failure health monitor to the planner:
// suspect devices are penalized in scoring and BestAlternate consults
// the monitor's alternate cache. Wire before serving; nil detaches.
func (m *Manager) SetHealth(h *HealthMonitor) { m.health = h }

// SetFence attaches the split-brain fencing ledger: every plan the
// manager produces is stamped with a fresh KB-CAS'd epoch, and
// ExecuteDelta rejects splices from a superseded one. Wire before
// planning; nil detaches (plans carry epoch 0, never rejected).
func (m *Manager) SetFence(fl *FenceLedger) { m.fence = fl }

// BestAlternate re-places one stage of a deployed plan while excluding
// the device it is currently assigned to, returning the next-best
// candidate for a hedged dispatch. The scan reuses the hierarchical
// descent, so it is exactly the placement the planner would make if the
// primary vanished — deterministic, security- and pin-respecting.
func (m *Manager) BestAlternate(plan *Plan, node, avoid string) (string, bool) {
	if plan == nil || plan.Template == nil {
		return "", false
	}
	sr := stageRequest(plan.Template, node)
	if sr.pin != "" {
		// A pinned stage has exactly one legal home; no alternate exists.
		return "", false
	}
	sr.avoid = avoid
	ps := getPlanScratch()
	defer putPlanScratch(ps)
	win, err := m.placeStage(plan.Template, sr, ps, nil)
	if err != nil || win.device == avoid {
		return "", false
	}
	return win.device, true
}

// NewManager wires a manager over a built continuum.
func NewManager(c *continuum.Continuum, goal Goal) *Manager {
	return &Manager{
		C:     c,
		Goal:  goal,
		Edge:  NewLayerAgent(c, c.Edge, "edge"),
		Fog:   NewLayerAgent(c, c.Fog, "fog"),
		Cloud: NewLayerAgent(c, c.Cloud, "cloud"),
	}
}

func (m *Manager) agents() []*LayerAgent { return []*LayerAgent{m.Edge, m.Fog, m.Cloud} }

// Cordon marks (or clears) a device as cordoned across every layer
// agent's candidate index: plans, delta replans, and offers exclude it
// while its existing pods keep serving — the planner half of a live
// migration's planned drain.
func (m *Manager) Cordon(device string, on bool) {
	for _, ag := range m.agents() {
		ag.SetCordon(device, on)
	}
}

// Plan runs deployment-time orchestration for a validated template:
// for every node template (in dependency order) the WL Manager places
// the stage hierarchically — layer agents expose security-bucketed
// shards with capacity digests, the descent skips shards the digests
// rule out, and only surviving shards are scanned (see placeStage).
// The plan is not yet applied — Execute does that through the
// deployment proxy.
func (m *Manager) Plan(st *tosca.ServiceTemplate) (*Plan, error) {
	if err := tosca.Validate(st); err != nil {
		return nil, err
	}
	plan := &Plan{App: appName(st), Template: st}
	order := plan.pipelineShape().order
	plan.Assignments = make([]Assignment, 0, len(order))
	ps := getPlanScratch()
	defer putPlanScratch(ps)

	for _, nodeName := range order {
		if err := m.planStageInto(plan, st, nodeName, ps, nil); err != nil {
			return nil, err
		}
	}
	plan.Negotiations = ps.negotiations
	plan.Scored = ps.scored
	if m.fence != nil {
		plan.Epoch = m.fence.StampEpoch(plan.App)
	}
	return plan, nil
}

// planStageInto admits, places, and records one stage: the shared step
// of full planning and delta replanning. ps accumulates the plan's
// reservations and placements; release credits back resources a delta
// replan will free.
func (m *Manager) planStageInto(plan *Plan, st *tosca.ServiceTemplate, nodeName string, ps *planScratch, release map[string]cluster.Resources) error {
	// Image admission (§VI Container Image Registry): a component
	// referencing an image must resolve to a pullable, non-quarantined
	// version before any placement happens.
	if img := st.Nodes[nodeName].PropString("image", ""); img != "" && m.C.Images != nil {
		name, tag := splitImageRef(img)
		if _, err := m.C.Images.Resolve(name, tag); err != nil {
			return fmt.Errorf("mirto: admission of %q failed: %w", nodeName, err)
		}
	}
	sr := plan.pipelineShape().reqs[nodeName]
	if sr == nil {
		r := stageRequest(st, nodeName)
		sr = &r
	}
	win, err := m.placeStage(st, *sr, ps, release)
	if err != nil {
		return err
	}
	// Degraded-mode invariant: no placement — initial or replan under
	// failures — may relax the template's security level. The index
	// already buckets by level, so a violating winner is a bug, not a
	// fallback to accept.
	if sr.secLevel != "" {
		if d := m.C.Devices[win.device]; d != nil && !d.SupportsSecurity(sr.secLevel) {
			return fmt.Errorf("mirto: placement of %q on %s would relax security level %q: %w",
				nodeName, win.device, sr.secLevel, ErrSecurityRefused)
		}
	}
	plan.Score += win.score
	ps.placedAt[nodeName] = win.device
	ps.reserved[win.device] = ps.reserved[win.device].Add(sr.req)
	plan.Assignments = append(plan.Assignments, Assignment{
		TemplateNode: nodeName,
		Device:       win.device,
		Layer:        win.layer,
		Cluster:      win.cl,
		SecurityLvl:  sr.secLevel,
		Score:        win.score,
	})
	return nil
}

// scoreEnv is the per-stage context shared by every offer scored for
// one template node: the upstream devices this stage pulls data from
// are resolved to route-table indices once, so scoring an offer costs
// one name lookup instead of one per upstream.
type scoreEnv struct {
	gops      float64
	dataStore bool
	rr        network.RouteReader
	// upNames/upIdx are the already-placed upstream devices; upIdx is -1
	// when the device is absent from the topology (unreachable).
	upNames []string
	upIdx   []int
}

func (m *Manager) newScoreEnv(st *tosca.ServiceTemplate, node string, gops float64, ps *planScratch) scoreEnv {
	env := scoreEnv{gops: gops, dataStore: st.Nodes[node].Type == tosca.TypeDataStore}
	reqs := st.Nodes[node].Requirements
	if len(reqs) == 0 {
		return env
	}
	env.rr = m.C.Topo.RouteReader()
	env.upNames, env.upIdx = ps.upNames[:0], ps.upIdx[:0]
	for _, r := range reqs {
		up, ok := ps.placedAt[r.Target]
		if !ok {
			continue // unplaced upstream carries no network cost yet
		}
		i, ok := env.rr.NodeIndex(up)
		if !ok {
			i = -1
		}
		env.upNames = append(env.upNames, up)
		env.upIdx = append(env.upIdx, i)
	}
	ps.upNames, ps.upIdx = env.upNames, env.upIdx
	return env
}

// score blends the four drivers for one offer.
func (m *Manager) score(o *Offer, env *scoreEnv) float64 {
	// Workload driver: estimated compute latency incl. backlog.
	compute := env.gops/o.EffGOPS + o.QueueDelay.Seconds()
	// Network driver: route latency from already-placed upstreams.
	netCost := 0.0
	if len(env.upIdx) > 0 {
		oi, oiOK := env.rr.NodeIndex(o.Device)
		for k, ui := range env.upIdx {
			if env.upNames[k] == o.Device {
				continue
			}
			if ui < 0 || !oiOK {
				netCost += 1 // unreachable upstream is very expensive
				continue
			}
			if lat, ok := env.rr.LatencyAt(ui, oi); ok {
				netCost += lat.Seconds()
			} else {
				netCost += 1
			}
		}
	}
	// Node/energy driver: marginal joules for the work.
	energy := o.PowerPerCore * (env.gops / o.EffGOPS)
	s := m.Goal.WLatency*compute + m.Goal.WNetwork*netCost + m.Goal.WEnergy*energy/10
	// Data-management driver: DataStore components hold medium/long-term
	// state; edge devices only offer "local storage in main memory"
	// (§III Data Management), so the edge is heavily discouraged and the
	// fog — the designated edge–cloud bridge for analytics — preferred.
	if env.dataStore {
		switch o.Layer {
		case "edge":
			s += 5
		case "fog":
			s -= 0.01
		}
	}
	return s
}

// routeSeconds returns the route latency from the topology's all-pairs
// table (negative when unreachable). Lock-free; always epoch-current.
func (m *Manager) routeSeconds(from, to string) float64 {
	if lat, ok := m.C.Topo.RouteLatency(from, to); ok {
		return lat.Seconds()
	}
	return -1
}

// Execute applies a plan through the deployment proxy: pods are created
// in each assignment's layer cluster and bound to the chosen device; the
// Node Manager then configures accelerators and operating points.
func (m *Manager) Execute(plan *Plan) error {
	for i := range plan.Assignments {
		a := &plan.Assignments[i]
		name, err := a.Cluster.CreatePod(podSpec(plan, a))
		if err != nil {
			return fmt.Errorf("mirto: creating pod for %s: %w", a.TemplateNode, err)
		}
		if err := a.Cluster.Bind(name, a.Device); err != nil {
			a.Cluster.DeletePod(name)
			return fmt.Errorf("mirto: binding %s to %s: %w", name, a.Device, err)
		}
		a.PodName = name
	}
	return m.configureNodes(plan)
}

// podSpec builds the deployment-proxy pod spec for one assignment.
func podSpec(plan *Plan, a *Assignment) cluster.PodSpec {
	nt := plan.Template.Nodes[a.TemplateNode]
	return cluster.PodSpec{
		App:           plan.App + "-" + a.TemplateNode,
		Requests:      cluster.Resources{CPU: nt.PropFloat("cpu", 0.5), MemMB: nt.PropFloat("memoryMB", 128)},
		SecurityLevel: a.SecurityLvl,
		Kernel:        nt.PropString("kernel", ""),
		Labels:        map[string]string{"myrtus/app": plan.App, "myrtus/component": a.TemplateNode},
	}
}

// configureNodes is the Node Manager: it loads bitstreams for
// accelerated kernels on FPGA devices and selects operating points /
// DVFS levels according to the goal.
func (m *Manager) configureNodes(plan *Plan) error {
	ecoBias := m.Goal.WEnergy > m.Goal.WLatency
	for _, a := range plan.Assignments {
		nt := plan.Template.Nodes[a.TemplateNode]
		kernel := nt.PropString("kernel", "")
		d := m.C.Devices[a.Device]
		if d == nil {
			continue
		}
		if fab := d.Fabric(); fab != nil && kernel != "" {
			if fab.FindLoaded(kernel) < 0 {
				if bss := m.C.Bitstreams.ForKernel(kernel); len(bss) > 0 {
					// Load into the first region that fits.
					for r := 0; r < fab.Regions(); r++ {
						if _, err := fab.Load(r, bss[0], m.C.Engine.Now()); err == nil {
							break
						}
					}
				}
			}
			if idx := fab.FindLoaded(kernel); idx >= 0 {
				point := "fast"
				if ecoBias {
					point = lastPointName(m.C, kernel)
				}
				fab.SetOperatingPoint(idx, point) //nolint:errcheck
			}
		}
		// DVFS: energy goal parks unconstrained devices at a lower level.
		if ecoBias && len(d.Spec().DVFSLevels) > 1 {
			d.SetDVFS(len(d.Spec().DVFSLevels) - 2) //nolint:errcheck
		}
	}
	return nil
}

func lastPointName(c *continuum.Continuum, kernel string) string {
	bss := c.Bitstreams.ForKernel(kernel)
	if len(bss) == 0 || len(bss[0].Points) == 0 {
		return "fast"
	}
	return bss[0].Points[len(bss[0].Points)-1].Name
}

// Teardown removes a plan's pods.
func (m *Manager) Teardown(plan *Plan) {
	for _, a := range plan.Assignments {
		if a.PodName != "" && a.Cluster != nil {
			a.Cluster.DeletePod(a.PodName)
		}
	}
}

// Replan tears a plan down and re-plans with current system state —
// the reallocation step of the MAPE-K loop. If no feasible new plan
// exists, the old placement is restored (best effort) and the error
// reported, so a transient infeasibility does not destroy the app.
func (m *Manager) Replan(plan *Plan) (*Plan, error) {
	m.Teardown(plan)
	np, err := m.Plan(plan.Template)
	if err == nil {
		if execErr := m.Execute(np); execErr == nil {
			return np, nil
		} else {
			err = execErr
		}
	}
	// Restore: re-execute the old assignments where devices still live.
	restored := &Plan{App: plan.App, Template: plan.Template, Assignments: append([]Assignment(nil), plan.Assignments...)}
	for i := range restored.Assignments {
		restored.Assignments[i].PodName = ""
	}
	m.Execute(restored) //nolint:errcheck // best effort
	return nil, err
}

// appName derives the application name from the template.
func appName(st *tosca.ServiceTemplate) string {
	if st.Name != "" {
		return st.Name
	}
	return "app"
}

// topoOrder orders template nodes so requirements come before dependents.
func topoOrder(st *tosca.ServiceTemplate) []string {
	visited := map[string]bool{}
	var out []string
	var visit func(string)
	visit = func(n string) {
		if visited[n] {
			return
		}
		visited[n] = true
		for _, r := range st.Nodes[n].Requirements {
			if _, ok := st.Nodes[r.Target]; ok {
				visit(r.Target)
			}
		}
		out = append(out, n)
	}
	for _, n := range st.NodeNames() {
		visit(n)
	}
	return out
}

// splitImageRef splits "name:tag" ("latest" when untagged).
func splitImageRef(ref string) (name, tag string) {
	for i := len(ref) - 1; i >= 0; i-- {
		if ref[i] == ':' {
			return ref[:i], ref[i+1:]
		}
	}
	return ref, "latest"
}

// placementLayer resolves a Placement policy targeting node, if any.
func placementLayer(st *tosca.ServiceTemplate, node string) string {
	for _, p := range st.PoliciesFor(node) {
		if p.Type == tosca.PolicyPlacement {
			if l, ok := p.Properties["layer"].(string); ok {
				return l
			}
		}
	}
	return ""
}
