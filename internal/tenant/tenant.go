// Package tenant turns the single-operator continuum into a shared
// platform: multiple stakeholders (the MYRTUS pilots' smart-city
// operators, AI-on-demand customers, in-vehicle fleets) deploy
// applications onto one device/fabric substrate, and the platform must
// keep them isolated. Each tenant carries a priority class, CPU/memory
// placement quotas, a fabric-bandwidth budget, and an admission share —
// a carve-out of the platform's token-bucket rate, so one tenant's
// flash crowd exhausts its own budget instead of the shared bucket. A
// deficit-round-robin scheduler (see drr.go) arbitrates dispatch slots
// across per-tenant bounded queues so backlog, like admission, is
// per-tenant. Everything advances on the simulation clock; given a
// seed, admission, dispatch, and shed decisions are deterministic.
package tenant

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"myrtus/internal/mirto"
	"myrtus/internal/sim"
	"myrtus/internal/telemetry"
	"myrtus/internal/tosca"
)

// ErrNoTenant marks a submit for an app no tenant has claimed.
var ErrNoTenant = errors.New("tenant: app not bound to a tenant")

// ErrTenantRemoved fails queued work whose tenant was unregistered
// before dispatch.
var ErrTenantRemoved = errors.New("tenant: tenant unregistered")

// Quota is a tenant's resource envelope.
type Quota struct {
	// CPUCores / MemMB cap the summed declared demand of the tenant's
	// deployed templates (0 = unlimited). They are checked at bind time:
	// placement capacity is still arbitrated per-device by the Manager,
	// but a tenant cannot claim more of the continuum than it bought.
	CPUCores float64
	MemMB    float64
	// FabricMBps budgets the tenant's ingress data volume: a token
	// bucket over the per-request input megabytes (0 = unlimited).
	FabricMBps float64
	// AdmissionShare is the fraction of the platform admission rate
	// carved out for this tenant (required, (0,1]). Shares across
	// tenants may not exceed 1: the whole point is that the budgets
	// partition the measured capacity.
	AdmissionShare float64
	// Weight is the tenant's deficit-round-robin dispatch weight
	// (default 1): when dispatch slots are contended, tenants drain
	// their queues in proportion to Weight.
	Weight float64
}

// SLO is the per-tenant objective the isolation gate checks.
type SLO struct {
	// MinGoodputFrac is the fraction of submitted requests that must
	// complete within the experiment deadline (default 0.9).
	MinGoodputFrac float64
	// P95SloMult bounds the tenant's p95 latency relative to its solo
	// baseline (default 1.5).
	P95SloMult float64
}

func (s SLO) withDefaults() SLO {
	if s.MinGoodputFrac <= 0 {
		s.MinGoodputFrac = 0.9
	}
	if s.P95SloMult <= 0 {
		s.P95SloMult = 1.5
	}
	return s
}

// Tenant is one registered stakeholder. All mutable state is guarded
// by the owning Registry's lock.
type Tenant struct {
	ID    string
	Class mirto.Priority
	Quota Quota
	SLO   SLO

	reg     *Registry
	adm     *mirto.AdmissionController
	metrics *telemetry.Registry
	apps    map[string]appDemand

	usedCPU float64
	usedMem float64

	// Fabric-bandwidth token bucket (virtual-time refill, burst = 1s
	// of budget). Zero FabricMBps disables it.
	fabricTokens float64
	fabricLast   sim.Time
}

type appDemand struct{ cpu, mem float64 }

// Admission is the tenant's carved-out admission controller: rate =
// AdmissionShare x platform rate, with the same Table II priority
// reserves as the shared controller. Wire it into the runtime with
// Runtime.SetAppAdmission for each of the tenant's apps.
func (t *Tenant) Admission() *mirto.AdmissionController { return t.adm }

// Metrics is the tenant's telemetry registry. The dispatcher records
// latency_ms, requests_ok/failed/good, and the admission controller's
// shed_high/shed_med/shed_low land here via BindMetrics.
func (t *Tenant) Metrics() *telemetry.Registry { return t.metrics }

// Apps lists the tenant's bound app names, sorted.
func (t *Tenant) Apps() []string {
	t.reg.mu.Lock()
	defer t.reg.mu.Unlock()
	out := make([]string, 0, len(t.apps))
	for a := range t.apps {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Used reports the tenant's bound CPU/memory demand.
func (t *Tenant) Used() (cpuCores, memMB float64) {
	t.reg.mu.Lock()
	defer t.reg.mu.Unlock()
	return t.usedCPU, t.usedMem
}

// allowFabric charges mb against the fabric budget.
func (t *Tenant) allowFabric(mb float64, now sim.Time) bool {
	if t.Quota.FabricMBps <= 0 {
		return true
	}
	t.reg.mu.Lock()
	defer t.reg.mu.Unlock()
	if dt := now - t.fabricLast; dt > 0 {
		t.fabricTokens += t.Quota.FabricMBps * dt.Seconds()
		if t.fabricTokens > t.Quota.FabricMBps {
			t.fabricTokens = t.Quota.FabricMBps
		}
	}
	t.fabricLast = now
	if t.fabricTokens < mb {
		return false
	}
	t.fabricTokens -= mb
	return true
}

// Registry tracks the platform's tenants and which app belongs to
// which. It is safe for concurrent use: replans, deploys, and tenant
// churn may race against the dispatch path.
type Registry struct {
	engine *sim.Engine
	// platformRPS is the measured admission rate being partitioned;
	// each tenant's bucket refills at share x platformRPS.
	platformRPS float64

	mu      sync.Mutex
	tenants map[string]*Tenant
	byApp   map[string]*Tenant
}

// NewRegistry builds a registry partitioning platformRPS of admission
// capacity (the calibrated 0.9 x measured capacity, in requests/s).
func NewRegistry(engine *sim.Engine, platformRPS float64) *Registry {
	return &Registry{
		engine:      engine,
		platformRPS: platformRPS,
		tenants:     map[string]*Tenant{},
		byApp:       map[string]*Tenant{},
	}
}

// Register adds a tenant and carves its admission budget out of the
// platform rate. It fails on an invalid ID, a duplicate, a share
// outside (0,1], or if the sum of shares would exceed 1 (the budgets
// must partition, not oversubscribe, the platform rate).
func (r *Registry) Register(id string, class mirto.Priority, q Quota, slo SLO) (*Tenant, error) {
	if !tosca.ValidTenantID(id) {
		return nil, fmt.Errorf("tenant: invalid tenant ID %q", id)
	}
	if q.AdmissionShare <= 0 || q.AdmissionShare > 1 {
		return nil, fmt.Errorf("tenant: %s: admission share %.3f outside (0,1]", id, q.AdmissionShare)
	}
	if q.Weight <= 0 {
		q.Weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tenants[id]; dup {
		return nil, fmt.Errorf("tenant: %s already registered", id)
	}
	total := q.AdmissionShare
	for _, t := range r.tenants {
		total += t.Quota.AdmissionShare
	}
	if total > 1+1e-9 {
		return nil, fmt.Errorf("tenant: registering %s oversubscribes admission (shares sum to %.3f)", id, total)
	}
	t := &Tenant{
		ID:         id,
		Class:      class,
		Quota:      q,
		SLO:        slo.withDefaults(),
		reg:        r,
		metrics:    telemetry.NewRegistry("tenant/" + id),
		apps:       map[string]appDemand{},
		fabricLast: r.engine.Now(),
	}
	if q.FabricMBps > 0 {
		t.fabricTokens = q.FabricMBps
	}
	t.adm = mirto.NewAdmissionController(r.engine, mirto.AdmissionConfig{
		Rate: q.AdmissionShare * r.platformRPS,
	})
	t.adm.BindMetrics(t.metrics)
	r.tenants[id] = t
	return t, nil
}

// Unregister removes a tenant and all its app bindings. Work already
// queued for it is failed by the dispatcher with ErrTenantRemoved.
func (r *Registry) Unregister(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	if !ok {
		return fmt.Errorf("tenant: %s not registered", id)
	}
	for app := range t.apps {
		delete(r.byApp, app)
	}
	delete(r.tenants, id)
	return nil
}

// Get returns a tenant by ID.
func (r *Registry) Get(id string) (*Tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	return t, ok
}

// List returns all tenants sorted by ID.
func (r *Registry) List() []*Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// BindApp claims an app for a tenant, charging its declared CPU/memory
// demand against the tenant's quota. Call it at deploy time with the
// template's summed node demand (see TemplateDemand).
func (r *Registry) BindApp(app, tenantID string, cpuCores, memMB float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[tenantID]
	if !ok {
		return fmt.Errorf("tenant: %s not registered", tenantID)
	}
	if prev, bound := r.byApp[app]; bound && prev != t {
		return fmt.Errorf("tenant: app %s already bound to %s", app, prev.ID)
	}
	if t.Quota.CPUCores > 0 && t.usedCPU+cpuCores > t.Quota.CPUCores+1e-9 {
		return fmt.Errorf("tenant: %s: app %s exceeds CPU quota (%.2f+%.2f > %.2f cores)",
			tenantID, app, t.usedCPU, cpuCores, t.Quota.CPUCores)
	}
	if t.Quota.MemMB > 0 && t.usedMem+memMB > t.Quota.MemMB+1e-9 {
		return fmt.Errorf("tenant: %s: app %s exceeds memory quota (%.0f+%.0f > %.0f MB)",
			tenantID, app, t.usedMem, memMB, t.Quota.MemMB)
	}
	t.apps[app] = appDemand{cpu: cpuCores, mem: memMB}
	t.usedCPU += cpuCores
	t.usedMem += memMB
	r.byApp[app] = t
	return nil
}

// UnbindApp releases an app's binding and refunds its quota charge.
func (r *Registry) UnbindApp(app string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byApp[app]
	if !ok {
		return
	}
	d := t.apps[app]
	t.usedCPU -= d.cpu
	t.usedMem -= d.mem
	delete(t.apps, app)
	delete(r.byApp, app)
}

// TenantOf resolves the tenant owning an app.
func (r *Registry) TenantOf(app string) (*Tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byApp[app]
	return t, ok
}

// TemplateDemand sums a template's declared per-node CPU and memory
// demand (replicas included) — the quantity BindApp charges.
func TemplateDemand(st *tosca.ServiceTemplate) (cpuCores, memMB float64) {
	for _, name := range st.NodeNames() {
		n := st.Nodes[name]
		reps := float64(n.PropInt("replicas", 1))
		cpuCores += n.PropFloat("cpu", 0) * reps
		memMB += n.PropFloat("memoryMB", 0) * reps
	}
	return cpuCores, memMB
}
