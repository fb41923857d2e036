package overload

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"myrtus/internal/mirto"
	"myrtus/internal/sim"
	"myrtus/internal/telemetry"
	"myrtus/internal/tenant"
	"myrtus/internal/trace"
)

// The mixed-tenant sweep: two stakeholders share one continuum, and an
// aggressor tenant offers up to several multiples of its admission
// budget while a victim tenant stays comfortably inside its own. The
// isolation question is asymmetric by construction — the aggressor's
// app carries a HIGH Table II security policy and the victim's only
// MEDIUM, so the control arm's shared admission controller (whose only
// fairness is priority reserves) systematically prefers the flood:
// priority is the wrong tool for inter-tenant fairness. Per-tenant
// budget carving plus DRR dispatch is the right one, and the sweep
// measures exactly that difference.

// Tenant IDs, fixed so reports are stable.
const (
	VictimTenant = "victim"
	NoisyTenant  = "noisy"
)

// TenantsConfig tunes one mixed-tenant sweep.
type TenantsConfig struct {
	Seed uint64
	// Quotas enables per-tenant admission budgets and DRR dispatch;
	// false is the shared-admission control arm.
	Quotas bool
	// Duration is virtual time per sweep point (default 8s).
	Duration sim.Time
	// Multipliers are the aggressor's offered load as multiples of its
	// admission budget (default 1, 2, 4).
	Multipliers []float64
	// MaxRequests bounds one point's submissions per tenant (default 24000).
	MaxRequests int
}

func (c TenantsConfig) withDefaults() TenantsConfig {
	if c.Duration <= 0 {
		c.Duration = 8 * sim.Second
	}
	if len(c.Multipliers) == 0 {
		c.Multipliers = []float64{1, 2, 4}
	}
	if c.MaxRequests <= 0 {
		c.MaxRequests = 24000
	}
	return c
}

// tenantSpecs builds the two-tenant deployment: each tenant gets half
// the admission budget and equal DRR weight; the aggressor's app
// out-prioritizes the victim's on the Table II axis.
func tenantSpecs() []tenant.Spec {
	victimApp := appTemplate("vt-app", `    - det-medium:
        type: myrtus.policies.Security
        targets: [detector]
        properties: {level: medium}
`)
	noisyApp := appTemplate("ag-app", `    - agg-high:
        type: myrtus.policies.Security
        targets: [aggregator]
        properties: {level: high}
`)
	return []tenant.Spec{
		{
			ID:    VictimTenant,
			Class: mirto.PriorityMedium,
			Quota: tenant.Quota{AdmissionShare: 0.5, Weight: 1},
			Apps:  []string{victimApp},
		},
		{
			ID:    NoisyTenant,
			Class: mirto.PriorityHigh,
			Quota: tenant.Quota{AdmissionShare: 0.5, Weight: 1},
			Apps:  []string{noisyApp},
		},
	}
}

// TenantStats is one tenant's outcome at one sweep point.
type TenantStats struct {
	Tenant     string
	OfferedRPS float64
	Submitted  int64
	Good       int64 // completed within the deadline
	Late       int64
	Failed     int64
	Shed       int64
	P95Ms      float64 // over all successful completions
	// Per-priority sheds from the tenant's telemetry registry (quotas
	// arm only; the control arm has no per-tenant controller).
	ShedHigh, ShedMed, ShedLow int64
	// Dispatched is the DRR handoff count (quotas arm only).
	Dispatched  int64
	BrownoutMax int
}

// GoodputFrac is the fraction of submitted requests that completed in
// deadline.
func (s TenantStats) GoodputFrac() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Good) / float64(s.Submitted)
}

// TenantPoint is one sweep point: the aggressor at Mult x its budget.
type TenantPoint struct {
	Mult    float64
	Tenants []TenantStats // sorted by tenant ID
}

// byTenant finds a tenant's stats at this point.
func (p TenantPoint) byTenant(id string) *TenantStats {
	for i := range p.Tenants {
		if p.Tenants[i].Tenant == id {
			return &p.Tenants[i]
		}
	}
	return nil
}

// TenantsReport is one full mixed-tenant sweep.
type TenantsReport struct {
	Seed        uint64
	Quotas      bool
	CapacityRPS float64
	DeadlineMs  float64
	// Budgets and offered load derived from calibration.
	VictimBudgetRPS  float64
	NoisyBudgetRPS   float64
	VictimOfferedRPS float64
	// SoloP95Ms is the victim's p95 with the aggressor silent — the
	// baseline the isolation gate compares against.
	SoloP95Ms float64
	Points    []TenantPoint
	// TraceStats is the per-tenant latency summary from the trace store
	// at the heaviest sweep point.
	TraceStats []trace.TenantStat
}

// Violated returns "" when isolation held, else the first violated
// bound at the heaviest point: victim goodput >= 90% of its submitted
// load, and victim p95 <= 1.5x its solo baseline.
func (r *TenantsReport) Violated() string {
	if len(r.Points) == 0 {
		return "no sweep points"
	}
	last := r.Points[len(r.Points)-1]
	v := last.byTenant(VictimTenant)
	if v == nil {
		return "victim tenant missing from sweep"
	}
	if gf := v.GoodputFrac(); gf < 0.9 {
		return fmt.Sprintf("victim goodput %.1f%% < 90%% at %.0fx aggressor load", 100*gf, last.Mult)
	}
	if r.SoloP95Ms > 0 && v.P95Ms > 1.5*r.SoloP95Ms {
		return fmt.Sprintf("victim p95 %.2fms > 1.5x solo baseline %.2fms at %.0fx aggressor load",
			v.P95Ms, r.SoloP95Ms, last.Mult)
	}
	return ""
}

// Render formats the report; same seed and config render byte-identical.
func (r *TenantsReport) Render() string {
	var b strings.Builder
	mode := "off (shared admission, control)"
	if r.Quotas {
		mode = "on (per-tenant budgets + DRR)"
	}
	fmt.Fprintf(&b, "mixed-tenant sweep  seed=%d  quotas=%s\n", r.Seed, mode)
	fmt.Fprintf(&b, "capacity=%.1f req/s  deadline=%.2fms  victim budget=%.1f req/s (offered %.1f)  noisy budget=%.1f req/s\n",
		r.CapacityRPS, r.DeadlineMs, r.VictimBudgetRPS, r.VictimOfferedRPS, r.NoisyBudgetRPS)
	fmt.Fprintf(&b, "victim solo p95=%.2fms\n", r.SoloP95Ms)
	fmt.Fprintf(&b, "%5s %-8s %9s %9s %8s %8s %8s %8s %8s %6s\n",
		"mult", "tenant", "offered/s", "submitted", "good%", "p95ms", "shed", "failed", "drr", "brown")
	for _, p := range r.Points {
		for _, t := range p.Tenants {
			fmt.Fprintf(&b, "%5.2f %-8s %9.1f %9d %8.1f %8.2f %8d %8d %8d %6d\n",
				p.Mult, t.Tenant, t.OfferedRPS, t.Submitted, 100*t.GoodputFrac(),
				t.P95Ms, t.Shed, t.Failed, t.Dispatched, t.BrownoutMax)
		}
	}
	if len(r.TraceStats) > 0 {
		fmt.Fprintf(&b, "trace per-tenant (heaviest point):\n")
		for _, ts := range r.TraceStats {
			fmt.Fprintf(&b, "  %-8s n=%-6d err=%-5d p50=%.2fms p95=%.2fms p99=%.2fms\n",
				ts.Tenant, ts.Count, ts.Errors, ts.P50Ms, ts.P95Ms, ts.P99Ms)
		}
	}
	if v := r.Violated(); v != "" {
		fmt.Fprintf(&b, "ISOLATION VIOLATED: %s\n", v)
	} else {
		fmt.Fprintf(&b, "isolation held\n")
	}
	return b.String()
}

// tenantArrivals schedules one tenant's open-loop arrivals and returns
// its stats collector.
type tenantCollector struct {
	stats TenantStats
	lats  []float64
}

func scheduleTenant(s *tenant.System, app string, offered float64, horizon sim.Time, maxReq int, col *tenantCollector) {
	if offered <= 0 {
		return
	}
	eng := s.C.Engine
	inter := sim.Time(float64(sim.Second) / offered)
	if inter < 1 {
		inter = 1
	}
	n := int(horizon / inter)
	if n > maxReq {
		n = maxReq
	}
	for i := 1; i <= n; i++ {
		at := sim.Time(i) * inter
		eng.At(at, func() {
			col.stats.Submitted++
			err := s.Submit(app, items, func(lat sim.Time, _ float64, err error) {
				switch {
				case errors.Is(err, mirto.ErrOverloaded):
					col.stats.Shed++
				case err != nil:
					col.stats.Failed++
				default:
					col.lats = append(col.lats, lat.Seconds()*1e3)
					if lat <= s.Deadline {
						col.stats.Good++
					} else {
						col.stats.Late++
					}
				}
			})
			switch {
			case errors.Is(err, mirto.ErrOverloaded):
				col.stats.Shed++
			case err != nil:
				col.stats.Failed++
			}
		})
	}
}

// counterValue reads one tenant counter (0 when absent).
func counterValue(reg *telemetry.Registry, name string) int64 {
	if s, ok := reg.Find(name); ok {
		return int64(s.Value)
	}
	return 0
}

// runTenantPoint executes one mixed point on a fresh same-seed system.
// aggMult <= 0 silences the aggressor (the solo baseline).
func runTenantPoint(cfg TenantsConfig, capacityRPS float64, deadline sim.Time, aggMult float64) (TenantPoint, []trace.TenantStat, error) {
	specs := tenantSpecs()
	s, err := tenant.BuildSystem(cfg.Seed, specs, cfg.Quotas, capacityRPS, deadline)
	if err != nil {
		return TenantPoint{}, nil, err
	}
	eng := s.C.Engine
	admissionRPS := 0.9 * capacityRPS
	victimBudget := 0.5 * admissionRPS
	noisyBudget := 0.5 * admissionRPS

	cols := map[string]*tenantCollector{
		VictimTenant: {stats: TenantStats{Tenant: VictimTenant, OfferedRPS: 0.8 * victimBudget}},
		NoisyTenant:  {stats: TenantStats{Tenant: NoisyTenant, OfferedRPS: aggMult * noisyBudget}},
	}
	horizon := cfg.Duration
	scheduleTenant(s, s.Apps[VictimTenant][0], cols[VictimTenant].stats.OfferedRPS, horizon, cfg.MaxRequests, cols[VictimTenant])
	scheduleTenant(s, s.Apps[NoisyTenant][0], cols[NoisyTenant].stats.OfferedRPS, horizon, cfg.MaxRequests, cols[NoisyTenant])

	// MAPE-K cadence, tracking the deepest brownout per tenant.
	const tickEvery = 250 * sim.Millisecond
	var tick func()
	tick = func() {
		levels := s.Tick()
		for id, col := range cols {
			for _, app := range s.Apps[id] {
				if lvl := levels[app]; lvl > col.stats.BrownoutMax {
					col.stats.BrownoutMax = lvl
				}
			}
		}
		if eng.Now()+tickEvery <= horizon {
			eng.After(tickEvery, tick)
		}
	}
	eng.After(tickEvery, tick)

	eng.RunUntil(horizon)
	eng.Run() // drain in-flight completions

	ids := []string{NoisyTenant, VictimTenant}
	sort.Strings(ids)
	pt := TenantPoint{Mult: aggMult}
	for _, id := range ids {
		col := cols[id]
		col.stats.P95Ms = telemetry.Quantiles(col.lats, 0.95)[0]
		if s.Reg != nil {
			if t, ok := s.Reg.Get(id); ok {
				m := t.Metrics()
				col.stats.ShedHigh = counterValue(m, mirto.ShedCounterNames[mirto.PriorityHigh])
				col.stats.ShedMed = counterValue(m, mirto.ShedCounterNames[mirto.PriorityMedium])
				col.stats.ShedLow = counterValue(m, mirto.ShedCounterNames[mirto.PriorityLow])
			}
			if s.Disp != nil {
				col.stats.Dispatched = s.Disp.Dispatched(id)
			}
		}
		pt.Tenants = append(pt.Tenants, col.stats)
	}
	return pt, trace.TenantSummary(s.C.Tracer.Traces()), nil
}

// RunTenants executes a full mixed-tenant sweep: a victim-solo
// baseline, then the aggressor at each multiplier of its budget.
func RunTenants(cfg TenantsConfig) (*TenantsReport, error) {
	cfg = cfg.withDefaults()
	specs := tenantSpecs()
	capacityRPS, deadline, err := tenant.Calibrate(cfg.Seed, specs, items)
	if err != nil {
		return nil, err
	}
	admissionRPS := 0.9 * capacityRPS
	rep := &TenantsReport{
		Seed:             cfg.Seed,
		Quotas:           cfg.Quotas,
		CapacityRPS:      capacityRPS,
		DeadlineMs:       deadline.Seconds() * 1e3,
		VictimBudgetRPS:  0.5 * admissionRPS,
		NoisyBudgetRPS:   0.5 * admissionRPS,
		VictimOfferedRPS: 0.8 * 0.5 * admissionRPS,
	}
	solo, _, err := runTenantPoint(cfg, capacityRPS, deadline, 0)
	if err != nil {
		return nil, fmt.Errorf("overload: solo baseline: %w", err)
	}
	if v := solo.byTenant(VictimTenant); v != nil {
		rep.SoloP95Ms = v.P95Ms
	}
	for _, mult := range cfg.Multipliers {
		pt, traceStats, err := runTenantPoint(cfg, capacityRPS, deadline, mult)
		if err != nil {
			return nil, fmt.Errorf("overload: tenant point %.2fx: %w", mult, err)
		}
		rep.Points = append(rep.Points, pt)
		rep.TraceStats = traceStats
	}
	return rep, nil
}
