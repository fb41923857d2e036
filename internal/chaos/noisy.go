package chaos

import (
	"errors"
	"fmt"
	"strings"

	"myrtus/internal/mirto"
	"myrtus/internal/sim"
	"myrtus/internal/telemetry"
	"myrtus/internal/tenant"
)

// The noisy-neighbor scenario: the fault injected is not a crash or a
// partition but another stakeholder. Two tenants share the continuum;
// mid-run the aggressor tenant's load flash-crowds to a multiple of
// its admission budget while the victim keeps its steady, in-budget
// rate. Self-healing here is isolation: per-tenant budget carving and
// DRR dispatch must shed the aggressor back to its share and keep the
// victim's goodput and p95 at their solo baseline. The aggressor's app
// deliberately outranks the victim's on the Table II security axis, so
// the shared-admission control arm (-quotas=false) demonstrates the
// failure mode: priority-aware shedding alone lets a high-priority
// flood starve a lower-priority tenant.

// NoisyConfig tunes one noisy-neighbor run.
type NoisyConfig struct {
	Seed uint64
	// Quotas enables per-tenant isolation; false is the shared-admission
	// control arm.
	Quotas bool
	// Duration is the run's virtual length (default 10s).
	Duration sim.Time
	// FlashStart / FlashEnd bound the aggressor's flash crowd
	// (defaults 3s / 7s).
	FlashStart, FlashEnd sim.Time
	// FlashMult is the aggressor's flash-crowd load as a multiple of its
	// admission budget (default 4).
	FlashMult float64
	// MaxRequests bounds total submissions per tenant (default 24000).
	MaxRequests int
}

func (c NoisyConfig) withDefaults() NoisyConfig {
	if c.Duration <= 0 {
		c.Duration = 10 * sim.Second
	}
	if c.FlashStart <= 0 {
		c.FlashStart = 3 * sim.Second
	}
	if c.FlashEnd <= c.FlashStart {
		c.FlashEnd = c.FlashStart + 4*sim.Second
	}
	if c.FlashEnd > c.Duration {
		c.FlashEnd = c.Duration
	}
	if c.FlashMult <= 0 {
		c.FlashMult = 4
	}
	if c.MaxRequests <= 0 {
		c.MaxRequests = 24000
	}
	return c
}

// noisyWindow accumulates one tenant's outcomes over one time window.
type noisyWindow struct {
	Submitted int64
	Good      int64
	Late      int64
	Failed    int64
	Shed      int64
	lats      []float64
}

// GoodputFrac is the in-deadline completion fraction of submitted load.
func (w *noisyWindow) GoodputFrac() float64 {
	if w.Submitted == 0 {
		return 0
	}
	return float64(w.Good) / float64(w.Submitted)
}

func (w *noisyWindow) p95() float64 { return telemetry.Quantiles(w.lats, 0.95)[0] }

// NoisyTenantResult is one tenant's full-run and flash-window outcome.
type NoisyTenantResult struct {
	Tenant      string
	OfferedRPS  float64 // steady rate (outside the flash, for the aggressor)
	Overall     noisyWindow
	Flash       noisyWindow // requests submitted during the flash window
	OverallP95  float64
	FlashP95    float64
	BrownoutMax int
}

// NoisyReport is one noisy-neighbor run's outcome.
type NoisyReport struct {
	Seed        uint64
	Quotas      bool
	CapacityRPS float64
	DeadlineMs  float64
	FlashMult   float64
	FlashStartS float64
	FlashEndS   float64
	// Budgets derived from calibration (half the admission rate each).
	VictimBudgetRPS float64
	NoisyBudgetRPS  float64
	// Solo baseline: the victim with the aggressor absent.
	SoloP95Ms       float64
	SoloGoodputFrac float64
	Victim          NoisyTenantResult
	Noisy           NoisyTenantResult
	// NoisyAdmittedRPS is the aggressor's admitted (non-shed) rate during
	// the flash — with quotas it must collapse to about its budget.
	NoisyAdmittedRPS float64
}

// Violated returns "" when isolation held through the flash crowd,
// else the first violated bound.
func (r *NoisyReport) Violated() string {
	if gf := r.Victim.Flash.GoodputFrac(); gf < 0.9 {
		return fmt.Sprintf("victim goodput %.1f%% < 90%% during the flash crowd", 100*gf)
	}
	if r.SoloP95Ms > 0 && r.Victim.FlashP95 > 1.5*r.SoloP95Ms {
		return fmt.Sprintf("victim flash p95 %.2fms > 1.5x solo baseline %.2fms",
			r.Victim.FlashP95, r.SoloP95Ms)
	}
	return ""
}

// Render formats the report; byte-identical for a given seed + config.
func (r *NoisyReport) Render() string {
	var b strings.Builder
	mode := "off (shared admission, control)"
	if r.Quotas {
		mode = "on (per-tenant budgets + DRR)"
	}
	fmt.Fprintf(&b, "noisy-neighbor  seed=%d  quotas=%s\n", r.Seed, mode)
	fmt.Fprintf(&b, "capacity=%.1f req/s  deadline=%.2fms  budgets victim=%.1f noisy=%.1f req/s\n",
		r.CapacityRPS, r.DeadlineMs, r.VictimBudgetRPS, r.NoisyBudgetRPS)
	fmt.Fprintf(&b, "flash crowd: %.1fs-%.1fs at %.0fx the aggressor budget\n",
		r.FlashStartS, r.FlashEndS, r.FlashMult)
	fmt.Fprintf(&b, "victim solo: p95=%.2fms goodput=%.1f%%\n", r.SoloP95Ms, 100*r.SoloGoodputFrac)
	row := func(t *NoisyTenantResult) {
		fmt.Fprintf(&b, "%-8s steady=%.1f/s  overall: sub=%d good=%.1f%% p95=%.2fms shed=%d failed=%d  flash: sub=%d good=%.1f%% p95=%.2fms shed=%d  brownout<=%d\n",
			t.Tenant, t.OfferedRPS,
			t.Overall.Submitted, 100*t.Overall.GoodputFrac(), t.OverallP95, t.Overall.Shed, t.Overall.Failed,
			t.Flash.Submitted, 100*t.Flash.GoodputFrac(), t.FlashP95, t.Flash.Shed,
			t.BrownoutMax)
	}
	row(&r.Victim)
	row(&r.Noisy)
	fmt.Fprintf(&b, "aggressor admitted during flash: %.1f req/s (budget %.1f)\n",
		r.NoisyAdmittedRPS, r.NoisyBudgetRPS)
	if v := r.Violated(); v != "" {
		fmt.Fprintf(&b, "ISOLATION VIOLATED: %s\n", v)
	} else {
		fmt.Fprintf(&b, "isolation held\n")
	}
	return b.String()
}

// noisySpecs mirrors the overload mixed-tenant deployment: equal
// shares and weights, aggressor app high-security, victim medium.
func noisySpecs() []tenant.Spec {
	app := func(name, level string) string {
		sec := ""
		if level != "" {
			sec = fmt.Sprintf(`    - sec-%s:
        type: myrtus.policies.Security
        targets: [aggregator]
        properties: {level: %s}
`, level, level)
		}
		return fmt.Sprintf(`
tosca_definitions_version: tosca_2_0
metadata:
  template_name: %s
topology_template:
  node_templates:
    camera:
      type: myrtus.nodes.Container
      properties: {cpu: 0.5, memoryMB: 128, gops: 0.2, outMB: 0.1, inMB: 0.2}
    detector:
      type: myrtus.nodes.AcceleratedKernel
      properties: {cpu: 1, memoryMB: 256, kernel: conv2d, gops: 2, outMB: 0.05}
      requirements:
        - source: camera
    aggregator:
      type: myrtus.nodes.Container
      properties: {cpu: 1.5, memoryMB: 512, gops: 1, outMB: 0.01}
      requirements:
        - source: detector
  policies:
    - cam-edge:
        type: myrtus.policies.Placement
        targets: [camera]
        properties: {layer: edge}
%s`, name, sec)
	}
	return []tenant.Spec{
		{
			ID:    "victim",
			Class: mirto.PriorityMedium,
			Quota: tenant.Quota{AdmissionShare: 0.5, Weight: 1},
			Apps:  []string{app("nn-victim", "medium")},
		},
		{
			ID:    "noisy",
			Class: mirto.PriorityHigh,
			Quota: tenant.Quota{AdmissionShare: 0.5, Weight: 1},
			Apps:  []string{app("nn-noisy", "high")},
		},
	}
}

const noisyItems = 4

// runNoisyArm executes one arm: victim steady, aggressor flashing
// (flashMult <= 0 removes the aggressor's load entirely — the solo
// baseline).
func runNoisyArm(cfg NoisyConfig, capacityRPS float64, deadline sim.Time, flashMult float64) (victim, noisy *NoisyTenantResult, err error) {
	specs := noisySpecs()
	s, err := tenant.BuildSystem(cfg.Seed, specs, cfg.Quotas, capacityRPS, deadline)
	if err != nil {
		return nil, nil, err
	}
	eng := s.C.Engine
	admissionRPS := 0.9 * capacityRPS
	budget := 0.5 * admissionRPS

	victim = &NoisyTenantResult{Tenant: "victim", OfferedRPS: 0.8 * budget}
	noisy = &NoisyTenantResult{Tenant: "noisy", OfferedRPS: 0.5 * budget}
	results := map[string]*NoisyTenantResult{"victim": victim, "noisy": noisy}

	inFlash := func(t sim.Time) bool { return t >= cfg.FlashStart && t < cfg.FlashEnd }
	submitOne := func(res *NoisyTenantResult, app string, at sim.Time) {
		flash := inFlash(at)
		wins := []*noisyWindow{&res.Overall}
		if flash {
			wins = append(wins, &res.Flash)
		}
		for _, w := range wins {
			w.Submitted++
		}
		count := func(err error, lat sim.Time, completed bool) {
			for _, w := range wins {
				switch {
				case errors.Is(err, mirto.ErrOverloaded):
					w.Shed++
				case err != nil:
					w.Failed++
				case completed:
					w.lats = append(w.lats, lat.Seconds()*1e3)
					if lat <= deadline {
						w.Good++
					} else {
						w.Late++
					}
				}
			}
		}
		serr := s.Submit(app, noisyItems, func(lat sim.Time, _ float64, err error) {
			count(err, lat, true)
		})
		if serr != nil {
			count(serr, 0, false)
		}
	}

	// Victim: steady in-budget arrivals across the whole run.
	schedule := func(id string, rate func(sim.Time) float64) {
		res := results[id]
		app := s.Apps[id][0]
		n := 0
		for t := sim.Time(0); n < cfg.MaxRequests; n++ {
			r := rate(t)
			if r <= 0 {
				break
			}
			t += sim.Time(float64(sim.Second) / r)
			if t > cfg.Duration {
				break
			}
			at := t
			eng.At(at, func() { submitOne(res, app, at) })
		}
	}
	schedule("victim", func(sim.Time) float64 { return victim.OfferedRPS })
	if flashMult > 0 {
		schedule("noisy", func(t sim.Time) float64 {
			if inFlash(t) {
				return flashMult * budget
			}
			return noisy.OfferedRPS
		})
	}

	const tickEvery = 250 * sim.Millisecond
	var tick func()
	tick = func() {
		levels := s.Tick()
		for id, res := range results {
			for _, app := range s.Apps[id] {
				if lvl := levels[app]; lvl > res.BrownoutMax {
					res.BrownoutMax = lvl
				}
			}
		}
		if eng.Now()+tickEvery <= cfg.Duration {
			eng.After(tickEvery, tick)
		}
	}
	eng.After(tickEvery, tick)

	eng.RunUntil(cfg.Duration)
	eng.Run()

	for _, res := range results {
		res.OverallP95 = res.Overall.p95()
		res.FlashP95 = res.Flash.p95()
	}
	return victim, noisy, nil
}

// RunNoisyNeighbor executes the scenario: a solo victim baseline, then
// the mixed run with the aggressor's flash crowd.
func RunNoisyNeighbor(cfg NoisyConfig) (*NoisyReport, error) {
	cfg = cfg.withDefaults()
	specs := noisySpecs()
	capacityRPS, deadline, err := tenant.Calibrate(cfg.Seed, specs, noisyItems)
	if err != nil {
		return nil, err
	}
	admissionRPS := 0.9 * capacityRPS
	rep := &NoisyReport{
		Seed:            cfg.Seed,
		Quotas:          cfg.Quotas,
		CapacityRPS:     capacityRPS,
		DeadlineMs:      deadline.Seconds() * 1e3,
		FlashMult:       cfg.FlashMult,
		FlashStartS:     cfg.FlashStart.Seconds(),
		FlashEndS:       cfg.FlashEnd.Seconds(),
		VictimBudgetRPS: 0.5 * admissionRPS,
		NoisyBudgetRPS:  0.5 * admissionRPS,
	}
	soloV, _, err := runNoisyArm(cfg, capacityRPS, deadline, 0)
	if err != nil {
		return nil, fmt.Errorf("chaos: noisy-neighbor solo baseline: %w", err)
	}
	rep.SoloP95Ms = soloV.OverallP95
	rep.SoloGoodputFrac = soloV.Overall.GoodputFrac()

	v, a, err := runNoisyArm(cfg, capacityRPS, deadline, cfg.FlashMult)
	if err != nil {
		return nil, fmt.Errorf("chaos: noisy-neighbor mixed run: %w", err)
	}
	rep.Victim, rep.Noisy = *v, *a
	if flashDur := (cfg.FlashEnd - cfg.FlashStart).Seconds(); flashDur > 0 {
		admitted := a.Flash.Submitted - a.Flash.Shed
		rep.NoisyAdmittedRPS = float64(admitted) / flashDur
	}
	return rep, nil
}
