// Package overload is the deterministic overload experiment: it sweeps
// offered load from well below to well above the continuum's measured
// serving capacity and records what the end-to-end protection stack —
// admission control with Table II priority classes, bounded device and
// link queues, circuit breakers, and MAPE-K brownout — preserves, versus
// an unprotected control run. Everything advances on the simulation
// clock, so a (seed, config) pair renders a byte-identical report.
//
// The sweep drives three copies of a four-stage pipeline whose security
// policies span Table II: ov-high carries a High-security aggregator
// (shed last), ov-med a Medium-security detector, ov-low no policy at
// all (shed first). The headline curve is goodput — requests completing
// within a deadline calibrated from idle latency — against offered load:
// a protected system holds its peak goodput flat while the control run's
// unbounded queues push every completion past the deadline.
package overload

import (
	"errors"
	"fmt"
	"strings"

	"myrtus/internal/continuum"
	"myrtus/internal/mapek"
	"myrtus/internal/mirto"
	"myrtus/internal/sim"
	"myrtus/internal/telemetry"
	"myrtus/internal/tosca"
)

// ingress is the edge device every request's input data originates at.
const ingress = "edge-rv-0"

// items is the per-request accelerator batch size; brownout level 2
// halves it.
const items = 4

// appNames indexes the three priority-class apps by mirto.Priority.
var appNames = [3]string{"ov-high", "ov-med", "ov-low"}

// appTemplate builds one sweep app: an edge-pinned camera feeding an
// accelerated detector, an *optional* enhancer (the stage brownout level
// 1 sheds), and an aggregator consuming both. secPolicy appends the
// app's Table II security policy ("" for the unclassified Low app).
func appTemplate(name, secPolicy string) string {
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
    enhancer:
      type: myrtus.nodes.Container
      properties: {cpu: 0.5, memoryMB: 128, gops: 0.8, outMB: 0.05, optional: 1}
      requirements:
        - source: detector
    aggregator:
      type: myrtus.nodes.Container
      properties: {cpu: 1.5, memoryMB: 512, gops: 1, outMB: 0.01}
      requirements:
        - source: detector
        - source: enhancer
  policies:
    - cam-edge:
        type: myrtus.policies.Placement
        targets: [camera]
        properties: {layer: edge}
%s`, name, secPolicy)
}

func templates() [3]string {
	return [3]string{
		appTemplate("ov-high", `    - agg-high:
        type: myrtus.policies.Security
        targets: [aggregator]
        properties: {level: high}
`),
		appTemplate("ov-med", `    - det-medium:
        type: myrtus.policies.Security
        targets: [detector]
        properties: {level: medium}
`),
		appTemplate("ov-low", ""),
	}
}

// Config tunes one sweep.
type Config struct {
	Seed uint64
	// Admission enables the full protection stack; false is the
	// unprotected control run (no admission, unbounded queues, no
	// breakers, no brownout).
	Admission bool
	// Duration is the virtual time per sweep point (default 10s; a point
	// is shortened deterministically if it would exceed MaxRequests).
	Duration sim.Time
	// Multipliers are the offered-load points as fractions of measured
	// capacity (default 0.5, 1, 1.5, 2, 3, 4).
	Multipliers []float64
	// MaxRequests bounds one point's submissions (default 24000).
	MaxRequests int
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 10 * sim.Second
	}
	if len(c.Multipliers) == 0 {
		c.Multipliers = []float64{0.5, 1, 1.5, 2, 3, 4}
	}
	if c.MaxRequests <= 0 {
		c.MaxRequests = 24000
	}
	return c
}

// ClassStats is one priority class's outcome at one sweep point.
type ClassStats struct {
	Submitted int64
	Good      int64 // completed within the deadline
	Late      int64 // completed past the deadline
	Failed    int64
	Shed      int64
	Degraded  int64
}

// ShedFrac is the class's shed fraction of submitted load.
func (s ClassStats) ShedFrac() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Shed) / float64(s.Submitted)
}

// Point is one sweep point's measurements.
type Point struct {
	Multiplier float64
	OfferedRPS float64
	DurationS  float64
	Submitted  int64
	Good       int64
	GoodputRPS float64
	P95Ms      float64 // over in-deadline completions
	Classes    [3]ClassStats
	// Protection-stack internals: device/FPGA queue rejects, link queue
	// drops, breaker opens and fast-fails, deepest brownout level seen.
	DeviceRejects int64
	LinkDrops     int64
	BreakerOpens  int64
	BreakerFast   int64
	BrownoutMax   int
}

// Report is one full sweep.
type Report struct {
	Seed        uint64
	Admission   bool
	CapacityRPS float64
	DeadlineMs  float64
	Points      []Point
}

// PeakGoodput is the best goodput across the sweep.
func (r *Report) PeakGoodput() float64 {
	peak := 0.0
	for _, p := range r.Points {
		if p.GoodputRPS > peak {
			peak = p.GoodputRPS
		}
	}
	return peak
}

// Render formats the report; two runs with the same seed and config are
// byte-identical.
func (r *Report) Render() string {
	var b strings.Builder
	mode := "off (control)"
	if r.Admission {
		mode = "on"
	}
	fmt.Fprintf(&b, "overload sweep  seed=%d  admission=%s\n", r.Seed, mode)
	fmt.Fprintf(&b, "capacity=%.1f req/s  deadline=%.2fms\n", r.CapacityRPS, r.DeadlineMs)
	peak := r.PeakGoodput()
	fmt.Fprintf(&b, "%5s %9s %9s %9s %8s %22s %9s %8s %8s\n",
		"mult", "offered/s", "goodput/s", "retention", "p95ms", "shed% hi/med/lo", "devrej", "linkdrop", "brkopen")
	for _, p := range r.Points {
		ret := 0.0
		if peak > 0 {
			ret = p.GoodputRPS / peak
		}
		fmt.Fprintf(&b, "%5.2f %9.1f %9.1f %9.3f %8.2f %7.1f/%6.1f/%6.1f %9d %8d %8d\n",
			p.Multiplier, p.OfferedRPS, p.GoodputRPS, ret, p.P95Ms,
			100*p.Classes[mirto.PriorityHigh].ShedFrac(),
			100*p.Classes[mirto.PriorityMedium].ShedFrac(),
			100*p.Classes[mirto.PriorityLow].ShedFrac(),
			p.DeviceRejects, p.LinkDrops, p.BreakerOpens)
	}
	return b.String()
}

// system is one freshly built continuum with the three apps deployed.
type system struct {
	c     *continuum.Continuum
	o     *mirto.Orchestrator
	plans [3]*mirto.Plan
}

func buildSystem(seed uint64) (*system, error) {
	opts := continuum.DefaultOptions()
	opts.Seed = seed
	c, err := continuum.Build(opts)
	if err != nil {
		return nil, err
	}
	o := mirto.NewOrchestrator(mirto.NewManager(c, mirto.LatencyGoal()))
	s := &system{c: c, o: o}
	for i, tpl := range templates() {
		st, err := tosca.Parse(tpl)
		if err != nil {
			return nil, fmt.Errorf("overload: parsing %s: %w", appNames[i], err)
		}
		plan, err := o.Deploy(st)
		if err != nil {
			return nil, fmt.Errorf("overload: deploying %s: %w", appNames[i], err)
		}
		s.plans[i] = plan
	}
	return s, nil
}

// calibrate measures the system's idle latency and closed-loop capacity
// on a throwaway continuum: the deadline is 10x the worst idle request
// latency, and capacity is the makespan rate of a closed burst.
func calibrate(seed uint64) (capacityRPS float64, deadline sim.Time, err error) {
	s, err := buildSystem(seed)
	if err != nil {
		return 0, 0, err
	}
	var idle sim.Time
	for _, app := range appNames {
		lat, _, serr := s.o.R.ServeRequestFrom(app, ingress, items)
		if serr != nil {
			return 0, 0, fmt.Errorf("overload: idle request to %s: %w", app, serr)
		}
		if lat > idle {
			idle = lat
		}
	}
	deadline = 10 * idle
	eng := s.c.Engine
	const burst = 90
	start := eng.Now()
	var last sim.Time
	pending := burst
	for i := 0; i < burst; i++ {
		app := appNames[i%3]
		err := s.o.R.SubmitFrom(app, ingress, items, func(_ sim.Time, _ float64, err error) {
			pending--
			if t := eng.Now(); t > last {
				last = t
			}
		})
		if err != nil {
			return 0, 0, fmt.Errorf("overload: burst submit to %s: %w", app, err)
		}
	}
	eng.Run()
	if pending != 0 || last <= start {
		return 0, 0, fmt.Errorf("overload: calibration burst did not complete (%d pending)", pending)
	}
	capacityRPS = burst / (last - start).Seconds()
	return capacityRPS, deadline, nil
}

// runPoint executes one sweep point on a fresh same-seed system.
func runPoint(cfg Config, capacityRPS float64, deadline sim.Time, mult float64) (Point, error) {
	s, err := buildSystem(cfg.Seed)
	if err != nil {
		return Point{}, err
	}
	eng := s.c.Engine
	var loops [3]*mapek.Loop
	// admReg receives the admission controller's per-priority shed
	// counters (shed_high/shed_med/shed_low); the report reads those
	// instead of re-deriving sheds from submit-site errors.
	var admReg *telemetry.Registry
	if cfg.Admission {
		// The full protection stack: rate calibrated just under capacity,
		// queue bounds at the deadline (queuing past it is wasted work),
		// breakers over devices and links, and brownout via MAPE-K.
		ac := mirto.NewAdmissionController(eng, mirto.AdmissionConfig{Rate: 0.9 * capacityRPS})
		admReg = telemetry.NewRegistry("admission")
		ac.BindMetrics(admReg)
		s.o.R.SetAdmission(ac)
		s.o.R.SetBreakers(mirto.NewBreakerSet(eng, mirto.BreakerConfig{}))
		maxIF := int(capacityRPS * deadline.Seconds())
		if maxIF < 8 {
			maxIF = 8
		}
		s.o.R.SetMaxInFlight(maxIF)
		for _, name := range s.c.DeviceNames() {
			s.c.Devices[name].SetQueueLimit(deadline)
		}
		s.c.Fabric.SetMaxQueueDelay(deadline)
		for i, app := range appNames {
			loop, err := s.o.AttachLoop(app, mirto.SLO{MaxShedRate: 0.05})
			if err != nil {
				return Point{}, err
			}
			loops[i] = loop
		}
	}

	offered := mult * capacityRPS
	inter := sim.Time(float64(sim.Second) / offered)
	if inter < 1 {
		inter = 1
	}
	n := int(cfg.Duration / inter)
	if n > cfg.MaxRequests {
		n = cfg.MaxRequests
	}
	if n < 1 {
		n = 1
	}
	horizon := sim.Time(n) * inter

	pt := Point{Multiplier: mult, OfferedRPS: offered, DurationS: horizon.Seconds()}
	var lats []float64
	for i := 1; i <= n; i++ {
		at := sim.Time(i) * inter
		idx := (i - 1) % 3
		app := appNames[idx]
		eng.At(at, func() {
			pt.Submitted++
			pt.Classes[idx].Submitted++
			err := s.o.R.SubmitFrom(app, ingress, items, func(lat sim.Time, _ float64, err error) {
				switch {
				case err != nil:
					pt.Classes[idx].Failed++
				case lat <= deadline:
					pt.Good++
					pt.Classes[idx].Good++
					lats = append(lats, lat.Seconds()*1e3)
				default:
					pt.Classes[idx].Late++
				}
			})
			if err != nil {
				if errors.Is(err, mirto.ErrOverloaded) {
					// With admission on, the controller's telemetry counters
					// are the source of truth for sheds (read after the run);
					// only the control arm tallies them here.
					if admReg == nil {
						pt.Classes[idx].Shed++
					}
				} else {
					pt.Classes[idx].Failed++
				}
			}
		})
	}
	if cfg.Admission {
		// MAPE-K cadence: shed-rate sensing drives brownout engagement
		// and, once shedding stops, staged restore.
		const tickEvery = 250 * sim.Millisecond
		var tick func()
		tick = func() {
			for i, loop := range loops {
				loop.Iterate()
				if lvl := s.o.R.Brownout(appNames[i]); lvl > pt.BrownoutMax {
					pt.BrownoutMax = lvl
				}
			}
			if eng.Now()+tickEvery <= horizon {
				eng.After(tickEvery, tick)
			}
		}
		eng.After(tickEvery, tick)
	}

	eng.RunUntil(horizon)
	eng.Run() // drain in-flight completions past the horizon

	pt.GoodputRPS = float64(pt.Good) / horizon.Seconds()
	pt.P95Ms = telemetry.Quantiles(lats, 0.95)[0]
	for i, app := range appNames {
		if k, ok := s.o.R.KPIs(app); ok {
			pt.Classes[i].Degraded = k.Degraded
		}
	}
	if admReg != nil {
		// Each sweep app is exactly one Table II priority class, so the
		// controller's exported per-priority counters are the classes'
		// shed totals.
		for p := 0; p < len(pt.Classes); p++ {
			pt.Classes[p].Shed = counterValue(admReg, mirto.ShedCounterNames[p])
		}
	}
	for _, name := range s.c.DeviceNames() {
		d := s.c.Devices[name]
		pt.DeviceRejects += d.Rejected()
		if fab := d.Fabric(); fab != nil {
			pt.DeviceRejects += fab.Rejected()
		}
	}
	pt.LinkDrops = s.c.Fabric.Stats().QueueDrops
	if cfg.Admission {
		if bs := s.o.R.Breakers(); bs != nil {
			pt.BreakerOpens, pt.BreakerFast = bs.Stats()
		}
	}
	return pt, nil
}

// Run executes a full sweep.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	capacityRPS, deadline, err := calibrate(cfg.Seed)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Seed:        cfg.Seed,
		Admission:   cfg.Admission,
		CapacityRPS: capacityRPS,
		DeadlineMs:  deadline.Seconds() * 1e3,
	}
	for _, mult := range cfg.Multipliers {
		pt, err := runPoint(cfg, capacityRPS, deadline, mult)
		if err != nil {
			return nil, fmt.Errorf("overload: point %.2fx: %w", mult, err)
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}
