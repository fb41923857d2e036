// Gray-failure defense: peer-relative health scoring over observed
// stage service times. The heartbeat FailureDetector is binary — a
// device that silently degrades (thermal throttle, background load, a
// dying disk) keeps heartbeating and passes every liveness check while
// poisoning tail latency for every plan that lands on it. The
// HealthMonitor closes that gap without any absolute latency threshold:
// each device keeps an EWMA of *normalized* service times (observed
// seconds × nominal GOPS/core ÷ GOps of the work, ≈1.0 on a nominal
// device regardless of class), and each tick the EWMA is compared
// against the median of its device-class peers. A device whose ratio
// breaches SuspectRatio escalates healthy → suspect-slow (planner score
// penalty, hedged dispatches); past QuarantineRatio it is quarantined —
// cordoned and live-drained through the Migrator so stateful residents
// move off with zero loss. After a dwell the device enters probation:
// synthetic probes (a capped traffic share) must come back fast for
// ProbationGood consecutive ticks before the cordon lifts; a slow probe
// re-quarantines. Everything runs on the sim clock in sorted device
// order, so every trajectory is deterministic per seed.
package mirto

import (
	"sort"
	"sync"

	"myrtus/internal/continuum"
	"myrtus/internal/device"
	"myrtus/internal/sim"
	"myrtus/internal/telemetry"
)

// HealthState is a device's position in the escalation state machine.
type HealthState uint8

const (
	HealthHealthy HealthState = iota
	HealthSuspect
	HealthQuarantined
	HealthProbation
)

func (s HealthState) String() string {
	switch s {
	case HealthSuspect:
		return "suspect"
	case HealthQuarantined:
		return "quarantined"
	case HealthProbation:
		return "probation"
	default:
		return "healthy"
	}
}

// HealthConfig tunes the monitor; zero values take the defaults below.
type HealthConfig struct {
	// Alpha is the EWMA weight of a new sample (default 0.5 — heavy,
	// because a 4×-slow device should be caught in a handful of samples).
	Alpha float64
	// MinSamples is how many observations a device needs before it can
	// be scored at all (default 3).
	MinSamples int
	// SuspectRatio escalates healthy → suspect when EWMA/peer-median
	// reaches it (default 2.5 — above the ≤2× spread DVFS can cause).
	SuspectRatio float64
	// QuarantineRatio escalates suspect → quarantined (default 4).
	QuarantineRatio float64
	// RecoverRatio de-escalates suspect → healthy and judges probation
	// probes (default 1.5).
	RecoverRatio float64
	// ProbationAfter is the quarantine dwell before probing (default 10s).
	ProbationAfter sim.Time
	// ProbationGood is the consecutive fast probes required for full
	// restore (default 3).
	ProbationGood int
	// ProbeGOps sizes the synthetic probation probe (default 0.05 — one
	// probe per tick, a strictly capped traffic share).
	ProbeGOps float64
	// HedgeBudget caps hedges as a fraction of total stage dispatches
	// (default 0.05); overflow is denied, never queued, so hedging can
	// not amplify load under overload.
	HedgeBudget float64
	// HedgeDelayFactor × the class p95 normalized service time is how
	// long a dispatch to a suspect device waits before the hedge fires
	// (default 1.5).
	HedgeDelayFactor float64
	// SuspectPenalty is added to a suspect/probation device's placement
	// score (default 2.0 — roughly the cost of a cross-layer hop; any
	// negative value means "no penalty", for arms that hedge without
	// steering new placements away).
	SuspectPenalty float64
	// NoQuarantine caps escalation at suspect-slow: hedges and score
	// penalties only, no cordon or drain (the hedge-only defense arm).
	NoQuarantine bool
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 3
	}
	if c.SuspectRatio <= 1 {
		c.SuspectRatio = 2.5
	}
	if c.QuarantineRatio <= c.SuspectRatio {
		c.QuarantineRatio = 4
	}
	if c.RecoverRatio <= 0 {
		c.RecoverRatio = 1.5
	}
	if c.ProbationAfter <= 0 {
		c.ProbationAfter = 10 * sim.Second
	}
	if c.ProbationGood <= 0 {
		c.ProbationGood = 3
	}
	if c.ProbeGOps <= 0 {
		c.ProbeGOps = 0.05
	}
	if c.HedgeBudget <= 0 {
		c.HedgeBudget = 0.05
	}
	if c.HedgeDelayFactor <= 0 {
		c.HedgeDelayFactor = 1.5
	}
	if c.SuspectPenalty < 0 {
		c.SuspectPenalty = 0
	} else if c.SuspectPenalty == 0 {
		c.SuspectPenalty = 2.0
	}
	return c
}

// healthSample is one completed execution, held until its virtual
// finish time passes: the sim knows a work's latency at dispatch, but a
// real monitor only learns it at completion, so scoring must not see
// the sample early (that would let the defense react to the future).
// The one honest exception is the in-flight lower bound: by time t a
// request started at s has observably already run t−s, so once that
// elapsed time alone crosses the suspect threshold the monitor may
// ingest the sample as evidence without waiting for completion —
// exactly the in-flight RPC timer real gray-failure detectors use.
type healthSample struct {
	h      *devHealth
	norm   float64
	start  sim.Time
	finish sim.Time
	// rate converts elapsed seconds to normalized service time
	// (GOPSPerCore / gops): elapsed × rate = the norm accrued so far.
	rate float64
}

// devHealth is one device's scoring state.
type devHealth struct {
	name    string
	dev     *device.Device
	class   string
	nominal float64 // GOPS/core at full clock — the normalization base

	ewma    float64
	samples int
	state   HealthState
	since   sim.Time // when the current state was entered
	ratio   float64  // last EWMA/peer-median
	good    int      // consecutive fast probation probes
}

// HealthStats are the monitor's cumulative counters.
type HealthStats struct {
	Suspects      int    `json:"suspects"`
	Quarantines   int    `json:"quarantines"`
	Requarantines int    `json:"requarantines"`
	Probations    int    `json:"probations"`
	Restores      int    `json:"restores"`
	Probes        int    `json:"probes"`
	Dispatches    uint64 `json:"dispatches"`
	HedgesFired   uint64 `json:"hedges_fired"`
	HedgesWon     uint64 `json:"hedges_won"`
	HedgesLost    uint64 `json:"hedges_lost"`
	// HedgesSuppressed counts losing hedge applies the exactly-once
	// dedup window absorbed (stateful stages only).
	HedgesSuppressed uint64 `json:"hedges_suppressed"`
	// HedgesDenied counts hedge attempts refused by the token budget.
	HedgesDenied uint64 `json:"hedges_denied"`
	// Failovers counts dispatches re-routed to the alternate after the
	// degraded primary rejected the work outright.
	Failovers uint64 `json:"failovers"`
	// Steered counts dispatches routed straight to the alternate because
	// the planned device is quarantined (no duplicate, no hedge token:
	// steering away from a sidelined device is free).
	Steered uint64 `json:"steered"`
}

// DeviceHealth is one device's externally visible health row.
type DeviceHealth struct {
	Device string `json:"device"`
	Class  string `json:"class"`
	State  string `json:"state"`
	// Score is the EWMA / peer-median ratio (1.0 ≈ nominal).
	Score float64 `json:"score"`
	// EWMA and PeerMedian are normalized service times (unitless;
	// 1.0 = the device class's nominal speed).
	EWMA       float64 `json:"ewma"`
	PeerMedian float64 `json:"peer_median"`
	Samples    int     `json:"samples"`
}

// HealthMonitor scores devices against their class peers and drives the
// healthy → suspect → quarantined → probation state machine.
type HealthMonitor struct {
	c   *continuum.Continuum
	cfg HealthConfig

	// OnTransition, when set, observes every state change (fired after
	// the monitor's lock is released — safe to call back in).
	OnTransition func(dev string, from, to HealthState, now sim.Time)

	mu      sync.Mutex
	fd      *FailureDetector
	mg      *Migrator
	devs    map[string]*devHealth
	order   []string // sorted tracked-device names, rebuilt on add
	pending []healthSample

	// classRing holds recent normalized samples per device class for the
	// p95 hedge delay; classP95/classMed are recomputed every Tick.
	classRing map[string][]float64
	classP95  map[string]float64
	classMed  map[string]float64
	globalMed float64

	// alt caches hedge-alternate lookups for the current tick window so
	// the serve path does at most one placement scan per (app, node).
	alt map[string]altEntry

	stats HealthStats
}

type altEntry struct {
	device string
	ok     bool
}

const classRingCap = 128

// NewHealthMonitor builds a monitor over a continuum. Wire the failure
// detector (to respect drains and crashes) and a migrator (to quarantine)
// before ticking.
func NewHealthMonitor(c *continuum.Continuum, cfg HealthConfig) *HealthMonitor {
	return &HealthMonitor{
		c:         c,
		cfg:       cfg.withDefaults(),
		devs:      map[string]*devHealth{},
		classRing: map[string][]float64{},
		classP95:  map[string]float64{},
		classMed:  map[string]float64{},
		alt:       map[string]altEntry{},
	}
}

// SetDetector wires the failure detector so the monitor skips devices
// that are draining (quiescing on purpose) or crash-suspected (the
// binary detector's jurisdiction).
func (m *HealthMonitor) SetDetector(fd *FailureDetector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fd = fd
}

// SetMigrator wires the live-migration machinery quarantine uses to
// cordon and drain. Without one (or with NoQuarantine) escalation caps
// at suspect-slow.
func (m *HealthMonitor) SetMigrator(mg *Migrator) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mg = mg
}

// Config returns the effective (defaulted) configuration.
func (m *HealthMonitor) Config() HealthConfig { return m.cfg }

// Stats returns a copy of the cumulative counters.
func (m *HealthMonitor) Stats() HealthStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// BeginProbation places a device directly into the probation state —
// the partition-heal rejoin path: a fenced owner that reconnects after
// a partition has discarded its zombie suffix and resynced, but must
// re-earn trust through clean probes (exactly like a quarantined device
// exiting its dwell) before the planner will use it again. The device
// is cordoned until probation lifts. Returns false when the device is
// unknown or already quarantined/under probation.
func (m *HealthMonitor) BeginProbation(name string, now sim.Time) bool {
	d, ok := m.c.Devices[name]
	if !ok {
		return false
	}
	var fire []transition
	m.mu.Lock()
	h := m.track(d)
	if h.state == HealthQuarantined || h.state == HealthProbation {
		m.mu.Unlock()
		return false
	}
	h.good = 0
	m.stats.Probations++
	fire = m.setState(h, HealthProbation, now, fire)
	mg := m.mg
	m.mu.Unlock()
	if mg != nil {
		mg.o.M.Cordon(name, true) // probe-good exit uncordons via Undrain
	}
	for _, t := range fire {
		if m.OnTransition != nil {
			m.OnTransition(t.dev, t.from, t.to, now)
		}
	}
	return true
}

// track returns (creating if needed) the scoring state for a device.
// Caller holds m.mu.
func (m *HealthMonitor) track(d *device.Device) *devHealth {
	name := d.Name()
	if h, ok := m.devs[name]; ok {
		return h
	}
	spec := d.Spec()
	h := &devHealth{name: name, dev: d, class: string(spec.Kind), nominal: spec.GOPSPerCore}
	m.devs[name] = h
	m.order = append(m.order, name)
	sort.Strings(m.order)
	return h
}

// Observe records one completed execution: gops of work that ran from
// start to finish on dev. The sample is buffered and only becomes
// visible to scoring once the sim clock passes finish.
func (m *HealthMonitor) Observe(dev *device.Device, gops float64, start, finish sim.Time) {
	if dev == nil || gops <= 0 || finish <= start {
		return
	}
	rate := dev.Spec().GOPSPerCore / gops
	norm := (finish - start).Seconds() * rate
	m.mu.Lock()
	h := m.track(dev)
	// A monitor that is attached but never ticked must not leak: cap the
	// buffer and drop new samples past it (a ticked monitor drains every
	// sensing round, so the cap is never reached in normal operation).
	if len(m.pending) < 8192 {
		m.pending = append(m.pending, healthSample{h: h, norm: norm, start: start, finish: finish, rate: rate})
	}
	m.mu.Unlock()
}

// NoteDispatch counts one stage dispatch toward the hedge budget and
// reports whether the target device is degraded (suspect or worse), in
// which case the caller should arm a hedge.
func (m *HealthMonitor) NoteDispatch(dev string) (degraded bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Dispatches++
	h, ok := m.devs[dev]
	return ok && h.state != HealthHealthy
}

// Degraded reports whether a device is suspect-slow or worse.
func (m *HealthMonitor) Degraded(dev string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.devs[dev]
	return ok && h.state != HealthHealthy
}

// Sidelined reports whether a device is quarantined or on probation —
// taken out of rotation entirely. A dispatch the current plan still
// routes there (the pre-flip window of the quarantine drain) should be
// steered straight to the alternate: unlike a hedge that duplicates
// work on a merely-suspect device, steering away from a sidelined one
// costs nothing and consumes no hedge budget.
func (m *HealthMonitor) Sidelined(dev string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.devs[dev]
	return ok && (h.state == HealthQuarantined || h.state == HealthProbation)
}

// NoteSteer counts a dispatch steered off a sidelined device.
func (m *HealthMonitor) NoteSteer() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Steered++
}

// Penalty returns the placement-score penalty for a device: suspect and
// probation devices pay SuspectPenalty, quarantined devices are already
// cordoned so the penalty is moot, healthy devices pay nothing.
func (m *HealthMonitor) Penalty(dev string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.devs[dev]
	if !ok || h.state == HealthHealthy {
		return 0
	}
	return m.cfg.SuspectPenalty
}

// TakeHedgeToken consumes one unit of hedge budget. The budget is
// max(1, HedgeBudget × dispatches so far) cumulative hedges — denied
// overflow is counted and dropped, never retried, so hedging cannot
// amplify load.
func (m *HealthMonitor) TakeHedgeToken() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	budget := uint64(m.cfg.HedgeBudget * float64(m.stats.Dispatches))
	if budget < 1 {
		budget = 1
	}
	if m.stats.HedgesFired >= budget {
		m.stats.HedgesDenied++
		return false
	}
	return true
}

// HedgeDelay is how long a dispatch of gops to dev may run before its
// hedge fires: HedgeDelayFactor × the class p95 normalized service
// time, denormalized by the device's nominal rate. Falls back to the
// class median, then to nominal (ratio 1.0) when no peer data exists.
func (m *HealthMonitor) HedgeDelay(dev string, gops float64) sim.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.devs[dev]
	if !ok || h.nominal <= 0 {
		return 0
	}
	ref := m.classP95[h.class]
	if ref <= 0 {
		ref = m.classMed[h.class]
	}
	if ref <= 0 {
		ref = 1
	}
	secs := gops / h.nominal * ref * m.cfg.HedgeDelayFactor
	return sim.Time(secs * float64(sim.Second))
}

// noteHedge bookkeeping, called from the runtime's hedge path.
func (m *HealthMonitor) NoteHedgeFired(won bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.HedgesFired++
	if won {
		m.stats.HedgesWon++
	} else {
		m.stats.HedgesLost++
	}
}

// NoteHedgeSuppressed counts a losing hedge apply absorbed by dedup.
func (m *HealthMonitor) NoteHedgeSuppressed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.HedgesSuppressed++
}

// NoteFailover counts a dispatch re-routed off a degraded primary.
func (m *HealthMonitor) NoteFailover() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Failovers++
}

// CachedAlt answers a hedge-alternate lookup from the per-tick cache.
func (m *HealthMonitor) CachedAlt(key string) (string, bool, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.alt[key]
	return e.device, e.ok, ok
}

// StoreAlt caches a hedge-alternate lookup until the next Tick.
func (m *HealthMonitor) StoreAlt(key, dev string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.alt[key] = altEntry{device: dev, ok: ok}
}

// transition is a pending state change, fired after the lock drops.
type transition struct {
	dev      string
	from, to HealthState
}

// Tick ingests matured samples, refreshes peer medians, and advances
// every tracked device's state machine. Call on the sensing cadence
// (the chaos runner ticks it with the failure detector). Deterministic:
// devices are visited in sorted name order and all state lives on the
// sim clock.
func (m *HealthMonitor) Tick(now sim.Time) {
	var fire []transition
	var drains []string

	m.mu.Lock()
	m.ingest(now)
	m.refreshAggregates()
	clear(m.alt)

	for _, name := range m.order {
		h := m.devs[name]
		if h.dev.Failed() {
			// Crash-detection is the binary detector's job. A suspect
			// that crashes de-escalates here (the detector now owns it);
			// a quarantined/probation device stays quarantined — it is
			// cordoned, drained, and probes will fail until repair.
			if h.state == HealthSuspect {
				fire = m.setState(h, HealthHealthy, now, fire)
			}
			continue
		}
		if m.fd != nil && m.fd.Suspected(name) {
			continue // missed heartbeats: fail-stop path owns this device
		}
		externallyDraining := m.fd != nil && m.fd.Draining(name) &&
			(h.state == HealthHealthy || h.state == HealthSuspect)
		if externallyDraining {
			continue // operator drain in progress; observations cease anyway
		}
		switch h.state {
		case HealthHealthy, HealthSuspect:
			fire, drains = m.score(h, now, fire, drains)
		case HealthQuarantined:
			if now-h.since >= m.cfg.ProbationAfter {
				h.good = 0
				m.stats.Probations++
				fire = m.setState(h, HealthProbation, now, fire)
			}
		case HealthProbation:
			fire = m.probe(h, now, fire)
		}
	}
	m.mu.Unlock()

	for _, t := range fire {
		if m.OnTransition != nil {
			m.OnTransition(t.dev, t.from, t.to, now)
		}
	}
	for _, name := range drains {
		m.startDrain(name, now)
	}
}

// ingest moves buffered samples whose finish time has passed into the
// per-device EWMAs and the class rings. In-flight samples whose elapsed
// time alone already exceeds the suspect threshold are ingested early
// at their observable lower bound — a request 2.5× over its nominal
// service time is evidence now, not at whatever distant finish the
// gray failure stretched it to. Caller holds m.mu.
func (m *HealthMonitor) ingest(now sim.Time) {
	kept := m.pending[:0]
	for _, s := range m.pending {
		norm := s.norm
		ref := m.classMed[s.h.class]
		if ref <= 0 {
			ref = 1
		}
		if s.finish > now {
			lb := (now - s.start).Seconds() * s.rate
			if lb < m.cfg.SuspectRatio*ref {
				kept = append(kept, s)
				continue
			}
			// Ingest once at the lower bound and drop the sample; the
			// true norm is at least lb, and later dispatches keep
			// supplying fresh evidence while the device stays slow.
			norm = lb
		}
		h := s.h
		if h.samples == 0 {
			h.ewma = norm
		} else {
			h.ewma = m.cfg.Alpha*norm + (1-m.cfg.Alpha)*h.ewma
		}
		h.samples++
		if h.state != HealthHealthy || norm >= m.cfg.SuspectRatio*ref {
			// Outlier evidence drives the device's own EWMA and state
			// machine but stays out of the class ring: the ring is the
			// healthy-peer reference hedge delays are derived from, and
			// gray-failure samples would inflate it into uselessness. The
			// state guard matters once the sick device dominates its tiny
			// class — its own EWMA then drags the class median up and the
			// norm cut-off alone stops cutting.
			continue
		}
		ring := m.classRing[h.class]
		if len(ring) >= classRingCap {
			copy(ring, ring[1:])
			ring = ring[:classRingCap-1]
		}
		m.classRing[h.class] = append(ring, norm)
	}
	m.pending = kept
}

// refreshAggregates recomputes per-class medians of device EWMAs (the
// peer baseline), the global fallback median, and per-class p95s of
// recent samples (the hedge-delay reference) — all nearest-rank, so a
// median is the upper one. Caller holds m.mu.
func (m *HealthMonitor) refreshAggregates() {
	byClass := map[string][]float64{}
	var all []float64
	for _, name := range m.order {
		h := m.devs[name]
		if h.samples < m.cfg.MinSamples {
			continue
		}
		byClass[h.class] = append(byClass[h.class], h.ewma)
		all = append(all, h.ewma)
	}
	clear(m.classMed)
	for class, v := range byClass {
		m.classMed[class] = telemetry.Quantiles(v, 0.5)[0]
	}
	m.globalMed = telemetry.Quantiles(all, 0.5)[0]
	clear(m.classP95)
	for class, ring := range m.classRing {
		m.classP95[class] = telemetry.Quantiles(ring, 0.95)[0]
	}
}

// baseline returns the peer-median a device is judged against: its
// class median when at least 3 class peers have enough samples (a
// majority of any default class), else the global median (small classes
// — the continuum has only two FMDCs — still get judged). Caller holds
// m.mu.
func (m *HealthMonitor) baseline(h *devHealth) float64 {
	count := 0
	for _, name := range m.order {
		p := m.devs[name]
		if p.class == h.class && p.samples >= m.cfg.MinSamples {
			count++
		}
	}
	if count >= 3 {
		return m.classMed[h.class]
	}
	return m.globalMed
}

// score advances a healthy/suspect device against its peers.
func (m *HealthMonitor) score(h *devHealth, now sim.Time, fire []transition, drains []string) ([]transition, []string) {
	med := m.baseline(h)
	if h.samples < m.cfg.MinSamples || med <= 0 {
		return fire, drains
	}
	h.ratio = h.ewma / med
	switch {
	case h.ratio >= m.cfg.QuarantineRatio && h.state == HealthSuspect:
		if m.cfg.NoQuarantine || m.mg == nil {
			return fire, drains // hedge-only: escalation caps at suspect
		}
		if m.fd != nil && m.fd.Draining(h.name) {
			return fire, drains // an operator drain is already quiescing it
		}
		m.stats.Quarantines++
		fire = m.setState(h, HealthQuarantined, now, fire)
		drains = append(drains, h.name)
	case h.ratio >= m.cfg.SuspectRatio:
		if h.state == HealthHealthy {
			m.stats.Suspects++
			fire = m.setState(h, HealthSuspect, now, fire)
		}
	case h.ratio <= m.cfg.RecoverRatio && h.state == HealthSuspect:
		fire = m.setState(h, HealthHealthy, now, fire)
	}
	return fire, drains
}

// probe runs one synthetic probe on a probation device — a strictly
// capped traffic share (one small work item per tick) that must come
// back at peer speed ProbationGood ticks in a row before the cordon
// lifts. A slow probe re-quarantines; a failed probe resets progress.
func (m *HealthMonitor) probe(h *devHealth, now sim.Time, fire []transition) []transition {
	m.stats.Probes++
	res, err := h.dev.Run(device.Work{Name: "health-probe/" + h.name, GOps: m.cfg.ProbeGOps}, now)
	if err != nil {
		h.good = 0
		return fire
	}
	norm := (res.Finish - res.Start).Seconds() * h.nominal / m.cfg.ProbeGOps
	med := m.baseline(h)
	if med <= 0 {
		med = 1
	}
	switch {
	case norm <= m.cfg.RecoverRatio*med:
		h.good++
		if h.good >= m.cfg.ProbationGood {
			// Probes are clean serialized runs on an idle device; re-seed
			// the EWMA from them so the quarantine-era history does not
			// immediately re-suspect the restored device.
			h.ewma = norm
			h.samples = m.cfg.MinSamples
			h.ratio = norm / med
			m.stats.Restores++
			fire = m.setState(h, HealthHealthy, now, fire)
			if m.mg != nil {
				m.mg.Undrain(h.name)
			}
		}
	case norm >= m.cfg.SuspectRatio*med:
		h.good = 0
		m.stats.Requarantines++
		fire = m.setState(h, HealthQuarantined, now, fire)
	default:
		h.good = 0
	}
	return fire
}

// setState records a transition; the callback fires after unlock.
func (m *HealthMonitor) setState(h *devHealth, to HealthState, now sim.Time, fire []transition) []transition {
	from := h.state
	if from == to {
		return fire
	}
	h.state = to
	h.since = now
	return append(fire, transition{dev: h.name, from: from, to: to})
}

// startDrain kicks off the quarantine drain outside the monitor lock
// (Drain may complete synchronously when the device hosts no stateful
// stage, and its callback re-enters the monitor). An aborted or
// rejected drain demotes the device back to suspect so scoring retries.
func (m *HealthMonitor) startDrain(name string, now sim.Time) {
	m.mu.Lock()
	mg := m.mg
	m.mu.Unlock()
	if mg == nil {
		return
	}
	demote := func() {
		var t []transition
		m.mu.Lock()
		if h, ok := m.devs[name]; ok && h.state == HealthQuarantined {
			t = m.setState(h, HealthSuspect, m.c.Engine.Now(), t)
		}
		m.mu.Unlock()
		for _, tr := range t {
			if m.OnTransition != nil {
				m.OnTransition(tr.dev, tr.from, tr.to, m.c.Engine.Now())
			}
		}
	}
	err := mg.Drain(name, func(rep *DrainReport, err error) {
		if err != nil {
			demote()
		}
	})
	if err != nil {
		demote()
	}
}

// States returns every tracked device's health row, sorted by name.
func (m *HealthMonitor) States() []DeviceHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]DeviceHealth, 0, len(m.order))
	for _, name := range m.order {
		h := m.devs[name]
		med := m.baseline(h)
		score := 0.0
		if med > 0 && h.samples >= m.cfg.MinSamples {
			score = h.ewma / med
		}
		out = append(out, DeviceHealth{
			Device: h.name, Class: h.class, State: h.state.String(),
			Score: score, EWMA: h.ewma, PeerMedian: med, Samples: h.samples,
		})
	}
	return out
}

// StateOf returns one device's state (HealthHealthy for untracked).
func (m *HealthMonitor) StateOf(dev string) HealthState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.devs[dev]; ok {
		return h.state
	}
	return HealthHealthy
}
