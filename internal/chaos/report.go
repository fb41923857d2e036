package chaos

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
	"time"

	"myrtus/internal/mirto"
	"myrtus/internal/network"
	"myrtus/internal/sim"
	"myrtus/internal/telemetry"
	"myrtus/internal/trace"
)

// Report is the per-scenario resilience report: request-level outcomes,
// incident MTTR, detector and loop activity, and recovery-time
// attribution. Render is deterministic — byte-identical across runs with
// the same (scenario, seed, config) — so reports double as regression
// fixtures.
type Report struct {
	Scenario  string
	Seed      uint64
	MAPEK     bool
	Duration  sim.Time
	TickEvery sim.Time

	// Request outcomes: OK on the first attempt, Recovered via retries,
	// Lost after exhausting them. AttemptFailures counts every failed
	// attempt, including ones later recovered.
	Total, OK, Recovered, Lost int
	AttemptFailures            int

	// Incidents and their repair times: an incident spans the first
	// failed attempt to the next success that post-dates it.
	Incidents   int
	MTTRSamples []sim.Time

	// Failure-detector counters.
	Suspected, Confirmed, DetectorRecovered int

	// MAPE-K loop activity (zero in the control run).
	LoopIterations, Replans, Boosts, ExecErrors int

	// Replan-mode attribution: incremental delta splices vs full
	// renegotiations, with each replan's deterministic planning cost in
	// candidates scored (wall-clock-free, so renders stay byte-identical
	// per seed).
	DeltaReplans, FullReplans int
	DeltaCost, FullCost       []int

	// Circuit-breaker activity (zero in the control run, which carries no
	// breaker set): transitions to open and requests fast-failed while
	// open or probing.
	BreakerOpens, BreakerFastFails int64

	Fabric network.FabricStats

	// EventsApplied counts executed fault events; EventErrors records
	// events that could not be applied (still deterministic).
	EventsApplied int
	EventErrors   []string

	// Stateful-state section (set only when Config.Stateful). Checkpoint
	// is false in the no-checkpoint control arm.
	Stateful   bool
	Checkpoint bool
	// StateApplied counts state updates applied across stateful stages;
	// DedupHits retried re-executions the dedup window absorbed (each one
	// a prevented double-apply); Invalidations device-loss events on
	// state cells; CleanMigrations live state moves under replans.
	StateApplied, DedupHits        uint64
	Invalidations, CleanMigrations uint64
	// RPOItems is the number of applied state updates recovery could not
	// bring back (the recovery-point objective; 0 = no state lost).
	RPOItems uint64
	// JournalReplayed counts journal entries folded in during restores;
	// JournalEvicted entries that aged out of the bounded journal.
	JournalReplayed, JournalEvicted uint64
	// RTOSamples are per-incident crash→state-restored latencies.
	RTOSamples []sim.Time
	// Ckpt carries the checkpointer's counters (zero in the control arm).
	Ckpt mirto.CheckpointStats
	// UnrestoredCells counts cells still lost when the run drained.
	UnrestoredCells int
	// ComparedCells/DivergentCells are the state-divergence check against
	// the fault-free same-seed reference: any cell whose canonical state
	// bytes differ is listed.
	ComparedCells  int
	DivergentCells []string

	// Migration section (set when the scenario carried DrainDevice
	// events): per-drain pre-copy/catch-up/flip traces, the count of
	// plan splices attributed to drains, and the state cells flipped to
	// a new owner without a restore.
	Drains         []*mirto.DrainReport
	DrainSplices   int
	LiveMigrations uint64

	// Gray-failure section (set when Config.Health): the peer-relative
	// health monitor's counters and per-device end state, plus the
	// fault-injection→first-escalation detection lags.
	HealthOn         bool
	HedgeOnly        bool
	Health           mirto.HealthStats
	DeviceHealth     []mirto.DeviceHealth
	DetectionSamples []sim.Time

	// Fencing section (set only when Config.Fencing): the fencing
	// ledger's counters plus the state store's count of stale-token
	// writes it rejected. Absent from renders of non-fenced runs, so
	// existing scenario outputs stay byte-identical.
	FencingOn    bool
	Fence        mirto.FenceStats
	FencedWrites uint64

	// Latencies are per-request submit→completion times of every request
	// that eventually succeeded (retry backoffs included).
	Latencies []sim.Time

	// Registry exposes the headline counters as telemetry for export.
	Registry *telemetry.Registry

	// fingerprints is the canonical per-cell state at the end of the run,
	// compared between the chaos and fault-free arms.
	fingerprints map[string][]byte

	attribution map[trace.Layer]*trace.LayerStat
}

// Availability is the fraction of requests that eventually succeeded.
func (r *Report) Availability() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.OK+r.Recovered) / float64(r.Total)
}

// MTTR returns the p50 and p95 of the incident repair-time samples
// (0, 0 when no incident closed).
func (r *Report) MTTR() (p50, p95 sim.Time) { return quantiles(r.MTTRSamples) }

// RTO returns the p50 and p95 of the crash→state-restored latency
// samples (0, 0 when no restore completed).
func (r *Report) RTO() (p50, p95 sim.Time) { return quantiles(r.RTOSamples) }

// quantiles returns the nearest-rank p50 and p95 of samples (zeros when
// there are none).
func quantiles[T cmp.Ordered](samples []T) (p50, p95 T) {
	q := telemetry.Quantiles(samples, 0.50, 0.95)
	return q[0], q[1]
}

// LatencyQuantiles returns the p50/p95/p99 of the successful-request
// latency samples (0s when none succeeded).
func (r *Report) LatencyQuantiles() (p50, p95, p99 sim.Time) {
	q := telemetry.Quantiles(r.Latencies, 0.50, 0.95, 0.99)
	return q[0], q[1], q[2]
}

// Attribution returns the accumulated recovery critical-path time per
// layer, in canonical layer order.
func (r *Report) Attribution() []trace.LayerStat {
	var total sim.Time
	for _, ls := range r.attribution {
		total += ls.Time
	}
	var out []trace.LayerStat
	for _, l := range trace.CanonicalLayers() {
		ls, ok := r.attribution[l]
		if !ok {
			continue
		}
		cp := *ls
		if total > 0 {
			cp.Share = float64(cp.Time) / float64(total)
		}
		out = append(out, cp)
	}
	return out
}

func dur(t sim.Time) string { return time.Duration(t).String() }

// PauseSamples flattens every per-app intake-pause duration across the
// report's drains (the unavailability a planned drain did impose).
func (r *Report) PauseSamples() []sim.Time {
	var out []sim.Time
	for _, d := range r.Drains {
		for _, p := range d.Pauses {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ticks expresses a duration in sensing ticks — the unit the drain
// pause bound is stated in.
func (r *Report) ticks(t sim.Time) float64 {
	if r.TickEvery <= 0 {
		return 0
	}
	return float64(t) / float64(r.TickEvery)
}

// Render formats the report as deterministic text.
func (r *Report) Render() string {
	var b strings.Builder
	mode := "off"
	if r.MAPEK {
		mode = "on"
	}
	fmt.Fprintf(&b, "chaos report: scenario=%s seed=%d mapek=%s duration=%s\n",
		r.Scenario, r.Seed, mode, dur(r.Duration))
	fmt.Fprintf(&b, "  requests:  total=%d ok=%d recovered=%d lost=%d (attempt failures=%d)\n",
		r.Total, r.OK, r.Recovered, r.Lost, r.AttemptFailures)
	fmt.Fprintf(&b, "  availability: %.2f%%\n", 100*r.Availability())
	lp50, lp95, lp99 := r.LatencyQuantiles()
	fmt.Fprintf(&b, "  latency:   p50=%s p95=%s p99=%s n=%d\n",
		dur(lp50), dur(lp95), dur(lp99), len(r.Latencies))
	p50, p95 := r.MTTR()
	fmt.Fprintf(&b, "  incidents: %d closed=%d mttr_p50=%s mttr_p95=%s\n",
		r.Incidents, len(r.MTTRSamples), dur(p50), dur(p95))
	fmt.Fprintf(&b, "  detector:  suspected=%d confirmed=%d recovered=%d\n",
		r.Suspected, r.Confirmed, r.DetectorRecovered)
	fmt.Fprintf(&b, "  loop:      iterations=%d replans=%d boosts=%d exec_errors=%d\n",
		r.LoopIterations, r.Replans, r.Boosts, r.ExecErrors)
	dp50, dp95 := quantiles(r.DeltaCost)
	fp50, fp95 := quantiles(r.FullCost)
	fmt.Fprintf(&b, "  replan_mode: delta=%d full=%d delta_cost_p50=%d delta_cost_p95=%d full_cost_p50=%d full_cost_p95=%d (cost=candidates scored)\n",
		r.DeltaReplans, r.FullReplans, dp50, dp95, fp50, fp95)
	fmt.Fprintf(&b, "  breakers:  opens=%d fast_fails=%d\n",
		r.BreakerOpens, r.BreakerFastFails)
	fmt.Fprintf(&b, "  fabric:    delivered=%d lost=%d retries=%d queue_drops=%d backoff=%s\n",
		r.Fabric.Delivered, r.Fabric.Lost, r.Fabric.Retries, r.Fabric.QueueDrops, dur(r.Fabric.BackoffTime))
	fmt.Fprintf(&b, "  faults:    applied=%d errors=%d\n", r.EventsApplied, len(r.EventErrors))
	for _, e := range r.EventErrors {
		fmt.Fprintf(&b, "    ! %s\n", e)
	}
	if r.Stateful {
		ck := "on"
		if !r.Checkpoint {
			ck = "off"
		}
		fmt.Fprintf(&b, "  state:     applied=%d dedup_hits=%d invalidations=%d clean_migrations=%d unrestored=%d (checkpoint=%s)\n",
			r.StateApplied, r.DedupHits, r.Invalidations, r.CleanMigrations, r.UnrestoredCells, ck)
		rp50, rp95 := r.RTO()
		fmt.Fprintf(&b, "  recovery:  rpo_items=%d rto_p50=%s rto_p95=%s restores=%d journal_replayed=%d journal_evicted=%d\n",
			r.RPOItems, dur(rp50), dur(rp95), len(r.RTOSamples), r.JournalReplayed, r.JournalEvicted)
		fmt.Fprintf(&b, "  checkpoint: fulls=%d deltas=%d skipped=%d bytes=%d send_failures=%d restores=%d journal_only=%d restore_failures=%d gc_keys=%d\n",
			r.Ckpt.Fulls, r.Ckpt.Deltas, r.Ckpt.Skipped, r.Ckpt.BytesSent, r.Ckpt.SendFailures,
			r.Ckpt.Restores, r.Ckpt.JournalOnlyRestores, r.Ckpt.RestoreFailures, r.Ckpt.KeysDeleted)
		fmt.Fprintf(&b, "  divergence: compared=%d divergent=%d\n", r.ComparedCells, len(r.DivergentCells))
		for _, cell := range r.DivergentCells {
			fmt.Fprintf(&b, "    ! state diverged: %s\n", cell)
		}
	}
	if len(r.Drains) > 0 {
		pp50, pp95 := quantiles(r.PauseSamples())
		fmt.Fprintf(&b, "  migration: drains=%d splices=%d live_migrations=%d pause_p50=%s pause_p95=%s (%.2f ticks)\n",
			len(r.Drains), r.DrainSplices, r.LiveMigrations, dur(pp50), dur(pp95), r.ticks(pp95))
		for _, d := range r.Drains {
			status := "completed"
			if d.Aborted {
				status = "aborted: " + d.Reason
			}
			fmt.Fprintf(&b, "    drain %s: took=%s moved=%d %s\n",
				d.Device, dur(d.Finished-d.Started), d.Moved, status)
			for _, sm := range d.Stages {
				fmt.Fprintf(&b, "      %s/%s %s->%s flipped=%v rounds=%d precopy_bytes=%d delta_bytes=%d residuals=%v final_delta=%d\n",
					sm.App, sm.Stage, sm.From, sm.To, sm.Flipped, sm.Rounds,
					sm.PrecopyBytes, sm.DeltaBytes, sm.Residuals, sm.FinalDelta)
			}
			apps := make([]string, 0, len(d.Pauses))
			for app := range d.Pauses {
				apps = append(apps, app)
			}
			sort.Strings(apps)
			for _, app := range apps {
				fmt.Fprintf(&b, "      pause %s: %s (%.2f ticks) parked=%d\n",
					app, dur(d.Pauses[app]), r.ticks(d.Pauses[app]), d.Parked[app])
			}
		}
	}
	if r.HealthOn {
		hmode := "quarantine"
		if r.HedgeOnly {
			hmode = "hedge-only"
		}
		dp50, dp95 := quantiles(r.DetectionSamples)
		fmt.Fprintf(&b, "  health:    suspects=%d quarantines=%d requarantines=%d probations=%d restores=%d probes=%d detect_p50=%s detect_p95=%s (mode=%s)\n",
			r.Health.Suspects, r.Health.Quarantines, r.Health.Requarantines,
			r.Health.Probations, r.Health.Restores, r.Health.Probes,
			dur(dp50), dur(dp95), hmode)
		overhead := 0.0
		if r.Health.Dispatches > 0 {
			overhead = 100 * float64(r.Health.HedgesFired) / float64(r.Health.Dispatches)
		}
		fmt.Fprintf(&b, "  hedges:    dispatches=%d fired=%d won=%d suppressed=%d denied=%d failovers=%d steered=%d overhead=%.2f%%\n",
			r.Health.Dispatches, r.Health.HedgesFired, r.Health.HedgesWon,
			r.Health.HedgesSuppressed, r.Health.HedgesDenied, r.Health.Failovers,
			r.Health.Steered, overhead)
		for _, dh := range r.DeviceHealth {
			if dh.State == mirto.HealthHealthy.String() && dh.Score <= 1.5 {
				continue // only the interesting rows; healthy-at-nominal is the default
			}
			fmt.Fprintf(&b, "    device %s (%s): state=%s score=%.2f ewma=%.3f peer_median=%.3f samples=%d\n",
				dh.Device, dh.Class, dh.State, dh.Score, dh.EWMA, dh.PeerMedian, dh.Samples)
		}
	}
	if r.FencingOn {
		fmt.Fprintf(&b, "  fencing:   tokens_minted=%d fenced_writes=%d fenced_checkpoints=%d fenced_migrates=%d epoch_rejects=%d self_demotions=%d owner_fences=%d\n",
			r.Fence.TokensMinted, r.FencedWrites, r.Fence.FencedCheckpoints,
			r.Fence.FencedMigrates, r.Fence.PlanEpochRejects,
			r.Fence.SelfDemotions, r.Fence.OwnerFences)
		fmt.Fprintf(&b, "  reconcile: reconciliations=%d journal_discards=%d resync_bytes=%d\n",
			r.Fence.Reconciliations, r.Fence.JournalDiscards, r.Fence.ResyncBytes)
	}
	if att := r.Attribution(); len(att) > 0 {
		fmt.Fprintf(&b, "  recovery attribution (critical path of recovering requests):\n")
		for _, ls := range att {
			fmt.Fprintf(&b, "    %-8s %6.1f%%  time=%s spans=%d\n",
				ls.Layer, 100*ls.Share, dur(ls.Time), ls.Spans)
		}
	}
	return b.String()
}
