package mirto

import (
	"fmt"

	"myrtus/internal/device"
	"myrtus/internal/sim"
)

// stageRun is the outcome of dispatching one stage: where it ran and its
// result, plus — when a hedge fired — where and when the duplicate that
// finished second did (lostDev is empty otherwise). The loser's state
// apply must still be scheduled so the exactly-once window absorbs it.
type stageRun struct {
	dev     string
	res     device.Result
	lostDev string
	lostAt  sim.Time
}

// dispatch runs one stage's work on its assigned device, with the
// device-side defenses in order: quarantine steering, the device breaker,
// degraded-primary failover, and the hedged duplicate.
func (q *request) dispatch(n, primary string, dev *device.Device, work device.Work, at sim.Time) (stageRun, error) {
	hm, bs := q.hm, q.bs
	degraded := hm != nil && hm.NoteDispatch(primary)
	srvName, srvDev := primary, dev
	// Quarantine steering: while the plan still routes to a sidelined
	// device (the pre-flip window of its drain), send the work
	// straight to the alternate. No duplicate runs, so no hedge
	// token — steering is free where hedging is budgeted.
	if degraded && hm.Sidelined(primary) {
		if altName, altDev := q.alternate(n, primary); altDev != nil {
			srvName, srvDev = altName, altDev
			hm.NoteSteer()
		}
	}
	var res device.Result
	var err error
	// Device breaker: fast-fail a stage whose target is open rather
	// than paying for a doomed or saturated run.
	if bs != nil && !bs.Allow(srvName) {
		err = fmt.Errorf("mirto: device %s for stage %s: %w", srvName, n, ErrCircuitOpen)
	} else {
		res, err = srvDev.Run(work, at)
		if err != nil && bs != nil {
			bs.Failure(srvName)
		}
	}
	if err != nil && degraded {
		// Degraded-primary failover: a suspect-slow device that
		// rejects the work outright (queue bound, tripped breaker)
		// must not doom the request while the quarantine drain is
		// still in flight — re-route to the placement alternate.
		if altName, altDev := q.alternate(n, srvName); altDev != nil {
			if ares, aerr := altDev.Run(work, at); aerr == nil {
				hm.NoteFailover()
				srvName, srvDev, res, err = altName, altDev, ares, nil
			}
		}
	}
	if err != nil {
		return stageRun{}, err
	}
	if bs != nil {
		bs.Success(srvName)
	}
	if hm != nil {
		hm.Observe(srvDev, work.GOps, res.Start, res.Finish)
	}
	run := stageRun{dev: srvName, res: res}
	if degraded && srvName == primary {
		q.hedge(n, work, at, &run)
	}
	return run, nil
}

// hedge arms the hedged request: a dispatch that landed on a suspect-slow
// device and will outlive the class-p95-derived delay runs one duplicate
// on the next-best candidate. First completion wins; the loser's state
// apply is absorbed by the exactly-once dedup window. A token budget
// (≤HedgeBudget of all dispatches, overflow denied and never retried)
// keeps hedging from amplifying load.
func (q *request) hedge(n string, work device.Work, at sim.Time, run *stageRun) {
	hm, primary := q.hm, run.dev
	delay := hm.HedgeDelay(primary, work.GOps)
	if delay <= 0 || run.res.Finish <= at+delay {
		return
	}
	altName, altDev := q.alternate(n, primary)
	if altDev == nil || !hm.TakeHedgeToken() {
		return
	}
	hres, herr := altDev.Run(work, at+delay)
	if herr != nil {
		return
	}
	q.energy += hres.EnergyJoules
	hm.Observe(altDev, work.GOps, hres.Start, hres.Finish)
	if hres.Finish < run.res.Finish {
		*run = stageRun{dev: altName, res: hres, lostDev: primary, lostAt: run.res.Finish}
		hm.NoteHedgeFired(true)
	} else {
		run.lostDev, run.lostAt = altName, hres.Finish
		hm.NoteHedgeFired(false)
	}
}

// alternate resolves the next-best live device for a stage (excluding
// avoid), consulting the health monitor's per-tick cache so the serve
// path pays at most one placement scan per (app, stage, primary) per
// sensing tick. Only degraded dispatches ask, so q.hm is set.
func (q *request) alternate(node, avoid string) (string, *device.Device) {
	key := q.plan.App + "/" + node + "/" + avoid
	name, ok, hit := q.hm.CachedAlt(key)
	if !hit {
		name, ok = q.r.manager.BestAlternate(q.plan, node, avoid)
		q.hm.StoreAlt(key, name, ok)
	}
	if !ok {
		return "", nil
	}
	if d := q.r.devices[name]; d != nil && !d.Failed() {
		return name, d
	}
	return "", nil
}

// linkOutcome reports a transfer's result to the link's breaker.
func (q *request) linkOutcome(link string, err error) {
	switch {
	case q.bs == nil:
	case err != nil:
		q.bs.Failure(link)
	default:
		q.bs.Success(link)
	}
}
