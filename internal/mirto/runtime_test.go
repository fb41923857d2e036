package mirto

import (
	"errors"
	"sync"
	"testing"

	"myrtus/internal/continuum"
	"myrtus/internal/sim"
	"myrtus/internal/telemetry"
)

// serveEnv is one freshly deployed mobility app for the serve-path tests.
type serveEnv struct {
	c    *continuum.Continuum
	o    *Orchestrator
	plan *Plan
	app  string
}

func newServeEnv(t *testing.T) *serveEnv {
	t.Helper()
	c := testContinuum(t)
	o := NewOrchestrator(NewManager(c, LatencyGoal()))
	plan, err := o.Deploy(parseApp(t))
	if err != nil {
		t.Fatal(err)
	}
	return &serveEnv{c: c, o: o, plan: plan, app: plan.App}
}

func (e *serveEnv) device(t *testing.T, stage string) string {
	t.Helper()
	a, ok := e.plan.Assignment(stage)
	if !ok {
		t.Fatalf("stage %s unassigned", stage)
	}
	return a.Device
}

// exhaustedAdmission returns a controller whose bucket is empty and
// refills far too slowly to admit anything during a test.
func exhaustedAdmission(eng *sim.Engine) *AdmissionController {
	ac := NewAdmissionController(eng, AdmissionConfig{Rate: 1e-6, Burst: 1})
	for ac.Admit(PriorityHigh, 0) == nil {
	}
	return ac
}

// TestRequestConservation drives one request down every exit of the
// serve path and checks the books: its outcome is delivered exactly once
// (returned synchronously for a refusal, through done otherwise), no
// in-flight slot leaks, and ok + failed + shed advances by exactly the
// requests the runtime accounted for.
func TestRequestConservation(t *testing.T) {
	cases := []struct {
		name string
		// arrange prepares the fault; a returned func runs after the
		// submit and before the engine does.
		arrange func(t *testing.T, e *serveEnv) (afterSubmit func())
		refused bool               // the outcome is the submit's return value
		want    func(error) bool   // classifies the delivered outcome
		counter func(k KPIs) int64 // the counter the request must advance
		// advance is how far ok+failed+shed must move: 1, plus whatever
		// arrange itself submitted; 0 when the app is gone and there are
		// no books left to enter the request in.
		advance int64
	}{
		{
			name:    "ok",
			want:    func(err error) bool { return err == nil },
			counter: func(k KPIs) int64 { return k.Requests },
			advance: 1,
		},
		{
			name: "source stage device down",
			arrange: func(t *testing.T, e *serveEnv) func() {
				e.c.Devices[e.device(t, "camera")].Fail()
				return nil
			},
			want:    func(err error) bool { return err != nil },
			counter: func(k KPIs) int64 { return k.Failed },
			advance: 1,
		},
		{
			name: "mid-pipeline device down",
			arrange: func(t *testing.T, e *serveEnv) func() {
				if e.device(t, "detector") == e.device(t, "camera") {
					t.Skip("co-located; no mid-pipeline hop")
				}
				e.c.Devices[e.device(t, "detector")].Fail()
				return nil
			},
			want:    func(err error) bool { return err != nil },
			counter: func(k KPIs) int64 { return k.Failed },
			advance: 1,
		},
		{
			name: "transfer loss",
			arrange: func(t *testing.T, e *serveEnv) func() {
				path, _, err := e.c.Topo.Route(e.device(t, "camera"), e.device(t, "detector"))
				if err != nil || len(path) < 2 {
					t.Skip("co-located; no transfer to lose")
				}
				for i := 0; i+1 < len(path); i++ {
					l, _ := e.c.Topo.Link(path[i], path[i+1])
					if err := e.c.Topo.SetLinkQuality(l.From, l.To, l.Latency, l.Bandwidth, 0.999999); err != nil {
						t.Fatal(err)
					}
				}
				return nil
			},
			want:    func(err error) bool { return err != nil },
			counter: func(k KPIs) int64 { return k.Failed },
			advance: 1,
		},
		{
			name: "breaker open",
			arrange: func(t *testing.T, e *serveEnv) func() {
				bs := NewBreakerSet(e.c.Engine, BreakerConfig{})
				bs.Trip(e.device(t, "camera"))
				e.o.R.SetBreakers(bs)
				return nil
			},
			want:    func(err error) bool { return errors.Is(err, ErrCircuitOpen) },
			counter: func(k KPIs) int64 { return k.Failed },
			advance: 1,
		},
		{
			name: "admission shed",
			arrange: func(t *testing.T, e *serveEnv) func() {
				e.o.R.SetAdmission(exhaustedAdmission(e.c.Engine))
				return nil
			},
			refused: true,
			want:    func(err error) bool { return errors.Is(err, ErrOverloaded) },
			counter: func(k KPIs) int64 { return k.Shed },
			advance: 1,
		},
		{
			name: "in-flight bound",
			arrange: func(t *testing.T, e *serveEnv) func() {
				e.o.R.SetMaxInFlight(1)
				if err := e.o.R.Submit(e.app, 1, nil); err != nil {
					t.Fatal(err)
				}
				return nil
			},
			refused: true,
			want:    func(err error) bool { return errors.Is(err, ErrOverloaded) },
			counter: func(k KPIs) int64 { return k.Shed },
			advance: 2, // the probe and the request holding the slot
		},
		{
			name: "parked then replayed",
			arrange: func(t *testing.T, e *serveEnv) func() {
				e.o.R.PauseIntake(e.app)
				return func() {
					if n := e.o.R.ResumeIntake(e.app); n != 1 {
						t.Errorf("ResumeIntake replayed %d, want 1", n)
					}
				}
			},
			want:    func(err error) bool { return err == nil },
			counter: func(k KPIs) int64 { return k.Requests },
			advance: 1,
		},
		{
			name: "parked then app gone",
			arrange: func(t *testing.T, e *serveEnv) func() {
				e.o.R.PauseIntake(e.app)
				return func() {
					e.o.R.Deregister(e.app)
					e.o.R.ResumeIntake(e.app)
				}
			},
			want: func(err error) bool { return errors.Is(err, errNoPlan) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newServeEnv(t)
			e.o.R.SetMaxInFlight(8) // so every admitted request holds a slot
			var afterSubmit func()
			if tc.arrange != nil {
				afterSubmit = tc.arrange(t, e)
			}
			before, _ := e.o.R.KPIs(e.app)

			delivered := 0
			var outcome error
			err := e.o.R.SubmitFrom(e.app, "", 2, func(_ sim.Time, _ float64, err error) {
				delivered++
				outcome = err
			})
			if tc.refused != (err != nil) {
				t.Fatalf("submit returned %v, refused = %v", err, tc.refused)
			}
			if err != nil {
				delivered, outcome = delivered+1, err
			}
			if afterSubmit != nil {
				afterSubmit()
			}
			e.c.Engine.Run()

			if delivered != 1 {
				t.Fatalf("outcome delivered %d times, want exactly once", delivered)
			}
			if !tc.want(outcome) {
				t.Fatalf("outcome = %v", outcome)
			}
			if n := e.o.R.apps[e.app].inflight.Load(); n != 0 {
				t.Fatalf("in-flight = %d after quiesce, want 0", n)
			}
			after, _ := e.o.R.KPIs(e.app)
			total := func(k KPIs) int64 { return k.Requests + k.Failed + k.Shed }
			if got := total(after) - total(before); got != tc.advance {
				t.Fatalf("ok+failed+shed advanced by %d, want %d (before %+v, after %+v)", got, tc.advance, before, after)
			}
			if tc.counter != nil && tc.counter(after)-tc.counter(before) != 1 {
				t.Fatalf("wrong counter advanced: before %+v, after %+v", before, after)
			}
		})
	}
}

// TestParkedReplayRefusalReachesDone is the regression for the vanishing
// parked request: a submit parked by PauseIntake whose replay the gates
// refuse has no caller to return the error to, so done must carry it —
// once — and the shed counter must advance once, not twice.
func TestParkedReplayRefusalReachesDone(t *testing.T) {
	t.Run("app deregistered", func(t *testing.T) {
		e := newServeEnv(t)
		e.o.R.PauseIntake(e.app)
		var got []error
		if err := e.o.R.SubmitFrom(e.app, "", 1, func(_ sim.Time, _ float64, err error) { got = append(got, err) }); err != nil {
			t.Fatalf("parked submit returned %v", err)
		}
		e.o.R.Deregister(e.app)
		if n := e.o.R.ResumeIntake(e.app); n != 1 {
			t.Fatalf("ResumeIntake = %d, want 1", n)
		}
		e.c.Engine.Run()
		if len(got) != 1 || !errors.Is(got[0], errNoPlan) {
			t.Fatalf("done calls = %v, want exactly one errNoPlan", got)
		}
	})
	t.Run("admission exhausted", func(t *testing.T) {
		e := newServeEnv(t)
		e.o.R.PauseIntake(e.app)
		var got []error
		if err := e.o.R.SubmitFrom(e.app, "", 1, func(_ sim.Time, _ float64, err error) { got = append(got, err) }); err != nil {
			t.Fatalf("parked submit returned %v", err)
		}
		e.o.R.SetAdmission(exhaustedAdmission(e.c.Engine))
		e.o.R.ResumeIntake(e.app)
		e.c.Engine.Run()
		if len(got) != 1 || !errors.Is(got[0], ErrOverloaded) {
			t.Fatalf("done calls = %v, want exactly one ErrOverloaded", got)
		}
		if k, _ := e.o.R.KPIs(e.app); k.Shed != 1 || k.Failed != 0 || k.Requests != 0 {
			t.Fatalf("kpis = %+v, want shed 1 and nothing else", k)
		}
	})
}

// TestRecordSurvivesRedeploy pins the per-app record's continuity across
// Undeploy/Deploy: request IDs keep growing (stateful dedup depends on
// it), the registry and the brownout level are the same objects and
// values, and the KPIs equal — field by field — what the runtime
// reported for this exact sequence before the per-app maps were folded
// into one record.
func TestRecordSurvivesRedeploy(t *testing.T) {
	e := newServeEnv(t)
	c, o, app := e.c, e.o, e.app
	for i := int64(1); i <= 6; i++ {
		if err := o.R.Submit(app, i, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Engine.Run()
	o.R.SetBrownout(app, 2)
	for i := 0; i < 2; i++ {
		if _, _, err := o.R.ServeRequest(app, 8); err != nil {
			t.Fatal(err)
		}
	}
	o.R.SetAdmission(exhaustedAdmission(c.Engine))
	if _, _, err := o.R.ServeRequest(app, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	o.R.SetAdmission(nil)
	cam := e.device(t, "camera")
	c.Devices[cam].Fail()
	if _, _, err := o.R.ServeRequest(app, 1); err == nil {
		t.Fatal("served through a failed device")
	}
	c.Devices[cam].Repair(c.Engine.Now())

	before, _ := o.R.KPIs(app)
	wantBefore := KPIs{App: "mobility", Requests: 8, Failed: 1, Shed: 1, Degraded: 3,
		LatencyMs: telemetry.Snapshot{Count: 8, Mean: 827.6599999999999, Min: 527.66, Max: 1327.66,
			P50: 767.6600000000001, P95: 1271.6599999999999, P99: 1316.46},
		RecentP95Ms: 1327.66, EnergyJoules: 7.022399999999999}
	if before != wantBefore {
		t.Fatalf("KPIs before redeploy:\n got %+v\nwant %+v", before, wantBefore)
	}
	regBefore, _ := o.R.Metrics(app)
	lastID := o.R.nextReqID(app)

	if err := o.Undeploy(app); err != nil {
		t.Fatal(err)
	}
	if apps := o.R.Apps(); len(apps) != 0 {
		t.Fatalf("apps after undeploy = %v", apps)
	}
	if reg, ok := o.R.Metrics(app); !ok || reg != regBefore {
		t.Fatal("registry did not survive undeploy")
	}
	if _, err := o.Deploy(parseApp(t)); err != nil {
		t.Fatal(err)
	}
	if id := o.R.nextReqID(app); id <= lastID {
		t.Fatalf("request ID %d after redeploy, last before was %d", id, lastID)
	}
	if reg, _ := o.R.Metrics(app); reg != regBefore {
		t.Fatal("redeploy replaced the registry")
	}
	if lvl := o.R.Brownout(app); lvl != 2 {
		t.Fatalf("brownout after redeploy = %d, want 2", lvl)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := o.R.ServeRequest(app, 4); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := o.R.KPIs(app)
	wantAfter := KPIs{App: "mobility", Requests: 11, Failed: 1, Shed: 1, Degraded: 6,
		LatencyMs: telemetry.Snapshot{Count: 11, Mean: 745.841818181818, Min: 527.66, Max: 1327.66,
			P50: 527.66, P95: 1247.6599999999999, P99: 1311.66},
		RecentP95Ms: 1327.66, EnergyJoules: 9.6558}
	if after != wantAfter {
		t.Fatalf("KPIs after redeploy:\n got %+v\nwant %+v", after, wantAfter)
	}
}

// TestRuntimeChurnRace churns the per-app record (Register, Deregister,
// SetBrownout and the read accessors) from one goroutine while four
// others submit. The engine is single-threaded by design, so the intake
// gate is closed for the concurrent phase: every submit parks without
// touching it, and the replay runs on the test goroutine. The race
// detector is half the assertion; the other half is that no done is
// lost.
func TestRuntimeChurnRace(t *testing.T) {
	e := newServeEnv(t)
	r, app := e.o.R, e.app
	r.SetMaxInFlight(1 << 20)
	r.PauseIntake(app)

	const submitters, each = 4, 50
	done := 0 // written only by replays, which run on this goroutine
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := r.SubmitFrom(app, "", 1, func(_ sim.Time, _ float64, err error) {
					if err != nil {
						t.Errorf("replayed request failed: %v", err)
					}
					done++
				})
				if err != nil {
					t.Errorf("parked submit returned %v", err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.Deregister(app)
			r.SetBrownout(app, i%3)
			r.Register(e.plan)
			r.KPIs(app)
			r.Apps()
			r.Brownout(app)
			r.IntakePaused(app)
		}
	}()
	wg.Wait()

	r.SetBrownout(app, 0)
	if n := r.ResumeIntake(app); n != submitters*each {
		t.Fatalf("ResumeIntake replayed %d, want %d", n, submitters*each)
	}
	e.c.Engine.Run()
	if done != submitters*each {
		t.Fatalf("done fired %d times, want %d", done, submitters*each)
	}
	if n := r.apps[app].inflight.Load(); n != 0 {
		t.Fatalf("in-flight = %d after quiesce, want 0", n)
	}
	if k, _ := r.KPIs(app); k.Requests != submitters*each {
		t.Fatalf("requests_ok = %d, want %d", k.Requests, submitters*each)
	}
}
