package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A runner is one workload. The harness owns the clocks; the runner owns
// the system under test and the work. Work comes in fixed-count rounds:
// round i does the same operations for a given (seed, scale) whatever
// the machine, so simulated statistics and per-op counts are equal on
// both sides of any comparison. Only the number of rounds depends on
// the host's speed and the --seconds budget.
type runner interface {
	// setup performs one complete set-up (build, parse, deploy, or the
	// same public harness call at negligible load) and replaces whatever
	// an earlier call left behind. The harness times it.
	setup(rec *recorder) error
	// warm runs untimed operations (at least 5 % of a round) on the
	// system the last setup built.
	warm() error
	// round runs the i-th fixed-count round and returns how many
	// operations it attempted and how many of them failed: a public call
	// returned an unexpected error or an output check did not hold.
	// Modelled outcomes (a request shed under overload, lost to a
	// fault) are not failures of the run; they count against ok_frac.
	round(i int, rec *recorder) (attempted, failed int64, err error)
	// minRounds is how many rounds the harness runs whatever the budget:
	// the leading rounds that feed the simulated statistics and the
	// model digest, plus any repeat the output checks need.
	minRounds() int
	// model returns the simulated statistics, layer counters and digest
	// of the model rounds.
	model() modelStats
}

// modelStats is everything a workload reports on the simulated clock.
// All of it is exact for a (seed, scale) pair.
type modelStats struct {
	// OK and Attempted are operation outcomes over the model rounds:
	// ok_frac = OK/Attempted, with refused, late, failed and lost
	// requests all counted as misses.
	OK, Attempted int64
	// Sim holds the named simulated statistics (model.* and the layer
	// counters), keyed by per-layer metric name.
	Sim map[string]float64
	// Calls counts, per attribution layer, how many times the model
	// rounds called into it; the traced run multiplies these by probe
	// times.
	Calls map[string]float64
	// Digest is a SHA-256 over the statistics and rendered reports.
	Digest string
}

// measurement is what one timed section produced on the host clock.
type measurement struct {
	setupS    float64
	rounds    []roundSample
	attempted int64
	failed    int64
	// Read at the end of the last mandatory round: allocations since the
	// first timed round, over allocOps operations, and the live heap.
	mallocs    uint64
	allocBytes uint64
	allocOps   int64
	liveHeap   uint64
}

type roundSample struct {
	ops    int64
	dur    time.Duration
	traced bool
}

// Set-up runs at least setupMinReps times, and on until a twentieth of
// the budget is spent or setupMaxReps is reached: a millisecond set-up
// needs more repetitions than a 40 ms one for a median that holds still.
// setup_s is the median repetition.
const (
	setupMinReps = 9
	setupMaxReps = 100
)

// measure runs set-up, warm-up and timed rounds until the budget is
// spent. With a recorder, odd rounds record spans and even rounds do
// not, so one process yields the tracing overhead.
func measure(r runner, budget time.Duration, rec *recorder) (*measurement, error) {
	m := &measurement{}
	var setups []float64
	setupStart := time.Now()
	for i := 0; i < setupMinReps || (i < setupMaxReps && time.Since(setupStart) < budget/20); i++ {
		id := rec.begin("setup")
		t0 := time.Now()
		err := r.setup(rec)
		d := time.Since(t0)
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	m.setupS = median(setups)
	if err := r.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	minRounds := r.minRounds()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < budget; i++ {
		traced := rec != nil && i%2 == 1
		rec.enable(traced)
		id := rec.begin("round")
		t0 := time.Now()
		att, failed, err := r.round(i, rec)
		d := time.Since(t0)
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		m.rounds = append(m.rounds, roundSample{ops: att, dur: d, traced: traced})
		m.attempted += att
		m.failed += failed
		if i == minRounds-1 {
			// Allocations and live heap are read after a fixed amount of
			// work, not at the end of the budget: a system that retains
			// per-operation state allocates and holds more the longer it
			// runs, and would otherwise look worse on a faster host.
			runtime.ReadMemStats(&after)
			m.mallocs = after.Mallocs - before.Mallocs
			m.allocBytes = after.TotalAlloc - before.TotalAlloc
			m.allocOps = m.attempted
			// Twice: the first collection only moves sync.Pool contents to
			// the victim cache.
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			m.liveHeap = after.HeapAlloc
		}
	}
	rec.enable(rec != nil)
	runtime.KeepAlive(r)
	return m, nil
}

// rate returns the fast-decile round's operations per host second, over
// the rounds whose traced flag matches. On a shared host a neighbour
// only ever slows a round down, so the fast tail estimates what the code
// costs and the slow tail what the neighbours cost: over ten runs in
// fresh processes the 90th percentile of the rounds spread 4-8 % where
// their median spread 6-15 % (README, "How a run is measured").
func (m *measurement) rate(traced bool) float64 {
	var rates []float64
	for _, s := range m.rounds {
		if s.traced == traced && s.dur > 0 {
			rates = append(rates, float64(s.ops)/s.dur.Seconds())
		}
	}
	return quantile(rates, 0.9)
}

// roundRates lists every round's operations per host second, in order:
// printed with the model line so a reader can see the spread behind
// ops_per_s.
func (m *measurement) roundRates() []float64 {
	out := make([]float64, len(m.rounds))
	for i, s := range m.rounds {
		out[i] = math.Round(float64(s.ops) / s.dur.Seconds())
	}
	return out
}

// median returns the middle of v, the mean of the middle two for an even
// count (0 for an empty slice).
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 0:
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}

// quantile returns the q-quantile of v by nearest rank (0 for an empty
// slice).
func quantile(v []float64, q float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// digest accumulates the model digest: every simulated statistic and
// rendered report a workload produces goes through add.
type digest struct{ h [sha256.Size]byte }

func (d *digest) add(format string, args ...any) {
	s := sha256.New()
	s.Write(d.h[:])
	fmt.Fprintf(s, format, args...)
	s.Sum(d.h[:0])
}

func (d *digest) String() string { return hex.EncodeToString(d.h[:]) }

// span is one call the driver made across a public layer boundary.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// maxSpans bounds what a traced run keeps in memory and writes out; a
// serve-steady run makes millions of calls.
const maxSpans = 200_000

// recorder keeps the benchmark's own spans in memory. A nil recorder is
// the untraced run: every method is a no-op.
type recorder struct {
	workload string
	epoch    time.Time
	on       bool
	spans    []span
	stack    []int32
	dropped  int64
	// selfNs sums, per span name, duration minus the part covered by
	// child spans.
	selfNs map[string]int64
	calls  map[string]int64
	// childNs[depth] accumulates child time for the open span at depth.
	childNs []int64
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now(), on: true,
		selfNs: map[string]int64{}, calls: map[string]int64{}}
}

func (r *recorder) enable(on bool) {
	if r != nil {
		r.on = on
	}
}

// begin opens a span under the innermost open one and returns its id
// (-1 when recording is off).
func (r *recorder) begin(name string) int32 {
	if r == nil || !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload})
	r.stack = append(r.stack, id)
	r.childNs = append(r.childNs, 0)
	r.spans[id].StartNs = time.Since(r.epoch).Nanoseconds()
	return id
}

// end closes the span begin returned. Past maxSpans a span is dropped as
// it closes and only counted in the self-time table.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	sp := &r.spans[id]
	sp.EndNs = now
	d := now - sp.StartNs
	n := len(r.stack) - 1
	r.selfNs[sp.Name] += d - r.childNs[n]
	r.calls[sp.Name]++
	r.stack = r.stack[:n]
	r.childNs = r.childNs[:n]
	if n > 0 {
		r.childNs[n-1] += d
	}
	if len(r.spans) > maxSpans && int(id) == len(r.spans)-1 {
		r.spans = r.spans[:id]
		r.dropped++
	}
}

// write stores the spans as JSON under dir.
func (r *recorder) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+r.workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int64  `json:"dropped"`
		Spans    []span `json:"spans"`
	}{r.workload, r.dropped, r.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
