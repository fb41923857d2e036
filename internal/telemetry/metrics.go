// Package telemetry implements the MYRTUS Monitoring & Observability
// building block (EU-CEI): metric primitives, sliding windows, and the
// three monitor classes the paper distinguishes — application monitoring,
// telemetry (connectivity) monitoring, and infrastructure/resource
// monitoring. MIRTO agents consume these series to make decisions, and
// snapshots are published to the Knowledge Base.
package telemetry

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add increases the counter. Negative deltas are rejected.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic("telemetry: negative delta on Counter")
	}
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a value that can go up and down.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	g.mu.Lock()
	g.v += delta
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram accumulates observations and answers quantile queries.
// It keeps exact samples up to a bound and then reservoir-samples, which
// is plenty for simulation-scale series.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	count   int64
	sum     float64
	min     float64
	max     float64
	limit   int
	rng     uint64
}

// NewHistogram returns a histogram retaining up to limit samples
// (reservoir sampling beyond that). limit ≤ 0 selects a default of 4096.
func NewHistogram(limit int) *Histogram {
	if limit <= 0 {
		limit = 4096
	}
	return &Histogram{limit: limit, min: math.Inf(1), max: math.Inf(-1), rng: 0x9e3779b97f4a7c15}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.samples) < h.limit {
		h.samples = append(h.samples, v)
		return
	}
	// Reservoir: replace a random slot with probability limit/count.
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	if idx := h.rng % uint64(h.count); idx < uint64(h.limit) {
		h.samples[idx] = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the mean of all observations (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation (+Inf when empty).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation (-Inf when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) over retained samples.
// It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	s := make([]float64, len(h.samples))
	copy(s, h.samples)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Quantiles returns the nearest-rank quantile of samples for each q in
// qs: the element at index int(q·n) of the sorted samples, clamped to the
// last. It sorts a copy, so samples is left as it was; with no samples
// every quantile is the zero value. Reports and KPIs share this one
// definition so their percentiles agree.
func Quantiles[T cmp.Ordered](samples []T, qs ...float64) []T {
	out := make([]T, len(qs))
	if len(samples) == 0 {
		return out
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	for i, q := range qs {
		out[i] = s[min(int(q*float64(len(s))), len(s)-1)]
	}
	return out
}

// Snapshot is a point-in-time summary of a histogram.
type Snapshot struct {
	Count int64
	Mean  float64
	Min   float64
	Max   float64
	P50   float64
	P95   float64
	P99   float64
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p95=%.3g p99=%.3g max=%.3g",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// Window is a fixed-capacity sliding window of (time, value) points used
// for short-horizon trend analysis (e.g. load over the last minute).
type Window struct {
	mu   sync.Mutex
	cap  int
	pts  []Point
	head int
	n    int
}

// Point is one timestamped observation.
type Point struct {
	At    int64 // virtual nanoseconds
	Value float64
}

// NewWindow returns a sliding window holding up to capacity points.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		capacity = 64
	}
	return &Window{cap: capacity, pts: make([]Point, capacity)}
}

// Push appends a point, evicting the oldest when full.
func (w *Window) Push(at int64, v float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pts[(w.head+w.n)%w.cap] = Point{At: at, Value: v}
	if w.n < w.cap {
		w.n++
	} else {
		w.head = (w.head + 1) % w.cap
	}
}

// Len reports the number of retained points.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Points returns the retained points oldest-first.
func (w *Window) Points() []Point {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Point, w.n)
	for i := 0; i < w.n; i++ {
		out[i] = w.pts[(w.head+i)%w.cap]
	}
	return out
}

// Mean returns the mean of retained values (0 when empty).
func (w *Window) Mean() float64 {
	pts := w.Points()
	if len(pts) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range pts {
		s += p.Value
	}
	return s / float64(len(pts))
}

// Slope returns the least-squares slope of value over time in
// units-per-second, used to detect rising load. Returns 0 with fewer than
// two points or zero time spread.
func (w *Window) Slope() float64 {
	pts := w.Points()
	if len(pts) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(pts))
	t0 := pts[0].At
	for _, p := range pts {
		x := float64(p.At-t0) / 1e9
		sx += x
		sy += p.Value
		sxx += x * x
		sxy += x * p.Value
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
