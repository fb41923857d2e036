package telemetry

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	if c.Value() != 3.5 {
		t.Fatalf("Value = %v, want 3.5", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %v, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("Value = %v, want 7", g.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 50.5 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 < 49 || p50 > 52 {
		t.Fatalf("P50 = %v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 98 || p99 > 100 {
		t.Fatalf("P99 = %v", p99)
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 100 {
		t.Fatalf("extreme quantiles wrong")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should return zeros")
	}
	if !math.IsInf(h.Min(), 1) || !math.IsInf(h.Max(), -1) {
		t.Fatal("empty Min/Max should be infinities")
	}
}

func TestHistogramReservoir(t *testing.T) {
	h := NewHistogram(16)
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i % 100))
	}
	if h.Count() != 10000 {
		t.Fatalf("Count = %d", h.Count())
	}
	// Quantiles should still be roughly uniform over [0,99].
	p50 := h.Quantile(0.5)
	if p50 < 10 || p50 > 90 {
		t.Fatalf("reservoir P50 far off: %v", p50)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	if err := quick.Check(func(vals []float64) bool {
		h := NewHistogram(0)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Observe(v)
		}
		last := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
			v := h.Quantile(q)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotString(t *testing.T) {
	h := NewHistogram(0)
	h.Observe(1)
	s := h.Snapshot().String()
	if !strings.Contains(s, "n=1") {
		t.Fatalf("Snapshot string %q", s)
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for i := 1; i <= 5; i++ {
		w.Push(int64(i), float64(i))
	}
	pts := w.Points()
	if len(pts) != 3 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].Value != 3 || pts[2].Value != 5 {
		t.Fatalf("points = %v", pts)
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d", w.Len())
	}
}

func TestWindowMeanAndSlope(t *testing.T) {
	w := NewWindow(10)
	// value = 2*t seconds → slope 2/s.
	for i := 0; i < 10; i++ {
		w.Push(int64(i)*1e9, float64(2*i))
	}
	if got := w.Slope(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Slope = %v, want 2", got)
	}
	if got := w.Mean(); got != 9 {
		t.Fatalf("Mean = %v, want 9", got)
	}
}

func TestWindowDegenerate(t *testing.T) {
	w := NewWindow(4)
	if w.Slope() != 0 || w.Mean() != 0 {
		t.Fatal("empty window should be zero")
	}
	w.Push(5, 1)
	if w.Slope() != 0 {
		t.Fatal("single-point slope should be 0")
	}
	w.Push(5, 3) // same timestamp → zero spread
	if w.Slope() != 0 {
		t.Fatal("zero-spread slope should be 0")
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry("edge-0")
	c1 := r.Counter(Application, "requests")
	c2 := r.Counter(Application, "requests")
	if c1 != c2 {
		t.Fatal("Counter not memoized")
	}
	g1 := r.Gauge(Infrastructure, "cpu")
	if g1 != r.Gauge(Infrastructure, "cpu") {
		t.Fatal("Gauge not memoized")
	}
	h1 := r.Histogram(Telemetry, "rtt")
	if h1 != r.Histogram(Telemetry, "rtt") {
		t.Fatal("Histogram not memoized")
	}
}

func TestRegistryExport(t *testing.T) {
	r := NewRegistry("fog-1")
	r.Counter(Application, "b-counter").Add(2)
	r.Gauge(Infrastructure, "a-gauge").Set(1)
	r.Histogram(Telemetry, "c-hist").Observe(4)
	out := r.Export()
	if len(out) != 3 {
		t.Fatalf("Export len = %d", len(out))
	}
	// Sorted by name.
	if out[0].Name != "a-gauge" || out[1].Name != "b-counter" || out[2].Name != "c-hist" {
		t.Fatalf("order wrong: %v %v %v", out[0].Name, out[1].Name, out[2].Name)
	}
	if out[2].Hist.Count != 1 {
		t.Fatal("histogram snapshot missing")
	}
	if out[0].Component != "fog-1" {
		t.Fatal("component missing")
	}
	if s, ok := r.Find("b-counter"); !ok || s.Value != 2 {
		t.Fatalf("Find = %v %v", s, ok)
	}
	if _, ok := r.Find("nope"); ok {
		t.Fatal("Find found a ghost")
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry("cloud")
	r.Counter(Application, "reqs").Inc()
	r.Histogram(Infrastructure, "lat").Observe(1)
	s := r.Render()
	if !strings.Contains(s, "component cloud") || !strings.Contains(s, "reqs") || !strings.Contains(s, "lat") {
		t.Fatalf("Render = %q", s)
	}
}

func TestClassString(t *testing.T) {
	if Application.String() != "application" || Telemetry.String() != "telemetry" || Infrastructure.String() != "infrastructure" {
		t.Fatal("class names wrong")
	}
	if Class(42).String() != "Class(42)" {
		t.Fatal("unknown class formatting")
	}
}

// TestQuantiles pins the nearest-rank definition every report shares:
// index int(q·n) of the sorted samples, clamped to the last.
func TestQuantiles(t *testing.T) {
	ten := []int{9, 0, 8, 1, 7, 2, 6, 3, 5, 4} // sorted: 0..9
	cases := []struct {
		name    string
		samples []int
		qs      []float64
		want    []int
	}{
		{"no samples", nil, []float64{0.5, 0.95}, []int{0, 0}},
		{"no quantiles", ten, nil, []int{}},
		{"one sample", []int{7}, []float64{0, 0.5, 0.99, 1}, []int{7, 7, 7, 7}},
		{"two samples", []int{5, 3}, []float64{0.49, 0.5}, []int{3, 5}},
		{"ten samples", ten, []float64{0, 0.5, 0.95, 0.99}, []int{0, 5, 9, 9}},
		{"q=1 clamps to the last", ten, []float64{1, 2.5}, []int{9, 9}},
		{"order of qs is kept", ten, []float64{0.9, 0.1}, []int{9, 1}},
	}
	for _, tc := range cases {
		in := slices.Clone(tc.samples)
		if got := Quantiles(tc.samples, tc.qs...); !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		if !slices.Equal(tc.samples, in) {
			t.Errorf("%s: samples reordered to %v", tc.name, tc.samples)
		}
	}
	// Any ordered type: the reports use sim.Time (an int64) and float64.
	if got := Quantiles([]float64{2.5, 0.5, 1.5}, 0.5)[0]; got != 1.5 {
		t.Errorf("float64 median = %v, want 1.5", got)
	}
}
