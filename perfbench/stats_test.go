package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// The helpers must agree with order statistics computed the slow way.
func TestPercentileMatchesOrderStatistics(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(300)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(r.ExpFloat64()*100) / 10 // ties are common
		}
		for _, p := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			v := percentile(xs, p)
			atOrBelow, below := 0, 0
			for _, x := range xs {
				if x <= v {
					atOrBelow++
				}
				if x < v {
					below++
				}
			}
			need := int(math.Ceil(p * float64(n)))
			if atOrBelow < need || below >= need {
				t.Fatalf("n=%d p=%v: percentile %v has %d samples at or below and %d below; nearest rank is %d",
					n, p, v, atOrBelow, below, need)
			}
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		want := s[(n-1)/2]
		if n%2 == 0 {
			want = (s[n/2-1] + s[n/2]) / 2
		}
		if got := median(xs); got != want {
			t.Fatalf("n=%d: median %v, want %v", n, got, want)
		}
		var total float64
		for _, x := range xs {
			total += x
		}
		if got := sum(xs); got != total {
			t.Fatalf("sum %v, want %v", got, total)
		}
		if got, want := beyond(xs, percentile(xs, 0.99)), n-int(math.Ceil(0.99*float64(n))); got > want {
			t.Fatalf("n=%d: %d samples beyond p99, at most %d expected", n, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Fatal("empty input must give NaN")
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Fatalf("p50 of 1,2,3 = %v", got)
	}
}

// Self time is a span's duration minus the union of its children, so
// overlapping children are not subtracted twice.
func TestSelfTimesSubtractChildUnion(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{name: "root", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "b", parent: 0, lane: 1, start: 30 * ms, end: 50 * ms}, // overlaps a
		{name: "c", parent: 0, start: 90 * ms, end: 120 * ms},         // runs past root
		{name: "a1", parent: 1, start: 15 * ms, end: 20 * ms},
	}}
	self := tr.selfTimes()
	want := []time.Duration{100*ms - 40*ms - 10*ms, 25 * ms, 20 * ms, 30 * ms, 5 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("%s: self %v, want %v", tr.spans[i].name, self[i], want[i])
		}
	}
	rows := tr.layers(0)
	if len(rows) != 4 {
		t.Fatalf("layers under root: %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.name == "a" && (r.calls != 1 || r.self != 25*ms || r.total != 30*ms) {
			t.Errorf("layer a: %+v", r)
		}
	}
}

func TestLayerUnit(t *testing.T) {
	for name, want := range map[string]string{
		"osp.generate_s": "s", "render.us_per_config": "us", "go.heap_peak_mib": "MiB",
		"serve.handler_us.rank": "us", "obs.observe_ns": "ns", "cache.query.hit_ratio": "ratio",
		"cache.parse.hits": "count", "unaccounted_ms": "ms", "parse.snapshots": "count",
	} {
		if got := layerUnit(name); got != want {
			t.Errorf("layerUnit(%q) = %q, want %q", name, got, want)
		}
	}
}
