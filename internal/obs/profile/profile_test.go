package profile

import "testing"

// TestNilProfilerInert: every method of a nil profiler is a no-op that
// returns zero values — the disabled-observability contract.
func TestNilProfilerInert(t *testing.T) {
	var p *Profiler
	p.Add("q", "k", Rewrites, 1)
	p.State(5, "q", 10)
	p.Reset()
	if p.Count("q", "k", Rewrites) != 0 || p.Keys("q") != nil ||
		p.SeriesFor("q") != nil {
		t.Fatal("nil profiler must be inert")
	}
}

// TestNilProfilerZeroAlloc pins the off-path cost of a fold with
// profiling disabled (nil receiver): it must allocate nothing.
func TestNilProfilerZeroAlloc(t *testing.T) {
	var p *Profiler
	if n := testing.AllocsPerRun(100, func() {
		p.Add("q", "R+A", Rewrites, 1)
		p.State(17, "q", 64)
	}); n != 0 {
		t.Fatalf("nil profiler allocated %.1f times per run", n)
	}
}

// TestMetricStrings: every metric renders a distinct stable name.
func TestMetricStrings(t *testing.T) {
	seen := map[string]bool{}
	for m := Metric(0); m < metricCount; m++ {
		s := m.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Fatalf("metric %d name %q invalid or duplicated", m, s)
		}
		seen[s] = true
	}
	if metricCount.String() != "unknown" {
		t.Fatal("out-of-range metric must render unknown")
	}
}
