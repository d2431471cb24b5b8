package main

import (
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted asserts that got holds exactly the catalogue's metrics,
// each once, with its unit and a well-formed name.
func checkEmitted(t *testing.T, workload string, defs []metricDef, got []metric) {
	t.Helper()
	if len(got) != len(defs) {
		t.Fatalf("%s: %d metrics emitted, catalogue has %d", workload, len(got), len(defs))
	}
	for i, d := range defs {
		if got[i].Name != d.Name || got[i].Unit != d.Unit || d.Unit == "" {
			t.Errorf("%s: metric %d is %s [%s], catalogue says %s [%s]", workload, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
		}
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
		}
	}
}

// TestSmoke runs all four workloads at a fiftieth of their size, twice
// untraced and once traced: every metric BENCHMARK.json names is emitted
// once, nothing fails, and two runs of one seed agree on every model
// metric and on the answers digest.
func TestSmoke(t *testing.T) {
	cat, err := loadCatalogue("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	minTimed = time.Millisecond
	taxBlockSeconds = 0.002
	for _, w := range workloads {
		small := w.scaled(0.02)
		a, err := measure(cat, small, 1, 0.05, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := measure(cat, small, 1, 0.05, false)
		if err != nil {
			t.Fatal(err)
		}
		checkEmitted(t, w.name, cat.EndToEnd, a.EndToEnd)
		if !a.Correct || a.Failed != 0 || a.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", w.name, a.Correct, a.Attempted, a.Failed, a.Notes)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: same seed, answers_digest %s vs %s", w.name, a.Digest, b.Digest)
		}
		for i, m := range a.EndToEnd {
			if modelMetrics[m.Name] && m.Value != b.EndToEnd[i].Value {
				t.Errorf("%s: same seed, %s %v vs %v", w.name, m.Name, m.Value, b.EndToEnd[i].Value)
			}
		}
		traced, err := measure(cat, small, 1, 0.05, true)
		if err != nil {
			t.Fatal(err)
		}
		checkEmitted(t, w.name, cat.PerLayer, traced.Layers)
		if traced.Digest != a.Digest {
			t.Errorf("%s: tracing changed answers_digest: %s vs %s", w.name, traced.Digest, a.Digest)
		}
		for _, m := range traced.Layers {
			for _, d := range traced.Diag {
				if d.Name == m.Name {
					t.Errorf("%s: %s is reported twice", w.name, m.Name)
				}
			}
		}
	}
}
