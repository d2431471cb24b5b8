package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricDef is one line of the metric catalogue.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // end-to-end only: allowed worsening as a share of the parent's median
}

// catalogue is BENCHMARK.json at the root of the repository: the one
// place that names the workloads and every metric with its unit,
// direction and bound. The program reads it at start-up, so the file
// the benchmark driver reads and the names the harness emits cannot
// drift apart: a name the harness emits and the file lacks, or the
// reverse, ends the run with an error. README.md says where each metric
// comes from and which end-to-end metric it should move.
type catalogue struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// modelMetrics are the end-to-end metrics counted in virtual time or in
// engine counters over the fixed prefix: two runs of one seed must
// agree on them exactly, on any machine.
var modelMetrics = map[string]bool{
	"msgs_per_tuple": true, "answer_latency_mean_ticks": true, "stored_entries": true,
}

func loadCatalogue(path string) (*catalogue, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric catalogue: %w", err)
	}
	var c catalogue
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s names %d workloads, the harness has %d", path, len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			return nil, fmt.Errorf("%s: workload %d is %q, the harness has %q", path, i, c.Workloads[i].Name, w.name)
		}
	}
	return &c, nil
}

// metricSet collects readings in catalogue order and takes every unit
// from the catalogue.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
	err    error // the first reading the catalogue cannot take
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

func (s *metricSet) add(name string, v float64) {
	known := false
	for _, d := range s.defs {
		known = known || d.Name == name
	}
	_, dup := s.values[name]
	switch {
	case s.err != nil:
	case !known:
		s.err = fmt.Errorf("metric %s is not in the catalogue", name)
	case dup:
		s.err = fmt.Errorf("metric %s emitted twice", name)
	case math.IsNaN(v) || math.IsInf(v, 0):
		s.err = fmt.Errorf("metric %s reads %v, which is not a measurement", name, v)
	}
	s.values[name] = v
}

// list returns the readings in catalogue order.
func (s *metricSet) list() ([]metric, error) {
	if s.err != nil {
		return nil, s.err
	}
	out := make([]metric, 0, len(s.defs))
	for _, d := range s.defs {
		v, ok := s.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in the catalogue and was never emitted", d.Name)
		}
		out = append(out, metric{d.Name, v, d.Unit})
	}
	return out, nil
}
