package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// commit is set by run.sh at link time.
var commit string

// environment is recorded with every file: numbers from different
// machines are never comparable, trajectories on one machine are.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit,omitempty"`
}

func currentEnvironment() environment {
	env := environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: commit,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// summary is one metric over the repetitions of one workload.
type summary struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// workloadReport is one workload's section of a BENCH file.
type workloadReport struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Correct  bool      `json:"correct"`
	Digest   string    `json:"answers_digest"`
	Notes    []string  `json:"notes,omitempty"`
	Metrics  []summary `json:"metrics"`
	Diag     []summary `json:"diagnostics"`
}

// report is the content of BENCH_e2e.json (untraced) or
// BENCH_layers.json (traced).
type report struct {
	Env       environment       `json:"environment"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workloads []*workloadReport `json:"workloads"`
}

func newReport(seconds float64, traced bool) *report {
	return &report{Env: currentEnvironment(), Seconds: seconds, Traced: traced}
}

// add folds one run in; repetitions of a workload arrive back to back.
func (r *report) add(res *runResult) {
	var wr *workloadReport
	if n := len(r.Workloads); n > 0 && r.Workloads[n-1].Workload == res.Workload {
		wr = r.Workloads[n-1]
	} else {
		wr = &workloadReport{Workload: res.Workload, Seed: res.Seed, Correct: true, Digest: res.Digest}
		r.Workloads = append(r.Workloads, wr)
	}
	wr.Correct = wr.Correct && res.Correct && res.Digest == wr.Digest
	wr.Notes = res.Notes
	ms := res.EndToEnd
	if r.Traced {
		ms = res.Layers
	}
	fold(&wr.Metrics, ms)
	fold(&wr.Diag, res.Diag)
}

func fold(into *[]summary, ms []metric) {
	if len(*into) == 0 {
		for _, m := range ms {
			*into = append(*into, summary{Name: m.Name, Unit: m.Unit})
		}
	}
	for i, m := range ms {
		s := &(*into)[i]
		s.Values = append(s.Values, m.Value)
		sorted := append([]float64(nil), s.Values...)
		sort.Float64s(sorted)
		s.Median, s.Q1, s.Q3 = quantile(sorted, 0.5), quantile(sorted, 0.25), quantile(sorted, 0.75)
	}
}

func (r *report) write(dir string) error {
	name := "BENCH_e2e.json"
	if r.Traced {
		name = "BENCH_layers.json"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles judges file B against file A, metric by metric and
// workload by workload, with the catalogue's bounds: "worse" when B's
// median is worse than A's by more than the bound, "unresolved" when
// A's own quartiles are further apart than the bound, otherwise "same".
// Metrics without a bound (per-layer files) are listed with their
// change only. The exit code is 1 when anything is worse, and 3 when the
// files differ in a way no host noise can explain: a workload or metric
// one file has and the other lacks, or a model metric or an answers
// digest that differs between two runs of one seed.
func compareFiles(cat *catalogue, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fail(2, err.Error())
	}
	b, err := readReport(pathB)
	if err != nil {
		fail(2, err.Error())
	}
	if a.Env != b.Env {
		fmt.Printf("note: environments differ: %+v vs %+v\n", a.Env, b.Env)
	}
	defs := make(map[string]metricDef)
	for _, d := range cat.EndToEnd {
		defs[d.Name] = d
	}
	code := 0
	different := func(format string, args ...any) {
		fmt.Printf("   DIFFERENT "+format+"\n", args...)
		code = 3
	}
	if len(b.Workloads) > len(a.Workloads) {
		different("%s has %d workloads, %s only %d", pathB, len(b.Workloads), pathA, len(a.Workloads))
	}
	for _, wa := range a.Workloads {
		fmt.Printf("== %s\n", wa.Workload)
		var wb *workloadReport
		for _, w := range b.Workloads {
			if w.Workload == wa.Workload {
				wb = w
			}
		}
		if wb == nil {
			different("workload missing from %s", pathB)
			continue
		}
		sameSeed := wa.Seed == wb.Seed
		if sameSeed && wa.Digest != wb.Digest {
			different("answers_digest %s vs %s", wa.Digest, wb.Digest)
		}
		if len(wb.Metrics) > len(wa.Metrics) {
			different("%d metrics against %d", len(wb.Metrics), len(wa.Metrics))
		}
		for _, ma := range wa.Metrics {
			var mb *summary
			for i := range wb.Metrics {
				if wb.Metrics[i].Name == ma.Name {
					mb = &wb.Metrics[i]
				}
			}
			if mb == nil {
				different("%s missing from %s", ma.Name, pathB)
				continue
			}
			change := 0.0
			if ma.Median != 0 {
				change = (mb.Median - ma.Median) / ma.Median
			}
			d, bounded := defs[ma.Name]
			verdict := ""
			switch {
			case !bounded:
			case sameSeed && modelMetrics[ma.Name] && mb.Median != ma.Median:
				verdict = "DIFFERENT (model metric, same seed)"
				code = 3
			case (ma.Q3-ma.Q1)/ma.Median > d.Bound:
				verdict = "unresolved"
			case (d.Better == "lower" && change > d.Bound) || (d.Better == "higher" && -change > d.Bound):
				verdict = "worse"
				if code == 0 {
					code = 1
				}
			default:
				verdict = "same"
			}
			fmt.Printf("   %-32s %14.4f -> %14.4f %-6s %+7.2f%%  %s\n",
				ma.Name, ma.Median, mb.Median, ma.Unit, 100*change, verdict)
		}
	}
	return code
}
