// Command perfbench is the repository's benchmark: four stationary RJoin
// workloads on the serial engine, each a closed loop of one client that
// publishes and then drains the network to quiescence. README.md holds
// the workload rationale and the metric catalogue.
//
//	bash perfbench/run.sh --workload zipf3way --seed 1 --seconds 10 --trace 0
//
// runs one workload and ends standard output with the one-line JSON
// object the benchmark driver reads: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Without --workload
// all four run and every metric is printed by name with its unit.
// --out DIR also writes BENCH_e2e.json (or BENCH_layers.json and
// trace_<workload>.json when tracing); --compare A.json B.json judges
// two such files against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "op time to measure per workload")
	trace := flag.Int("trace", 0, "1 records harness spans and reports the per-layer metrics instead of the end-to-end ones")
	scale := flag.Float64("scale", 1, "multiplies op counts, for smoke runs")
	reps := flag.Int("reps", 1, "repetitions per workload; files written by --out carry the median and quartiles")
	out := flag.String("out", "", "directory to write BENCH_e2e.json / BENCH_layers.json and span traces into")
	compare := flag.Bool("compare", false, "compare two files written by --out: perfbench --compare A.json B.json")
	catalog := flag.String("catalog", "BENCHMARK.json", "the metric catalogue; run.sh passes the one at the root of its checkout")
	flag.Parse()

	cat, err := loadCatalogue(*catalog)
	must(err)
	if *compare {
		if flag.NArg() != 2 {
			fail(2, "--compare takes two files")
		}
		os.Exit(compareFiles(cat, flag.Arg(0), flag.Arg(1)))
	}
	if *trace != 0 && *trace != 1 {
		fail(2, "--trace is 0 or 1")
	}
	if *reps < 1 || *seconds <= 0 || *scale <= 0 {
		fail(2, "--reps, --seconds and --scale must be positive")
	}
	ws := workloads
	if *workload != "all" {
		w := workloadByName(*workload)
		if w == nil {
			fail(2, fmt.Sprintf("unknown workload %q", *workload))
		}
		ws = []*wl{w}
	}

	report := newReport(*seconds, *trace == 1)
	var last *runResult
	for _, w := range ws {
		for r := 0; r < *reps; r++ {
			res, err := measure(cat, w.scaled(*scale), *seed, *seconds, *trace == 1)
			if err != nil {
				fail(1, err.Error())
			}
			printResult(res)
			report.add(res)
			if *out != "" && res.rec != nil && r == 0 {
				must(os.MkdirAll(*out, 0o755))
				must(res.rec.writeChrome(fmt.Sprintf("%s/trace_%s.json", *out, w.name)))
			}
			res.rec = nil
			last = res
		}
	}
	if *out != "" {
		must(os.MkdirAll(*out, 0o755))
		must(report.write(*out))
	}
	if len(ws) == 1 {
		printContractLine(last, *trace == 1)
	}
}

func fail(code int, msg string) {
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", msg)
	os.Exit(code)
}

func must(err error) {
	if err != nil {
		fail(1, err.Error())
	}
}

func printResult(r *runResult) {
	fmt.Printf("== %s seed %d: correct=%v attempted=%d failed=%d answers_digest=%s\n",
		r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed, r.Digest)
	for _, n := range r.Notes {
		fmt.Printf("   note: %s\n", n)
	}
	for _, group := range [][]metric{r.EndToEnd, r.Layers, r.Diag} {
		for _, m := range group {
			fmt.Printf("   %-32s %16.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
}

// printContractLine prints the one JSON object the benchmark driver
// reads from the last line of standard output.
func printContractLine(r *runResult, trace bool) {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.EndToEnd
	if trace {
		ms = r.Layers
	}
	line := struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]reading, len(ms))}
	for _, m := range ms {
		line.Metrics[m.Name] = reading{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	must(err)
	fmt.Println(string(b))
}
