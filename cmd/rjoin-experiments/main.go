// Command rjoin-experiments regenerates the figures of the paper's
// experimental analysis (Section 8) and prints each as a table of the
// series the paper plots.
//
// Usage:
//
//	rjoin-experiments [-fig N] [-scale S] [-nodes N] [-queries Q] [-seed S] [-workers W] [-csv DIR]
//
// With no -fig, every figure runs in paper order. The default scale is
// 0.25 (a quarter of the paper's query and tuple counts at the full
// 1000-node overlay) so the whole suite completes on a laptop in
// minutes; pass -scale 1 for the paper's exact workload sizes. With
// -workers >= 2 experiments run on the deterministic parallel event
// engine (runs needing StrategyWorst's cross-shard oracle stay serial).
// With -csv, every table is additionally written to DIR as one CSV file
// named after its title, plottable without scraping the text output.
//
// The latency figure is instrumented end to end; -trace and
// -metrics-csv export its raw observability artifacts — a Chrome
// trace-event file (load it at https://ui.perfetto.dev) and the full
// windowed rate-series CSV behind the figure's tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rjoin/internal/experiments"
	"rjoin/internal/metrics"
	"rjoin/internal/obs"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate ("+experiments.FigureIDs()+"); empty runs all")
	scale := flag.Float64("scale", 0.25, "workload scale in (0,1]: fraction of the paper's query/tuple counts")
	nodes := flag.Int("nodes", 1000, "overlay size")
	queries := flag.Int("queries", 20000, "continuous queries before scaling")
	seed := flag.Int64("seed", 1, "random seed (runs are deterministic per seed)")
	workers := flag.Int("workers", 0, "event-engine worker threads (0/1 serial, >=2 deterministic parallel)")
	csvDir := flag.String("csv", "", "directory to additionally write each table to as CSV")
	traceFile := flag.String("trace", "", "write the latency figure's Chrome/Perfetto trace to FILE")
	metricsFile := flag.String("metrics-csv", "", "write the latency figure's rate-series CSV to FILE")
	flag.Parse()

	p := experiments.Default(*scale)
	p.Nodes = *nodes
	p.Queries = *queries
	p.Seed = *seed
	p.Workers = *workers

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rjoin-experiments: %v\n", err)
			os.Exit(1)
		}
	}

	var figs []experiments.Figure
	for _, f := range experiments.Figures {
		if f.ID == *fig || *fig == "" && !f.Part {
			figs = append(figs, f)
		}
	}
	if len(figs) == 0 {
		fmt.Fprintf(os.Stderr, "rjoin-experiments: unknown figure %q (want one of %s)\n", *fig, experiments.FigureIDs())
		os.Exit(2)
	}

	fmt.Printf("# RJoin experiments  nodes=%d queries=%d scale=%.2f seed=%d workers=%d\n\n",
		p.Nodes, p.Queries, p.Scale, p.Seed, p.Workers)
	for _, f := range figs {
		start := time.Now()
		if f.ID == "latency" && (*traceFile != "" || *metricsFile != "") {
			tabs, rec := experiments.FigLatencyObs(p)
			printTables(tabs, start, *csvDir)
			if err := writeArtifacts(*traceFile, *metricsFile, rec); err != nil {
				fmt.Fprintf(os.Stderr, "rjoin-experiments: %v\n", err)
				os.Exit(1)
			}
			continue
		}
		printTables(f.Run(p), start, *csvDir)
	}
}

// writeArtifacts exports the latency figure's raw observability data:
// the Chrome/Perfetto trace and the windowed rate-series CSV.
func writeArtifacts(traceFile, metricsFile string, rec *obs.Recorder) error {
	if traceFile != "" {
		if err := writeFile(traceFile, rec.Views().Trace.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Printf("wrote %s (open at https://ui.perfetto.dev)\n", traceFile)
	}
	if metricsFile != "" {
		if err := writeFile(metricsFile, rec.Views().Metrics.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", metricsFile)
	}
	return nil
}

// writeFile creates the named file and fills it with write.
func writeFile(name string, write func(io.Writer) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printTables(tabs []*metrics.Table, start time.Time, csvDir string) {
	for _, t := range tabs {
		t.WriteTo(os.Stdout)
		fmt.Println()
		if csvDir != "" {
			if err := writeCSV(csvDir, t); err != nil {
				fmt.Fprintf(os.Stderr, "rjoin-experiments: %v\n", err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("(elapsed %.1fs)\n\n", time.Since(start).Seconds())
}

// writeCSV stores one table as <dir>/<slug-of-title>.csv.
func writeCSV(dir string, t *metrics.Table) error {
	return writeFile(filepath.Join(dir, slug(t.Title)+".csv"), t.WriteCSV)
}

// slug reduces a table title to a file-name-safe form: lower case,
// alphanumeric runs joined by dashes.
func slug(title string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}
