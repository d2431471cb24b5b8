// Command rjoin-experiments regenerates the figures of the paper's
// experimental analysis (Section 8), Figures 2–9, and prints each as a
// table of the series the paper plots.
//
// Usage:
//
//	rjoin-experiments [-fig N] [-scale S] [-nodes N] [-queries Q] [-seed S] [-workers W] [-csv DIR]
//
// With no -fig, every figure runs in paper order. The default scale is
// 0.25 (a quarter of the paper's query and tuple counts at the full
// 1000-node overlay) so the whole suite completes on a laptop in
// minutes; pass -scale 1 for the paper's exact workload sizes. A scale
// outside (0, 1], or fewer than one node or query, is refused with exit
// status 2. -workers sets how many goroutines run a sub-round of the
// event engine; the tables are the same for every value (runs needing
// StrategyWorst's cross-shard oracle use one). With -csv, every table
// is additionally written to DIR as one CSV file named after its title,
// plottable without scraping the text output.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rjoin/internal/experiments"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate ("+experiments.FigureIDs()+"); empty runs all")
	scale := flag.Float64("scale", 0.25, "workload scale in (0,1]: fraction of the paper's query/tuple counts")
	nodes := flag.Int("nodes", 1000, "overlay size")
	queries := flag.Int("queries", 20000, "continuous queries before scaling")
	seed := flag.Int64("seed", 1, "random seed (runs are deterministic per seed)")
	workers := flag.Int("workers", 0, "goroutines that run a sub-round of the event engine (0/1 inline; every value replays the same)")
	csvDir := flag.String("csv", "", "directory to additionally write each table to as CSV")
	flag.Parse()

	p := experiments.Default(*scale)
	p.Nodes = *nodes
	p.Queries = *queries
	p.Seed = *seed
	p.Workers = *workers
	if err := p.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "rjoin-experiments: -%v\n", err)
		os.Exit(2)
	}

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
		printTables(f.Run(p), start, *csvDir)
	}
}

func printTables(tabs []*experiments.Table, start time.Time, csvDir string) {
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
func writeCSV(dir string, t *experiments.Table) error {
	f, err := os.Create(filepath.Join(dir, slug(t.Title)+".csv"))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
