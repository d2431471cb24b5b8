// Package metrics implements the three load measures of the paper's
// experimental analysis (Section 8) and the aggregations its figures
// plot:
//
//   - network traffic: messages a node sends, both messages it creates
//     (indexing tuples/queries, RIC requests) and messages it routes for
//     the DHT;
//   - query processing load (QPL): rewritten queries received to search
//     local tuples + tuples received to search local queries;
//   - storage load (SL): rewritten queries plus tuples a node stores.
//
// Figures plot either per-node totals, ranked per-node distributions
// ("Ranked nodes (x100)" axes), or cumulative series over tuple
// arrivals; all three aggregations live here.
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"

	"rjoin/internal/id"
)

// Load is a per-node counter for one of the paper's load measures.
type Load struct {
	byNode map[id.ID]int64
	total  int64
}

// NewLoad returns an empty counter.
func NewLoad() *Load {
	return &Load{byNode: make(map[id.ID]int64)}
}

// Add charges n units of load to the given node.
func (l *Load) Add(node id.ID, n int64) {
	l.byNode[node] += n
	l.total += n
}

// Get returns the load charged to a node.
func (l *Load) Get(node id.ID) int64 { return l.byNode[node] }

// Total returns the network-wide total.
func (l *Load) Total() int64 { return l.total }

// PerNode returns total load divided by the number of nodes in the
// network — the y-axis of the paper's "per node" plots.
func (l *Load) PerNode(networkSize int) float64 {
	if networkSize == 0 {
		return 0
	}
	return float64(l.total) / float64(networkSize)
}

// Participants returns how many nodes carry non-zero load (the paper
// reports e.g. "940 nodes participate in query processing").
func (l *Load) Participants() int {
	n := 0
	for _, v := range l.byNode {
		if v > 0 {
			n++
		}
	}
	return n
}

// Max returns the load of the hottest node.
func (l *Load) Max() int64 {
	var m int64
	for _, v := range l.byNode {
		if v > m {
			m = v
		}
	}
	return m
}

// Ranked returns per-node loads sorted in decreasing order, the form of
// the paper's "Ranked nodes" distribution plots.
func (l *Load) Ranked() []int64 {
	out := make([]int64, 0, len(l.byNode))
	for _, v := range l.byNode {
		if v > 0 {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// Rename transfers all load charged to one node identifier onto
// another. Identifier-movement load balancing changes a node's ring
// position; the physical node stays the same, so its accumulated load
// follows it.
func (l *Load) Rename(old, new id.ID) {
	if old == new {
		return
	}
	if v, ok := l.byNode[old]; ok {
		l.byNode[new] += v
		delete(l.byNode, old)
	}
}

// DrainInto moves every count of l into dst and leaves l empty,
// keeping l's map allocated for reuse. The parallel engine's per-shard
// accumulators drain into the public aggregates at every sync barrier,
// so this path avoids reallocating 64 maps per drain.
func (l *Load) DrainInto(dst *Load) {
	if l.total == 0 && len(l.byNode) == 0 {
		return
	}
	for n, v := range l.byNode {
		dst.Add(n, v)
	}
	clear(l.byNode)
	l.total = 0
}

// Reset zeroes the counter.
func (l *Load) Reset() {
	l.byNode = make(map[id.ID]int64)
	l.total = 0
}

// Table is a simple fixed-column table writer used by the experiment
// harness to print figure data in the shape the paper reports it.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// WriteTo renders the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b)
	return b.String()
}

// WriteCSV renders the table as RFC 4180 CSV — header row first, then
// data rows — so regenerated figures are plottable without scraping the
// aligned text tables. The title is not part of the CSV payload;
// callers typically encode it in the file name.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
