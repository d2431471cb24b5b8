package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"testing"
)

// tiny returns a very small parameter set so every figure runs in test
// time; shapes at this scale are noisy, so shape assertions use
// comfortable margins.
func tiny() Params {
	return Params{Nodes: 100, Queries: 4000, Seed: 1, Scale: 0.15}
}

func cell(tab rowser, row, col int) float64 {
	v, err := strconv.ParseFloat(tab.cellAt(row, col), 64)
	if err != nil {
		panic(err)
	}
	return v
}

type rowser interface{ cellAt(r, c int) string }

type tableWrap struct{ rows [][]string }

func (t tableWrap) cellAt(r, c int) string { return t.rows[r][c] }

func TestFig2ShapeWorstAboveRJoin(t *testing.T) {
	tabs := Fig2(tiny())
	if len(tabs) != 3 {
		t.Fatalf("got %d tables", len(tabs))
	}
	traffic := tableWrap{tabs[0].Rows}
	last := len(tabs[0].Rows) - 1
	worst := cell(traffic, last, 1)
	rjoin := cell(traffic, last, 3)
	if worst <= rjoin {
		t.Fatalf("Fig2 shape broken: Worst traffic %.2f <= RJoin %.2f", worst, rjoin)
	}
	qpl := tableWrap{tabs[1].Rows}
	if cell(qpl, last, 1) <= cell(qpl, last, 3) {
		t.Fatalf("Fig2 shape broken: Worst QPL not above RJoin")
	}
}

func TestFig3TrafficGrowsWithTuples(t *testing.T) {
	tabs := Fig3(tiny())
	traffic := tabs[0]
	if len(traffic.Rows) < 3 {
		t.Fatalf("too few checkpoints: %d", len(traffic.Rows))
	}
	// Participants grow (or at least do not shrink) as tuples arrive.
	qpl := tabs[1]
	firstParts, _ := strconv.Atoi(qpl.Rows[0][len(qpl.Rows[0])-1])
	lastParts, _ := strconv.Atoi(qpl.Rows[len(qpl.Rows)-1][len(qpl.Rows[0])-1])
	if lastParts < firstParts {
		t.Fatalf("participants shrank: %d -> %d", firstParts, lastParts)
	}
}

func TestFig4MoreQueriesMoreLoad(t *testing.T) {
	tabs := Fig4(tiny())
	qpl := tabs[1]
	first := qpl.Rows[0]
	last := qpl.Rows[len(qpl.Rows)-1]
	// Max-rank load (rank 0%) grows with query count.
	f, _ := strconv.ParseFloat(first[1], 64)
	l, _ := strconv.ParseFloat(last[1], 64)
	if l < f {
		t.Fatalf("Fig4 shape broken: max QPL %f with 16x queries below %f", l, f)
	}
}

func TestFig5SkewIncreasesLoad(t *testing.T) {
	tabs := Fig5(tiny())
	qpl := tabs[1]
	lo, _ := strconv.ParseFloat(qpl.Rows[0][1], 64)               // theta=0.3 max
	hi, _ := strconv.ParseFloat(qpl.Rows[len(qpl.Rows)-1][1], 64) // theta=0.9 max
	if hi < lo {
		t.Fatalf("Fig5 shape broken: max load under theta=0.9 (%f) below theta=0.3 (%f)", hi, lo)
	}
}

func TestFig6ComplexityIncreasesTraffic(t *testing.T) {
	tabs := Fig6(tiny())
	traffic := tableWrap{tabs[0].Rows}
	fourWay := cell(traffic, 0, 1)
	eightWay := cell(traffic, 2, 1)
	if eightWay < fourWay {
		t.Fatalf("Fig6 shape broken: 8-way traffic %.3f below 4-way %.3f", eightWay, fourWay)
	}
}

func TestFig7And8WindowMonotonicity(t *testing.T) {
	f7, f8 := Fig7And8(tiny())
	// Fig 8: cumulative QPL at the end grows with window size (more
	// combinations to consider).
	cum := f8[0]
	lastRow := cum.Rows[len(cum.Rows)-1]
	smallest, _ := strconv.ParseFloat(lastRow[1], 64)
	largest, _ := strconv.ParseFloat(lastRow[len(lastRow)-1], 64)
	if largest < smallest {
		t.Fatalf("Fig8 shape broken: cumulative QPL W=max (%f) below W=min (%f)", largest, smallest)
	}
	if len(f7) != 3 {
		t.Fatalf("Fig7 table count %d", len(f7))
	}
}

func TestFig9BalancerShavesHead(t *testing.T) {
	tabs := Fig9(tiny())
	qpl := tabs[0]
	if len(qpl.Rows) != 2 {
		t.Fatalf("rows %d", len(qpl.Rows))
	}
	without, _ := strconv.ParseFloat(qpl.Rows[0][1], 64)
	with, _ := strconv.ParseFloat(qpl.Rows[1][1], 64)
	if with > without*1.25 {
		t.Fatalf("Fig9 shape broken: balanced max QPL %f well above unbalanced %f", with, without)
	}
}

// figureDigests pins every paper figure's tables at pinnedParams: a
// change to what a figure prints, not only to its shape, fails
// TestPaperFiguresPinned. Figures 7 and 8 are pinned through "7+8".
// Figures 2 (Random's column: its placement draws come from per-node
// streams) and 4 (a few RIC messages) were re-pinned when the engine's
// serial heap gave way to the one sub-round schedule.
var figureDigests = map[string]uint64{
	"2":   0xa2609c468ca87f6f,
	"3":   0xa1838debc693c752,
	"4":   0x1365b4c5a3c72790,
	"5":   0xc6aa577dd43d4af7,
	"6":   0x3e97e937daad0fb3,
	"7+8": 0xdfb8cc9b1832eae2,
	"9":   0xae8543cc6deb1244,
}

func pinnedParams() Params {
	p := tiny()
	p.Queries = 500
	return p
}

// tablesDigest is the FNV-64a of the tables' titles, headers and rows.
func tablesDigest(tabs []*Table) uint64 {
	h := fnv.New64a()
	for _, tab := range tabs {
		fmt.Fprintf(h, "%q\n%q\n", tab.Title, tab.Headers)
		for _, row := range tab.Rows {
			fmt.Fprintf(h, "%q\n", row)
		}
	}
	return h.Sum64()
}

func TestPaperFiguresPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper figure")
	}
	ran := 0
	for _, f := range Figures {
		if f.Part {
			continue
		}
		ran++
		if got, want := tablesDigest(f.Run(pinnedParams())), figureDigests[f.ID]; got != want {
			t.Errorf("figure %s: tables digest %#016x, want %#016x", f.ID, got, want)
		}
	}
	if ran != len(figureDigests) {
		t.Errorf("ran %d figures, %d are pinned", ran, len(figureDigests))
	}
}

func TestDefaultParams(t *testing.T) {
	p := Default(0.5)
	if p.Nodes != 1000 || p.Queries != 20000 || p.Scale != 0.5 {
		t.Fatalf("defaults wrong: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("the paper's setup at half scale rejected: %v", err)
	}
	for _, c := range []struct {
		p    Params
		flag string
	}{
		{Default(0), "scale"},
		{Default(-1), "scale"},
		{Default(2), "scale"},
		{Default(math.NaN()), "scale"},
		{Params{Nodes: 0, Queries: 1, Scale: 1}, "nodes"},
		{Params{Nodes: 1, Queries: 0, Scale: 1}, "queries"},
	} {
		err := c.p.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%+v: error %v, want one naming %s", c.p, err, c.flag)
		}
	}
	if p.scaled(100) != 50 {
		t.Fatalf("scaled(100) = %d", p.scaled(100))
	}
	if (Params{Scale: 0.001}).scaled(100) != 1 {
		t.Fatal("scaled floor broken")
	}
}
