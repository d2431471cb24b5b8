package experiments

import (
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

// TestFigAggShapes: the in-network views equal the subscriber's own fold
// of the plain join's rows, both runs did the same join work, and what
// in-network aggregation buys is fewer messages at the subscriber.
func TestFigAggShapes(t *testing.T) {
	tabs := FigAgg(tiny())
	if len(tabs) != 2 || len(tabs[0].Rows) != 2 {
		t.Fatalf("FigAgg returned %d tables", len(tabs))
	}
	load := tableWrap{tabs[0].Rows}
	// Rows: in-network, subscriber-side. Columns: rows folded, group
	// updates, subscriber-bound msgs, agg traffic, total traffic, rewrites.
	if got := tabs[1].Rows[0][2]; got != "true" {
		t.Fatalf("views identical = %s", got)
	}
	if cell(load, 0, 1) == 0 || cell(load, 0, 1) != cell(load, 1, 1) || cell(load, 0, 6) != cell(load, 1, 6) {
		t.Fatalf("the runs did different join work: rows folded %v vs %v, rewrites %v vs %v",
			cell(load, 0, 1), cell(load, 1, 1), cell(load, 0, 6), cell(load, 1, 6))
	}
	if cell(load, 0, 3) >= cell(load, 1, 3) {
		t.Fatalf("in-network aggregation sent the subscriber %v messages, the baseline %v", cell(load, 0, 3), cell(load, 1, 3))
	}
	if cell(load, 1, 2) != 0 {
		t.Fatalf("the baseline emitted %v group updates", cell(load, 1, 2))
	}
}

// TestFigChurnShapes: graceful-only churn delivers the reference
// exactly; the crash scenario's losses are counted, not silent.
func TestFigChurnShapes(t *testing.T) {
	p := tiny()
	tabs := FigChurn(p)
	if len(tabs) != 3 {
		t.Fatalf("FigChurn returned %d tables", len(tabs))
	}
	events, comp := tableWrap{tabs[0].Rows}, tableWrap{tabs[1].Rows}
	// Row order: static, leave, join+leave, crash.
	if cell(events, 0, 1) != 0 || cell(events, 0, 2) != 0 || cell(events, 0, 3) != 0 {
		t.Fatal("static scenario churned")
	}
	if cell(events, 1, 2) == 0 {
		t.Fatal("leave scenario performed no leaves")
	}
	if cell(events, 1, 5) == 0 {
		t.Fatal("leaves moved no handover chunks")
	}
	if cell(events, 3, 3) == 0 {
		t.Fatal("crash scenario performed no crashes")
	}
	for row, name := range []string{"static", "leave", "join+leave"} {
		if lost, dup := cell(comp, row, 3), cell(comp, row, 4); lost != 0 || dup != 0 {
			t.Errorf("%s: lost=%v duplicated=%v, want exactly-once", name, lost, dup)
		}
	}
	if cell(comp, 3, 1) == 0 {
		t.Fatal("reference expected no answers; workload too weak")
	}
}

// TestFigRecoveryShapes is the durability acceptance criterion: under
// the crash-heavy trace, the unreplicated run (k=1) loses answers while
// every replicated factor (k >= 2) reports completeness recall 1.0 with
// RewritesLost == TuplesLost == AggStateLost == 0 — and pays a visible,
// factor-proportional replication overhead for it.
func TestFigRecoveryShapes(t *testing.T) {
	p := tiny()
	tabs := FigRecovery(p)
	if len(tabs) != 2 {
		t.Fatalf("FigRecovery returned %d tables", len(tabs))
	}
	dur, over := tableWrap{tabs[0].Rows}, tableWrap{tabs[1].Rows}
	// Row order: static ref, k=1, k=2, k=3.
	if cell(dur, 0, 1) != 0 {
		t.Fatal("static reference crashed nodes")
	}
	if cell(dur, 1, 1) == 0 {
		t.Fatal("crash trace performed no crashes")
	}
	if cell(dur, 1, 2) >= 1 || cell(dur, 1, 3) == 0 {
		t.Fatalf("k=1 should lose answers under crashes: recall %v, lost %v",
			cell(dur, 1, 2), cell(dur, 1, 3))
	}
	for _, row := range []int{2, 3} {
		if r := cell(dur, row, 2); r != 1 {
			t.Errorf("row %d: replicated recall %v, want 1.0", row, r)
		}
		if lost, dup := cell(dur, row, 3), cell(dur, row, 4); lost != 0 || dup != 0 {
			t.Errorf("row %d: lost=%v duplicated=%v, want exactly-once", row, lost, dup)
		}
		for col := 5; col <= 8; col++ { // queries/rewrites/tuples/agg lost
			if v := cell(dur, row, col); v != 0 {
				t.Errorf("row %d col %d: counted loss %v under replication", row, col, v)
			}
		}
		if cell(dur, row, 9) == 0 {
			t.Errorf("row %d: crashes promoted no mirrors", row)
		}
	}
	if cell(over, 1, 1) != 0 {
		t.Fatal("k=1 paid replication traffic")
	}
	if k2, k3 := cell(over, 2, 1), cell(over, 3, 1); k2 == 0 || k3 <= k2 {
		t.Fatalf("replication overhead not factor-proportional: k=2 %v, k=3 %v", k2, k3)
	}
}

// TestFigLossyShapes is the unreliable-network acceptance criterion:
// at every swept drop rate — including 10% with a partition/heal cycle
// riding along — the answer multiset matches the faults-off reference
// exactly (recall 1.0, zero duplicates, zero abandoned messages), the
// injected-fault counters grow with the rate, and the retransmit/ack
// overhead is visible only on the faulty rows.
func TestFigLossyShapes(t *testing.T) {
	p := tiny()
	tabs := FigLossy(p)
	if len(tabs) != 2 {
		t.Fatalf("FigLossy returned %d tables", len(tabs))
	}
	exact, over := tableWrap{tabs[0].Rows}, tableWrap{tabs[1].Rows}
	// Row order: faults off, then drop rates 0%, 5%, 10%, 20%.
	if len(tabs[0].Rows) != 1+len(lossyRates) {
		t.Fatalf("exactness table has %d rows", len(tabs[0].Rows))
	}
	if cell(exact, 0, 4) != 0 || cell(over, 0, 1) != 0 || cell(over, 0, 2) != 0 {
		t.Fatal("faults-off reference paid fault or transport counters")
	}
	for row := 1; row <= len(lossyRates); row++ {
		if r := cell(exact, row, 1); r != 1 {
			t.Errorf("row %d: recall %v under loss, want 1.0", row, r)
		}
		if dup := cell(exact, row, 2); dup != 0 {
			t.Errorf("row %d: %v duplicated answers leaked through dedup", row, dup)
		}
		if cell(exact, row, 4) == 0 {
			t.Errorf("row %d: partition window dropped nothing", row)
		}
		if ab := cell(exact, row, 6); ab != 0 {
			t.Errorf("row %d: %v messages abandoned", row, ab)
		}
		if cell(over, row, 1) == 0 || cell(over, row, 2) == 0 {
			t.Errorf("row %d: no retransmits or acks charged under loss", row)
		}
	}
	// The drop counter grows with the swept rate: 20% >> 5%.
	if lo, hi := cell(exact, 2, 4), cell(exact, 4, 4); hi <= lo {
		t.Fatalf("dropped count not increasing with rate: 5%% %v, 20%% %v", lo, hi)
	}
}

// TestFigLatencyShapes: the observability figure must report a real
// latency distribution (every answer observed, non-degenerate
// quantiles), rate series that cover both scopes, and tag columns that
// include the untagged application traffic.
func TestFigLatencyShapes(t *testing.T) {
	p := tiny()
	tabs, rec := FigLatencyObs(p)
	tr, om := rec.Views().Trace, rec.Views().Metrics
	if len(tabs) != 4 {
		t.Fatalf("FigLatencyObs returned %d tables", len(tabs))
	}
	hist, sum, tags, nodes := tabs[0], tabs[1], tabs[2], tabs[3]
	if len(hist.Rows) == 0 {
		t.Fatal("latency histogram is empty: workload produced no answers")
	}
	// Cumulative percentage ends at 100.
	lastCum, _ := strconv.ParseFloat(hist.Rows[len(hist.Rows)-1][2], 64)
	if lastCum < 99.9 || lastCum > 100.1 {
		t.Fatalf("cumulative %% ends at %v, want 100", lastCum)
	}
	// Summary row order: latency, rewrite depth, hop count. All three
	// must have observations with p50 <= p99 (quantiles are bucket upper
	// bounds, so p99 may exceed the exact max) and min <= max.
	for _, row := range sum.Rows {
		w := tableWrap{[][]string{row}}
		if cell(w, 0, 1) == 0 {
			t.Fatalf("summary %q has no observations", row[0])
		}
		if p50, p99 := cell(w, 0, 3), cell(w, 0, 4); p50 > p99 {
			t.Fatalf("summary %q quantiles out of order: %v", row[0], row)
		}
		if min, max := cell(w, 0, 2), cell(w, 0, 5); min > max {
			t.Fatalf("summary %q min above max: %v", row[0], row)
		}
	}
	if len(sum.Rows) != 3 {
		t.Fatalf("summary rows %d", len(sum.Rows))
	}
	// The tag pivot includes the untagged application lane and at least
	// one window; the node table's busiest >= median on every row.
	foundApp := false
	for _, h := range tags.Headers {
		if h == "app" {
			foundApp = true
		}
	}
	if !foundApp || len(tags.Rows) == 0 {
		t.Fatalf("tag rate table degenerate: headers %v, %d rows", tags.Headers, len(tags.Rows))
	}
	for _, row := range nodes.Rows {
		w := tableWrap{[][]string{row}}
		if cell(w, 0, 2) < cell(w, 0, 3) {
			t.Fatalf("busiest below median: %v", row)
		}
	}
	// The artifacts behind the tables are live: the trace saw events and
	// nothing was truncated, and the metrics registry drains samples.
	if len(tr.Events()) == 0 || tr.Dropped() != 0 {
		t.Fatalf("trace degenerate: %d events, %d dropped", len(tr.Events()), tr.Dropped())
	}
	if len(om.Samples()) == 0 {
		t.Fatal("metrics registry drained no samples")
	}
}

func TestAllRunsEveryFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("All() runs every experiment")
	}
	p := tiny()
	p.Queries = 500
	all := All(p)
	for _, f := range Figures {
		tabs := all[f.ID]
		if f.Part {
			if tabs != nil {
				t.Fatalf("All ran figure %s, which another entry already computes", f.ID)
			}
			tabs = f.Run(p)
		}
		if len(tabs) == 0 {
			t.Fatalf("figure %s missing", f.ID)
		}
		for _, tab := range tabs {
			if !strings.Contains(tab.Title, "Fig") {
				t.Fatalf("untitled table in figure %s", f.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("empty table %q", tab.Title)
			}
		}
	}
}

func TestDefaultParams(t *testing.T) {
	p := Default(0.5)
	if p.Nodes != 1000 || p.Queries != 20000 || p.Scale != 0.5 {
		t.Fatalf("defaults wrong: %+v", p)
	}
	if Default(-1).Scale != 1 || Default(2).Scale != 1 {
		t.Fatal("scale clamping wrong")
	}
	if p.scaled(100) != 50 {
		t.Fatalf("scaled(100) = %d", p.scaled(100))
	}
	if (Params{Scale: 0.001}).scaled(100) != 1 {
		t.Fatal("scaled floor broken")
	}
}

// TestFigSharingShapes is the multi-query sharing acceptance
// criterion: at 90% duplicates the shared run stores at least 3x less
// state and performs at least 3x fewer rewriting steps per query than
// the no-sharing ablation, and every subscriber's answer bag is
// certified exact against the reference evaluator in every scenario —
// including the churn + ReplicationFactor 2 row.
func TestFigSharingShapes(t *testing.T) {
	p := tiny()
	tabs := FigSharing(p)
	if len(tabs) != 2 {
		t.Fatalf("FigSharing returned %d tables", len(tabs))
	}
	cost, exact := tableWrap{tabs[0].Rows}, tableWrap{tabs[1].Rows}
	if len(tabs[0].Rows) != len(sharingDupRatios) {
		t.Fatalf("cost table has %d rows", len(tabs[0].Rows))
	}
	reduction := func(row, col int) float64 {
		s := strings.TrimSuffix(tabs[0].Rows[row][col], "x")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("unparsable reduction cell %q", tabs[0].Rows[row][col])
		}
		return v
	}
	last := len(tabs[0].Rows) - 1 // the 90% duplicate row
	if got := reduction(last, 5); got < 3 {
		t.Errorf("state reduction at 90%% duplicates %.2fx, want >= 3x", got)
	}
	if got := reduction(last, 8); got < 3 {
		t.Errorf("rewrite reduction at 90%% duplicates %.2fx, want >= 3x", got)
	}
	// Classes collapse as the duplicate ratio grows.
	if cell(cost, 0, 2) <= cell(cost, last, 2) {
		t.Errorf("classes did not shrink with duplicates: %v -> %v",
			cell(cost, 0, 2), cell(cost, last, 2))
	}
	// Every scenario — the three ratios plus churn+rf2 — certifies
	// every subscriber exact.
	if len(tabs[1].Rows) != len(sharingDupRatios)+1 {
		t.Fatalf("exactness table has %d rows", len(tabs[1].Rows))
	}
	for row := range tabs[1].Rows {
		subs, ex := cell(exact, row, 1), cell(exact, row, 2)
		if subs == 0 || ex != subs {
			t.Errorf("row %d (%s): %v/%v subscribers exact",
				row, tabs[1].Rows[row][0], ex, subs)
		}
	}
}

// TestFigExplainShapes: the introspection figure must profile every
// query it submits, deliver answers, report a coherent per-placement
// table for the busiest query (arrival ranks a permutation of 1..n,
// every static clause present) and a fleet summary whose lineage cost
// reflects real provenance (>= 2 base tuples per 2-way-join answer).
func TestFigExplainShapes(t *testing.T) {
	p := tiny()
	tabs := FigExplain(p)
	if len(tabs) != 2 {
		t.Fatalf("FigExplain returned %d tables", len(tabs))
	}
	ta, tb := tableWrap{tabs[0].Rows}, tableWrap{tabs[1].Rows}
	if len(tabs[0].Rows) == 0 {
		t.Fatal("per-placement table is empty")
	}
	seen := map[float64]bool{}
	static := 0
	for row := range tabs[0].Rows {
		rank := cell(ta, row, 3)
		if rank < 1 || rank > float64(len(tabs[0].Rows)) || seen[rank] {
			t.Errorf("row %d: arrival rank %v out of range or duplicated", row, rank)
		}
		seen[rank] = true
		if tabs[0].Rows[row][2] != "runtime" {
			static++
		}
		if sel := cell(ta, row, 8); sel < -1 {
			t.Errorf("row %d: selectivity %v below -1", row, sel)
		}
	}
	if static < 2 {
		t.Errorf("busiest query shows %d static placements, want >= 2 (2-way join)", static)
	}
	if len(tabs[1].Rows) != 8 {
		t.Fatalf("summary table has %d rows", len(tabs[1].Rows))
	}
	profiled, answered := cell(tb, 0, 1), cell(tb, 1, 1)
	answers, hitRate := cell(tb, 2, 1), cell(tb, 5, 1)
	steps := cell(tb, 7, 1)
	if profiled != float64(p.scaled(p.Queries)) {
		t.Errorf("profiled %v queries, submitted %d", profiled, p.scaled(p.Queries))
	}
	if answered == 0 || answers == 0 {
		t.Fatalf("no answers delivered (answered=%v answers=%v)", answered, answers)
	}
	if hitRate < 0 || hitRate > 1 {
		t.Errorf("candidate-table hit rate %v outside [0,1]", hitRate)
	}
	if steps < 2 {
		t.Errorf("lineage steps per answer %v, want >= 2 for 2-way joins", steps)
	}
}
