package experiments

import (
	"fmt"

	"rjoin/internal/agg"
	"rjoin/internal/core"
	"rjoin/internal/metrics"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/workload"
)

// FigAgg is this reproduction's in-network aggregation figure: the
// same GROUP BY workload runs once with in-network aggregation
// (completed rows route to per-group aggregator keys on the DHT, which
// coalesce them into group updates) and once the way a subscriber
// without it would get the same views: it subscribes to the plain join
// (workload.Generator.Query draws GroupQuery's random numbers, so the
// two runs see the same joins and the same stream), receives every raw
// row, and folds them itself — agg.Reference, the fold the in-network
// view is certified against. Both runs end with identical aggregate
// views — the figure reports what each paid for them: total traffic,
// the aggregation share, rows folded vs group updates emitted, and above
// all the subscriber-bound message load, which in-network aggregation
// compresses from one message per raw answer row to one per touched
// (group, epoch).
func FigAgg(p Params) []*metrics.Table {
	queries := p.scaled(120)
	tuples := p.scaled(2400)

	// 2-way joins over a small value domain: a thick answer stream whose
	// group structure (first selected attribute) is coarse enough that
	// coalescing has something to coalesce — the regime aggregation
	// workloads live in.
	wcfg := workload.PaperConfig()
	wcfg.JoinArity = 2
	wcfg.Values = 20

	// drive runs the workload over the queries next draws, and returns
	// the run with the queries as submitted and their IDs.
	drive := func(next func(*workload.Generator) *query.Query) (*run, []*query.Query, []string) {
		r := newRun(p, core.DefaultConfig(), wcfg)
		var qs []*query.Query
		var qids []string
		for i := 0; i < queries; i++ {
			q := next(r.gen)
			qid, err := r.eng.SubmitQuery(r.node(), q)
			if err != nil {
				panic(err) // generator output is valid by construction
			}
			qs, qids = append(qs, q), append(qids, qid)
		}
		r.eng.Run()
		for i := 0; i < tuples; i++ {
			r.eng.PublishTuple(r.node(), r.gen.Tuple())
			if i%32 == 31 {
				r.eng.Run()
			}
		}
		r.eng.Run()
		return r, qs, qids
	}

	load := &metrics.Table{
		Title: "Fig A In-network vs subscriber-side aggregation message load",
		Headers: []string{"mode", "rows folded", "group updates", "subscriber-bound msgs",
			"agg traffic", "total traffic", "rewrites"},
	}

	inNet, groupQs, qids := drive((*workload.Generator).GroupQuery)
	views := make([][]agg.ViewRow, queries)
	for i, qid := range qids {
		views[i] = inNet.eng.AggRows(qid)
	}
	c := inNet.eng.Counters
	load.AddInts("in-network", c.AggPartials, c.AggUpdates, c.AggUpdates,
		inNet.eng.Net().TaggedTraffic(core.TagAgg).Total(), inNet.eng.Net().Traffic.Total(), c.RewritesCreated)

	// The baseline's aggregation bill is its answer stream: every raw row
	// is one direct message to the subscriber, which folds it.
	subSide, plainQs, qids := drive((*workload.Generator).Query)
	folded := make([][]agg.ViewRow, queries)
	for i, qid := range qids {
		answers := subSide.eng.Answers(qid)
		rows := make([][]relation.Value, len(answers))
		for j, a := range answers {
			rows[j] = aggShape(groupQs[i], plainQs[i], a.Row)
		}
		// The workload is unwindowed: every row folds into epoch 0.
		folded[i] = agg.Reference(groupQs[i], rows, make([]int64, len(rows)))
	}
	c = subSide.eng.Counters
	load.AddInts("subscriber-side", c.AnswersDelivered, 0, c.AnswersDelivered,
		c.AnswersDelivered, subSide.eng.Net().Traffic.Total(), c.RewritesCreated)

	check := &metrics.Table{
		Title:   "Fig A(b) Aggregate view equivalence",
		Headers: []string{"queries", "view rows", "views identical"},
	}
	rows := 0
	for _, v := range views {
		rows += len(v)
	}
	check.AddRow(fmt.Sprint(queries), fmt.Sprint(rows), fmt.Sprint(viewsEqual(views, folded)))
	return []*metrics.Table{load, check}
}

// aggShape widens one delivered row of the plain query to the select
// list of its aggregate twin, the shape completed rows have inside the
// aggregation pipeline: an aggregate position carries its argument
// column's value, COUNT(*) rides as its constant.
func aggShape(group, plain *query.Query, row []relation.Value) []relation.Value {
	out := make([]relation.Value, len(group.Select))
	for i, it := range group.Select {
		if it.IsConst {
			out[i] = it.Const
			continue
		}
		for j, pit := range plain.Select {
			if pit.Col == it.Col {
				out[i] = row[j]
			}
		}
	}
	return out
}

// viewsEqual compares two lists of aggregate views row by row.
func viewsEqual(a, b [][]agg.ViewRow) bool {
	if len(a) != len(b) {
		return false
	}
	for q, av := range a {
		bv := b[q]
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i].Group != bv[i].Group || av[i].Epoch != bv[i].Epoch {
				return false
			}
			if len(av[i].Row) != len(bv[i].Row) {
				return false
			}
			for j := range av[i].Row {
				if !av[i].Row[j].Equal(bv[i].Row[j]) {
					return false
				}
			}
		}
	}
	return true
}
