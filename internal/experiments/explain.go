package experiments

import (
	"fmt"
	"sort"

	"rjoin/internal/core"
	"rjoin/internal/metrics"
	"rjoin/internal/obs"
	"rjoin/internal/obs/profile"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/workload"
)

// FigExplain is this reproduction's introspection figure: the placement
// profiler and answer provenance turned on over a skewed 2-way-join
// workload, reported through Engine.Explain instead of the aggregate
// load counters. Table (a) is the EXPLAIN ANALYZE of one representative
// query — the one with the most answers — with each placement's
// observed arrival count, selectivity and rank by arrivals next to its
// static clause position: the gap between clause order and arrival rank
// is exactly the information RIC placement exploits, now visible per
// query rather than only in fleet totals. Table (b) summarizes
// introspection across the whole fleet: how many placements the
// pipelines occupy (static vs runtime-discovered), candidate-table hit
// rate, live state bytes, and the provenance cost per delivered answer
// (lineage steps = base tuples joined + rewrite hops taken).
func FigExplain(p Params) []*metrics.Table {
	rec := obs.NewRecorder(obs.Views{Profile: profile.New(0)})
	cfg := core.DefaultConfig()
	cfg.Obs = rec
	cfg.Provenance = true
	netCfg := overlay.DefaultConfig()
	netCfg.Obs = rec

	wcfg := workload.PaperConfig()
	wcfg.JoinArity = 2
	wcfg.Values = 20 // small domain: value-level keys repeat, answers flow

	r := newRunNet(p, cfg, wcfg, netCfg)
	r.warmup(p.scaled(400))
	var qids []string
	for i := 0; i < p.scaled(p.Queries); i++ {
		q := r.gen.Query()
		q.Window = query.WindowSpec{}
		qid, err := r.eng.SubmitQuery(r.node(), q)
		if err != nil {
			panic(err) // generator output is valid by construction
		}
		qids = append(qids, qid)
	}
	r.eng.Run()
	r.publish(p.scaled(1000))

	reports := make([]*profile.Report, len(qids))
	rep := 0 // representative: most answers, submission order breaking ties
	for i, qid := range qids {
		rp, err := r.eng.Explain(qid)
		if err != nil {
			panic(err)
		}
		reports[i] = rp
		if rp.Answers > reports[rep].Answers {
			rep = i
		}
	}

	// (a) Per-placement profile of the representative query, with each
	// placement's rank by observed arrivals (1 = hottest) next to its
	// static clause position.
	rr := reports[rep]
	byArrivals := make([]int, len(rr.Placements))
	for i := range byArrivals {
		byArrivals[i] = i
	}
	sort.SliceStable(byArrivals, func(a, b int) bool {
		return rr.Placements[byArrivals[a]].Arrivals > rr.Placements[byArrivals[b]].Arrivals
	})
	rank := make([]int, len(rr.Placements))
	for pos, i := range byArrivals {
		rank[i] = pos + 1
	}
	ta := &metrics.Table{
		Title: fmt.Sprintf("Fig E(a) EXPLAIN ANALYZE of the busiest query (%s: %d answers)",
			rr.Query, rr.Answers),
		Headers: []string{"placement", "level", "clause", "arrival rank", "arrivals", "evals", "rewrites", "completions", "selectivity"},
	}
	for i, pl := range rr.Placements {
		clause := fmt.Sprintf("%d", pl.Clause)
		if pl.Clause < 0 {
			clause = "runtime"
		}
		ta.AddRow(pl.Key, pl.Level, clause, fmt.Sprintf("%d", rank[i]),
			fmt.Sprintf("%d", pl.Arrivals), fmt.Sprintf("%d", pl.Evals),
			fmt.Sprintf("%d", pl.Rewrites), fmt.Sprintf("%d", pl.Completions),
			fmt.Sprintf("%.4f", pl.Selectivity()))
	}

	// (b) Fleet-wide introspection summary.
	var static, runtime, ctHits, ctMisses, stateBytes int64
	var answers, lineageSteps, answered int64
	for i, rp := range reports {
		for _, pl := range rp.Placements {
			if pl.Clause >= 0 {
				static++
			} else {
				runtime++
			}
			ctHits += pl.CTHits
			ctMisses += pl.CTMisses
			stateBytes += pl.StateBytes
		}
		answers += rp.Answers
		if rp.Answers > 0 {
			answered++
		}
		for _, a := range r.eng.Answers(qids[i]) {
			lineageSteps += int64(len(a.Lineage))
		}
	}
	ctRate, stepsPer := 0.0, 0.0
	if ctHits+ctMisses > 0 {
		ctRate = float64(ctHits) / float64(ctHits+ctMisses)
	}
	if answers > 0 {
		stepsPer = float64(lineageSteps) / float64(answers)
	}
	tb := &metrics.Table{
		Title:   "Fig E(b) Fleet introspection summary",
		Headers: []string{"measure", "value"},
	}
	tb.AddRow("queries profiled", fmt.Sprintf("%d", len(qids)))
	tb.AddRow("queries with answers", fmt.Sprintf("%d", answered))
	tb.AddRow("answers delivered", fmt.Sprintf("%d", answers))
	tb.AddRow("static placements", fmt.Sprintf("%d", static))
	tb.AddRow("runtime placements", fmt.Sprintf("%d", runtime))
	tb.AddRow("candidate-table hit rate", fmt.Sprintf("%.4f", ctRate))
	tb.AddRow("live state bytes", fmt.Sprintf("%d", stateBytes))
	tb.AddRow("lineage steps per answer", fmt.Sprintf("%.2f", stepsPer))
	return []*metrics.Table{ta, tb}
}
