package experiments

import (
	"fmt"
	"math/rand"

	"rjoin/internal/churn"
	"rjoin/internal/core"
	"rjoin/internal/metrics"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/workload"
)

// sharingDupRatios are the duplicate-ratio checkpoints of the sharing
// figure: the fraction of submissions that are clause-order/projection
// variants of an earlier query rather than a fresh join graph.
var sharingDupRatios = []float64{0, 0.5, 0.9}

// sharingWorkload is the sharing figure's workload shape: 2-way joins
// over a compact value domain, so the reference evaluator certifying
// per-subscriber exactness stays cheap while the answer stream is
// thick enough to exercise every fan-out path.
func sharingWorkload() workload.Config {
	cfg := workload.PaperConfig()
	cfg.JoinArity = 2
	cfg.Values = 20
	return cfg
}

// sharingStream builds the query submission stream for one duplicate
// ratio: each entry is a fresh generator query with probability 1-dup,
// otherwise a semantically equivalent variant of an earlier one —
// shuffled FROM list, shuffled/flipped join conjuncts, and a fresh
// projection over the same relations, so the duplicate is byte-distinct
// and must be caught by canonicalization, not string matching.
func sharingStream(gen *workload.Generator, rng *rand.Rand, n int, dup float64) []*query.Query {
	var protos []*query.Query
	out := make([]*query.Query, 0, n)
	attr := func() string { return fmt.Sprintf("A%d", rng.Intn(gen.Cfg.Attributes)) }
	for i := 0; i < n; i++ {
		if len(protos) > 0 && rng.Float64() < dup {
			v := protos[rng.Intn(len(protos))].Clone()
			rng.Shuffle(len(v.Relations), func(i, j int) {
				v.Relations[i], v.Relations[j] = v.Relations[j], v.Relations[i]
			})
			rng.Shuffle(len(v.Joins), func(i, j int) { v.Joins[i], v.Joins[j] = v.Joins[j], v.Joins[i] })
			for k := range v.Joins {
				if rng.Intn(2) == 0 {
					v.Joins[k].Left, v.Joins[k].Right = v.Joins[k].Right, v.Joins[k].Left
				}
			}
			v.Select = []query.SelectItem{
				{Col: query.ColRef{Rel: v.Relations[rng.Intn(len(v.Relations))], Attr: attr()}},
				{Col: query.ColRef{Rel: v.Relations[rng.Intn(len(v.Relations))], Attr: attr()}},
			}
			out = append(out, v)
			continue
		}
		q := gen.Query()
		protos = append(protos, q.Clone())
		out = append(out, q)
	}
	return out
}

// sharingRun drives one configured network through a fixed stream:
// submit every query (remembering its insertion time for the reference
// evaluator), then publish the measured tuple stream, collecting the
// published tuples. churnMgr, when non-nil, is running throughout and
// the clock steps between publications so its cadences fire.
type sharingResult struct {
	queries  int
	classes  int
	stored   int
	rewrites int64
	messages int64
	fanout   int64
	checked  int
	exact    int
}

func runSharing(p Params, stream []*query.Query, share bool, rf int, rates workload.ChurnConfig) sharingResult {
	cfg := core.DefaultConfig()
	cfg.ReplicationFactor = rf
	netCfg := overlay.DefaultConfig()
	netCfg.Bounce = true
	r := newRunNet(p, cfg, sharingWorkload(), netCfg)
	if share {
		// The catalog only exists once the generator does, so sharing is
		// switched on after construction; the engine reads these fields
		// at submission time only.
		r.eng.Cfg.ShareExact = true
		r.eng.Cfg.ShareQueries = true
		r.eng.Cfg.Catalog = r.gen.Catalog()
	}
	var mgr *churn.Manager
	if rates.Enabled() {
		mgr = churn.New(r.eng, churn.Config{
			Rates:    rates,
			Interval: 16,
			MinNodes: p.Nodes * 3 / 4,
			Seed:     p.Seed + 7,
		})
		mgr.Start()
	}
	r.warmup(p.scaled(200))

	type subRef struct {
		qid string
		q   *query.Query
	}
	var subs []subRef
	for _, q := range stream {
		orig := q.Clone()
		orig.InsertTime = int64(r.eng.Sim().Now())
		qid, err := r.eng.SubmitQuery(r.node(), q.Clone())
		if err != nil {
			panic(err) // generator output is valid by construction
		}
		subs = append(subs, subRef{qid: qid, q: orig})
	}
	r.eng.Run()

	preMsgs := r.eng.Net().Traffic.Total()
	preRewrites := r.eng.Counters.RewritesCreated
	tuples := p.scaled(1600)
	published := make([]*relation.Tuple, 0, tuples)
	for i := 0; i < tuples; i++ {
		t := r.gen.Tuple()
		published = append(published, t)
		r.eng.PublishTuple(r.node(), t)
		if mgr != nil {
			r.eng.RunUntil(r.eng.Sim().Now() + 8)
		}
		r.eng.Run()
	}
	r.eng.Run()
	if mgr != nil {
		mgr.Stop()
		r.eng.Run()
	}

	res := sharingResult{
		queries:  len(stream),
		classes:  r.eng.SharedClasses(),
		rewrites: r.eng.Counters.RewritesCreated - preRewrites,
		messages: r.eng.Net().Traffic.Total() - preMsgs,
		fanout:   r.eng.Counters.SharedFanoutRows,
	}
	res.stored, _, _ = r.eng.StoredState()

	// Certify every subscriber against the reference evaluator: the
	// delivered bag must equal Definition 1 over the published stream
	// and the subscriber's own query — selections, projection and
	// insertion-time cutoff included.
	for _, s := range subs {
		want := make(map[string]int64)
		for _, row := range refeval.Evaluate(s.q, published) {
			want[row.Key()]++
		}
		got := make(map[string]int64)
		for _, a := range r.eng.Answers(s.qid) {
			got[refeval.Row(a.Row).Key()]++
		}
		res.checked++
		if multisetsEqual(want, got) {
			res.exact++
		}
	}
	return res
}

func multisetsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// FigSharing measures multi-query sharing: the same submission stream —
// fresh join graphs mixed with byte-distinct duplicates at a controlled
// ratio — runs with sharing on and off, and the figure reports stored
// state and rewriting work per query as the duplicate ratio sweeps 0 to
// 90%, plus the per-subscriber exactness certificate. The final row
// re-runs the 90% stream under membership churn with ReplicationFactor
// 2: sharing must stay exact when pipelines hand over, crash and get
// promoted by a replica.
func FigSharing(p Params) []*metrics.Table {
	queries := p.scaled(240)

	cost := &metrics.Table{
		Title: "Fig S(a) Sharing: cost per query vs duplicate ratio",
		Headers: []string{"dup ratio", "queries", "classes",
			"stored/query (shared)", "stored/query (none)", "state reduction",
			"rewrites/query (shared)", "rewrites/query (none)", "rewrite reduction",
			"msgs/query (shared)", "msgs/query (none)"},
	}
	exact := &metrics.Table{
		Title:   "Fig S(b) Sharing: per-subscriber exactness vs reference evaluator",
		Headers: []string{"scenario", "subscribers", "exact", "fan-out rows"},
	}

	for _, dup := range sharingDupRatios {
		gen := workload.MustGenerator(sharingWorkload(), p.Seed+11)
		stream := sharingStream(gen, rand.New(rand.NewSource(p.Seed+13)), queries, dup)
		on := runSharing(p, stream, true, 0, workload.ChurnConfig{})
		off := runSharing(p, stream, false, 0, workload.ChurnConfig{})
		nq := float64(on.queries)
		ratio := func(a, b int64) string {
			if a == 0 {
				return "inf"
			}
			return fmt.Sprintf("%.2fx", float64(b)/float64(a))
		}
		cost.AddRow(
			fmt.Sprintf("%.0f%%", dup*100),
			fmt.Sprintf("%d", on.queries),
			fmt.Sprintf("%d", on.classes),
			fmt.Sprintf("%.2f", float64(on.stored)/nq),
			fmt.Sprintf("%.2f", float64(off.stored)/nq),
			ratio(int64(on.stored), int64(off.stored)),
			fmt.Sprintf("%.2f", float64(on.rewrites)/nq),
			fmt.Sprintf("%.2f", float64(off.rewrites)/nq),
			ratio(on.rewrites, off.rewrites),
			fmt.Sprintf("%.2f", float64(on.messages)/nq),
			fmt.Sprintf("%.2f", float64(off.messages)/nq),
		)
		exact.AddRow(
			fmt.Sprintf("shared dup=%.0f%%", dup*100),
			fmt.Sprintf("%d", on.checked),
			fmt.Sprintf("%d", on.exact),
			fmt.Sprintf("%d", on.fanout),
		)
	}

	// Churn + replication: the 90% duplicate stream under joins, leaves
	// and crashes with every keyed state entry replicated on two nodes.
	gen := workload.MustGenerator(sharingWorkload(), p.Seed+11)
	stream := sharingStream(gen, rand.New(rand.NewSource(p.Seed+13)), queries, 0.9)
	ch := runSharing(p, stream, true, 2,
		workload.ChurnConfig{JoinRate: 8, LeaveRate: 8, CrashRate: 4})
	exact.AddRow("shared dup=90% churn rf=2",
		fmt.Sprintf("%d", ch.checked),
		fmt.Sprintf("%d", ch.exact),
		fmt.Sprintf("%d", ch.fanout),
	)
	return []*metrics.Table{cost, exact}
}
