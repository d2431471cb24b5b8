package experiments

import (
	"fmt"

	"rjoin/internal/churn"
	"rjoin/internal/core"
	"rjoin/internal/metrics"
	"rjoin/internal/overlay"
	"rjoin/internal/workload"
)

// recoveryChurn is the crash-heavy membership trace FigRecovery replays
// under every replication factor: occasional joins, frequent crashes —
// the regime where the counted-loss model of the churn figure bleeds
// answers, and the regime replication exists for.
var recoveryChurn = workload.ChurnConfig{JoinRate: 5, CrashRate: 25}

// FigRecovery measures what durable state replication buys and what it
// costs. One fixed workload — queries up front, then a tuple stream
// with the clock advancing so a pre-drawn crash-heavy churn trace fires
// between publications — runs once per replication factor k ∈ {1, 2,
// 3}; a static run is the completeness reference. k = 1 keeps only the
// primary copy (the churn subsystem's counted-loss model); k >= 2
// replicates every keyed state entry on the k−1 ring successors, and each
// crash promotes the surviving replica the ring routes to. Reported
// per k: answer completeness against the reference (recall reaches 1.0
// at k >= 2 under single-node crashes), the counted state loss and the
// promotion work, and the replication overhead — replica-update
// messages as a share of total traffic.
func FigRecovery(p Params) []*metrics.Table {
	queries := p.scaled(200)
	tuples := p.scaled(600)

	type result struct {
		k        int
		stats    churn.Stats
		counters core.Counters
		traffic  int64
		replTfc  int64
		comp     metrics.Completeness
		nodes    int
	}
	var results []result
	var reference map[string]map[string]int64 // query ID → row multiset

	// factor 0 is the static reference; 1..3 run the crash trace.
	for _, k := range []int{0, 1, 2, 3} {
		cfg := core.DefaultConfig()
		if k >= 2 {
			cfg.ReplicationFactor = k
		}
		netCfg := overlay.DefaultConfig()
		netCfg.Bounce = true
		wcfg := workload.PaperConfig()
		wcfg.JoinArity = 2
		wcfg.Values = 20
		r := newRunNet(p, cfg, wcfg, netCfg)
		mgr := churn.New(r.eng, churn.Config{
			MinNodes: p.Nodes / 2,
			Seed:     p.Seed + 7,
		})

		for i := 0; i < queries; i++ {
			if _, err := r.eng.SubmitQuery(r.node(), r.gen.Query()); err != nil {
				panic(err) // generator output is valid by construction
			}
		}
		r.eng.Run()

		if k > 0 {
			// The same trace for every factor, shifted past the query
			// phase: durability is the only variable.
			trace := workload.MustChurnTrace(recoveryChurn, int64(tuples)*8, p.Seed+11)
			offset := int64(r.eng.Sim().Now())
			for i := range trace {
				trace[i].At += offset
			}
			mgr.Schedule(trace)
		}
		for i := 0; i < tuples; i++ {
			r.eng.PublishTuple(r.node(), r.gen.Tuple())
			r.eng.RunUntil(r.eng.Sim().Now() + 8)
			r.eng.Run()
		}
		r.eng.Run()
		mgr.Stop()

		answers := answerMultisets(r.eng)
		if reference == nil {
			reference = answers // the static run comes first
		}
		results = append(results, result{
			k:        k,
			stats:    mgr.Stats,
			counters: r.eng.Counters,
			traffic:  r.eng.Net().Traffic.Total(),
			replTfc:  r.eng.Net().TaggedTraffic(overlay.TagRepl).Total(),
			comp:     compareToReference(reference, answers),
			nodes:    r.eng.Ring().Size(),
		})
	}

	durability := &metrics.Table{
		Title: "Fig R(a) Durability under a crash-heavy trace",
		Headers: []string{"factor", "crashes", "recall", "lost", "duplicated",
			"queries lost", "rewrites lost", "tuples lost", "agg lost", "promotions", "entries promoted"},
	}
	overhead := &metrics.Table{
		Title: "Fig R(b) Replication overhead",
		Headers: []string{"factor", "repl traffic", "repl share", "repl updates",
			"repl ops", "repair syncs", "total traffic"},
	}
	for _, res := range results {
		name := fmt.Sprintf("k=%d", res.k)
		if res.k == 0 {
			name = "static ref"
		}
		durability.AddRow(name,
			fmt.Sprintf("%d", res.stats.Crashes),
			fmt.Sprintf("%.4f", res.comp.Recall()),
			fmt.Sprintf("%d", res.comp.Lost),
			fmt.Sprintf("%d", res.comp.Duplicated),
			fmt.Sprintf("%d", res.counters.QueriesLost),
			fmt.Sprintf("%d", res.counters.RewritesLost),
			fmt.Sprintf("%d", res.counters.TuplesLost),
			fmt.Sprintf("%d", res.counters.AggStateLost),
			fmt.Sprintf("%d", res.counters.ReplPromotions),
			fmt.Sprintf("%d", res.counters.ReplEntriesPromoted),
		)
		share := 0.0
		if res.traffic > 0 {
			share = float64(res.replTfc) / float64(res.traffic)
		}
		overhead.AddRow(name,
			fmt.Sprintf("%d", res.replTfc),
			fmt.Sprintf("%.1f%%", 100*share),
			fmt.Sprintf("%d", res.counters.ReplUpdates),
			fmt.Sprintf("%d", res.counters.ReplOps),
			fmt.Sprintf("%d", res.counters.ReplSyncs),
			fmt.Sprintf("%d", res.traffic),
		)
	}
	return []*metrics.Table{durability, overhead}
}
