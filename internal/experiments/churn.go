package experiments

import (
	"fmt"

	"rjoin/internal/churn"
	"rjoin/internal/core"
	"rjoin/internal/metrics"
	"rjoin/internal/overlay"
	"rjoin/internal/refeval"
	"rjoin/internal/workload"
)

// churnScenario is one column of the churn figure.
type churnScenario struct {
	name  string
	rates workload.ChurnConfig
}

// churnScenarios: from a static baseline through graceful-only churn
// (provably lossless) to crash-heavy churn (measurable answer loss).
// Rates are events per 1000 ticks.
func churnScenarios() []churnScenario {
	return []churnScenario{
		{"static", workload.ChurnConfig{}},
		{"leave", workload.ChurnConfig{LeaveRate: 30}},
		{"join+leave", workload.ChurnConfig{JoinRate: 25, LeaveRate: 25}},
		{"crash", workload.ChurnConfig{JoinRate: 10, CrashRate: 15}},
	}
}

// churnRun is one configured network with a churn manager attached.
type churnRun struct {
	*run
	mgr *churn.Manager
}

func newChurnRun(p Params, rates workload.ChurnConfig) *churnRun {
	netCfg := overlay.DefaultConfig()
	netCfg.Bounce = true
	// A denser workload than the paper default: 2-way joins over a
	// small value domain, so the answer stream is thick enough that
	// loss and duplication are measurable at every scale. The churn
	// figure studies membership dynamics, not join complexity (that is
	// Figure 6).
	wcfg := workload.PaperConfig()
	wcfg.JoinArity = 2
	wcfg.Values = 20
	r := newRunNet(p, core.DefaultConfig(), wcfg, netCfg)
	mgr := churn.New(r.eng, churn.Config{
		Rates:    rates,
		Interval: 16,
		MinNodes: p.Nodes / 2,
		Seed:     p.Seed + 7,
	})
	mgr.Start()
	return &churnRun{run: r, mgr: mgr}
}

// answerMultisets snapshots every query's delivered answers as
// multisets of canonical row strings.
func answerMultisets(eng *core.Engine) map[string]map[string]int64 {
	out := make(map[string]map[string]int64)
	for qid, answers := range eng.AllAnswers() {
		rows := make(map[string]int64, len(answers))
		for _, a := range answers {
			rows[refeval.Row(a.Row).Key()]++
		}
		out[qid] = rows
	}
	return out
}

// compareToReference folds per-query multiset comparisons into one
// network-wide Completeness.
func compareToReference(expected, got map[string]map[string]int64) metrics.Completeness {
	var total metrics.Completeness
	for qid, exp := range expected {
		c := metrics.CompareMultisets(exp, got[qid])
		total.Expected += c.Expected
		total.Delivered += c.Delivered
		total.Lost += c.Lost
		total.Duplicated += c.Duplicated
	}
	for qid, g := range got {
		if _, ok := expected[qid]; ok {
			continue
		}
		for _, n := range g {
			total.Delivered += n
			total.Duplicated += n
		}
	}
	return total
}

// FigChurn evaluates RJoin under runtime membership churn, the
// dynamic-conditions scenario the paper's stable-overlay experiments
// leave open. One fixed workload — queries submitted up front, then a
// tuple stream with the clock advancing between publications so the
// background churn and stabilization cadences fire — runs under each
// scenario; the static run is the completeness reference. Reported per
// scenario: membership events and handover traffic, answer
// completeness against the reference (graceful-only churn stays exact;
// crashes lose what died with the node), and the healing machinery's
// work (ownership re-routes, bounced in-flight messages, recovered
// query placements, counted state loss).
func FigChurn(p Params) []*metrics.Table {
	queries := p.scaled(200)
	tuples := p.scaled(600)

	type result struct {
		name     string
		stats    churn.Stats
		counters core.Counters
		traffic  int64
		churnTfc int64
		bounced  int64
		comp     metrics.Completeness
		nodes    int
	}
	var results []result
	var reference map[string]map[string]int64 // query ID → row multiset

	for _, sc := range churnScenarios() {
		r := newChurnRun(p, sc.rates)
		for i := 0; i < queries; i++ {
			if _, err := r.eng.SubmitQuery(r.node(), r.gen.Query()); err != nil {
				panic(err) // generator output is valid by construction
			}
		}
		r.eng.Run()
		for i := 0; i < tuples; i++ {
			r.eng.PublishTuple(r.node(), r.gen.Tuple())
			r.eng.RunUntil(r.eng.Sim().Now() + 8)
			r.eng.Run()
		}
		r.eng.Run()
		r.mgr.Stop()

		answers := answerMultisets(r.eng)
		if reference == nil {
			reference = answers // the static scenario runs first
		}
		results = append(results, result{
			name:     sc.name,
			stats:    r.mgr.Stats,
			counters: r.eng.Counters,
			traffic:  r.eng.Net().Traffic.Total(),
			churnTfc: r.eng.Net().TaggedTraffic(core.TagChurn).Total(),
			bounced:  r.eng.Net().Bounced,
			comp:     compareToReference(reference, answers),
			nodes:    r.eng.Ring().Size(),
		})
	}

	events := &metrics.Table{
		Title:   "Fig C(a) Membership churn and handover traffic",
		Headers: []string{"scenario", "joins", "leaves", "crashes", "final nodes", "handover msgs", "handover entries", "churn traffic", "total traffic"},
	}
	completeness := &metrics.Table{
		Title:   "Fig C(b) Answer completeness vs the static reference",
		Headers: []string{"scenario", "expected", "delivered", "lost", "duplicated", "recall"},
	}
	healing := &metrics.Table{
		Title:   "Fig C(c) Churn healing machinery",
		Headers: []string{"scenario", "rerouted", "bounced", "recovered queries", "rewrites lost", "tuples lost"},
	}
	for _, res := range results {
		events.AddRow(res.name,
			fmt.Sprintf("%d", res.stats.Joins),
			fmt.Sprintf("%d", res.stats.Leaves),
			fmt.Sprintf("%d", res.stats.Crashes),
			fmt.Sprintf("%d", res.nodes),
			fmt.Sprintf("%d", res.counters.HandoverMessages),
			fmt.Sprintf("%d", res.counters.HandoverEntries),
			fmt.Sprintf("%d", res.churnTfc),
			fmt.Sprintf("%d", res.traffic),
		)
		completeness.AddRow(res.name,
			fmt.Sprintf("%d", res.comp.Expected),
			fmt.Sprintf("%d", res.comp.Delivered),
			fmt.Sprintf("%d", res.comp.Lost),
			fmt.Sprintf("%d", res.comp.Duplicated),
			fmt.Sprintf("%.4f", res.comp.Recall()),
		)
		healing.AddRow(res.name,
			fmt.Sprintf("%d", res.counters.MessagesRerouted),
			fmt.Sprintf("%d", res.bounced),
			fmt.Sprintf("%d", res.counters.QueriesRecovered),
			fmt.Sprintf("%d", res.counters.RewritesLost),
			fmt.Sprintf("%d", res.counters.TuplesLost),
		)
	}
	return []*metrics.Table{events, completeness, healing}
}
