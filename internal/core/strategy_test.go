package core

import (
	"math/rand"
	"testing"

	"rjoin/internal/obs"
	"rjoin/internal/obs/profile"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/workload"
)

// strategyRun drives a moderately skewed workload under one engine
// configuration and returns the engine for metric inspection.
func strategyRun(t testing.TB, cfg Config, seed int64, nQueries, nTuples int) *Engine {
	t.Helper()
	netCfg := overlay.DefaultConfig()
	netCfg.Obs = cfg.Obs
	eng, nodes := testNet(t, 128, seed, cfg, netCfg)
	wcfg := workload.Config{Relations: 8, Attributes: 5, Values: 20, Theta: 0.9, JoinArity: 4}
	gen := workload.MustGenerator(wcfg, seed)
	rng := rand.New(rand.NewSource(seed + 77))
	for i := 0; i < nQueries; i++ {
		if _, err := eng.SubmitQuery(nodes[rng.Intn(len(nodes))], gen.Query()); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for i := 0; i < nTuples; i++ {
		eng.PublishTuple(nodes[rng.Intn(len(nodes))], gen.Tuple())
		eng.Run()
	}
	return eng
}

// TestStrategyOrdering reproduces the Figure 2 shape at test scale:
// Worst placement generates more traffic and query-processing load than
// RIC-informed placement.
func TestStrategyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("strategy comparison is a heavier test")
	}
	mk := func(s Strategy) *Engine {
		cfg := Config{}
		cfg.Strategy = s
		return strategyRun(t, cfg, 42, 400, 150)
	}
	ric := mk(StrategyRIC)
	worst := mk(StrategyWorst)

	ricTraffic := ric.Net().MessagesSent
	worstTraffic := worst.Net().MessagesSent
	if worstTraffic <= ricTraffic {
		t.Fatalf("Worst traffic %d not above RIC traffic %d", worstTraffic, ricTraffic)
	}
	ricQPL, _ := ric.Load()
	worstQPL, _ := worst.Load()
	if worstQPL <= ricQPL {
		t.Fatalf("Worst QPL %d not above RIC QPL %d", worstQPL, ricQPL)
	}
	// The RIC-request overhead must be a modest share of RIC's total.
	ricShare := float64(ric.Net().ByTag[overlay.TagRIC]) / float64(ricTraffic)
	if ricShare <= 0 || ricShare >= 0.9 {
		t.Fatalf("RIC request share %.2f implausible", ricShare)
	}
}

// TestCandidateTableAnswersPlacements: RIC placement consults the
// Section 7 candidate table before it asks anyone, so on a skewed
// workload some placements find a fresh report there and walk nowhere.
// Measured on this workload: 4,679 of 9,491 candidate lookups hit, a
// share of 0.49. A placement path that stopped reading the table would
// score no hit at all.
func TestCandidateTableAnswersPlacements(t *testing.T) {
	prof := profile.New(0)
	cfg := Config{Obs: obs.NewRecorder(obs.Views{Profile: prof})}
	eng := strategyRun(t, cfg, 43, 200, 80)
	eng.Sync()
	var hits, misses int64
	for qid := range eng.subs {
		for _, key := range prof.Keys(qid) {
			hits += prof.Count(qid, key, profile.CTHits)
			misses += prof.Count(qid, key, profile.CTMisses)
		}
	}
	t.Logf("candidate-table hits %d of %d lookups (share %.2f)", hits, hits+misses, float64(hits)/float64(hits+misses))
	if hits == 0 {
		t.Fatalf("no placement was answered by the candidate table (%d misses)", misses)
	}
}

// TestStrategiesAgreeOnAnswers: placement strategy affects cost, never
// correctness — all three deliver the same answer bags.
func TestStrategiesAgreeOnAnswers(t *testing.T) {
	results := make([]int64, 0, 3)
	for _, s := range []Strategy{StrategyRIC, StrategyRandom, StrategyWorst} {
		cfg := Config{}
		cfg.Strategy = s
		eng := strategyRun(t, cfg, 44, 60, 60)
		results = append(results, eng.Counters.AnswersDelivered)
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Fatalf("strategies delivered different answer counts: %v", results)
	}
}

// TestChurnSurvival: nodes crash mid-stream; the network keeps
// processing and never delivers an unsound answer, and after the six
// crashes — each of a node storing a query whenever one does — every
// record lists exactly what the nodes hold: a crash takes what it lost
// off the records too.
func TestChurnSurvival(t *testing.T) {
	eng, nodes := testNet(t, 96, 80, Config{}, overlay.DefaultConfig())
	wcfg := workload.Config{Relations: 3, Attributes: 3, Values: 3, Theta: 0.9, JoinArity: 2}
	gen := workload.MustGenerator(wcfg, 80)
	rng := rand.New(rand.NewSource(81))

	owner := nodes[0] // keep the owner alive so answers are observable
	var qids []string
	var queries []*query.Query
	for i := 0; i < 5; i++ {
		q := gen.Query()
		qid, err := eng.SubmitQuery(owner, q)
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
		q.InsertTime = 0
		queries = append(queries, q)
	}
	eng.Run()

	var tuples []*relation.Tuple
	for i := 0; i < 60; i++ {
		if i == 20 || i == 40 {
			// Fail three random non-owner nodes abruptly.
			for k := 0; k < 3; k++ {
				alive := eng.Ring().Nodes()
				victim := alive[1+rng.Intn(len(alive)-1)]
				for _, n := range alive[1:] {
					if len(eng.Proc(n).st.queries) > 0 {
						victim = n
						break
					}
				}
				if err := eng.CrashNode(victim); err != nil {
					t.Fatal(err)
				}
			}
		}
		tu := gen.Tuple()
		eng.PublishTuple(nodes[0], tu)
		eng.Run()
		tuples = append(tuples, tu)
	}
	for i, qid := range qids {
		want := refeval.Evaluate(queries[i], tuples)
		got := answersToRows(eng.Answers(qid))
		if !refeval.SubBag(got, want) {
			t.Fatalf("churn produced unsound answers for query %d", i)
		}
	}
	if err := ownershipErr(eng); err != nil {
		t.Fatal(err)
	}
}

// TestNodeJoinMidStream: a node joining mid-run takes over part of the
// key space, and the state under it, losing nothing: the answer bag is
// exactly the reference's.
func TestNodeJoinMidStream(t *testing.T) {
	eng, nodes := testNet(t, 64, 90, Config{}, overlay.DefaultConfig())
	wcfg := workload.Config{Relations: 3, Attributes: 3, Values: 3, Theta: 0.9, JoinArity: 2}
	gen := workload.MustGenerator(wcfg, 90)
	q := gen.Query()
	qid, err := eng.SubmitQuery(nodes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	q.InsertTime = 0
	var tuples []*relation.Tuple
	for i := 0; i < 40; i++ {
		if i == 15 {
			// Join on top of the first key storing a query, so the
			// joiner must take that query over.
			var at relation.Key
			for _, n := range eng.Ring().Nodes() {
				if keys := sortedStateKeys(eng.Proc(n).st.queries); len(keys) > 0 {
					at = keys[0]
					break
				}
			}
			if _, err := eng.JoinNode(at.ID()); err != nil {
				t.Fatal(err)
			}
		}
		tu := gen.Tuple()
		eng.PublishTuple(nodes[1], tu)
		eng.Run()
		tuples = append(tuples, tu)
	}
	want := refeval.Evaluate(q, tuples)
	got := answersToRows(eng.Answers(qid))
	if len(want) == 0 || !refeval.EqualBags(got, want) {
		t.Fatalf("join churn delivered %d answers, the reference %d", len(got), len(want))
	}
}

// TestCountersConsistency sanity-checks the engine counters after a
// run: published tuples produce 2k receptions (k attribute keys, k
// value keys), stored value tuples equal k per published tuple, and
// every RIC request gets exactly one reply.
func TestCountersConsistency(t *testing.T) {
	eng := strategyRun(t, Config{}, 91, 50, 40)
	c := eng.Counters
	if c.TuplesPublished != 40 {
		t.Fatalf("published %d", c.TuplesPublished)
	}
	// 5 attributes per tuple → 10 deliveries per publication.
	if c.TuplesReceived != c.TuplesPublished*10 {
		t.Fatalf("received %d, want %d", c.TuplesReceived, c.TuplesPublished*10)
	}
	if c.TuplesStored != c.TuplesPublished*5 {
		t.Fatalf("stored %d, want %d", c.TuplesStored, c.TuplesPublished*5)
	}
	if c.RICRequests != c.RICReplies {
		t.Fatalf("RIC requests %d != replies %d", c.RICRequests, c.RICReplies)
	}
	if c.QueriesSubmitted != 50 || c.InputQueriesStored != 50 {
		t.Fatalf("queries submitted %d stored %d", c.QueriesSubmitted, c.InputQueriesStored)
	}
	if c.RewritesStored > c.RewritesCreated {
		t.Fatalf("stored %d rewrites > created %d", c.RewritesStored, c.RewritesCreated)
	}
	qpl, sl := eng.Load()
	if qpl != c.TuplesReceived+c.RewritesStored {
		t.Fatalf("QPL %d != tuples received %d + rewrites received %d",
			qpl, c.TuplesReceived, c.RewritesStored)
	}
	if sl != c.TuplesStored+c.RewritesStored {
		t.Fatalf("SL %d != tuples stored %d + rewrites stored %d",
			sl, c.TuplesStored, c.RewritesStored)
	}
}
