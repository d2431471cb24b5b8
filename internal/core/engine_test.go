package core

import (
	"math/rand"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
	"rjoin/internal/workload"
)

func simTime(v int64) sim.Time { return sim.Time(v) }

// testNet builds a converged n-node overlay with an RJoin engine.
func testNet(t testing.TB, n int, seed int64, cfg Config, netCfg overlay.Config) (*Engine, []*chord.Node) {
	t.Helper()
	ring := chord.NewRing()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for {
			if _, err := ring.Join(id.ID(rng.Uint64())); err == nil {
				break
			}
		}
	}
	ring.BuildPerfect()
	se := sim.NewEngine(seed)
	nw := overlay.MustNetwork(ring, se, netCfg)
	eng := NewEngine(ring, se, nw, cfg)
	return eng, ring.Nodes()
}

var testCat = func() *relation.Catalog {
	cat, _ := relation.NewCatalog(
		relation.MustSchema("R", "A", "B", "C"),
		relation.MustSchema("S", "A", "B", "C"),
		relation.MustSchema("J", "A", "B", "C"),
		relation.MustSchema("M", "A", "B", "C"),
	)
	return cat
}()

func mkTuple(rel string, vals ...int64) *relation.Tuple {
	s, ok := testCat.Schema(rel)
	if !ok {
		panic("unknown relation " + rel)
	}
	vv := make([]relation.Value, len(vals))
	for i, v := range vals {
		vv[i] = relation.Int64(v)
	}
	return relation.MustTuple(s, vv...)
}

// TestPaperFigure1Example runs the full Figure 1 scenario end to end on
// a real overlay: the 4-way join, tuples t1..t4 arriving in the
// figure's order (including t3 of M arriving before the rewritten query
// reaches its node), and exactly the answer S.B=6, M.A=9.
func TestPaperFigure1Example(t *testing.T) {
	for _, strat := range []Strategy{StrategyRIC, StrategyRandom, StrategyWorst} {
		cfg := Config{}
		cfg.Strategy = strat
		eng, nodes := testNet(t, 64, 1, cfg, overlay.DefaultConfig())
		q := sqlparse.MustParse(
			"select S.B, M.A from R,S,J,M where R.A=S.A and S.B=J.B and J.C=M.C", testCat)
		qid, err := eng.SubmitQuery(nodes[0], q)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		pub := func(tu *relation.Tuple) {
			eng.PublishTuple(nodes[1], tu)
			eng.Run()
		}
		pub(mkTuple("R", 2, 5, 8))
		pub(mkTuple("S", 2, 6, 3))
		pub(mkTuple("M", 9, 1, 2)) // arrives before the query needs it: stored at value level
		pub(mkTuple("J", 7, 6, 2))
		ans := eng.Answers(qid)
		if len(ans) != 1 {
			t.Fatalf("strategy %v: got %d answers, want 1", strat, len(ans))
		}
		if ans[0].Row[0].Int != 6 || ans[0].Row[1].Int != 9 {
			t.Fatalf("strategy %v: answer %v, want (6, 9)", strat, ans[0].Row)
		}
	}
}

// TestTupleBeforeQueryIgnored checks the Definition 1 semantics: only
// tuples published at or after query submission count.
func TestTupleBeforeQueryIgnored(t *testing.T) {
	eng, nodes := testNet(t, 32, 2, Config{}, overlay.DefaultConfig())
	early := mkTuple("R", 1, 1, 0)
	eng.PublishTuple(nodes[3], early)
	eng.Run()
	q := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat)
	qid, _ := eng.SubmitQuery(nodes[0], q)
	eng.Run()
	eng.PublishTuple(nodes[4], mkTuple("S", 1, 2, 0))
	eng.Run()
	if n := len(eng.Answers(qid)); n != 0 {
		t.Fatalf("%d answers produced from a pre-submission tuple", n)
	}
	// A fresh R tuple after submission does produce the answer.
	eng.PublishTuple(nodes[5], mkTuple("R", 1, 7, 0))
	eng.Run()
	ans := eng.Answers(qid)
	if len(ans) != 1 || ans[0].Row[0].Int != 7 {
		t.Fatalf("answers %v", ans)
	}
}

// randomRun publishes a random stream against a set of random queries
// and returns the engine, query ids and the published tuples.
func randomRun(t *testing.T, cfg Config, netCfg overlay.Config, seed int64,
	nQueries, nTuples, arity int) (*Engine, []string, []*query.Query, []*relation.Tuple) {
	t.Helper()
	eng, nodes := testNet(t, 48, seed, cfg, netCfg)
	wcfg := workload.Config{Relations: 4, Attributes: 3, Values: 4, Theta: 0.9, JoinArity: arity}
	gen := workload.MustGenerator(wcfg, seed)
	rng := rand.New(rand.NewSource(seed + 999))

	var qids []string
	var queries []*query.Query
	for i := 0; i < nQueries; i++ {
		q := gen.Query()
		qid, err := eng.SubmitQuery(nodes[rng.Intn(len(nodes))], q)
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
		queries = append(queries, q)
	}
	eng.Run()
	// Stamp insertion times on the reference copies (SubmitQuery stamps
	// its clone).
	for _, q := range queries {
		q.InsertTime = 0
	}
	var tuples []*relation.Tuple
	for i := 0; i < nTuples; i++ {
		tu := gen.Tuple()
		eng.PublishTuple(nodes[rng.Intn(len(nodes))], tu)
		eng.Run()
		tuples = append(tuples, tu)
	}
	return eng, qids, queries, tuples
}

// TestSoundAndCompleteTwoWay compares RJoin's answer bag against the
// reference evaluator for random 2-way workloads: Theorems 1 and 2 —
// every reference answer is delivered, exactly once.
func TestSoundAndCompleteTwoWay(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		eng, qids, queries, tuples := randomRun(t, Config{}, overlay.DefaultConfig(), seed, 6, 40, 2)
		for i, qid := range qids {
			want := refeval.Evaluate(queries[i], tuples)
			got := answersToRows(eng.Answers(qid))
			if !refeval.EqualBags(got, want) {
				t.Fatalf("seed %d query %d (%s): got %d answers, want %d\n got=%v\nwant=%v",
					seed, i, queries[i], len(got), len(want),
					refeval.SortedKeys(got), refeval.SortedKeys(want))
			}
		}
	}
}

// TestSoundAndCompleteMultiWay is the same check for 3-way joins.
func TestSoundAndCompleteMultiWay(t *testing.T) {
	for seed := int64(4); seed <= 6; seed++ {
		eng, qids, queries, tuples := randomRun(t, Config{}, overlay.DefaultConfig(), seed, 4, 30, 3)
		for i, qid := range qids {
			want := refeval.Evaluate(queries[i], tuples)
			got := answersToRows(eng.Answers(qid))
			if !refeval.EqualBags(got, want) {
				t.Fatalf("seed %d query %d (%s): got %d answers, want %d",
					seed, i, queries[i], len(got), len(want))
			}
		}
	}
}

// TestCompletenessUnderRandomDelays is the Theorem 1 scenario: messages
// take random bounded delays, so tuples can overtake queries; the ALTT
// must repair every such race.
func TestCompletenessUnderRandomDelays(t *testing.T) {
	netCfg := overlay.Config{MinHopDelay: 1, MaxHopDelay: 25}
	for seed := int64(7); seed <= 9; seed++ {
		eng, qids, queries, tuples := randomRun(t, Config{}, netCfg, seed, 4, 30, 2)
		for i, qid := range qids {
			want := refeval.Evaluate(queries[i], tuples)
			got := answersToRows(eng.Answers(qid))
			if !refeval.EqualBags(got, want) {
				t.Fatalf("seed %d query %d: got %d answers, want %d", seed, i, len(got), len(want))
			}
		}
	}
}

// TestDelayedStreamInterleaving publishes tuples without waiting for
// the network to quiesce, so queries, tuples, RIC walks and rewrites
// are all in flight concurrently — then checks exact bag equality.
func TestDelayedStreamInterleaving(t *testing.T) {
	netCfg := overlay.Config{MinHopDelay: 1, MaxHopDelay: 10}
	eng, nodes := testNet(t, 48, 11, Config{}, netCfg)
	wcfg := workload.Config{Relations: 3, Attributes: 3, Values: 3, Theta: 0.9, JoinArity: 2}
	gen := workload.MustGenerator(wcfg, 11)
	rng := rand.New(rand.NewSource(12))

	var qids []string
	var queries []*query.Query
	for i := 0; i < 5; i++ {
		q := gen.Query()
		qid, err := eng.SubmitQuery(nodes[rng.Intn(len(nodes))], q)
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
		q.InsertTime = 0
		queries = append(queries, q)
	}
	var tuples []*relation.Tuple
	for i := 0; i < 30; i++ {
		tu := gen.Tuple()
		eng.PublishTuple(nodes[rng.Intn(len(nodes))], tu)
		// Advance the clock a little without draining, so deliveries
		// interleave with later publications.
		eng.RunUntil(eng.Sim().Now() + 3)
		tuples = append(tuples, tu)
	}
	eng.Run()
	for i, qid := range qids {
		want := refeval.Evaluate(queries[i], tuples)
		got := answersToRows(eng.Answers(qid))
		if !refeval.EqualBags(got, want) {
			t.Fatalf("query %d (%s): got %d answers, want %d", i, queries[i], len(got), len(want))
		}
	}
}

// racedRun submits queries and publishes tuples without draining the
// network in between, so tuples genuinely race their queries through
// the overlay (the Example 1 scenario of Section 4).
func racedRun(t *testing.T, cfg Config, seed int64) (*Engine, []string, []*query.Query, []*relation.Tuple) {
	t.Helper()
	netCfg := overlay.Config{MinHopDelay: 1, MaxHopDelay: 30}
	eng, nodes := testNet(t, 48, seed, cfg, netCfg)
	wcfg := workload.Config{Relations: 3, Attributes: 3, Values: 3, Theta: 0.9, JoinArity: 2}
	gen := workload.MustGenerator(wcfg, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	var qids []string
	var queries []*query.Query
	for i := 0; i < 5; i++ {
		q := gen.Query()
		qid, err := eng.SubmitQuery(nodes[rng.Intn(len(nodes))], q)
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
		q.InsertTime = 0
		queries = append(queries, q)
	}
	var tuples []*relation.Tuple
	for i := 0; i < 25; i++ {
		tu := gen.Tuple()
		eng.PublishTuple(nodes[rng.Intn(len(nodes))], tu)
		tuples = append(tuples, tu)
	}
	eng.Run()
	return eng, qids, queries, tuples
}

// TestALTTRepairsRaces checks Theorem 1 under racing: with the ALTT on,
// nothing is lost even though tuples overtake queries.
func TestALTTRepairsRaces(t *testing.T) {
	for seed := int64(20); seed < 24; seed++ {
		eng, qids, queries, tuples := racedRun(t, Config{}, seed)
		for i, qid := range qids {
			want := refeval.Evaluate(queries[i], tuples)
			got := answersToRows(eng.Answers(qid))
			if !refeval.EqualBags(got, want) {
				t.Fatalf("seed %d query %d (%s): got %d answers, want %d",
					seed, i, queries[i], len(got), len(want))
			}
		}
	}
}

// TestALTTDisabledLosesAnswers demonstrates why the ALTT exists
// (Example 1 of the paper): with the ALTT off, tuples that overtake
// their queries are lost — but never invented (soundness holds).
func TestALTTDisabledLosesAnswers(t *testing.T) {
	lost := 0
	for seed := int64(20); seed < 26; seed++ {
		cfg := Config{}
		cfg.Delta = -1 // disable ALTT
		eng, qids, queries, tuples := racedRun(t, cfg, seed)
		for i, qid := range qids {
			want := refeval.Evaluate(queries[i], tuples)
			got := answersToRows(eng.Answers(qid))
			if !refeval.SubBag(got, want) {
				t.Fatalf("seed %d: unsound answers without ALTT", seed)
			}
			lost += len(want) - len(got)
		}
	}
	if lost == 0 {
		t.Fatal("expected at least one lost answer across seeds with ALTT disabled and racing on")
	}
}

// TestDuplicateExample2 reproduces Example 2: bag semantics delivers
// (1, b) twice; DISTINCT delivers it once.
func TestDuplicateExample2(t *testing.T) {
	run := func(distinct bool) []Answer {
		eng, nodes := testNet(t, 32, 3, Config{}, overlay.DefaultConfig())
		src := "select R.A, S.A from R,S where R.B=S.B"
		if distinct {
			src = "select distinct R.A, S.A from R,S where R.B=S.B"
		}
		q := sqlparse.MustParse(src, testCat)
		qid, _ := eng.SubmitQuery(nodes[0], q)
		eng.Run()
		for _, tu := range []*relation.Tuple{
			mkTuple("R", 1, 2, 3),
			mkTuple("S", 50, 2, 60), // S.A=50 joins R.B=2
			mkTuple("S", 50, 2, 61), // same projection on S.A, S.B
		} {
			eng.PublishTuple(nodes[1], tu)
			eng.Run()
		}
		return eng.Answers(qid)
	}
	bag := run(false)
	if len(bag) != 2 {
		t.Fatalf("bag semantics: %d answers, want 2", len(bag))
	}
	set := run(true)
	if len(set) != 1 {
		t.Fatalf("set semantics: %d answers, want 1", len(set))
	}
	if set[0].Row[0].Int != 1 || set[0].Row[1].Int != 50 {
		t.Fatalf("distinct answer %v", set[0].Row)
	}
}

// TestDistinctMatchesReferenceSet checks DISTINCT equals the reference
// set for random workloads.
func TestDistinctMatchesReferenceSet(t *testing.T) {
	eng, nodes := testNet(t, 48, 13, Config{}, overlay.DefaultConfig())
	wcfg := workload.Config{Relations: 3, Attributes: 3, Values: 3, Theta: 0.9, JoinArity: 2}
	gen := workload.MustGenerator(wcfg, 13)
	rng := rand.New(rand.NewSource(14))
	var qids []string
	var queries []*query.Query
	for i := 0; i < 4; i++ {
		q := gen.Query()
		q.Distinct = true
		qid, err := eng.SubmitQuery(nodes[rng.Intn(len(nodes))], q)
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
		q.InsertTime = 0
		queries = append(queries, q)
	}
	eng.Run()
	var tuples []*relation.Tuple
	for i := 0; i < 40; i++ {
		tu := gen.Tuple()
		eng.PublishTuple(nodes[rng.Intn(len(nodes))], tu)
		eng.Run()
		tuples = append(tuples, tu)
	}
	for i, qid := range qids {
		want := refeval.Distinct(refeval.Evaluate(queries[i], tuples))
		got := answersToRows(eng.Answers(qid))
		if !refeval.EqualBags(got, want) {
			t.Fatalf("query %d (%s): distinct mismatch got %d want %d",
				i, queries[i], len(got), len(want))
		}
	}
}

func answersToRows(ans []Answer) []refeval.Row {
	rows := make([]refeval.Row, len(ans))
	for i, a := range ans {
		rows[i] = refeval.Row(a.Row)
	}
	return rows
}
