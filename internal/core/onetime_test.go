package core

import (
	"math/rand"
	"testing"

	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sqlparse"
	"rjoin/internal/workload"
)

// TestOneTimeQuerySnapshot: a one-time query returns exactly the
// answers derivable from tuples published before submission and ignores
// everything after.
func TestOneTimeQuerySnapshot(t *testing.T) {
	cfg := Config{}
	cfg.Delta = 1 << 40 // Δ = "infinity": retain attribute-level history
	eng, nodes := testNet(t, 48, 140, cfg, overlay.DefaultConfig())

	var tuples []*relation.Tuple
	pub := func(tu *relation.Tuple) {
		eng.PublishTuple(nodes[1], tu)
		eng.Run()
		tuples = append(tuples, tu)
	}
	pub(mkTuple("R", 1, 10, 0))
	pub(mkTuple("S", 1, 20, 0))
	pub(mkTuple("R", 2, 11, 0))
	pub(mkTuple("S", 2, 21, 0))

	q := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A once", testCat)
	qid, err := eng.SubmitQuery(nodes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	q.InsertTime = int64(eng.Sim().Now())
	eng.Run()

	// Post-submission tuples must not extend the result.
	pub(mkTuple("R", 3, 12, 0))
	pub(mkTuple("S", 3, 22, 0))

	want := refeval.Evaluate(q, tuples) // respects OneTime snapshot semantics
	got := answersToRows(eng.Answers(qid))
	if len(want) != 2 {
		t.Fatalf("reference should have 2 snapshot answers, got %d", len(want))
	}
	if !refeval.EqualBags(got, want) {
		t.Fatalf("snapshot mismatch: got %v want %v",
			refeval.SortedKeys(got), refeval.SortedKeys(want))
	}
}

// TestOneTimeRandomWorkload compares one-time answers against the
// reference for random multi-way workloads.
func TestOneTimeRandomWorkload(t *testing.T) {
	cfg := Config{}
	cfg.Delta = 1 << 40
	for seed := int64(141); seed < 144; seed++ {
		eng, nodes := testNet(t, 48, seed, cfg, overlay.DefaultConfig())
		wcfg := workload.Config{Relations: 3, Attributes: 3, Values: 3, Theta: 0.9, JoinArity: 3}
		gen := workload.MustGenerator(wcfg, seed)
		rng := rand.New(rand.NewSource(seed + 9))
		var tuples []*relation.Tuple
		for i := 0; i < 30; i++ {
			tu := gen.Tuple()
			eng.PublishTuple(nodes[rng.Intn(len(nodes))], tu)
			eng.Run()
			tuples = append(tuples, tu)
		}
		var qids []string
		var queries []*query.Query
		for i := 0; i < 4; i++ {
			q := gen.Query()
			q.OneTime = true
			qid, err := eng.SubmitQuery(nodes[rng.Intn(len(nodes))], q)
			if err != nil {
				t.Fatal(err)
			}
			q.InsertTime = int64(eng.Sim().Now())
			qids = append(qids, qid)
			queries = append(queries, q)
		}
		eng.Run()
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

// TestOneTimeKeepsNoState: after a one-time query resolves, no standing
// query state remains anywhere.
func TestOneTimeKeepsNoState(t *testing.T) {
	cfg := Config{}
	cfg.Delta = 1 << 40
	eng, nodes := testNet(t, 32, 145, cfg, overlay.DefaultConfig())
	eng.PublishTuple(nodes[1], mkTuple("R", 1, 10, 0))
	eng.Run()
	before, _, _ := eng.StoredState()
	q := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A once", testCat)
	if _, err := eng.SubmitQuery(nodes[0], q); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	after, _, _ := eng.StoredState()
	if after != before {
		t.Fatalf("one-time query left standing state: %d -> %d stored queries", before, after)
	}
}

// TestOneTimeBoundedByDelta: with a small Δ, attribute-level history is
// gone and a one-time query anchored there sees only a partial (but
// sound) snapshot.
func TestOneTimeBoundedByDelta(t *testing.T) {
	cfg := Config{}
	cfg.Delta = 10 // tiny retention
	eng, nodes := testNet(t, 32, 146, cfg, overlay.DefaultConfig())
	var tuples []*relation.Tuple
	tu1 := mkTuple("R", 1, 10, 0)
	eng.PublishTuple(nodes[1], tu1)
	eng.Run()
	tuples = append(tuples, tu1)
	tu2 := mkTuple("S", 1, 20, 0)
	eng.PublishTuple(nodes[1], tu2)
	eng.Run()
	tuples = append(tuples, tu2)
	eng.RunUntil(eng.Sim().Now() + 10_000) // let the ALTT expire

	q := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A once", testCat)
	qid, _ := eng.SubmitQuery(nodes[0], q)
	q.InsertTime = int64(eng.Sim().Now())
	eng.Run()
	want := refeval.Evaluate(q, tuples)
	got := answersToRows(eng.Answers(qid))
	if !refeval.SubBag(got, want) {
		t.Fatal("unsound one-time answers")
	}
	if len(got) >= len(want) {
		t.Fatalf("expected partial snapshot with tiny Delta: got %d of %d", len(got), len(want))
	}
}

// TestOneTimeSQLRoundTrip: the ONCE keyword parses and renders.
func TestOneTimeSQLRoundTrip(t *testing.T) {
	q := sqlparse.MustParse("select R.A from R,S where R.A=S.A once", testCat)
	if !q.OneTime {
		t.Fatal("ONCE not parsed")
	}
	q2 := sqlparse.MustParse(q.String(), testCat)
	if !q2.OneTime {
		t.Fatalf("ONCE lost in round trip: %q", q.String())
	}
	if _, err := sqlparse.Parse(
		"select R.A from R,S where R.A=S.A once within 5 tuples", testCat); err == nil {
		t.Fatal("one-time window query accepted")
	}
}
