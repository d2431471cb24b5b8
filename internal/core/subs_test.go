package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rjoin/internal/agg"
	"rjoin/internal/chord"
	"rjoin/internal/obs"
	"rjoin/internal/overlay"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sqlparse"
)

// subsQueries is the pool the subscriber-side tests draw from: plain,
// DISTINCT and GROUP BY queries, several per join graph so that a
// sharing engine attaches most of them to a pipeline it already runs —
// exact duplicates, a permuted form, a selection residual and a
// containment child included.
var subsQueries = []string{
	"select R.B, S.B from R,S where R.A=S.A",
	"select S.C, R.C from S,R where S.A=R.A",
	"select R.B from R,S where R.A=S.A and R.B=1",
	"select R.B, J.C from R,S,J where R.A=S.A and S.B=J.B",
	"select distinct R.A, S.B from R,S where R.A=S.A",
	"select distinct S.B from S,R where S.A=R.A",
	"select R.A, count(*), sum(S.B) from R,S where R.A=S.A group by R.A",
	"select S.B, count(*), max(R.C) from R,S where R.A=S.A group by S.B",
}

// subsEngine builds a small engine for the subscriber-side tests.
func subsEngine(t *testing.T, seed int64, workers int, sharing bool, metrics bool) (*Engine, []*chord.Node) {
	cfg := Config{}
	cfg.ShareExact = true
	cfg.ShareQueries = sharing
	cfg.Catalog = testCat
	netCfg := overlay.DefaultConfig()
	if metrics {
		cfg.Obs = obs.NewRecorder(obs.Views{Metrics: obs.NewMetrics(0)})
		netCfg.Obs = cfg.Obs
	}
	return lossyNet(t, 24, seed, workers, cfg, netCfg)
}

// checkSubscription compares one live subscription with the reference
// evaluation of its query over everything published: bag = refeval (set
// for DISTINCT), view = agg.Reference.
func checkSubscription(t *testing.T, label string, eng *Engine, qid string, published []*relation.Tuple) {
	t.Helper()
	q := eng.sub(qid).q
	if q.IsAggregate() {
		rows, clocks := refeval.EvaluateSpanClocked(q, published)
		vals := make([][]relation.Value, len(rows))
		for i, r := range rows {
			vals[i] = r
		}
		want, got := agg.Reference(q, vals, clocks), eng.AggRows(qid)
		if len(got) != len(want) {
			t.Fatalf("%s: %s: view has %d rows, reference %d", label, q, len(got), len(want))
		}
		for i := range want {
			if got[i].Group != want[i].Group || got[i].Epoch != want[i].Epoch ||
				!refeval.EqualBags([]refeval.Row{got[i].Row}, []refeval.Row{want[i].Row}) {
				t.Fatalf("%s: %s: view row %d is %v, reference %v", label, q, i, got[i], want[i])
			}
		}
		if n := len(eng.Answers(qid)); n != 0 {
			t.Fatalf("%s: %s: aggregate query holds %d raw rows", label, q, n)
		}
		return
	}
	want := refeval.Evaluate(q, published)
	if q.Distinct {
		want = refeval.Distinct(want)
	}
	if got := answersToRows(eng.Answers(qid)); !refeval.EqualBags(got, want) {
		t.Fatalf("%s: %s: delivered %d rows, reference %d", label, q, len(got), len(want))
	}
}

// TestSubsRandomScripts is the subscriber side's one property: whatever
// script of subscribe / publish / Run / unsubscribe runs, every live
// subscription holds exactly its reference answers, the delivery counter
// accounts for every row held or discarded, the engine retains one
// record per submission with contents only on the live ones, and a row
// arriving for a retired query changes nothing.
func TestSubsRandomScripts(t *testing.T) {
	var sumHeld, sumDiscarded, sumShared int64
	for _, workers := range []int{1, 2} {
		for seed := int64(1); seed <= 40; seed++ {
			sharing := seed%2 == 0
			label := fmt.Sprintf("workers %d seed %d sharing %v", workers, seed, sharing)
			eng, nodes := subsEngine(t, seed, workers, sharing, false)
			rng := rand.New(rand.NewSource(seed))
			node := func() *chord.Node { return nodes[rng.Intn(len(nodes))] }
			var live, gone []string
			var published []*relation.Tuple
			var discarded int64
			for step := 0; step < 60; step++ {
				switch r := rng.Intn(10); {
				case r < 2:
					q := sqlparse.MustParse(subsQueries[rng.Intn(len(subsQueries))], testCat)
					qid, err := eng.SubmitQuery(node(), q)
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, qid)
				case r < 7:
					tu := mkTuple([]string{"R", "S", "J"}[rng.Intn(3)], int64(rng.Intn(3)), int64(rng.Intn(3)), int64(rng.Intn(3)))
					eng.PublishTuple(node(), tu)
					published = append(published, tu)
				case r < 9:
					eng.Run()
					checkNothingWaits(t, eng)
				case len(live) > 0:
					i := rng.Intn(len(live))
					discarded += int64(len(eng.Answers(live[i])))
					if err := eng.Unsubscribe(live[i]); err != nil {
						t.Fatal(err)
					}
					gone = append(gone, live[i])
					live = append(live[:i], live[i+1:]...)
				}
			}
			eng.Run()
			checkNothingWaits(t, eng)

			var held int64
			for _, qid := range live {
				checkSubscription(t, label, eng, qid, published)
				held += int64(len(eng.Answers(qid)))
			}
			eng.Sync()
			if got := eng.Counters.AnswersDelivered; got != held+discarded {
				t.Fatalf("%s: %d answers delivered, %d held + %d discarded", label, got, held, discarded)
			}
			before, ctr := eng.subsFootprint(), eng.Counters
			if before.live != len(live) || before.retired != len(gone) {
				t.Fatalf("%s: footprint %+v, want %d live and %d retired", label, before, len(live), len(gone))
			}
			for _, qid := range gone {
				p := eng.procs[nodes[0].ID()]
				row := []relation.Value{relation.Int64(1), relation.Int64(2), relation.Int64(3)}
				eng.recordAnswer(eng.sim.Now(), &answerMsg{QueryID: qid, Values: row}, p)
				eng.recordAggUpdate(eng.sim.Now(), &aggUpdateMsg{QueryID: qid, Group: "g", Row: row}, p)
				if len(eng.Answers(qid))+len(eng.AggRows(qid)) != 0 {
					t.Fatalf("%s: retired %s serves rows", label, qid)
				}
			}
			eng.Sync()
			if after := eng.subsFootprint(); after != before || eng.Counters != ctr {
				t.Fatalf("%s: rows for retired queries changed the engine: footprint %+v -> %+v", label, before, after)
			}
			sumHeld, sumDiscarded, sumShared = sumHeld+held, sumDiscarded+discarded, sumShared+ctr.QueriesShared
		}
	}
	if sumHeld == 0 || sumDiscarded == 0 || sumShared == 0 {
		t.Fatalf("scripts too weak: %d rows held, %d discarded, %d shared submissions", sumHeld, sumDiscarded, sumShared)
	}
}

// TestSubsReleaseOnUnsubscribe: subscribe → publish → unsubscribe, 200
// times with metrics on, leaves 200 retired records holding nothing but
// their immutable query and spec — no rows, view, DISTINCT set or
// histogram — and no aggregate subscription counted live.
func TestSubsReleaseOnUnsubscribe(t *testing.T) {
	eng, nodes := subsEngine(t, 5, 1, true, true)
	for round := 0; round < 200; round++ {
		sql := subsQueries[round%len(subsQueries)]
		qid, err := eng.SubmitQuery(nodes[round%len(nodes)], sqlparse.MustParse(sql, testCat))
		if err != nil {
			t.Fatal(err)
		}
		eng.PublishTuple(nodes[(round+1)%len(nodes)], mkTuple("R", 1, 1, int64(round)))
		eng.PublishTuple(nodes[(round+2)%len(nodes)], mkTuple("S", 1, 1, int64(round%3)))
		eng.PublishTuple(nodes[(round+3)%len(nodes)], mkTuple("J", 0, 1, 0))
		eng.Run()
		if f := eng.subsFootprint(); f.live != 1 || f.rows == 0 || f.aux == 0 {
			t.Fatalf("round %d (%s): live subscription retains %+v; workload too weak", round, sql, f)
		}
		if eng.QueryLatency(qid).Count == 0 {
			t.Fatalf("round %d (%s): no latency observed", round, sql)
		}
		if err := eng.Unsubscribe(qid); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if f := eng.subsFootprint(); f != (subsFootprint{retired: 200}) {
		t.Fatalf("footprint after 200 rounds: %+v, want 200 retired records and nothing else", f)
	}
	if eng.aggLive != 0 {
		t.Fatalf("%d aggregate subscriptions still counted live", eng.aggLive)
	}
	for qid, s := range eng.subs {
		if s.q == nil || (s.spec != nil) != s.q.IsAggregate() {
			t.Fatalf("retired %s lost its query or spec", qid)
		}
		if eng.QueryLatency(qid).Count != 0 {
			t.Fatalf("retired %s still has a latency histogram", qid)
		}
	}
}
