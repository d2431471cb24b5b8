package core

import (
	"sort"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/overlay"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sqlparse"
)

// churnNetCfg is the overlay configuration churn runs under: bouncing
// enabled so in-flight messages survive their addressee's departure.
func churnNetCfg() overlay.Config {
	cfg := overlay.DefaultConfig()
	cfg.Bounce = true
	return cfg
}

// answerBag renders the delivered answers of a query as a sorted
// multiset of row strings.
func answerBag(eng *Engine, qid string) []string {
	var rows []string
	for _, a := range eng.Answers(qid) {
		rows = append(rows, refeval.Row(a.Row).Key())
	}
	sort.Strings(rows)
	return rows
}

// expectedBag brute-forces the reference answer bag for q over the
// published tuples.
func expectedBag(t *testing.T, q string, tuples []*relation.Tuple) []string {
	t.Helper()
	parsed := sqlparse.MustParse(q, testCat)
	var rows []string
	for _, r := range refeval.Evaluate(parsed, tuples) {
		rows = append(rows, r.Key())
	}
	sort.Strings(rows)
	return rows
}

func bagsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rewriteHolder returns the node storing the most rewritten (Depth > 0)
// queries, ties broken by identifier so the choice is deterministic.
func rewriteHolder(eng *Engine) *chord.Node {
	var best *chord.Node
	bestCount := 0
	for _, p := range eng.procs {
		c := 0
		for _, list := range p.st.queries {
			for _, sq := range list {
				if sq.q.Depth > 0 {
					c++
				}
			}
		}
		if c > bestCount || (c == bestCount && c > 0 && best != nil && p.node.ID() < best.ID()) {
			best, bestCount = p.node, c
		}
	}
	return best
}

// inputHolder returns a node storing an input (Depth 0) query.
func inputHolder(eng *Engine) *chord.Node {
	var best *chord.Node
	for _, p := range eng.procs {
		for _, list := range p.st.queries {
			for _, sq := range list {
				if sq.q.Depth == 0 && (best == nil || p.node.ID() < best.ID()) {
					best = p.node
				}
			}
		}
	}
	return best
}

// TestGracefulLeaveExactlyOnce is the churn subsystem's completeness
// criterion: tuples are published, the node holding rewritten state is
// removed gracefully mid-stream (with further tuples in flight), and
// every answer the reference evaluator expects is delivered exactly
// once — no loss from the departure, no duplication from the handover.
func TestGracefulLeaveExactlyOnce(t *testing.T) {
	eng, nodes := testNet(t, 48, 3, Config{}, churnNetCfg())
	q := "select R.B, S.B from R,S where R.A=S.A"
	qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(q, testCat))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	var published []*relation.Tuple
	pub := func(i int, tu *relation.Tuple) {
		published = append(published, tu)
		eng.PublishTuple(nodes[i%len(nodes)], tu)
	}
	// First wave: R tuples create rewritten queries stored at S-side
	// keys across the network.
	for i := 0; i < 12; i++ {
		pub(i, mkTuple("R", int64(i%4), int64(i), 0))
	}
	eng.Run()

	victim := rewriteHolder(eng)
	if victim == nil {
		t.Fatal("no node holds rewritten state; workload too weak")
	}

	// Second wave: S tuples race the departure — some are still in
	// flight (addressed to the victim, among others) when it leaves.
	for i := 0; i < 12; i++ {
		pub(i, mkTuple("S", int64(i%4), int64(100+i), 0))
	}
	eng.RunUntil(eng.Sim().Now() + 1) // deliveries now mid-flight
	if err := eng.LeaveNode(victim); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	// Third wave lands after the departure: the handed-over rewritten
	// state must still combine.
	for i := 0; i < 8; i++ {
		pub(i, mkTuple("S", int64(i%4), int64(200+i), 0))
		pub(i+1, mkTuple("R", int64(i%4), int64(300+i), 0))
	}
	eng.Run()

	want := expectedBag(t, q, published)
	got := answerBag(eng, qid)
	if len(want) == 0 {
		t.Fatal("reference produced no answers; workload too weak")
	}
	if !bagsEqual(got, want) {
		t.Fatalf("answers under graceful leave diverged:\ngot  %d rows\nwant %d rows", len(got), len(want))
	}
	if eng.Counters.HandoverMessages == 0 || eng.Counters.HandoverEntries == 0 {
		t.Fatal("leave performed no handover; the test removed an empty node")
	}
	if eng.Counters.RewritesLost != 0 || eng.Counters.TuplesLost != 0 {
		t.Fatalf("graceful leave lost state: %d rewrites, %d tuples",
			eng.Counters.RewritesLost, eng.Counters.TuplesLost)
	}
}

// A sequence of graceful leaves — a third of the ring departing one by
// one between publications — must still deliver the exact reference
// bag.
func TestRepeatedLeavesStayComplete(t *testing.T) {
	eng, nodes := testNet(t, 36, 7, Config{}, churnNetCfg())
	q := "select R.B, S.C from R,S where R.A=S.A and R.C=S.C"
	qid, err := eng.SubmitQuery(nodes[5], sqlparse.MustParse(q, testCat))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	var published []*relation.Tuple
	for round := 0; round < 12; round++ {
		r := mkTuple("R", int64(round%3), int64(round), int64(round%2))
		s := mkTuple("S", int64(round%3), int64(50+round), int64(round%2))
		published = append(published, r, s)
		alive := eng.Ring().Nodes()
		eng.PublishTuple(alive[round%len(alive)], r)
		eng.PublishTuple(alive[(round+1)%len(alive)], s)
		eng.RunUntil(eng.Sim().Now() + 2)
		alive = eng.Ring().Nodes()
		if len(alive) > 24 {
			if err := eng.LeaveNode(alive[(round*5)%len(alive)]); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
	}
	eng.Run()

	want := expectedBag(t, q, published)
	got := answerBag(eng, qid)
	if len(want) == 0 {
		t.Fatal("reference produced no answers")
	}
	if !bagsEqual(got, want) {
		t.Fatalf("answers diverged after repeated leaves: got %d rows, want %d", len(got), len(want))
	}
}

// CrashNode drops state, but input queries are re-indexed from their
// owner's side with identity and insertion time preserved: tuples
// published after the crash still produce their answers.
func TestCrashRecoversInputQueries(t *testing.T) {
	eng, nodes := testNet(t, 48, 11, Config{}, churnNetCfg())
	q := "select R.B, S.B from R,S where R.A=S.A"
	qid, err := eng.SubmitQuery(nodes[2], sqlparse.MustParse(q, testCat))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	victim := inputHolder(eng)
	if victim == nil {
		t.Fatal("input query not stored anywhere")
	}
	if err := eng.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	eng.Run() // recovery re-submission lands

	if eng.Counters.QueriesRecovered == 0 {
		t.Fatal("crash of the input query's home triggered no recovery")
	}

	var published []*relation.Tuple
	for i := 0; i < 10; i++ {
		r := mkTuple("R", int64(i%3), int64(i), 0)
		s := mkTuple("S", int64(i%3), int64(40+i), 0)
		published = append(published, r, s)
		alive := eng.Ring().Nodes()
		eng.PublishTuple(alive[i%len(alive)], r)
		eng.PublishTuple(alive[(i+3)%len(alive)], s)
		eng.Run()
	}

	want := expectedBag(t, q, published)
	got := answerBag(eng, qid)
	if len(want) == 0 {
		t.Fatal("reference produced no answers")
	}
	if !bagsEqual(got, want) {
		t.Fatalf("post-crash answers diverged: got %d rows, want %d", len(got), len(want))
	}
}

// A crash that takes rewritten state down loses exactly the answers
// that state would have produced — and the loss is visible in the
// counters, not silent.
func TestCrashCountsLostState(t *testing.T) {
	eng, nodes := testNet(t, 48, 13, Config{}, churnNetCfg())
	_, err := eng.SubmitQuery(nodes[1], sqlparse.MustParse(
		"select R.B, S.B from R,S where R.A=S.A", testCat))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i := 0; i < 16; i++ {
		eng.PublishTuple(nodes[i%len(nodes)], mkTuple("R", int64(i%4), int64(i), 0))
	}
	eng.Run()
	victim := rewriteHolder(eng)
	if victim == nil {
		t.Fatal("no rewritten state to crash")
	}
	if err := eng.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	if eng.Counters.RewritesLost == 0 {
		t.Fatal("crash dropped rewritten state without counting it")
	}
}

// TestLeaveWithNoSuccessorCountsLoss: the last node leaves; there is
// nobody to hand to, so everything it holds is charged to the loss
// counters — except entries of a retired pipeline, which nobody is
// waiting for and which CrashNode skips as well.
func TestLeaveWithNoSuccessorCountsLoss(t *testing.T) {
	eng, nodes := testNet(t, 1, 3, Config{}, churnNetCfg())
	var qids []string
	for i := 0; i < 2; i++ {
		qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(
			"select R.B, S.B from R,S where R.A=S.A", testCat))
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
	}
	eng.Run()
	for i := 0; i < 4; i++ {
		eng.PublishTuple(nodes[0], mkTuple("R", int64(i), int64(i), 0))
	}
	eng.Run()
	st := eng.procs[nodes[0].ID()].st
	c := st.counts()
	retired := 0
	eng.retiredQ[qids[1]] = true // tombstoned, its stored copies not yet swept
	for _, list := range st.queries {
		for _, sq := range list {
			if sq.q.ID == qids[1] {
				retired++
			}
		}
	}
	if retired == 0 || retired == c.queries || c.tuples == 0 {
		t.Fatalf("workload too weak: %d of %d stored queries retired, %d tuples", retired, c.queries, c.tuples)
	}
	if err := eng.LeaveNode(nodes[0]); err != nil {
		t.Fatal(err)
	}
	if got := eng.Counters.QueriesLost + eng.Counters.RewritesLost; got != int64(c.queries-retired) {
		t.Fatalf("leave with no successor charged %d queries, want %d (retired pipeline skipped)", got, c.queries-retired)
	}
	if got := eng.Counters.TuplesLost; got != int64(c.tuples+c.altt) {
		t.Fatalf("leave with no successor charged %d tuples, want %d", got, c.tuples+c.altt)
	}
}

// JoinNode splits an existing node's arc: the stored state in the new
// arc moves to the joiner, and a workload spanning the join stays
// exactly-once.
func TestJoinNodeTakesOverArc(t *testing.T) {
	eng, nodes := testNet(t, 32, 17, Config{}, churnNetCfg())
	q := "select R.B, S.B from R,S where R.A=S.A"
	qid, err := eng.SubmitQuery(nodes[4], sqlparse.MustParse(q, testCat))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	var published []*relation.Tuple
	for i := 0; i < 10; i++ {
		r := mkTuple("R", int64(i%3), int64(i), 0)
		published = append(published, r)
		eng.PublishTuple(nodes[i%len(nodes)], r)
	}
	eng.Run()

	// Join directly on top of a stored rewritten query's key, so the
	// new node must take over that query to stay complete.
	holder := rewriteHolder(eng)
	if holder == nil {
		t.Fatal("no rewritten state stored")
	}
	hp := eng.procs[holder.ID()]
	var targetKey relation.Key
	for _, key := range sortedStateKeys(hp.st.queries) {
		for _, sq := range hp.st.queries[key] {
			if sq.q.Depth > 0 {
				targetKey = key
			}
		}
	}
	if targetKey.IsZero() {
		t.Fatal("holder has no rewritten key")
	}
	joined, err := eng.JoinNode(targetKey.ID())
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	jp := eng.procs[joined.ID()]
	if len(jp.st.queries[targetKey]) == 0 {
		t.Fatal("joined node did not receive the stored queries of its arc")
	}

	for i := 0; i < 10; i++ {
		s := mkTuple("S", int64(i%3), int64(70+i), 0)
		published = append(published, s)
		alive := eng.Ring().Nodes()
		eng.PublishTuple(alive[i%len(alive)], s)
		eng.Run()
	}

	want := expectedBag(t, q, published)
	got := answerBag(eng, qid)
	if len(want) == 0 {
		t.Fatal("reference produced no answers")
	}
	if !bagsEqual(got, want) {
		t.Fatalf("answers diverged across a runtime join: got %d rows, want %d", len(got), len(want))
	}
}
