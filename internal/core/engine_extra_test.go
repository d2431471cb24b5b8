package core

import (
	"strings"
	"testing"

	"rjoin/internal/id"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
)

// TestSweepALTTRemovesExpired: ALTT entries past Δ leave at the first
// quiescent Run past it, each counted once, and not before — RunUntil
// does not move the horizon. SweepALTT finds nothing left to do.
func TestSweepALTTRemovesExpired(t *testing.T) {
	cfg := Config{}
	cfg.Delta = 50
	eng, nodes := testNet(t, 32, 100, cfg, overlay.DefaultConfig())
	eng.PublishTuple(nodes[0], mkTuple("R", 1, 2, 3))
	eng.Run()
	_, _, altt := eng.StoredState()
	if altt == 0 {
		t.Fatal("no ALTT entries after publication")
	}
	eng.RunUntil(eng.Sim().Now() + 1000) // far past Delta
	if _, _, live := eng.StoredState(); live != altt {
		t.Fatalf("RunUntil dropped %d of %d ALTT entries", altt-live, altt)
	}
	eng.Run()
	if _, _, after := eng.StoredState(); after != 0 {
		t.Fatalf("%d ALTT entries survive the first Run past Delta", after)
	}
	eng.SweepALTT()
	if got := eng.Counters.ALTTExpired; got != int64(altt) {
		t.Fatalf("%d ALTT entries expired, counted %d", altt, got)
	}
}

func TestResetMetricsClearsEverything(t *testing.T) {
	eng, nodes := testNet(t, 32, 101, Config{}, overlay.DefaultConfig())
	q := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat)
	if _, err := eng.SubmitQuery(nodes[0], q); err != nil {
		t.Fatal(err)
	}
	eng.PublishTuple(nodes[1], mkTuple("R", 1, 2, 3))
	eng.Run()
	if qpl, _ := eng.Load(); qpl == 0 || eng.Net().MessagesSent == 0 {
		t.Fatal("no load before reset")
	}
	eng.ResetMetrics()
	if qpl, sl := eng.Load(); qpl != 0 || sl != 0 {
		t.Fatal("load metrics survive reset")
	}
	if eng.Net().MessagesSent != 0 || eng.Net().ByTag[overlay.TagRIC] != 0 {
		t.Fatal("traffic survives reset")
	}
	if eng.Counters != (Counters{}) {
		t.Fatalf("counters survive reset: %+v", eng.Counters)
	}
	// Stored state must survive: the query still answers.
	queries, _, _ := eng.StoredState()
	if queries == 0 {
		t.Fatal("stored queries lost by metric reset")
	}
}

func TestDeltaAccessorAndAuto(t *testing.T) {
	eng, _ := testNet(t, 32, 102, Config{}, overlay.DefaultConfig())
	if eng.Delta() <= 0 {
		t.Fatalf("auto delta = %d", eng.Delta())
	}
	cfg := Config{}
	cfg.Delta = 123
	eng2, _ := testNet(t, 32, 103, cfg, overlay.DefaultConfig())
	if eng2.Delta() != 123 {
		t.Fatalf("explicit delta = %d", eng2.Delta())
	}
}

func TestTotalAnswersAndProcAccessor(t *testing.T) {
	eng, nodes := testNet(t, 32, 104, Config{}, overlay.DefaultConfig())
	if eng.Proc(nodes[0]) == nil {
		t.Fatal("Proc accessor nil")
	}
	q := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat)
	qid, _ := eng.SubmitQuery(nodes[0], q)
	eng.Run()
	eng.PublishTuple(nodes[1], mkTuple("R", 1, 2, 3))
	eng.PublishTuple(nodes[1], mkTuple("S", 1, 9, 3))
	eng.Run()
	eng.Sync()
	if got := eng.Counters.AnswersDelivered; got != 1 || len(eng.Answers(qid)) != 1 {
		t.Fatalf("answers: total=%d", got)
	}
}

func TestMoveNodeTransfersState(t *testing.T) {
	eng, nodes := testNet(t, 48, 105, Config{}, overlay.DefaultConfig())
	q := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat)
	qid, _ := eng.SubmitQuery(nodes[0], q)
	eng.Run()
	q.InsertTime = 0
	var tuples []*relation.Tuple
	pub := func(tu *relation.Tuple) {
		eng.PublishTuple(nodes[1], tu)
		eng.Run()
		tuples = append(tuples, tu)
	}
	pub(mkTuple("R", 1, 10, 0))
	// Move a non-owner node across the ring mid-run; stored state must
	// follow ownership and the join must still complete.
	victim := nodes[7]
	if victim == nodes[0] {
		victim = nodes[8]
	}
	if _, err := eng.MoveNode(victim, victim.ID()+1<<60); err != nil {
		t.Fatal(err)
	}
	pub(mkTuple("S", 1, 20, 0))
	want := refeval.Evaluate(q, tuples)
	got := answersToRows(eng.Answers(qid))
	if !refeval.EqualBags(got, want) {
		t.Fatalf("answers after MoveNode: got %d want %d", len(got), len(want))
	}
}

// TestMoveNodeRebindsShard: a moved processor must run and count where
// its new identifier lives. The mover joins as a
// fresh Proc, and newProc derives every shard-dependent field.
func TestMoveNodeRebindsShard(t *testing.T) {
	eng, nodes := lossyNet(t, 48, 131, 2, Config{}, overlay.DefaultConfig())
	changed := 0
	for i := 0; i < 20; i++ {
		old := nodes[1+i]
		nn, err := eng.MoveNode(old, old.ID()+1<<60+id.ID(1+i))
		if err != nil {
			t.Fatal(err)
		}
		p := eng.Proc(nn)
		want := sim.ShardOfID(uint64(nn.ID()))
		if want != sim.ShardOfID(uint64(old.ID())) {
			changed++
		}
		if slot := &eng.slots[want]; p.node != nn || p.shard != want || p.ctr != &slot.ctr || p.ld != eng.loads[nn.ID()] {
			t.Fatalf("move %d: proc of %s still bound to shard %d, its identifier lives on %d", i, nn.ID(), p.shard, want)
		}
	}
	if changed == 0 {
		t.Fatal("no move changed shard; the test has no teeth")
	}
}

// TestMoveNodeParallelExact: identifier movement followed by a parallel
// stream. Under -race this is the test that catches a moved processor
// counting into another shard's slots; without it, it pins that the
// answer bag stays refeval-exact across the moves.
func TestMoveNodeParallelExact(t *testing.T) {
	eng, nodes := lossyNet(t, 48, 132, 4, Config{}, overlay.DefaultConfig())
	q := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat)
	qid, err := eng.SubmitQuery(nodes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	q.InsertTime = 0
	rng := sim.NewRNG(132, 0, 1)
	for i := 0; i < 40; i++ {
		alive := eng.Ring().Nodes()
		n := alive[rng.Intn(len(alive))]
		if n == nodes[0] {
			continue // the subscriber keeps its handle
		}
		if _, err := eng.MoveNode(n, id.ID(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	var tuples []*relation.Tuple
	for burst := 0; burst < 30; burst++ {
		alive := eng.Ring().Nodes()
		for i := 0; i < 20; i++ {
			tu := mkTuple([]string{"R", "S"}[rng.Intn(2)], int64(rng.Intn(20)), int64(len(tuples)), 0)
			tuples = append(tuples, tu)
			eng.PublishTuple(alive[rng.Intn(len(alive))], tu)
		}
		eng.Run()
	}
	want := refeval.Evaluate(q, tuples)
	if got := answersToRows(eng.Answers(qid)); len(want) == 0 || !refeval.EqualBags(got, want) {
		t.Fatalf("answers after 40 moves: got %d want %d", len(got), len(want))
	}
}

// TestMoveNodeOccupiedTarget: a move onto a live identifier is refused
// before anything changes. It used to fail after the mover had left the
// ring, taking its state with it uncounted.
func TestMoveNodeOccupiedTarget(t *testing.T) {
	eng, nodes := testNet(t, 48, 105, Config{}, overlay.DefaultConfig())
	if _, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i := 0; i < 40; i++ {
		eng.PublishTuple(nodes[1], mkTuple("R", int64(i%4), int64(i), 0))
		eng.PublishTuple(nodes[2], mkTuple("S", int64(i%4), int64(i), 0))
		eng.Run()
	}
	mover := rewriteHolder(eng)
	if mover == nil {
		t.Fatal("no rewritten state stored")
	}
	q, tu, altt := eng.StoredState()
	if nn, err := eng.MoveNode(mover, nodes[3].ID()); err == nil || nn != nil {
		t.Fatalf("MoveNode onto a live identifier returned (%v, %v), want an error", nn, err)
	}
	if !mover.Alive() || eng.Proc(mover) == nil || eng.Ring().Size() != 48 {
		t.Fatalf("the refused move changed membership: mover alive %v, ring size %d", mover.Alive(), eng.Ring().Size())
	}
	if q2, tu2, altt2 := eng.StoredState(); q2 != q || tu2 != tu || altt2 != altt {
		t.Fatalf("the refused move changed stored state: %d/%d/%d -> %d/%d/%d", q, tu, altt, q2, tu2, altt2)
	}
}

func TestMoveNodeUnknownNode(t *testing.T) {
	eng, _ := testNet(t, 8, 106, Config{}, overlay.DefaultConfig())
	other, _ := testNet(t, 8, 107, Config{}, overlay.DefaultConfig())
	foreign := other.Ring().Nodes()[0]
	if _, err := eng.MoveNode(foreign, 42); err == nil {
		t.Fatal("moving a foreign node succeeded")
	}
}

func TestSubmitQueryValidation(t *testing.T) {
	eng, nodes := testNet(t, 8, 110, Config{}, overlay.DefaultConfig())
	if _, err := eng.SubmitQuery(nodes[0], &query.Query{}); err == nil {
		t.Fatal("empty query accepted")
	}
	other, _ := testNet(t, 8, 111, Config{}, overlay.DefaultConfig())
	foreign := other.Ring().Nodes()[0]
	q := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat)
	if _, err := eng.SubmitQuery(foreign, q); err == nil {
		t.Fatal("foreign owner accepted")
	}
}

// TestTupleGCRejectsQueriesItCannotServe: under TupleGC a stored tuple
// dies 2·MaxWindowHint−1 clock values after its publication, so
// SubmitQuery refuses, naming the setting, every query that could still
// need it later: one with no window, one wider than the hint, a one-time
// query (it reads the stored snapshot), and any query at all when the
// hint is not positive. A window within the hint passes.
func TestTupleGCRejectsQueriesItCannotServe(t *testing.T) {
	for _, c := range []struct {
		name  string
		hint  int64
		sql   string
		names string // "" when accepted
	}{
		{"no window", 8, "select R.B, S.B from R,S where R.A=S.A", "TupleGC"},
		{"window wider than the hint", 8, "select R.B, S.B from R,S where R.A=S.A within 9 tuples", "MaxWindowHint"},
		{"one-time", 8, "select R.B, S.B from R,S where R.A=S.A within 8 tuples", "TupleGC"},
		{"hint not positive", 0, "select R.B, S.B from R,S where R.A=S.A within 8 ticks", "MaxWindowHint"},
		{"window within the hint", 8, "select R.B, S.B from R,S where R.A=S.A within 8 ticks tumbling", ""},
	} {
		cfg := Config{}
		cfg.TupleGC, cfg.MaxWindowHint = true, c.hint
		eng, nodes := testNet(t, 8, 112, cfg, overlay.DefaultConfig())
		q := sqlparse.MustParse(c.sql, testCat)
		q.OneTime = c.name == "one-time"
		_, err := eng.SubmitQuery(nodes[0], q)
		switch {
		case c.names == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.names != "" && (err == nil || !strings.Contains(err.Error(), c.names)):
			t.Errorf("%s: got error %v, want one naming %s", c.name, err, c.names)
		}
	}
}

func TestStrategyStringer(t *testing.T) {
	if StrategyRIC.String() != "RJoin" || StrategyRandom.String() != "Random" ||
		StrategyWorst.String() != "Worst" || Strategy(99).String() != "unknown" {
		t.Fatal("Strategy.String wrong")
	}
}

// TestIdleRunAllocatesNothing pins what Run costs when there is nothing
// to do: with thousands of live aggregator groups, with a zero-rate
// fault plan after a thousand (sender, receiver) pairs have carried
// traffic (each with an ack window on record), and with windowed groups
// and candidate-table entries filed to die later, a Run on the
// quiescent engine allocates nothing and moves neither the clock, the
// counters nor the traffic metric.
func TestIdleRunAllocatesNothing(t *testing.T) {
	pinIdle := func(t *testing.T, eng *Engine) {
		t.Helper()
		eng.Run()
		now, ctr, sent := eng.Sim().Now(), eng.Counters, eng.Net().MessagesSent
		if allocs := testing.AllocsPerRun(100, eng.Run); allocs != 0 {
			t.Fatalf("an idle Run allocates %v times", allocs)
		}
		if eng.Sim().Now() != now || eng.Counters != ctr || eng.Net().MessagesSent != sent {
			t.Fatalf("idle Runs moved the engine: clock %d→%d, messages %d→%d, counters %+v → %+v",
				now, eng.Sim().Now(), sent, eng.Net().MessagesSent, ctr, eng.Counters)
		}
	}

	t.Run("aggregator groups", func(t *testing.T) {
		eng, nodes := testNet(t, 64, 7, Config{}, overlay.DefaultConfig())
		_, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(
			"select R.B, count(*) from R,S where R.A=S.A group by R.B", testCat))
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		eng.PublishTuple(nodes[1], mkTuple("S", 1, 0, 0))
		for i := 0; i < 2000; i++ { // one group per R.B value
			eng.PublishTuple(nodes[i%len(nodes)], mkTuple("R", 1, int64(i), 0))
			if i%50 == 49 {
				eng.Run()
			}
		}
		eng.Run()
		groups := 0
		for _, p := range eng.procs {
			groups += len(p.st.aggs)
		}
		if groups < 2000 {
			t.Fatalf("only %d aggregator groups are live; workload too weak", groups)
		}
		pinIdle(t, eng)
	})

	t.Run("reliable channels", func(t *testing.T) {
		eng, nodes := lossyNet(t, 64, 7, 0, Config{}, lossyNetCfg(&overlay.Faults{}))
		// A tuple message that arrives at a node other than its publisher
		// was drawn on the (publisher → node) pair.
		channels := make(map[[2]id.ID]bool)
		for _, p := range eng.procs {
			at := p.node.ID()
			eng.net.Attach(p.node, overlay.HandlerFunc(func(now sim.Time, msg overlay.Message) {
				if m, ok := msg.(*tupleMsg); ok && m.Publisher != at {
					channels[[2]id.ID{m.Publisher, at}] = true
				}
				p.HandleMessage(now, msg)
			}))
		}
		for i := 0; i < 1600; i++ {
			eng.PublishTuple(nodes[i%len(nodes)], mkTuple("R", int64(i), int64(7*i), int64(13*i)))
			if i%16 == 15 {
				eng.Run()
			}
		}
		if len(channels) < 1000 {
			t.Fatalf("only %d channels carried traffic; workload too weak", len(channels))
		}
		pinIdle(t, eng)
	})

	t.Run("soft-state deaths", func(t *testing.T) {
		// Windowed groups whose epochs died and left them empty, epochs and
		// candidate-table entries filed to die later: an idle Run finds
		// nothing due.
		eng, nodes := testNet(t, 64, 7, Config{}, overlay.DefaultConfig())
		_, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(
			"select R.B, count(*) from R,S where R.A=S.A group by R.B within 8 tuples tumbling", testCat))
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		for i := 0; i < 401; i++ { // the last pair opens epoch 100
			eng.PublishTuple(nodes[i%len(nodes)], mkTuple("S", int64(i%5), 0, 0))
			eng.PublishTuple(nodes[(i+1)%len(nodes)], mkTuple("R", int64(i%5), int64(i%50), 0))
			eng.Run()
		}
		var groups, empty, ct int
		for _, p := range eng.procs {
			for _, g := range p.st.aggs {
				groups++
				if len(g.epochs) == 0 {
					empty++
				}
			}
			ct += len(p.st.ct.entries)
		}
		if empty == 0 || empty == groups || ct == 0 {
			t.Fatalf("%d of %d groups empty, %d table entries; workload too weak", empty, groups, ct)
		}
		checkNothingDead(t, eng)
		pinIdle(t, eng)
	})
}

// TestContradictoryRewriteIsNotPlaced: a tuple whose bound value
// contradicts a selection its join carries over rewrites the query into
// one no tuple can complete — R.A = 5 turns R.A = S.A into S.A = 5 next
// to S.A = 3 — and dispatch drops it: the rewrite is counted as created
// but never stored.
func TestContradictoryRewriteIsNotPlaced(t *testing.T) {
	// Seed 1's placement draw indexes the input query under R, so the R
	// tuple is the one that triggers it.
	eng, nodes := testNet(t, 16, 1, Config{Strategy: StrategyRandom}, churnNetCfg())
	q := sqlparse.MustParse("select R.B from R,S where R.A=S.A and S.A=3", testCat)
	if _, err := eng.SubmitQuery(nodes[0], q); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	created := eng.Counters.RewritesCreated
	eng.PublishTuple(nodes[1], mkTuple("R", 5, 1, 0))
	eng.Run()
	if got := eng.Counters.RewritesCreated - created; got != 1 {
		t.Fatalf("%d rewrites created by R(5, 1, 0), want 1", got)
	}
	if queries, _, _ := eng.StoredState(); queries != 1 {
		t.Fatalf("%d queries stored, want the input alone: the contradictory rewrite was placed", queries)
	}
}
