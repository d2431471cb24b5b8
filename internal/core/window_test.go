package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
	"rjoin/internal/workload"
)

// deadErr is the quiescence invariant of the death wheels: after a Run
// no live node holds a windowed rewrite, a tuple, an ALTT entry, a
// candidate-table entry or an aggregate epoch the horizon passed, every
// node's wheels file its entries, and on every clock it has a death
// filed on, its slot's due wheel names it under a value no later than
// the earliest.
func deadErr(eng *Engine) error {
	if d := eng.DeadState(); d != (DeadCounts{}) {
		return fmt.Errorf("drained, yet dead entries are stored: %+v", d)
	}
	for _, n := range eng.Ring().Nodes() {
		p := eng.procs[n.ID()]
		if err := p.st.deathsErr(); err != nil {
			return fmt.Errorf("%s: %v", n.ID(), err)
		}
		for c := range p.st.dueAt {
			earliest, ok := p.st.earliest(clock(c))
			if !ok {
				continue
			}
			at := p.st.dueAt[c]
			found := slices.Contains(eng.slots[p.shard].due[c].pending(), filing[*Proc]{at, p})
			if at > earliest || !found {
				return fmt.Errorf("%s: its earliest death on clock %d is %d, and its slot names it under %d (listed %v)", n.ID(), c, earliest, at, found)
			}
		}
	}
	return nil
}

func checkNothingDead(t testing.TB, eng *Engine) {
	t.Helper()
	if err := deadErr(eng); err != nil {
		t.Fatal(err)
	}
}

// windowRun publishes nTuples in publication order (draining between
// publications so clocks are strictly ordered) against window queries.
func windowRun(t *testing.T, seed int64, w query.WindowSpec, nQueries, nTuples int) (*Engine, []string, []*query.Query, []*relation.Tuple) {
	t.Helper()
	eng, nodes := testNet(t, 48, seed, Config{}, overlay.DefaultConfig())
	wcfg := workload.Config{Relations: 3, Attributes: 3, Values: 3, Theta: 0.9, JoinArity: 2}
	gen := workload.MustGenerator(wcfg, seed)
	rng := rand.New(rand.NewSource(seed + 5))
	var qids []string
	var queries []*query.Query
	for i := 0; i < nQueries; i++ {
		q := gen.WindowQuery(w)
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
	for i := 0; i < nTuples; i++ {
		tu := gen.Tuple()
		eng.PublishTuple(nodes[rng.Intn(len(nodes))], tu)
		eng.Run()
		tuples = append(tuples, tu)
	}
	return eng, qids, queries, tuples
}

// TestTupleWindowTwoWayExact: for 2-way joins the span and anchor
// semantics coincide, so RJoin must match the reference exactly under
// in-order arrival.
func TestTupleWindowTwoWayExact(t *testing.T) {
	w := query.WindowSpec{Kind: query.WindowTuples, Size: 8}
	for seed := int64(30); seed < 33; seed++ {
		eng, qids, queries, tuples := windowRun(t, seed, w, 4, 50)
		for i, qid := range qids {
			want := refeval.EvaluateSpan(queries[i], tuples)
			got := answersToRows(eng.Answers(qid))
			if !refeval.EqualBags(got, want) {
				t.Fatalf("seed %d query %d (%s): got %d want %d",
					seed, i, queries[i], len(got), len(want))
			}
		}
	}
}

// TestTupleWindowRestrictsAnswers: windowed answers are a strict subset
// of unwindowed ones on a workload where matches span beyond the
// window.
func TestTupleWindowRestrictsAnswers(t *testing.T) {
	wide := query.WindowSpec{Kind: query.WindowTuples, Size: 1 << 40}
	narrow := query.WindowSpec{Kind: query.WindowTuples, Size: 4}
	// windowRun is deterministic per seed, so both runs see the same
	// workload and differ only in the window size.
	engWide, qw, _, _ := windowRun(t, 40, wide, 3, 60)
	engN, qn, _, _ := windowRun(t, 40, narrow, 3, 60)
	var wideTotal, narrowTotal int
	for i := range qw {
		wideTotal += len(engWide.Answers(qw[i]))
		narrowTotal += len(engN.Answers(qn[i]))
	}
	if narrowTotal >= wideTotal {
		t.Fatalf("narrow window answers (%d) not fewer than wide (%d)", narrowTotal, wideTotal)
	}
	if narrowTotal == 0 {
		t.Fatal("narrow window produced no answers at all; workload too sparse to be meaningful")
	}
}

// TestMultiWayWindowBracketed: for 3-way windows RJoin's answers fall
// between the span (lower) and anchor (upper) reference semantics.
func TestMultiWayWindowBracketed(t *testing.T) {
	w := query.WindowSpec{Kind: query.WindowTuples, Size: 10}
	for seed := int64(44); seed < 47; seed++ {
		eng, qids, queries, tuples := func() (*Engine, []string, []*query.Query, []*relation.Tuple) {
			eng, nodes := testNet(t, 48, seed, Config{}, overlay.DefaultConfig())
			wcfg := workload.Config{Relations: 3, Attributes: 2, Values: 3, Theta: 0.9, JoinArity: 3}
			gen := workload.MustGenerator(wcfg, seed)
			rng := rand.New(rand.NewSource(seed + 5))
			var qids []string
			var queries []*query.Query
			for i := 0; i < 3; i++ {
				q := gen.WindowQuery(w)
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
			for i := 0; i < 45; i++ {
				tu := gen.Tuple()
				eng.PublishTuple(nodes[rng.Intn(len(nodes))], tu)
				eng.Run()
				tuples = append(tuples, tu)
			}
			return eng, qids, queries, tuples
		}()
		for i, qid := range qids {
			got := answersToRows(eng.Answers(qid))
			lower := refeval.EvaluateSpan(queries[i], tuples)
			upper := refeval.EvaluateAnchor(queries[i], tuples)
			if !refeval.SubBag(lower, got) {
				t.Fatalf("seed %d query %d: span answers missing (got %d, lower bound %d)",
					seed, i, len(got), len(lower))
			}
			if !refeval.SubBag(got, upper) {
				t.Fatalf("seed %d query %d: answers exceed anchor semantics (got %d, upper bound %d)",
					seed, i, len(got), len(upper))
			}
		}
	}
}

// TestTimeWindow exercises the WindowTime clock: two tuples far apart
// in virtual time do not join; close together they do.
func TestTimeWindow(t *testing.T) {
	eng, nodes := testNet(t, 32, 50, Config{}, overlay.DefaultConfig())
	q := sqlparse.MustParse(
		"select R.B, S.B from R,S where R.A=S.A within 100 ticks", testCat)
	qid, _ := eng.SubmitQuery(nodes[0], q)
	eng.Run()

	eng.PublishTuple(nodes[1], mkTuple("R", 1, 10, 0))
	eng.Run()
	// Within the window: joins.
	eng.PublishTuple(nodes[1], mkTuple("S", 1, 20, 0))
	eng.Run()
	if n := len(eng.Answers(qid)); n != 1 {
		t.Fatalf("in-window join: %d answers, want 1", n)
	}
	// Push the clock far beyond the window, then publish the partner.
	eng.RunUntil(eng.Sim().Now() + 10_000)
	eng.PublishTuple(nodes[1], mkTuple("S", 1, 30, 0))
	eng.Run()
	if n := len(eng.Answers(qid)); n != 1 {
		t.Fatalf("out-of-window tuple joined: %d answers", n)
	}
}

// TestTumblingWindow: tuples in the same epoch join; straddling an
// epoch boundary they do not, even when close.
func TestTumblingWindow(t *testing.T) {
	eng, nodes := testNet(t, 32, 51, Config{}, overlay.DefaultConfig())
	q := sqlparse.MustParse(
		"select R.B, S.B from R,S where R.A=S.A within 10 tuples tumbling", testCat)
	qid, _ := eng.SubmitQuery(nodes[0], q)
	eng.Run()
	// Seq numbers start at 1. Publish R at seq 1, S at seq 2: same
	// epoch [0,10) — join.
	eng.PublishTuple(nodes[1], mkTuple("R", 1, 1, 0))
	eng.Run()
	eng.PublishTuple(nodes[1], mkTuple("S", 1, 2, 0))
	eng.Run()
	if n := len(eng.Answers(qid)); n != 1 {
		t.Fatalf("same-epoch join: %d answers, want 1", n)
	}
	// Burn sequence numbers to the end of the epoch with non-matching
	// tuples, then publish a matching R at seq 9 and S at seq 11:
	// adjacent epochs, no join despite distance 2.
	for eng.Counters.TuplesPublished < 8 {
		eng.PublishTuple(nodes[1], mkTuple("M", 99, 99, 99))
		eng.Run()
	}
	eng.PublishTuple(nodes[1], mkTuple("R", 2, 3, 0)) // seq 9
	eng.Run()
	eng.PublishTuple(nodes[1], mkTuple("M", 99, 99, 99)) // seq 10
	eng.Run()
	eng.PublishTuple(nodes[1], mkTuple("S", 2, 4, 0)) // seq 11, next epoch
	eng.Run()
	if n := len(eng.Answers(qid)); n != 1 {
		t.Fatalf("cross-epoch tuples joined: %d answers", n)
	}
	// A matching S inside the new epoch with a new R also inside joins.
	eng.PublishTuple(nodes[1], mkTuple("R", 3, 5, 0)) // seq 12
	eng.Run()
	eng.PublishTuple(nodes[1], mkTuple("S", 3, 6, 0)) // seq 13
	eng.Run()
	if n := len(eng.Answers(qid)); n != 2 {
		t.Fatalf("new-epoch join failed: %d answers, want 2", n)
	}
}

// TestWindowsBoundState is the Figure 8 claim in miniature: with small
// windows, expired rewritten queries are dropped so live state stays
// far below the unwindowed run.
func TestWindowsBoundState(t *testing.T) {
	measure := func(w query.WindowSpec) int {
		eng, _, _, _ := windowRun(t, 60, w, 6, 80)
		queries, _, _ := eng.StoredState()
		return queries
	}
	unbounded := measure(query.WindowSpec{}) // no window
	small := measure(query.WindowSpec{Kind: query.WindowTuples, Size: 4})
	if small >= unbounded {
		t.Fatalf("small window live queries (%d) not below unwindowed (%d)", small, unbounded)
	}
}

// TestWindowExpiryCounter: an expired rewritten query is counted once and
// removed at the first quiescent Run past its window, so a matching tuple
// that arrives at its key later finds nothing to trigger.
func TestWindowExpiryCounter(t *testing.T) {
	eng, nodes := testNet(t, 32, 61, Config{}, overlay.DefaultConfig())
	q := sqlparse.MustParse(
		"select R.B, S.B from R,S where R.A=S.A within 3 tuples", testCat)
	if _, err := eng.SubmitQuery(nodes[0], q); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// R at seq 1 creates a rewritten query anchored at 1 stored at
	// S+A+1; non-matching filler pushes the window past it; then a
	// "matching" S arrives at the same key.
	eng.PublishTuple(nodes[1], mkTuple("R", 1, 1, 0))
	eng.Run()
	for i := 0; i < 5; i++ {
		eng.PublishTuple(nodes[1], mkTuple("M", 99, 99, 99))
		eng.Run()
	}
	eng.PublishTuple(nodes[1], mkTuple("S", 1, 2, 0)) // seq 7: out of window
	eng.Run()
	if eng.Counters.QueriesExpired != 1 {
		t.Fatalf("the rewrite expired %d times, want once", eng.Counters.QueriesExpired)
	}
	if eng.Counters.AnswersDelivered != 0 {
		t.Fatal("expired query still answered")
	}
}

// TestRewriteDiesWithoutItsKeyBeingTouched: a windowed rewrite leaves at
// the first quiescent Run past its death — Start+Size for a sliding
// window, the end of Start's epoch for a tumbling one, on the tuple or
// the time clock — though no tuple ever reaches its key, counted in
// QueriesExpired exactly once. It is still stored one clock value short.
func TestRewriteDiesWithoutItsKeyBeingTouched(t *testing.T) {
	for _, c := range []struct {
		window string
		death  func(start int64) int64
	}{
		{"within 5 tuples", func(s int64) int64 { return s + 5 }},
		{"within 8 tuples tumbling", func(s int64) int64 { return (s/8 + 1) * 8 }},
		{"within 100 ticks", func(s int64) int64 { return s + 100 }},
		{"within 64 ticks tumbling", func(s int64) int64 { return (s/64 + 1) * 64 }},
	} {
		t.Run(c.window, func(t *testing.T) {
			eng, nodes := testNet(t, 32, 62, Config{}, overlay.DefaultConfig())
			q := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A "+c.window, testCat)
			if _, err := eng.SubmitQuery(nodes[0], q); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			// Start R's epoch on both clocks, so even a tumbling rewrite
			// outlives the drain it is stored in.
			for (eng.pubSeq+1)%8 != 0 {
				eng.PublishTuple(nodes[1], mkTuple("M", 99, 99, 99))
				eng.Run()
			}
			eng.RunUntil((eng.Sim().Now()/64 + 1) * 64)
			r := mkTuple("R", 1, 1, 0) // the rewrite waits at S+A+1; no S is ever published
			eng.PublishTuple(nodes[1], r)
			eng.Run()
			var sq *storedQuery
			for _, p := range eng.procs {
				for _, list := range p.st.queries {
					for _, x := range list {
						if x.q.Depth > 0 {
							sq = x
						}
					}
				}
			}
			if sq == nil {
				t.Fatal("the R tuple stored no rewrite")
			}
			clockOf := func() int64 { return eng.pubSeq + 1 }
			advance := func() { eng.PublishTuple(nodes[1], mkTuple("M", 99, 99, 99)) }
			start := r.PubSeq
			if sq.q.Window.Kind == query.WindowTime {
				clockOf = func() int64 { return int64(eng.Sim().Now()) }
				advance = func() { eng.RunUntil(eng.Sim().Now() + 1) }
				start = r.PubTime
			}
			death := c.death(start)
			if sq.q.Start != start {
				t.Fatalf("rewrite starts at %d, want the R tuple's clock %d", sq.q.Start, start)
			}
			for clockOf() < death-1 {
				advance()
			}
			eng.Run()
			if clockOf() != death-1 || eng.Counters.QueriesExpired != 0 || eng.procs[eng.Ring().Owner(sq.key.ID()).ID()].st.queries[sq.key] == nil {
				t.Fatalf("at horizon %d, one short of the death %d, the rewrite is gone (%d expired)", clockOf(), death, eng.Counters.QueriesExpired)
			}
			advance()
			eng.Run()
			checkNothingDead(t, eng)
			if eng.Counters.QueriesExpired != 1 {
				t.Fatalf("at horizon %d the rewrite dying at %d expired %d times, want once", clockOf(), death, eng.Counters.QueriesExpired)
			}
			if queries, _, _ := eng.StoredState(); queries != 1 { // the input query alone
				t.Fatalf("%d queries stored after the rewrite died, want the input query alone", queries)
			}
			for i := 0; i < 3; i++ {
				advance()
				eng.Run()
			}
			if eng.Counters.QueriesExpired != 1 {
				t.Fatalf("later drains counted the rewrite again: %d expired", eng.Counters.QueriesExpired)
			}
		})
	}
}

// TestDeathDrainWorkerInvariant: each shard's handlers file their nodes
// in their own accounting slot's due wheel and the drain reads every
// slot. With the handlers on four workers it must drop exactly what it
// drops on one — windowed rewrites on both clocks, stored tuples under
// TupleGC and ALTT entries, with bursts racing inside each drain — leave
// nothing dead after any Run, and deliver the same answers.
func TestDeathDrainWorkerInvariant(t *testing.T) {
	run := func(workers int) (Counters, [][]string) {
		cfg := Config{}
		cfg.TupleGC, cfg.MaxWindowHint = true, 32
		eng, nodes := lossyNet(t, 48, 64, workers, cfg, overlay.DefaultConfig())
		var qids []string
		for i, sql := range []string{
			"select R.B, S.B from R,S where R.A=S.A within 6 tuples",
			"select R.B, S.C from R,S where R.A=S.A within 8 tuples tumbling",
			"select R.C, S.B from R,S where R.A=S.A within 20 ticks",
			"select R.B, S.B from R,S where R.B=S.B within 32 ticks tumbling",
		} {
			qid, err := eng.SubmitQuery(nodes[i], sqlparse.MustParse(sql, testCat))
			if err != nil {
				t.Fatal(err)
			}
			qids = append(qids, qid)
		}
		eng.Run()
		rng := rand.New(rand.NewSource(64))
		for burst := 0; burst < 40; burst++ {
			for i := 0; i < 4; i++ {
				rel := []string{"R", "S"}[rng.Intn(2)]
				eng.PublishTuple(nodes[rng.Intn(len(nodes))], mkTuple(rel, int64(rng.Intn(4)), int64(rng.Intn(4)), int64(rng.Intn(4))))
			}
			eng.Run()
			checkNothingDead(t, eng)
		}
		var bags [][]string
		for _, qid := range qids {
			bags = append(bags, answerBag(eng, qid))
		}
		return eng.Counters, bags
	}
	oneCtr, oneBags := run(0)
	parCtr, parBags := run(4)
	if oneCtr.QueriesExpired == 0 || oneCtr.TuplesCollected == 0 || oneCtr.ALTTExpired == 0 || oneCtr.AnswersDelivered == 0 {
		t.Fatalf("workload too weak: %d rewrites, %d tuples and %d ALTT entries expired, %d answers",
			oneCtr.QueriesExpired, oneCtr.TuplesCollected, oneCtr.ALTTExpired, oneCtr.AnswersDelivered)
	}
	if parCtr != oneCtr {
		t.Fatalf("4 workers counted %+v, one worker %+v", parCtr, oneCtr)
	}
	for i := range oneBags {
		if !bagsEqual(parBags[i], oneBags[i]) {
			t.Fatalf("query %d: 4 workers delivered %d rows, one worker %d", i, len(parBags[i]), len(oneBags[i]))
		}
	}
}

// TestDeadRewritesAreNeitherMovedNorLost: a rewrite dead by the horizon
// can be reached by no tuple still to arrive, and a tuple past its reach
// by no rewrite, so the node that holds them leaving or crashing neither
// hands them over, promotes them nor charges them lost: they count as
// expired and collected. At rf 1 a crash charges what it destroys to the
// loss counters, and before the fix these were RewritesLost and
// TuplesLost. A node holds such entries only between the horizon passing
// them and the drain, so the test moves the horizon by hand.
func TestDeadRewritesAreNeitherMovedNorLost(t *testing.T) {
	for _, c := range []struct {
		name  string
		rf    int
		leave bool
	}{{"crash at rf 1", 1, false}, {"crash at rf 2", 2, false}, {"leave", 1, true}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := replCfg(c.rf)
			cfg.TupleGC, cfg.MaxWindowHint = true, 4
			eng, nodes := testNet(t, 32, 63, cfg, churnNetCfg())
			q := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A within 4 tuples", testCat)
			if _, err := eng.SubmitQuery(nodes[0], q); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			for i := 0; i < 3; i++ { // rewrites at S+A+0..2; no S is ever published
				eng.PublishTuple(nodes[1], mkTuple("R", int64(i), int64(i), 0))
				eng.Run()
			}
			// The holder keeps dead entries of both kinds, and besides them
			// soft state alone: table entries and rate statistics.
			var holder *Proc
			for _, n := range eng.Ring().Nodes() {
				if c := eng.procs[n.ID()].st.counts(); holder == nil && c.queries > 0 && c.tuples > 0 && c.queries+c.tuples+c.ct == c.mirrored() {
					holder = eng.procs[n.ID()]
				}
			}
			if holder == nil {
				t.Fatal("no node holds rewrites and tuples alone; pick another seed")
			}
			held, soft := holder.st.counts(), holder.st.counts().ct+len(holder.st.stats)
			eng.horizon[clockSeq] += 8
			eng.horizon[clockTime] += 8
			dead := eng.DeadState() // the holder's and the other holders'
			deadQ, deadT := dead.Rewrites, dead.Tuples
			var err error
			if c.leave {
				err = eng.LeaveNode(holder.node)
			} else {
				err = eng.CrashNode(holder.node)
			}
			if err != nil {
				t.Fatal(err)
			}
			eng.Sync()
			ctr := eng.Counters
			if ctr.RewritesLost != 0 || ctr.QueriesLost != 0 || ctr.TuplesLost != 0 ||
				ctr.QueriesExpired != int64(held.queries) || ctr.TuplesCollected != int64(held.tuples) {
				t.Fatalf("a node holding %d dead rewrites and %d dead tuples went: %d rewrites, %d queries and %d tuples counted lost, %d and %d expired; want 0, 0, 0, %d and %d",
					held.queries, held.tuples, ctr.RewritesLost, ctr.QueriesLost, ctr.TuplesLost, ctr.QueriesExpired, ctr.TuplesCollected, held.queries, held.tuples)
			}
			if d := eng.DeadState(); d.Rewrites != deadQ-held.queries || d.Tuples != deadT-held.tuples ||
				ctr.HandoverEntries > int64(soft) || ctr.ReplEntriesPromoted != 0 {
				t.Fatalf("%d of the node's dead rewrites and %d of its dead tuples moved on; %d entries handed over (it held %d soft ones), %d promoted",
					d.Rewrites-(deadQ-held.queries), d.Tuples-(deadT-held.tuples), ctr.HandoverEntries, soft, ctr.ReplEntriesPromoted)
			}
		})
	}
}

// TestTupleDiesWithoutItsKeyBeingTouched: under TupleGC a stored tuple
// leaves at the first quiescent Run at which both clocks passed its reach
// — 2·MaxWindowHint−1 past its PubSeq and past its PubTime — though no
// tuple ever reaches its key again, whichever clock passes last. One
// clock value short on either clock it is still stored, and every stored
// copy is counted collected once: TuplesCollected is always what was
// stored less what still is.
func TestTupleDiesWithoutItsKeyBeingTouched(t *testing.T) {
	const hint = 16
	const reach = 2*hint - 1
	for _, last := range []clock{clockSeq, clockTime} {
		t.Run([]string{"sequence last", "time last"}[last], func(t *testing.T) {
			cfg := Config{}
			cfg.TupleGC, cfg.MaxWindowHint = true, hint
			eng, nodes := testNet(t, 32, 65, cfg, overlay.DefaultConfig())
			copies := func(r *relation.Tuple) (n int) {
				for _, p := range eng.procs {
					for _, list := range p.st.tuples {
						for _, x := range list {
							if x == r {
								n++
							}
						}
					}
				}
				return n
			}
			conserved := func() {
				t.Helper()
				_, live, _ := eng.StoredState()
				if c := eng.Counters; c.TuplesCollected != c.TuplesStored-int64(live) {
					t.Fatalf("%d tuples stored, %d still are, and %d counted collected", c.TuplesStored, live, c.TuplesCollected)
				}
			}
			filler := func() { eng.PublishTuple(nodes[1], mkTuple("M", 99, 99, 99)) }
			r := mkTuple("R", 1, 1, 0) // stored at R+A+1, R+B+1 and R+C+0
			eng.PublishTuple(nodes[1], r)
			// One clock passes r's death, the other stops one short of it.
			if last == clockSeq {
				eng.Run()
				eng.RunUntil(sim.Time(r.PubTime + reach))
				eng.Run()
				for eng.pubSeq+1 < r.PubSeq+reach-1 {
					filler()
					eng.Run()
				}
			} else {
				for eng.pubSeq+1 < r.PubSeq+reach {
					filler() // on r's tick
				}
				eng.Run()
				if now := int64(eng.Sim().Now()); now >= r.PubTime+reach-1 {
					t.Fatalf("one drain took the clock from %d to %d, past r's time death %d", r.PubTime, now, r.PubTime+reach)
				}
				eng.RunUntil(sim.Time(r.PubTime + reach - 1))
				eng.Run()
			}
			other := clockSeq + clockTime - last
			if h := eng.horizon; h[last] != tupleDeath(r, last, reach)-1 || h[other] < tupleDeath(r, other, reach) {
				t.Fatalf("horizon %v: want one short of r's death on clock %d and past it on the other", h, last)
			}
			if n := copies(r); n != 3 {
				t.Fatalf("one clock value short of its death, %d of r's 3 copies are stored", n)
			}
			conserved()
			advance := func() {
				if last == clockSeq {
					filler()
				} else {
					eng.RunUntil(eng.Sim().Now() + 1)
				}
				eng.Run()
			}
			advance()
			if n := copies(r); n != 0 {
				t.Fatalf("at horizon %v, %d of r's copies outlived both deaths", eng.horizon, n)
			}
			checkNothingDead(t, eng)
			conserved()
			for i := 0; i < 3; i++ {
				advance()
				conserved()
			}
		})
	}
}

// TestTupleGCKeepsEveryAnswer: a tuple dies only once no rewrite can
// reach it, so the same seed delivers the same answer bags with TupleGC
// on, its hint the window, as with it off, and with it on nothing is
// dead after any Run — on 2-way and 3-way chains, sliding and tumbling
// windows on the tuple and the time clock, one tuple per drain and bursts
// of 8. The hot case keeps publishing at two values, so keys take dozens
// of stores and 3-way rewrites meet stored tuples up to 2·Size−2 clock
// values old under the anchor rule: a reach of Size+1 drops such tuples,
// and their answers with them.
func TestTupleGCKeepsEveryAnswer(t *testing.T) {
	type chain struct {
		arity, values, tuples int
	}
	two, three, long, hot := chain{2, 3, 60}, chain{3, 3, 60}, chain{3, 3, 120}, chain{3, 2, 240}
	for _, c := range []struct {
		name  string
		chain chain
		w     query.WindowSpec
		burst int
	}{
		{"2-way, sliding tuples", two, query.WindowSpec{Kind: query.WindowTuples, Size: 6}, 1},
		{"2-way, tumbling time, bursts", two, query.WindowSpec{Kind: query.WindowTime, Size: 24, Tumbling: true}, 8},
		{"3-way, sliding tuples", three, query.WindowSpec{Kind: query.WindowTuples, Size: 10}, 1},
		{"3-way, tumbling tuples, bursts", three, query.WindowSpec{Kind: query.WindowTuples, Size: 8, Tumbling: true}, 8},
		{"3-way, sliding time", long, query.WindowSpec{Kind: query.WindowTime, Size: 40}, 1},
		{"3-way, sliding time, bursts", long, query.WindowSpec{Kind: query.WindowTime, Size: 30}, 8},
		{"3-way hot keys, sliding tuples", hot, query.WindowSpec{Kind: query.WindowTuples, Size: 10}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(gc bool) (bags [][]string, ctr Counters) {
				cfg := Config{}
				cfg.TupleGC, cfg.MaxWindowHint = gc, c.w.Size
				eng, nodes := testNet(t, 48, 66, cfg, overlay.DefaultConfig())
				wcfg := workload.Config{Relations: 3, Attributes: 2, Values: c.chain.values, Theta: 0.9, JoinArity: c.chain.arity}
				gen := workload.MustGenerator(wcfg, 66)
				rng := rand.New(rand.NewSource(67))
				var qids []string
				for i := 0; i < 4; i++ {
					qid, err := eng.SubmitQuery(nodes[rng.Intn(len(nodes))], gen.WindowQuery(c.w))
					if err != nil {
						t.Fatal(err)
					}
					qids = append(qids, qid)
				}
				eng.Run()
				for i := 0; i < c.chain.tuples; i++ {
					eng.PublishTuple(nodes[rng.Intn(len(nodes))], gen.Tuple())
					if (i+1)%c.burst == 0 {
						eng.Run()
						checkNothingDead(t, eng)
					}
				}
				eng.Run()
				checkNothingDead(t, eng)
				for _, qid := range qids {
					bags = append(bags, answerBag(eng, qid))
				}
				return bags, eng.Counters
			}
			off, _ := run(false)
			on, ctr := run(true)
			answers := 0
			for i := range off {
				if !bagsEqual(on[i], off[i]) {
					t.Fatalf("query %d: %d answers with TupleGC, %d without", i, len(on[i]), len(off[i]))
				}
				answers += len(off[i])
			}
			if answers == 0 || ctr.TuplesCollected == 0 {
				t.Fatalf("workload too weak: %d answers, %d tuples collected", answers, ctr.TuplesCollected)
			}
		})
	}
}

// TestCTEntryDiesAtValidity: a candidate-table entry is trusted for
// ctValidity ticks after its report, and the first quiescent Run past
// them drops it, whether or not its node reads the table again: still
// stored after a Run at At+ctValidity, gone after one at
// At+ctValidity+1. A placement that needs the key afterwards misses the
// table either way, so it walks exactly as it does with the stale entries
// still stored — which a twin engine, given them back, shows: the same
// walks, messages, counters and answers.
func TestCTEntryDiesAtValidity(t *testing.T) {
	key := relation.KeyOf("S+A+1")
	// learned returns every node's entry for the key.
	learned := func(eng *Engine) map[*Proc]ctEntry {
		out := make(map[*Proc]ctEntry)
		for _, p := range eng.procs {
			if e, ok := p.st.ct.get(key); ok {
				out[p] = e
			}
		}
		return out
	}
	build := func() (*Engine, []*chord.Node, string, map[*Proc]ctEntry) {
		eng, nodes := testNet(t, 32, 9, Config{}, overlay.DefaultConfig())
		qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat))
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		// The rewrite of R.A=1 walks for S+A+1: its placing node learns the
		// key from the reply, the key's owner from the piggy-backed report.
		eng.PublishTuple(nodes[1], mkTuple("R", 1, 5, 0))
		eng.Run()
		entries := learned(eng)
		var at sim.Time
		for _, e := range entries {
			at = e.At
		}
		for p, e := range entries {
			if e.At != at {
				t.Fatalf("node %s learned the key at %d, another at %d", p.node.ID(), e.At, at)
			}
		}
		if len(entries) != 2 {
			t.Fatalf("%d nodes learned the rewrite's candidate key; want the placing node and the owner", len(entries))
		}
		eng.RunUntil(at + ctValidity)
		eng.Run()
		if n := len(learned(eng)); n != 2 {
			t.Fatalf("%d of the 2 entries reported at %d survived a Run at %d", n, at, at+ctValidity)
		}
		checkNothingDead(t, eng)
		eng.RunUntil(at + ctValidity + 1)
		eng.Run()
		if n := len(learned(eng)); n != 0 {
			t.Fatalf("%d entries reported at %d outlived a Run at %d", n, at, at+ctValidity+1)
		}
		checkNothingDead(t, eng)
		return eng, nodes, qid, entries
	}
	eng, nodes, qid, dropped := build()
	twin, twinNodes, _, stale := build()
	for p, e := range stale {
		p.st.ct.entries[key] = e // a table that keeps what it no longer trusts
	}
	walks := eng.Counters.RICRequests
	for i, e := range []*Engine{eng, twin} {
		ns := [][]*chord.Node{nodes, twinNodes}[i]
		e.PublishTuple(ns[1], mkTuple("R", 1, 6, 0))
		e.PublishTuple(ns[2], mkTuple("S", 1, 7, 0))
		e.Run()
	}
	if eng.Counters != twin.Counters || eng.Net().MessagesSent != twin.Net().MessagesSent {
		t.Fatalf("the dropped entries and the stale ones placed differently:\n%+v, %d messages\n%+v, %d messages",
			eng.Counters, eng.Net().MessagesSent, twin.Counters, twin.Net().MessagesSent)
	}
	if eng.Counters.RICRequests != walks+1 {
		t.Fatalf("%d walks after the entries died; want 1", eng.Counters.RICRequests-walks)
	}
	if got, want := answersToRows(eng.Answers(qid)), answersToRows(twin.Answers(qid)); len(got) != 2 || !refeval.EqualBags(got, want) {
		t.Fatalf("answers %v, the twin's %v; want both R rows joined with the S row", got, want)
	}
	for p, old := range dropped {
		if e, ok := p.st.ct.get(key); !ok || e.At <= old.At {
			t.Fatalf("node %s: the walk's report did not enter the table again", p.node.ID())
		}
	}
	checkNothingDead(t, eng)
}
