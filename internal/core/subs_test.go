package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"rjoin/internal/agg"
	"rjoin/internal/chord"
	"rjoin/internal/obs"
	"rjoin/internal/overlay"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
)

// subsQueries is the pool the subscriber-side tests draw from: plain,
// DISTINCT and GROUP BY queries, several per join graph so that a
// sharing engine attaches most of them to a pipeline it already runs —
// exact duplicates, a permuted form and a selection residual included,
// beside a 3-way join that contains the 2-way graph and so places its
// own pipeline.
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
	if sharing {
		cfg.Catalog = testCat
	}
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

// checkOneRecord asserts that the subscription records say which
// pipelines live: a QID's record names a class exactly when the QID
// names a live class — every class has a pipeline of its own, a
// singleton's or a canonical first member's — and then it is that
// class; and that the records list exactly what the nodes hold, none
// of it of a torn-down pipeline (ownershipErr).
func checkOneRecord(t *testing.T, label string, eng *Engine) {
	t.Helper()
	classes := make(map[string]*shareClass) // the live classes by pipeline QID
	for _, s := range eng.subs {
		if cls := s.rides; cls != nil {
			classes[cls.pipe.q.ID] = cls
		}
	}
	for qid, s := range eng.subs {
		if cls := classes[qid]; s.cls != cls {
			t.Fatalf("%s: %s's record names class %p; the live class its QID names is %p", label, qid, s.cls, cls)
		}
	}
	if err := ownershipErr(eng); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// ownershipErr checks the records' lists against the nodes' states:
// every stored query, placement walk and aggregator group a live node
// holds is listed on its record, at the position it keeps, and belongs
// to no torn-down pipeline or retired subscriber; their lists are
// empty; the lists hold no more than the states do, so an entry that
// left a state without being delisted shows up as a leak; and no list
// names an entry on the engine's free list. An entry of a QID with no
// record is listed nowhere.
func ownershipErr(eng *Engine) error {
	held, listed := 0, 0
	var err error
	for _, n := range eng.ring.Nodes() {
		eng.procs[n.ID()].st.each(classQueries|classPending|classAggs, nil, func(op stateOp) {
			var s *subscription
			var ok bool
			switch op.kind {
			case opAddQuery:
				s = op.sq.pipe
				ok = s != nil && inRoster(s.queries, op.sq)
			case opAddPending:
				s = op.pp.sq.pipe
				ok = s != nil && inRoster(s.pending, op.pp) && op.pp.origin.node == n
			default:
				s = op.g.sub
				ok = inRoster(s.groups, op.g) && op.g.key == op.key
			}
			switch {
			case s == nil:
			case op.kind == opAddAgg && s.retired() || op.kind != opAddAgg && s.cls == nil:
				err = fmt.Errorf("node %s holds an entry of kind %d of %s, retired or torn down", n.ID(), op.kind, s.q.ID)
			case !ok && err == nil:
				err = fmt.Errorf("node %s holds an entry of kind %d of %s its record does not list", n.ID(), op.kind, s.q.ID)
			default:
				held++
			}
		})
	}
	spare := make(map[*storedQuery]bool)
	for _, e := range eng.free.spare {
		spare[&e.storedQuery] = true
	}
	for _, qid := range slices.Sorted(maps.Keys(eng.subs)) {
		s := eng.subs[qid]
		if err == nil && (s.cls == nil && len(s.queries)+len(s.pending) > 0 || s.retired() && len(s.groups) > 0) {
			err = fmt.Errorf("%s, torn down or retired, lists %d queries, %d placements, %d groups", qid, len(s.queries), len(s.pending), len(s.groups))
		}
		for _, sq := range s.queries {
			if spare[sq] && err == nil {
				err = fmt.Errorf("%s lists a stored query whose entry is spare", qid)
			}
		}
		for _, pp := range s.pending {
			if spare[pp.sq] && err == nil {
				err = fmt.Errorf("%s lists a placement whose entry is spare", qid)
			}
		}
		listed += len(s.queries) + len(s.pending) + len(s.groups)
	}
	if err == nil && listed != held {
		err = fmt.Errorf("the records list %d entries, the states hold %d", listed, held)
	}
	return err
}

// inRoster reports whether x is listed in r at the position it keeps.
func inRoster[T interface {
	comparable
	at() *int32
}](r roster[T], x T) bool {
	i := int(*x.at())
	return i < len(r) && r[i] == x
}

// TestSubsRandomScripts is the subscriber side's one property: whatever
// script of subscribe / publish / Run / unsubscribe runs, every live
// subscription holds exactly its reference answers, the delivery counter
// accounts for every row held or discarded, the engine retains one
// record per submission with contents only on the live ones, each
// record holds a fan-out exactly while its QID names a live pipeline
// (checkOneRecord, after every Run) and the records list exactly the
// entries the states hold (ownershipErr, after every Run and every
// Unsubscribe), and a row arriving for a retired query, or an Eval for
// a torn-down pipeline, changes nothing.
func TestSubsRandomScripts(t *testing.T) {
	var sumHeld, sumDiscarded, sumShared, sumStragglers int64
	for _, workers := range []int{1, 2, 4} {
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
					checkOneRecord(t, fmt.Sprintf("%s step %d", label, step), eng)
					if err := storedOnce(eng); err != nil {
						t.Fatalf("%s step %d: %v", label, step, err)
					}
				case len(live) > 0:
					i := rng.Intn(len(live))
					discarded += int64(len(eng.Answers(live[i])))
					if err := eng.Unsubscribe(live[i]); err != nil {
						t.Fatal(err)
					}
					if err := ownershipErr(eng); err != nil {
						t.Fatalf("%s step %d: unsubscribing %s: %v", label, step, live[i], err)
					}
					if err := storedOnce(eng); err != nil {
						t.Fatalf("%s step %d: unsubscribing %s: %v", label, step, live[i], err)
					}
					gone = append(gone, live[i])
					live = append(live[:i], live[i+1:]...)
				}
			}
			eng.Run()
			checkNothingWaits(t, eng)
			checkOneRecord(t, label, eng)

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
				if s := eng.sub(qid); s.cls == nil {
					// A straggling Eval of the torn-down pipeline is dropped
					// at the key's owner, not stored.
					sq, c := eng.free.entryOf(s.q), s.q.Candidates()[0]
					sq.pipe = s
					owner := eng.procs[eng.ring.Owner(c.Key.ID()).ID()]
					owner.HandleMessage(eng.sim.Now(), newEvalMsg(sq, c.Key, c.Level))
					owner.st.each(classQueries, nil, func(op stateOp) {
						if op.sq == sq {
							t.Fatalf("%s: an Eval of torn-down %s was stored", label, qid)
						}
					})
					sumStragglers++
				}
			}
			eng.Sync()
			if after := eng.subsFootprint(); after != before || eng.Counters != ctr {
				t.Fatalf("%s: rows for retired queries changed the engine: footprint %+v -> %+v", label, before, after)
			}
			sumHeld, sumDiscarded, sumShared = sumHeld+held, sumDiscarded+discarded, sumShared+ctr.QueriesShared
		}
	}
	if sumHeld == 0 || sumDiscarded == 0 || sumShared == 0 || sumStragglers == 0 {
		t.Fatalf("scripts too weak: %d rows held, %d discarded, %d shared submissions, %d stragglers of torn-down pipelines", sumHeld, sumDiscarded, sumShared, sumStragglers)
	}
}

// TestTeardownChargesWhatItRemoves: at rf 2, an unsubscribe that ends
// nothing a node holds — a member leaving a class another still rides —
// charges no replica op, and the one that tears the pipeline down
// charges one per entry its record listed, to one replica each, and
// leaves none of them in any state.
func TestTeardownChargesWhatItRemoves(t *testing.T) {
	cfg := replCfg(2)
	eng, nodes := testNet(t, 16, 5, cfg, overlay.DefaultConfig())
	var qids []string
	for i := range 2 {
		qid, err := eng.SubmitQuery(nodes[i], sqlparse.MustParse("select R.B, S.B, J.B from R,S,J where R.A=S.A and S.B=J.B", testCat))
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
	}
	eng.Run()
	for i := range 12 {
		eng.PublishTuple(nodes[i%len(nodes)], mkTuple([]string{"R", "S"}[i%2], int64(i%3), int64(i%4), 0))
	}
	eng.Run()
	pipe := eng.sub(qids[0])
	listed := len(pipe.queries) + len(pipe.pending)
	if listed < 2 || len(pipe.pending) != 0 {
		t.Fatalf("workload too weak: the pipeline lists %d stored queries and %d walks", len(pipe.queries), len(pipe.pending))
	}
	var stored []*storedQuery
	stored = append(stored, pipe.queries...)
	for i, qid := range []string{qids[1], qids[0]} {
		eng.Sync()
		before := eng.Counters.ReplOps
		if err := eng.Unsubscribe(qid); err != nil {
			t.Fatal(err)
		}
		eng.Sync()
		if got, want := eng.Counters.ReplOps-before, int64(i*listed); got != want {
			t.Fatalf("unsubscribing %s charged %d replica ops, want %d", qid, got, want)
		}
	}
	for _, n := range eng.ring.Nodes() {
		eng.procs[n.ID()].st.each(classQueries, nil, func(op stateOp) {
			if slices.Contains(stored, op.sq) {
				t.Fatalf("node %s still holds a stored query of the torn-down pipeline", n.ID())
			}
		})
	}
	if err := ownershipErr(eng); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkUnsubscribe times tearing down one pipeline, its input query
// on J and S, beside unrelated stored state — plain joins of R and S and
// the rewrites their tuples spawned — at 1× and 16× the size. Teardown
// visits only the entries the pipeline's record lists, so the two sizes
// read alike.
func BenchmarkUnsubscribe(b *testing.B) {
	for _, scale := range []int{1, 16} {
		b.Run(fmt.Sprintf("state=%dx", scale), func(b *testing.B) {
			eng, nodes := testNet(b, 32, 1, Config{}, overlay.DefaultConfig())
			for i := range 20 * scale {
				q := sqlparse.MustParse(fmt.Sprintf("select R.B, S.B from R,S where R.A=S.A and R.C=%d", i), testCat)
				if _, err := eng.SubmitQuery(nodes[i%len(nodes)], q); err != nil {
					b.Fatal(err)
				}
				eng.PublishTuple(nodes[(i+1)%len(nodes)], mkTuple("R", int64(i%5), int64(i), int64(i)))
				eng.PublishTuple(nodes[(i+2)%len(nodes)], mkTuple("S", int64(i%5), int64(i), 0))
			}
			eng.Run()
			pipe := sqlparse.MustParse("select J.B, S.C from J,S where J.A=S.A", testCat)
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				qid, err := eng.SubmitQuery(nodes[0], pipe)
				if err != nil {
					b.Fatal(err)
				}
				eng.Run()
				b.StartTimer()
				if err := eng.Unsubscribe(qid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestClassLifecycle: a duplicate attaches to the first submission's
// class, which outlives its first member; the last departure tears the
// pipeline down and releases both of the class's keys, so a
// resubmission opens a fresh class under its own QID; a second
// Unsubscribe errors.
func TestClassLifecycle(t *testing.T) {
	eng, nodes := subsEngine(t, 3, 1, true, false)
	submit := func() (string, *subscription) {
		t.Helper()
		qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat))
		if err != nil {
			t.Fatal(err)
		}
		return qid, eng.sub(qid)
	}
	stored := func(qid string) (n int) {
		for _, p := range eng.procs {
			p.st.each(classQueries|classPending, nil, func(op stateOp) {
				if op.stored().q.ID == qid {
					n++
				}
			})
		}
		return n
	}
	claims := func(cls *shareClass) bool {
		return eng.bySQL[cls.sql] == cls && eng.byForm[cls.form] == cls
	}

	q1, s1 := submit()
	cls := s1.cls
	if cls == nil || s1.rides != cls || cls.pipe != s1 || cls.form == "" || !claims(cls) {
		t.Fatal("the first submission does not open a canonical class under its own QID claiming both keys")
	}
	q2, s2 := submit()
	if s2.rides != cls || s2.cls != nil || s2.res == nil || eng.Counters.QueriesShared != 1 {
		t.Fatal("a duplicate did not attach to the first submission's class")
	}
	eng.Run()

	if err := eng.Unsubscribe(q1); err != nil {
		t.Fatal(err)
	}
	if s1.cls != cls || s1.rides != nil || !slices.Equal(cls.members, []*subscription{s2}) || !claims(cls) || stored(q1) == 0 {
		t.Fatal("the class did not outlive its first member")
	}
	eng.PublishTuple(nodes[1], mkTuple("R", 1, 2, 0))
	eng.PublishTuple(nodes[2], mkTuple("S", 1, 5, 0))
	eng.Run()
	if got := eng.Answers(q2); len(got) != 1 || len(eng.Answers(q1)) != 0 {
		t.Fatalf("after its first member left, the class delivered %v to the second", got)
	}

	if err := eng.Unsubscribe(q2); err != nil {
		t.Fatal(err)
	}
	if s1.cls != nil || eng.bySQL[cls.sql] != nil || eng.byForm[cls.form] != nil || stored(q1) != 0 {
		t.Fatal("the last departure left the pipeline, a key or its stored entries behind")
	}
	q3, s3 := submit()
	eng.Run()
	if s3.cls == nil || s3.cls == cls || s3.cls.pipe != s3 || !claims(s3.cls) || stored(q3) == 0 {
		t.Fatal("a resubmission did not open a fresh class under its own QID")
	}
	if err := eng.Unsubscribe(q2); err == nil {
		t.Fatal("a second Unsubscribe succeeded")
	}
}

// TestFreshClassRefusesAttach: a class that fanned out a row of this
// tick's tuples on this tick takes no subscriber until the clock moves
// on, and a row holding an older tuple closes nothing. Fan-outs of
// eight goroutines mark the class at once, as the handlers of several
// shards can in one sub-round (run it with -race).
func TestFreshClassRefusesAttach(t *testing.T) {
	eng, _ := testNet(t, 4, 1, Config{}, overlay.DefaultConfig())
	q := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat)
	cls := &shareClass{}
	eng.RunUntil(5)
	now := eng.Sim().Now()
	(&Proc{}).fanoutComplete(now, cls, completion{minPub: int64(now) - 1})
	if !eng.canAttach(cls, q) {
		t.Fatal("a row holding an older tuple closed the class")
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			(&Proc{}).fanoutComplete(now, cls, completion{minPub: int64(now)})
		}()
	}
	wg.Wait()
	if eng.canAttach(cls, q) {
		t.Fatal("a class that delivered a row of this tick's tuples on this tick took a subscriber")
	}
	eng.RunUntil(now + 1)
	if !eng.canAttach(cls, q) {
		t.Fatal("the class stayed closed after the clock moved on")
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

// TestAnswerLogSeek: reads decode the byte log from its seek marks.
// Over 3 mark intervals and more of rows of mixed kinds, delivered 0, 1
// and more than 2^14 ticks apart (a three-byte delay), AnswersSince(c)
// is Answers()[c:] with the delivery times for every c, and still is
// once the log before the last mark is overwritten — the read starts at
// a mark. A DISTINCT log whose every row arrives twice keeps each row's
// first delivery. Explain's Answers is Count, the footprint counts log
// rows and view rows, and a retired subscription reads empty.
func TestAnswerLogSeek(t *testing.T) {
	eng, nodes := testNet(t, 8, 1, Config{}, overlay.DefaultConfig())
	submit := func(sql string) string {
		qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(sql, testCat))
		if err != nil {
			t.Fatal(err)
		}
		return qid
	}
	qid := submit("select R.B, S.B, S.C from R,S where R.A=S.A")
	distinct := submit("select distinct R.B, S.C from R,S where R.A=S.A")
	aggID := submit("select S.B, count(*) from R,S where R.A=S.A group by S.B")
	eng.Run()
	p := eng.procs[nodes[0].ID()]

	const n = 3*markEvery + 17
	gaps := []int64{0, 1, 1<<14 + 3, 0, 2}
	now := int64(eng.sim.Now())
	var want, wantDistinct []Answer
	for r := range n {
		now += gaps[r%len(gaps)]
		row := []relation.Value{relation.Int64(int64(r*37 - 1000)), relation.String64(fmt.Sprint("s\x00", r%4)), relation.Int64(math.MinInt64 + int64(r))}
		eng.recordAnswer(sim.Time(now), &answerMsg{QueryID: qid, Values: row}, p)
		want = append(want, Answer{Query: qid, Row: row, At: now})
		drow := []relation.Value{row[0], row[1]}
		wantDistinct = append(wantDistinct, Answer{Query: distinct, Row: drow, At: now})
		for range 2 { // the second delivery repeats the row
			eng.recordAnswer(sim.Time(now), &answerMsg{QueryID: distinct, Values: drow}, p)
			now += gaps[(r+1)%len(gaps)]
		}
	}
	for i, g := range []string{"a", "b", "a"} {
		eng.recordAggUpdate(sim.Time(now), &aggUpdateMsg{QueryID: aggID, Group: g, Epoch: int64(i), Ver: 1, Row: []relation.Value{relation.String64(g), relation.Int64(1)}}, p)
	}

	check := func(label, id string, want []Answer, from int) {
		t.Helper()
		if eng.AnswerCount(id) != len(want) || (from < 0 && !reflect.DeepEqual(eng.Answers(id), want)) {
			t.Fatalf("%s: Answers() is not the %d rows delivered, or Count %d", label, len(want), eng.AnswerCount(id))
		}
		for c := from; c <= len(want)+1; c++ {
			got, w := eng.AnswersSince(id, c), want[min(max(c, 0), len(want)):]
			if len(got) != len(w) || (len(w) > 0 && !reflect.DeepEqual(got, w)) {
				t.Fatalf("%s: AnswersSince(%d) is not Answers()[%d:]", label, c, c)
			}
		}
	}
	check("plain", qid, want, -1)
	check("distinct", distinct, wantDistinct, -1)
	s := eng.sub(qid)
	if len(s.marks) != (n-1)/markEvery {
		t.Fatalf("%d seek marks for %d rows, want %d", len(s.marks), n, (n-1)/markEvery)
	}
	if r, err := eng.Explain(qid); err != nil || r.Answers != int64(eng.AnswerCount(qid)) {
		t.Fatalf("Explain reports %v answers (%v), Count %d", r.Answers, err, eng.AnswerCount(qid))
	}
	if r, err := eng.Explain(aggID); err != nil || r.AggUpdates != 3 {
		t.Fatalf("Explain reports %v view rows (%v), want 3", r.AggUpdates, err)
	}
	if f := eng.subsFootprint(); f.rows != 2*n+3 {
		t.Fatalf("footprint counts %d rows, want %d log rows and 3 view rows", f.rows, 2*n+3)
	}

	last := len(s.marks) * markEvery
	for i := range s.marks[len(s.marks)-1].off {
		s.log[i] = 0xff
	}
	check("past the last mark", qid, want, last)

	if err := eng.Unsubscribe(qid); err != nil {
		t.Fatal(err)
	}
	for c := -1; c <= n+1; c++ {
		if got := eng.AnswersSince(qid, c); got != nil {
			t.Fatalf("retired: AnswersSince(%d) holds %d rows", c, len(got))
		}
	}
	if r, err := eng.Explain(qid); eng.Answers(qid) != nil || eng.AnswerCount(qid) != 0 || err != nil || r.Answers != 0 {
		t.Fatalf("retired: Count %d, Explain %v answers (%v)", eng.AnswerCount(qid), r.Answers, err)
	}
	if f := eng.subsFootprint(); f.rows != n+3 {
		t.Fatalf("footprint counts %d rows after the retirement, want %d", f.rows, n+3)
	}
}

// TestSubscriberFootprint guards the subscriber's representation: a
// logged row is its bytes, and a view row is its values in one array.
// 10,000 two-int rows of one digit each hold 7 log bytes per row (one
// delay byte and three per value) plus the seek marks — at most 8 — where
// a row of relation.Values took 72. 1,000 new (group, epoch) view rows
// allocate no more than the same appends to a fresh row array and
// version slice and the same inserts into a fresh map, so nothing per
// row, and rewriting them in place allocates nothing.
func TestSubscriberFootprint(t *testing.T) {
	eng, nodes := testNet(t, 8, 1, Config{}, overlay.DefaultConfig())
	submit := func(sql string) string {
		qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(sql, testCat))
		if err != nil {
			t.Fatal(err)
		}
		return qid
	}
	qid := submit("select R.B, S.B from R,S where R.A=S.A")
	eng.Run()
	p := eng.procs[nodes[0].ID()]
	const n = 10000
	now := int64(eng.sim.Now())
	for r := range n {
		now += int64(r % 3)
		eng.recordAnswer(sim.Time(now), &answerMsg{QueryID: qid, Values: []relation.Value{relation.Int64(int64(r % 10)), relation.Int64(int64(r % 7))}}, p)
	}
	s := eng.sub(qid)
	bytes := len(s.log) + len(s.marks)*int(unsafe.Sizeof(logMark{}))
	if bytes > 8*n {
		t.Errorf("%d two-int rows hold %d log bytes, %.2f per row: want at most 8", n, bytes, float64(bytes)/n)
	}

	const rows = 1000
	msgs := make([]*aggUpdateMsg, rows)
	for i := range msgs {
		g := fmt.Sprint(i / 2)
		msgs[i] = &aggUpdateMsg{Group: g, Epoch: int64(i % 2), Ver: 1, Row: []relation.Value{relation.String64(g), relation.Int64(int64(i))}}
	}
	measure := func(f func()) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	var growth, view, rewrite uint64 = math.MaxUint64, math.MaxUint64, math.MaxUint64
	for range 3 { // the least of three, against a stray allocation elsewhere in the process
		growth = min(growth, measure(func() {
			ref := &footprintRef // a record's fields live on the heap
			ref.view, ref.vrows, ref.vers = make(map[viewKey]int32), nil, nil
			for i, m := range msgs {
				ref.view[viewKey{group: m.Group, epoch: m.Epoch}] = int32(i)
				ref.vrows = append(ref.vrows, m.Row...)
				ref.vers = append(ref.vers, m.Ver)
			}
		}))
		aggID := submit("select S.B, count(*) from R,S where R.A=S.A group by S.B")
		view = min(view, measure(func() {
			for _, m := range msgs {
				m.QueryID = aggID
				eng.recordAggUpdate(sim.Time(now), m, p)
			}
		}))
		rewrite = min(rewrite, measure(func() {
			for _, m := range msgs {
				m.Ver = 2
				eng.recordAggUpdate(sim.Time(now), m, p)
				m.Ver = 1
			}
		}))
		if got := eng.AggRows(aggID); len(got) != rows {
			t.Fatalf("the view holds %d rows, want %d", len(got), rows)
		}
	}
	t.Logf("%.2f log bytes per row; %d allocations for %d new view rows, %d for the growth alone", float64(bytes)/n, view, rows, growth)
	if view > growth {
		t.Errorf("%d new view rows: %d allocations, want at most the %d of the row array's and the map's growth", rows, view, growth)
	}
	if rewrite != 0 {
		t.Errorf("rewriting %d view rows in place: %d allocations, want 0", rows, rewrite)
	}
}

// footprintRef is TestSubscriberFootprint's reference record.
var footprintRef subscription
