package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
)

// replCfg is the engine configuration the durability tests run under:
// paper defaults plus successor-list replication at the given factor.
func replCfg(k int) Config {
	cfg := Config{}
	cfg.ReplicationFactor = k
	return cfg
}

// TestCrashPromotionExactlyOnce is the replication layer's completeness
// criterion, the crash analogue of TestGracefulLeaveExactlyOnce: with
// ReplicationFactor 2, the node holding the most rewritten state
// crashes mid-stream (tuples in flight), the surviving replica promotes
// its copy, and the delivered answer bag still equals the reference
// exactly — nothing lost to the crash, nothing duplicated by the
// promotion.
func TestCrashPromotionExactlyOnce(t *testing.T) {
	eng, nodes := testNet(t, 48, 3, replCfg(2), churnNetCfg())
	q := "select R.B, S.B from R,S where R.A=S.A"
	qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(q, testCat))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	var published []*relation.Tuple
	pub := func(i int, tu *relation.Tuple) {
		published = append(published, tu)
		alive := eng.Ring().Nodes()
		eng.PublishTuple(alive[i%len(alive)], tu)
	}
	for i := 0; i < 12; i++ {
		pub(i, mkTuple("R", int64(i%4), int64(i), 0))
	}
	eng.Run()

	victim := rewriteHolder(eng)
	if victim == nil {
		t.Fatal("no node holds rewritten state; workload too weak")
	}
	for i := 0; i < 12; i++ {
		pub(i, mkTuple("S", int64(i%4), int64(100+i), 0))
	}
	eng.RunUntil(eng.Sim().Now() + 1) // deliveries mid-flight
	if err := eng.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	eng.Run()
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
		t.Fatalf("answers across a crash with replication diverged:\ngot  %d rows\nwant %d rows", len(got), len(want))
	}
	if eng.Counters.ReplPromotions == 0 || eng.Counters.ReplEntriesPromoted == 0 {
		t.Fatalf("crash promoted nothing (promotions %d, entries %d): victim held no copy",
			eng.Counters.ReplPromotions, eng.Counters.ReplEntriesPromoted)
	}
	if eng.Counters.RewritesLost != 0 || eng.Counters.TuplesLost != 0 || eng.Counters.QueriesLost != 0 {
		t.Fatalf("replicated crash counted loss: %d rewrites, %d tuples, %d queries",
			eng.Counters.RewritesLost, eng.Counters.TuplesLost, eng.Counters.QueriesLost)
	}
}

// TestRepeatedCrashesStayComplete drives a stream while a third of the
// ring crashes one node at a time: each crash promotes, re-replication
// restores the factor before the next one, and the final bag is exact
// with zero counted loss. Factor 3 matters here beyond redundancy — a
// crashed node then has several surviving replicas, and promotion must
// pick the one the ring actually routes the dead arc to (its first
// successor), not an arbitrary group member.
func TestRepeatedCrashesStayComplete(t *testing.T) {
	for _, k := range []int{2, 3} {
		eng, nodes := testNet(t, 36, 7, replCfg(k), churnNetCfg())
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
				if err := eng.CrashNode(alive[(round*5)%len(alive)]); err != nil {
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
			t.Fatalf("k=%d: answers diverged after repeated crashes: got %d rows, want %d", k, len(got), len(want))
		}
		if eng.Counters.RewritesLost != 0 || eng.Counters.TuplesLost != 0 || eng.Counters.QueriesLost != 0 {
			t.Fatalf("k=%d: replicated crashes counted loss: %d rewrites, %d tuples, %d queries",
				k, eng.Counters.RewritesLost, eng.Counters.TuplesLost, eng.Counters.QueriesLost)
		}
		if eng.Counters.ReplSyncs == 0 {
			t.Fatal("repeated crashes opened no repair snapshot streams")
		}
	}
}

// TestCrashPromotionDistinct guards the replicated DISTINCT projection
// memory: the holder of a DISTINCT query's state crashes after
// consuming projections; if promotion resurrected the query without its
// memory, the post-crash stream would re-trigger consumed projections
// and deliver duplicate rows.
func TestCrashPromotionDistinct(t *testing.T) {
	eng, nodes := testNet(t, 48, 3, replCfg(2), churnNetCfg())
	q := "select distinct S.B from R,S where R.A=S.A"
	qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(q, testCat))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	var published []*relation.Tuple
	pub := func(i int, tu *relation.Tuple) {
		published = append(published, tu)
		alive := eng.Ring().Nodes()
		eng.PublishTuple(alive[i%len(alive)], tu)
	}
	// A small value domain so the same projections recur across waves.
	for i := 0; i < 10; i++ {
		pub(i, mkTuple("R", int64(i%3), int64(i), 0))
		pub(i+1, mkTuple("S", int64(i%3), int64(i%4), 0))
	}
	eng.Run()

	victim := rewriteHolder(eng)
	if victim == nil {
		t.Fatal("no rewritten state to crash")
	}
	if err := eng.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Replays of the same join values: consumed projections must stay
	// consumed across the promotion.
	for i := 0; i < 10; i++ {
		pub(i, mkTuple("S", int64(i%3), int64(i%4), 0))
		pub(i+1, mkTuple("R", int64(i%3), int64(100+i), 0))
	}
	eng.Run()

	parsed := sqlparse.MustParse(q, testCat)
	var want []string
	for _, r := range refeval.Distinct(refeval.Evaluate(parsed, published)) {
		want = append(want, r.Key())
	}
	got := answerBag(eng, qid)
	if len(want) == 0 {
		t.Fatal("reference produced no answers")
	}
	if len(got) != len(want) {
		t.Fatalf("DISTINCT across crash: got %d rows, want %d (duplicates or loss)", len(got), len(want))
	}
}

// TestCrashPromotionAggState: the heaviest aggregator node crashes
// mid-stream under replication; its per-(group, epoch) partials promote
// instead of counting into AggStateLost, and the final views equal the
// centralized reference fold.
func TestCrashPromotionAggState(t *testing.T) {
	eng, nodes := testNet(t, 48, 5, replCfg(2), churnNetCfg())
	var qids []string
	queries := aggTestQueries()
	for i, sql := range queries {
		qid, err := eng.SubmitQuery(nodes[i%len(nodes)], sqlparse.MustParse(sql, testCat))
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
	}
	eng.Run()

	var published []*relation.Tuple
	pub := func(i int, tu *relation.Tuple) {
		published = append(published, tu)
		alive := eng.Ring().Nodes()
		eng.PublishTuple(alive[i%len(alive)], tu)
	}
	for round := 0; round < 30; round++ {
		pub(round, mkTuple("R", int64(round%4), int64(round%7), 0))
		pub(round+1, mkTuple("S", int64(round%4), int64(round%5), 0))
		if round%3 == 0 {
			pub(round+2, mkTuple("J", 0, int64(round%5), 0))
		}
		if round%4 == 3 {
			eng.Run()
		} else {
			eng.RunUntil(eng.Sim().Now() + 2)
		}
		if round == 11 || round == 21 {
			victim := aggHolder(eng)
			if round == 21 {
				victim = rewriteHolder(eng)
			}
			if victim == nil {
				t.Fatal("no crash victim with state; workload too weak")
			}
			if err := eng.CrashNode(victim); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Run()

	for i, qid := range qids {
		aggViewsMatch(t, "replicated-crash", queries[i], eng, qid, published)
	}
	if eng.Counters.AggStateLost != 0 {
		t.Fatalf("replicated crashes lost %d aggregation partials", eng.Counters.AggStateLost)
	}
	if eng.Counters.ReplPromotions == 0 {
		t.Fatal("crashes promoted nothing")
	}
}

// TestLeaveWithReplicationInFlight: the replica of the heaviest rewrite
// holder leaves gracefully while tuples are in flight to that holder,
// and the holder itself leaves one tick later. Each leave drains its
// state to its successor and the groups around it are re-formed; every reference answer is still delivered exactly once and
// nothing is counted lost.
func TestLeaveWithReplicationInFlight(t *testing.T) {
	eng, nodes := testNet(t, 48, 3, replCfg(2), churnNetCfg())
	q := "select R.B, S.B from R,S where R.A=S.A"
	qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(q, testCat))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	var published []*relation.Tuple
	pub := func(i int, tu *relation.Tuple) {
		published = append(published, tu)
		alive := eng.Ring().Nodes()
		eng.PublishTuple(alive[i%len(alive)], tu)
	}
	for i := 0; i < 12; i++ {
		pub(i, mkTuple("R", int64(i%4), int64(i), 0))
	}
	eng.Run()

	victim := rewriteHolder(eng)
	if victim == nil {
		t.Fatal("no node holds rewritten state")
	}
	// The head of the victim's replica group leaves mid-stream.
	replica := eng.Ring().SuccessorList(victim.ID(), 1)[0]

	for i := 0; i < 12; i++ {
		pub(i, mkTuple("S", int64(i%4), int64(100+i), 0))
	}
	eng.RunUntil(eng.Sim().Now() + 1) // tuple deliveries mid-flight
	if err := eng.LeaveNode(replica); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Sim().Now() + 1)
	if err := eng.LeaveNode(eng.Ring().Owner(victim.ID())); err != nil { // the primary itself
		t.Fatal(err)
	}
	eng.Run()
	for i := 0; i < 8; i++ {
		pub(i, mkTuple("S", int64(i%4), int64(200+i), 0))
		pub(i+1, mkTuple("R", int64(i%4), int64(300+i), 0))
	}
	eng.Run()

	want := expectedBag(t, q, published)
	got := answerBag(eng, qid)
	if len(want) == 0 {
		t.Fatal("reference produced no answers")
	}
	if !bagsEqual(got, want) {
		t.Fatalf("answers diverged across leaves with updates in flight: got %d rows, want %d", len(got), len(want))
	}
	if eng.Counters.RewritesLost != 0 || eng.Counters.TuplesLost != 0 {
		t.Fatalf("graceful leaves under replication counted loss: %d rewrites, %d tuples",
			eng.Counters.RewritesLost, eng.Counters.TuplesLost)
	}
}

// nothingUncharged checks that no live node holds a replica op its
// group has not been charged for. It holds between any two events, not
// only at quiescence (TestMirrorsMatchAtEveryEvent).
func nothingUncharged(eng *Engine) error {
	for _, n := range eng.Ring().Nodes() {
		if ops := eng.procs[n.ID()].st.replOps; ops != 0 {
			return fmt.Errorf("%s holds %d uncharged replica ops", n.ID(), ops)
		}
	}
	return nil
}

// keyedAtOwners checks placement against the ring, not against any
// node's own belief: every keyed entry a live node holds, rate
// statistics aside (soft state that merges wherever it lands), sits at
// the ground-truth owner of its key.
func keyedAtOwners(eng *Engine) error {
	for _, n := range eng.Ring().Nodes() {
		var err error
		eng.procs[n.ID()].st.each(classKeyed&^classStats, nil, func(op stateOp) {
			if o := eng.Ring().Owner(op.key.ID()); err == nil && o != n {
				err = fmt.Errorf("%s holds an entry of kind %d under %s, whose owner is %s", n.ID(), op.kind, op.key, o.ID())
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// replicasTrackRing asserts the invariants observable on a drained
// engine — nothing counted lost, no replica op uncharged, every keyed
// entry at its ring owner, no placement left waiting — I1 to I3 of the
// membership checker, for hand-written scenarios.
func replicasTrackRing(t *testing.T, eng *Engine) {
	t.Helper()
	if eng.Ring().Size() < 2 {
		t.Fatal("no replica links to check")
	}
	if lost := memLost(eng); lost != 0 {
		t.Fatalf("%d entries counted lost", lost)
	}
	if err := nothingUncharged(eng); err != nil {
		t.Fatal(err)
	}
	if err := keyedAtOwners(eng); err != nil {
		t.Fatal(err)
	}
	checkNothingWaits(t, eng) // callers have drained: every placement decided
}

// TestMirrorsTrackLiveState drives a mixed workload — including an
// aggregate and a DISTINCT query, windowed within the hint of tuple GC,
// runtime joins, leaves and crashes — and asserts after every step, at
// quiescence, that every replica op was charged, keyed state sits at its
// ring owners and nothing is lost. The run's replication charge is
// pinned at both factors; a collected tuple charges nothing, since the
// drain is a local prune a replica repeats.
func TestMirrorsTrackLiveState(t *testing.T) {
	pinned := map[int]Counters{
		2: {ReplOps: 2003, ReplUpdates: 1766, ReplSyncs: 2, ReplPromotions: 1, ReplEntriesPromoted: 1},
		3: {ReplOps: 4003, ReplUpdates: 3530, ReplSyncs: 2, ReplPromotions: 1, ReplEntriesPromoted: 1},
	}
	for _, k := range []int{2, 3} {
		cfg := replCfg(k)
		cfg.TupleGC = true
		cfg.MaxWindowHint = 32
		eng, nodes := testNet(t, 32, 19, cfg, churnNetCfg())
		for _, sql := range []string{
			"select R.B, S.B from R,S where R.A=S.A within 32 tuples",
			"select distinct S.B from R,S where R.A=S.A within 24 tuples",
			"select R.A, count(*) from R,S where R.A=S.A group by R.A within 32 tuples tumbling",
		} {
			if _, err := eng.SubmitQuery(nodes[1], sqlparse.MustParse(sql, testCat)); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		for i := 0; i < 80; i++ {
			alive := eng.Ring().Nodes()
			eng.PublishTuple(alive[i%len(alive)], mkTuple("R", int64(i%2), int64(i), 0))
			eng.PublishTuple(alive[(i+3)%len(alive)], mkTuple("S", int64(i%2), int64(i%5), 0))
			eng.RunUntil(eng.Sim().Now() + 2)
			switch i {
			case 20:
				if _, err := eng.JoinNode(eng.Ring().Nodes()[0].ID() + 1); err != nil {
					t.Fatal(err)
				}
			case 40:
				alive := eng.Ring().Nodes()
				if err := eng.LeaveNode(alive[len(alive)/2]); err != nil {
					t.Fatal(err)
				}
			case 60:
				alive := eng.Ring().Nodes()
				if err := eng.CrashNode(alive[len(alive)/3]); err != nil {
					t.Fatal(err)
				}
			}
			eng.Run()
			replicasTrackRing(t, eng)
		}
		c := eng.Counters
		got := Counters{ReplOps: c.ReplOps, ReplUpdates: c.ReplUpdates, ReplSyncs: c.ReplSyncs,
			ReplPromotions: c.ReplPromotions, ReplEntriesPromoted: c.ReplEntriesPromoted}
		if got != pinned[k] {
			t.Fatalf("k=%d: replication charged %+v, pinned %+v", k, got, pinned[k])
		}
		if c.TuplesCollected == 0 {
			t.Fatalf("k=%d: tuple GC never fired; its charge went unexercised", k)
		}
	}
}

// TestPromoteeCrashLosesNothing pins what ReplicationFactor tolerates
// (DESIGN.md "Cost and guarantees"). Promotion runs inside CrashNode and
// re-replicates what it promotes before returning, so a promotee that
// crashes right behind its victim — no drain between — hands both
// nodes' state on to the next successor: nothing is lost at k = 2, 3
// or 4, and three adjacent nodes crashing inside one drain lose nothing
// at k = 2 either. Membership operations are serialized by the
// coordinator, so "simultaneous" crashes do not exist in this model and
// k >= 3 buys no failure pattern k = 2 lacks.
func TestPromoteeCrashLosesNothing(t *testing.T) {
	lostAfter := func(k, crashes int, drain bool) int64 {
		eng, nodes := testNet(t, 48, 13, replCfg(k), churnNetCfg())
		if _, err := eng.SubmitQuery(nodes[1], sqlparse.MustParse(
			"select R.B, S.B from R,S where R.A=S.A", testCat)); err != nil {
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
		base := memCounts(eng)
		if err := eng.CrashNode(victim); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < crashes; i++ {
			if drain {
				eng.Run()
			}
			promotee := eng.Ring().Owner(victim.ID())
			if promotee == nil {
				t.Fatal("no promotee")
			}
			if err := eng.CrashNode(promotee); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		if got := memCounts(eng); got != base {
			t.Fatalf("k=%d, %d crashes: live nodes hold %+v, before the crashes %+v", k, crashes, got, base)
		}
		if int(eng.Counters.ReplPromotions) != crashes {
			t.Fatalf("k=%d: %d crashes promoted %d times", k, crashes, eng.Counters.ReplPromotions)
		}
		return memLost(eng)
	}
	for _, k := range []int{2, 3, 4} {
		for _, drain := range []bool{false, true} {
			if lost := lostAfter(k, 2, drain); lost != 0 {
				t.Fatalf("k=%d drain=%v: victim and promotee crashing lost %d entries", k, drain, lost)
			}
		}
	}
	if lost := lostAfter(2, 3, false); lost != 0 {
		t.Fatalf("k=2: three adjacent crashes in one drain lost %d entries", lost)
	}
}

// TestRejectedJoinLeavesNoTrace: a join rejected because its identifier
// is already live must change nothing — no charge, no state moved — and
// a later crash of the node still promotes everything it held.
func TestRejectedJoinLeavesNoTrace(t *testing.T) {
	eng := memWorld(t, 2)
	base := memCounts(eng)
	victim := rewriteHolder(eng)
	if victim == nil {
		t.Fatal("no rewritten state stored")
	}
	before := eng.Counters
	if _, err := eng.JoinNode(victim.ID()); err == nil {
		t.Fatal("joining a live identifier was accepted")
	}
	if eng.Counters != before {
		t.Fatalf("the rejected join charged %+v, before it %+v", eng.Counters, before)
	}
	if err := eng.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i, err := range memCheck(eng, base) {
		if err != nil {
			t.Errorf("%s: %v", memInvariants[i], err)
		}
	}
	if eng.Counters.ReplPromotions != 1 {
		t.Fatalf("the crash promoted %d times, want 1", eng.Counters.ReplPromotions)
	}
}

// TestMirrorsMatchAtEveryEvent is the replica bookkeeping as a step
// invariant: on a stepped engine, after every single event and every
// membership call — tuples, rewrites and aggregate partials in flight —
// no replica op is left uncharged, every keyed entry sits at its ring
// owner, and nothing is counted lost. Nothing runs between a membership
// call and the next event: the call itself leaves every routing pointer
// exact, so a delivery for a key that moved is forwarded on arrival,
// never processed at the node it was addressed to. The script runs
// twice: bare, each membership call landing with publications still in
// flight, and stabilized, the overlay drained to quiescence before each
// call. All three checks hold after every event in both.
func TestMirrorsMatchAtEveryEvent(t *testing.T) {
	for _, settle := range []bool{true, false} {
		t.Run(map[bool]string{true: "stabilized", false: "bare"}[settle], func(t *testing.T) {
			mirrorsMatchAtEveryEvent(t, settle)
		})
	}
}

func mirrorsMatchAtEveryEvent(t *testing.T, settle bool) {
	eng, nodes := testNet(t, 12, 29, replCfg(3), churnNetCfg())
	check := func(when string) {
		t.Helper()
		if err := nothingUncharged(eng); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if err := keyedAtOwners(eng); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if lost := memLost(eng); lost != 0 {
			t.Fatalf("%s: %d entries counted lost", when, lost)
		}
	}
	events := 0
	drain := func() { // Engine.Run, one event at a time
		for {
			for eng.Sim().PendingForeground() > 0 {
				eng.Sim().Step()
				events++
				check(fmt.Sprintf("after event %d", events))
			}
			eng.Sync()
			if !eng.flushAggregates() {
				return
			}
			check("after an aggregate flush")
		}
	}
	for i, sql := range []string{
		"select R.B, S.B from R,S where R.A=S.A",
		"select distinct S.B from R,S where R.A=S.A",
		"select R.A, count(*) from R,S where R.A=S.A group by R.A",
	} {
		if _, err := eng.SubmitQuery(nodes[i], sqlparse.MustParse(sql, testCat)); err != nil {
			t.Fatal(err)
		}
		check("after a submission")
	}
	drain()
	for i := 0; i < 20; i++ {
		alive := eng.Ring().Nodes()
		rel, b := "R", int64(i)
		if i%2 == 1 {
			rel, b = "S", int64(i%5)
		}
		eng.PublishTuple(alive[i%len(alive)], mkTuple(rel, int64(i%3), b, 0))
		check("after a publication")
		// On the bare run each membership change lands with publications
		// still in flight.
		if settle && (i == 8 || i == 12 || i == 16) {
			drain()
		}
		var err error
		switch i {
		case 8:
			err = eng.CrashNode(rewriteHolder(eng))
		case 12:
			_, err = eng.JoinNode(gapMid(alive, 4))
		case 16:
			err = eng.LeaveNode(alive[len(alive)/2])
		default:
			if i%4 == 1 {
				drain()
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after the membership call behind tuple %d", i))
	}
	drain()
	if memLost(eng) != 0 || eng.Counters.ReplPromotions != 1 || eng.Counters.ReplSyncs == 0 {
		t.Fatalf("lost %d entries, %d promotions, %d repair snapshots", memLost(eng), eng.Counters.ReplPromotions, eng.Counters.ReplSyncs)
	}
	if events < 100 {
		t.Fatalf("only %d events stepped; workload too weak", events)
	}
	t.Logf("the step invariants held after each of %d events", events)
}

// TestCrashDuringPlacementWalk: the submitting node crashes while the
// input query's RIC placement walk is still in flight — before any
// handler ran on it. Under rf 2 the walk is replicated state, so
// promotion restarts it; without replication recovery restarts it from
// its owner's side. Either way the query is recovered once, nothing is
// lost and the stream stays exact.
func TestCrashDuringPlacementWalk(t *testing.T) {
	for _, rf := range []int{1, 2} {
		t.Run(fmt.Sprintf("rf%d", rf), func(t *testing.T) {
			eng, nodes := testNet(t, 48, 21, replCfg(rf), churnNetCfg())
			q := "select R.B, S.B from R,S where R.A=S.A"
			qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(q, testCat))
			if err != nil {
				t.Fatal(err)
			}
			// No Run: the walk is pending at nodes[0] when it crashes.
			if len(eng.procs[nodes[0].ID()].st.pending) == 0 {
				t.Fatal("submission left no pending walk; placement completed synchronously")
			}
			if err := eng.CrashNode(nodes[0]); err != nil {
				t.Fatal(err)
			}
			eng.Run()

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
				t.Fatalf("crash during the placement walk lost the query: got %d rows, want %d", len(got), len(want))
			}
			if eng.Counters.QueriesLost != 0 || eng.Counters.QueriesRecovered != 1 {
				t.Fatalf("crash counted %d queries lost and %d recovered, want 0 and 1",
					eng.Counters.QueriesLost, eng.Counters.QueriesRecovered)
			}
		})
	}
}

// TestMoveNodeKeepsStateAtOwners: identifier movement re-homes stored
// keys wholesale; afterwards every keyed entry sits at its ring owner,
// every replica op was charged, nothing is lost and every stored entry
// is still stored exactly once.
func TestMoveNodeKeepsStateAtOwners(t *testing.T) {
	eng, nodes := testNet(t, 32, 23, replCfg(2), churnNetCfg())
	for _, sql := range []string{
		"select R.B, S.B from R,S where R.A=S.A",
		"select distinct S.B from R,S where R.A=S.A",
	} {
		if _, err := eng.SubmitQuery(nodes[1], sqlparse.MustParse(sql, testCat)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for i := 0; i < 16; i++ {
		eng.PublishTuple(nodes[i%len(nodes)], mkTuple("R", int64(i%3), int64(i), 0))
		eng.PublishTuple(nodes[(i+5)%len(nodes)], mkTuple("S", int64(i%3), int64(i%4), 0))
		eng.Run()
	}
	// Move the heaviest rewrite holder to the far side of the ring.
	victim := rewriteHolder(eng)
	if victim == nil {
		t.Fatal("no rewritten state stored")
	}
	base := memCounts(eng)
	if _, err := eng.MoveNode(victim, victim.ID()+1<<60); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	replicasTrackRing(t, eng)
	if got := memCounts(eng); got != base {
		t.Fatalf("live nodes hold %+v after the move, %+v before", got, base)
	}
}

// TestPrunedALTTEntryExpiresOnce: an ALTT entry expires once. The first
// quiescent Run past Δ drops it from its holder, counting it in
// ALTTExpired, and then the holder crashes under rf 2; the promotion must
// not count the dropped entry a second time.
func TestPrunedALTTEntryExpiresOnce(t *testing.T) {
	eng, nodes := testNet(t, 8, 1, replCfg(2), churnNetCfg())
	eng.PublishTuple(nodes[0], mkTuple("R", 1, 2, 3)) // one entry per attribute key
	eng.Run()
	_, _, entries := eng.StoredState()
	// A holder of exactly one ALTT entry that stores a tuple too, so that
	// its crash promotes.
	var holder *Proc
	for _, n := range eng.Ring().Nodes() {
		p := eng.procs[n.ID()]
		if c := p.st.counts(); c.altt == 1 && c.tuples > 0 {
			holder = p
			break
		}
	}
	if holder == nil {
		t.Fatal("no node holds exactly one ALTT entry beside other state; pick another seed")
	}
	var key relation.Key
	for k := range holder.st.altt {
		key = k
	}
	eng.RunUntil(eng.Sim().Now() + sim.Time(eng.Delta()) + 1)
	eng.Run()
	if live := holder.st.altt[key]; len(live) != 0 || eng.Counters.ALTTExpired != int64(entries) {
		t.Fatalf("the drain past Δ left %d entries live and counted %d expired, want 0 and %d", len(live), eng.Counters.ALTTExpired, entries)
	}
	if err := eng.CrashNode(holder.node); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if eng.Counters.ReplPromotions != 1 {
		t.Fatalf("the holder's crash promoted %d times, want 1", eng.Counters.ReplPromotions)
	}
	if got := eng.Counters.ALTTExpired; got != int64(entries) {
		t.Fatalf("%d ALTT entries expired, counted %d times", entries, got)
	}
}

// aggGroupsOf exposes a node's aggregator groups to the tests below.
func aggGroupsOf(p *Proc) map[relation.Key]*aggGroup { return p.st.aggs }

// TestSnapshotPromotionKeepsAggProvenance: a replica that received its copy
// by repair snapshot (not by the incremental stream) must promote
// aggregator groups with their provenance and latency watermark intact.
// The head of the origin's replica group leaves gracefully, so the
// origin is billed a snapshot to its next successor; then the origin
// crashes.
// The promoted groups' next updates must carry the lineage an uncrashed
// run carries, and their watermark must equal the dead primary's.
func TestSnapshotPromotionKeepsAggProvenance(t *testing.T) {
	// R.C=S.C pairs each R tuple with exactly one S tuple, so a view row's
	// lineage is the union over its rows and later rows cannot stand in
	// for the provenance of earlier ones.
	sql := "select R.A, count(*) from R,S where R.A=S.A and R.C=S.C group by R.A"
	run := func(churn bool) map[string][]int64 {
		cfg := replCfg(2)
		cfg.Provenance = true
		eng, nodes := testNet(t, 48, 5, cfg, churnNetCfg())
		qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(sql, testCat))
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		pub := func(i int) {
			eng.PublishTuple(nodes[1], mkTuple("R", int64(i%4), int64(i), int64(i)))
			eng.PublishTuple(nodes[2], mkTuple("S", int64(i%4), int64(i%3), int64(i)))
			eng.Run()
		}
		for i := 0; i < 16; i++ {
			pub(i)
		}
		if churn {
			origin := aggHolder(eng)
			if origin == nil || origin == nodes[0] || origin == nodes[1] || origin == nodes[2] {
				t.Fatal("no usable aggregator to crash; workload too weak")
			}
			replica := eng.Ring().SuccessorList(origin.ID(), 1)[0]
			if replica == nodes[0] || replica == nodes[1] || replica == nodes[2] {
				t.Fatal("replica target is a publisher or the owner; pick another seed")
			}
			syncs := eng.Counters.ReplSyncs
			if err := eng.LeaveNode(replica); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if eng.Counters.ReplSyncs == syncs {
				t.Fatal("the replica's departure opened no repair snapshot")
			}
			want := make(map[relation.Key]int64)
			for key, g := range aggGroupsOf(eng.procs[origin.ID()]) {
				want[key] = g.pubAt
			}
			if err := eng.CrashNode(origin); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			promoted := aggGroupsOf(eng.procs[eng.Ring().Owner(origin.ID()).ID()])
			for key, pubAt := range want {
				if g := promoted[key]; g == nil || g.pubAt != pubAt || pubAt == 0 {
					t.Fatalf("group %s promoted with watermark %v, the primary's was %d", key, g, pubAt)
				}
			}
			if eng.Counters.AggStateLost != 0 || eng.Counters.ReplPromotions != 1 {
				t.Fatalf("crash lost %d partials over %d promotions", eng.Counters.AggStateLost, eng.Counters.ReplPromotions)
			}
		}
		for i := 16; i < 24; i++ {
			pub(i)
		}
		// Lineage steps name the node that consumed each tuple, which the
		// churn legitimately changes; the publication sequences do not.
		out := make(map[string][]int64)
		for _, r := range eng.AggRows(qid) {
			seqs := make([]int64, 0, len(r.Lineage))
			for _, s := range r.Lineage {
				seqs = append(seqs, s.Seq)
			}
			slices.Sort(seqs)
			out[fmt.Sprintf("%s/%d", r.Group, r.Epoch)] = slices.Compact(seqs)
		}
		return out
	}
	want, got := run(false), run(true)
	if len(want) == 0 {
		t.Fatal("reference run produced no view rows")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregate provenance diverged across a snapshot-fed promotion:\ngot  %v\nwant %v", got, want)
	}
}
