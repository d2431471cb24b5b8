package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/obs"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sqlparse"
)

// This file pins the single-flight walk: a placement whose missing
// candidates are already being fetched by a walk from the same node
// waits for that walk instead of sending its own, and a reply releases
// by key. The liveness half matters most — a follower has no message of
// its own on the wire, so everything that moves, removes or restarts the
// leader must leave the followers placeable.

// sfQueries are three pipelines over one pair of candidate keys (R+A,
// S+A): submitted from one node before anything runs, the first walks
// and the other two join.
var sfQueries = []string{
	"select R.B, S.B from R,S where R.A=S.A",
	"select R.C, S.C from R,S where R.A=S.A",
	"select S.B, R.C from S,R where S.A=R.A",
}

// sfModes are the engines the liveness tests run on: one worker
// ("serial") and four, each on a clean network, under a zero-rate fault plan (the
// reliable machinery on, nothing injected) and under real loss.
var sfModes = []struct {
	name    string
	workers int
	faults  *overlay.Faults
}{
	{"serial", 0, nil},
	{"workers4", 4, nil},
	{"serial/faults0", 0, &overlay.Faults{}},
	{"workers4/lossy", 4, lossyPlan()},
}

// sfSubmit submits sfQueries from one node and checks that they
// coalesced: one walk on the wire, three placements waiting.
func sfSubmit(t *testing.T, eng *Engine, owner *chord.Node) []string {
	t.Helper()
	var qids []string
	for _, sql := range sfQueries {
		qid, err := eng.SubmitQuery(owner, sqlparse.MustParse(sql, testCat))
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
	}
	eng.Sync()
	if st := eng.procs[owner.ID()].st; eng.Counters.RICRequests != 1 || len(st.pending) != 3 || len(st.waiting) != 2 {
		t.Fatalf("three placements over one candidate pair issued %d walks, %d pending on %d keys; want 1, 3, 2",
			eng.Counters.RICRequests, len(st.pending), len(st.waiting))
	}
	return qids
}

// sfPublish streams matching tuples, drained one pair at a time.
func sfPublish(eng *Engine, n int) []*relation.Tuple {
	var published []*relation.Tuple
	for i := 0; i < n; i++ {
		nodes := eng.Ring().Nodes()
		r, s := mkTuple("R", int64(i%3), int64(10+i), int64(i)), mkTuple("S", int64(i%3), int64(20+i), int64(2*i))
		published = append(published, r, s)
		eng.PublishTuple(nodes[(1+i)%len(nodes)], r)
		eng.PublishTuple(nodes[(2+i)%len(nodes)], s)
		eng.Run()
	}
	return published
}

// checkNothingWaits is the quiescence invariant of the pending class:
// after a Run no placement is waiting anywhere and no key is indexed —
// and none is still listed on its record (ownershipErr).
func checkNothingWaits(t *testing.T, eng *Engine) {
	t.Helper()
	for nid, p := range eng.procs {
		if c := p.st.counts(); c.pending != 0 || len(p.st.waiting) != 0 {
			t.Fatalf("drained, yet node %s holds %d pending placements and %d waiting keys", nid, c.pending, len(p.st.waiting))
		}
		if err := p.st.waitingErr(); err != nil {
			t.Fatalf("node %s: %v", nid, err)
		}
	}
	if err := ownershipErr(eng); err != nil {
		t.Fatal(err)
	}
}

func checkBags(t *testing.T, eng *Engine, qids []string, published []*relation.Tuple) {
	t.Helper()
	for i, qid := range qids {
		want := expectedBag(t, sfQueries[i], published)
		if got := answerBag(eng, qid); len(want) == 0 || !bagsEqual(got, want) {
			t.Fatalf("%s: got %d answers, want %d", sfQueries[i], len(got), len(want))
		}
	}
}

// TestMoveNodeDuringPlacementWalk: the subscriber moves while a RIC walk
// of its own is in flight — one walk serving three of its placements.
// The leave restarts all three at the successor, where they coalesce
// again behind one walk; the old reply — addressed to the vacated
// identifier, bounced to the same node — and the restarted walk's
// reply between them release the leader and both followers. The
// teleporting move this replaced carried the walk off to the new
// identifier and the reply found nobody waiting.
func TestMoveNodeDuringPlacementWalk(t *testing.T) {
	for _, m := range sfModes {
		t.Run(m.name, func(t *testing.T) {
			eng, nodes := lossyNet(t, 48, 105, m.workers, Config{}, lossyNetCfg(m.faults))
			qids := sfSubmit(t, eng, nodes[0])
			if _, err := eng.MoveNode(nodes[0], nodes[0].ID()+1<<60); err != nil {
				t.Fatal(err)
			}
			heir := eng.procs[eng.Ring().Owner(nodes[0].ID()).ID()]
			if len(heir.st.pending) != 3 || len(heir.st.waiting) != 2 || heir.st.waitingErr() != nil {
				t.Fatalf("the move left the successor %d pending placements on %d keys (%v); want 3 on 2",
					len(heir.st.pending), len(heir.st.waiting), heir.st.waitingErr())
			}
			eng.Run()
			checkNothingWaits(t, eng)
			if c := eng.Counters; c.QueriesLost != 0 || c.RICRequests != 2 {
				t.Fatalf("%d queries counted lost, %d walks issued; want 0 and 2, the origin's and the heir's restart", c.QueriesLost, c.RICRequests)
			}
			checkBags(t, eng, qids, sfPublish(eng, 6))
		})
	}
}

// TestUnsubscribeLeaderMidWalk: the placement that issued the walk is
// torn down while the walk is out. The walk is not the leader's — its
// reply is a set of reports — so the followers, which belong to other
// pipelines, are placed by it all the same.
func TestUnsubscribeLeaderMidWalk(t *testing.T) {
	for _, m := range sfModes {
		t.Run(m.name, func(t *testing.T) {
			eng, nodes := lossyNet(t, 48, 105, m.workers, Config{}, lossyNetCfg(m.faults))
			qids := sfSubmit(t, eng, nodes[0])
			if err := eng.Unsubscribe(qids[0]); err != nil {
				t.Fatal(err)
			}
			if st := eng.procs[nodes[0].ID()].st; len(st.pending) != 2 || st.waitingErr() != nil {
				t.Fatalf("teardown left %d pending placements (%v); want the 2 followers", len(st.pending), st.waitingErr())
			}
			eng.Run()
			checkNothingWaits(t, eng)
			if eng.Counters.RICRequests != 1 {
				t.Fatalf("%d walks issued; the followers needed none of their own", eng.Counters.RICRequests)
			}
			published := sfPublish(eng, 6)
			if n := len(eng.Answers(qids[0])); n != 0 {
				t.Fatalf("the unsubscribed leader holds %d answers", n)
			}
			want := [][]string{nil, expectedBag(t, sfQueries[1], published), expectedBag(t, sfQueries[2], published)}
			for i := 1; i < 3; i++ {
				if got := answerBag(eng, qids[i]); len(want[i]) == 0 || !bagsEqual(got, want[i]) {
					t.Fatalf("follower %s: got %d answers, want %d", sfQueries[i], len(got), len(want[i]))
				}
			}
		})
	}
}

// TestCrashOriginMidSharedWalk: at ReplicationFactor 2 the origin of a
// shared walk crashes with rewrites waiting on it. Its placements are
// replicated state; the promotee restarts them through place, where
// they coalesce again — and the dead walk's reply, bounced to the
// promotee, is merged rather than dropped. Nothing is lost and the
// restart costs fewer walks than placements.
func TestCrashOriginMidSharedWalk(t *testing.T) {
	for _, m := range sfModes {
		t.Run(m.name, func(t *testing.T) {
			eng, nodes := lossyNet(t, 48, 3, m.workers, replCfg(2), lossyNetCfg(m.faults))
			var qids []string
			for i, sql := range sfQueries {
				qid, err := eng.SubmitQuery(nodes[i], sqlparse.MustParse(sql, testCat))
				if err != nil {
					t.Fatal(err)
				}
				qids = append(qids, qid)
			}
			eng.Run()
			// One tuple triggers the input queries stored under R+A (the two
			// that name R first) in one handler: their rewrites bind the same
			// value, so they ask about the same key — one walk, one join.
			r := mkTuple("R", 1, 10, 0)
			eng.PublishTuple(nodes[5], r)
			var origin *Proc
			for step := 0; origin == nil && step < 64; step++ {
				eng.RunUntil(eng.Sim().Now() + 1)
				for _, n := range eng.Ring().Nodes() {
					if p := eng.procs[n.ID()]; len(p.st.pending) >= 2 {
						origin = p
					}
				}
			}
			if origin == nil {
				t.Fatal("no node ever held two rewrites pending together")
			}
			if len(origin.st.waiting) != 1 {
				t.Fatalf("the rewrites wait on %d keys, want the one they share", len(origin.st.waiting))
			}
			walks := eng.Counters.RICRequests
			if err := eng.CrashNode(origin.node); err != nil {
				t.Fatal(err)
			}
			eng.Sync()
			if got := eng.Counters.RICRequests - walks; got != 1 {
				t.Fatalf("the promotee restarted 2 placements with %d walks, want 1", got)
			}
			eng.Run()
			checkNothingWaits(t, eng)
			published := append([]*relation.Tuple{r}, sfPublish(eng, 6)...)
			checkBags(t, eng, qids, published)
			if c := eng.Counters; c.RewritesLost != 0 || c.QueriesLost != 0 || c.ReplPromotions != 1 {
				t.Fatalf("crash mid-walk: %d rewrites and %d queries lost, %d promotions", c.RewritesLost, c.QueriesLost, c.ReplPromotions)
			}
		})
	}
}

// TestJoinerForwardsReplyMidWalk (named for the forward this scenario
// once needed): a reply must not go astray. The origin leaves mid-walk
// and joiners take over the vacated identifier before the reply returns,
// so the reply — addressed to that identifier — lands at a joiner, which
// holds nothing. The leave restarted the origin's placement at the
// successor, so the joiner only merges the reply into its table; the
// successor's own walk places it. Two more queries submitted at the
// successor meanwhile joined that walk, so its one reply has to place
// all three.
func TestJoinerForwardsReplyMidWalk(t *testing.T) {
	for _, joinAt := range [][]id.ID{{1}, {0}, {1, 2}} { // offsets from the vacated identifier; 0 takes it exactly
		for _, m := range sfModes {
			t.Run(fmt.Sprint(m.name, joinAt), func(t *testing.T) {
				eng, nodes := lossyNet(t, 48, 105, m.workers, Config{}, lossyNetCfg(m.faults))
				origin, succ := nodes[0], nodes[1]
				submit := func(at *chord.Node, i int) string {
					qid, err := eng.SubmitQuery(at, sqlparse.MustParse(sfQueries[i], testCat))
					if err != nil {
						t.Fatal(err)
					}
					return qid
				}
				qids := []string{submit(origin, 0)}
				if err := eng.LeaveNode(origin); err != nil {
					t.Fatal(err)
				}
				for _, off := range joinAt {
					if _, err := eng.JoinNode(origin.ID() + off); err != nil {
						t.Fatal(err)
					}
				}
				qids = append(qids, submit(succ, 1), submit(succ, 2))
				eng.Sync()
				held := eng.procs[succ.ID()].st
				if eng.Counters.RICRequests != 2 || len(held.pending) != 3 {
					t.Fatalf("%d walks issued, the successor holds %d placements; want the origin's walk and its restart, and all 3 waiting on the restart",
						eng.Counters.RICRequests, len(held.pending))
				}
				eng.Run()
				checkNothingWaits(t, eng)
				if c := eng.Counters; c.RICRequests != 2 || c.RICReplies != 2 || c.QueriesLost != 0 {
					t.Fatalf("%d walks issued, %d replies received, %d queries lost; want 2, one per walk, 0",
						c.RICRequests, c.RICReplies, c.QueriesLost)
				}
				// All three queries were inserted before the first tuple: each
				// holds the full bag.
				checkBags(t, eng, qids, sfPublish(eng, 4))
			})
		}
	}
}

// TestForwardedReplyStopsAfterOneRound (named for the forward this
// scenario once needed): every node of the ring is replaced while a walk
// is out, so no node that receives the reply was there when it was
// issued. The first leave restarts the walk at its successor, a joiner
// that stays; the old reply lands there too and nothing passes it on.
func TestForwardedReplyStopsAfterOneRound(t *testing.T) {
	for _, m := range sfModes {
		t.Run(m.name, func(t *testing.T) {
			eng, nodes := lossyNet(t, 3, 105, m.workers, Config{}, lossyNetCfg(m.faults))
			qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(sfQueries[0], testCat))
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				if _, err := eng.JoinNode(n.ID() + 1); err != nil {
					t.Fatal(err)
				}
				if err := eng.LeaveNode(n); err != nil {
					t.Fatal(err)
				}
			}
			eng.RunUntil(eng.Sim().Now() + 4096)
			if fg := eng.Sim().PendingForeground(); fg != 0 {
				t.Fatalf("%d events still queued 4096 ticks on: a reply is circulating (received %d times)", fg, eng.Counters.RICReplies)
			}
			checkNothingWaits(t, eng)
			if c := eng.Counters; c.RICRequests != 2 || c.RICReplies != 2 || c.QueriesLost != 0 {
				t.Fatalf("%d walks, %d replies received, %d queries lost; want 2, one per walk, 0", c.RICRequests, c.RICReplies, c.QueriesLost)
			}
			checkBags(t, eng, []string{qid}, sfPublish(eng, 4))
		})
	}
}

// TestWaitingIndexFollowsHandover: the index is derived state. A
// membership move restarts each() sequence's walks through place, under
// fresh request ids in visiting order; indexing them afresh rebuilds it,
// request ids in order under every key.
func TestWaitingIndexFollowsHandover(t *testing.T) {
	f := newStateFixture()
	src := newState()
	cands := func(ks ...int) (out []relation.Key) {
		for _, k := range ks {
			out = append(out, f.keys[k])
		}
		return out
	}
	src.addPending(9, placement(f.plain, cands(0, 1, 2)))
	src.addPending(4, placement(f.distinct, cands(1, 3), f.keys[3]))
	src.addPending(6, placement(f.plain, cands(2, 1)))
	if ready := src.report(ricInfo{Key: f.keys[2]}); len(ready) != 0 {
		t.Fatalf("a report released %v, every waiter still misses a key", ready)
	}
	dst := newState()
	src.each(classPending, nil, func(op stateOp) { dst.lastReq++; dst.addPending(dst.lastReq, op.pp) })
	if err := dst.waitingErr(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(dst.waiting[f.keys[1]]), "[1 2 3]"; got != want || len(dst.waiting) != 2 {
		t.Fatalf("rebuilt index: %d keys, %s under the shared key; want 2 keys and %s", len(dst.waiting), got, want)
	}
	if ready := dst.report(ricInfo{Key: f.keys[1]}); fmt.Sprint(ready) != "[1 2]" {
		t.Fatalf("the shared key's report released %v, want [1 2] in waiting order", ready)
	}
}

// sfCascade is the workload TestSingleFlightWalks runs: chain joins
// sharing their join attributes, so one tuple triggers several stored
// queries under one key and their rewrites ask about the same candidates.
var sfCascade = []string{
	"select R.B, J.C from R,S,J where R.A=S.A and S.B=J.B",
	"select R.C, J.B from R,S,J where R.A=S.A and S.B=J.B",
	"select S.C, J.A from R,S,J where R.A=S.A and S.B=J.B",
	"select R.B, M.C from R,S,M where R.A=S.A and S.B=M.B",
	"select R.C, M.A from R,S,M where R.A=S.A and S.B=M.B",
	"select S.A, M.C from S,J,M where S.A=J.A and J.B=M.B",
	"select S.C, M.B from S,J,M where S.A=J.A and J.B=M.B",
	"select R.A, M.C from R,J,M where R.A=J.A and J.B=M.B",
	"select J.C, R.B from J,R,S where J.A=R.A and R.B=S.B",
	"select J.B, S.C from J,R,S where J.A=R.A and R.B=S.B",
}

// TestSingleFlightWalks holds the mechanism to its purpose on a cascade
// workload: bags stay exact, and the walks issued are fewer than the
// placements that missed the table — the count one walk per placement
// would have issued, read off the trace, where every placement that
// missed shows as exactly one ric.walk or ric.join — and no more than
// the distinct (node, key) pairs that missed (the run is shorter than a
// table entry's validity, so a pair is fetched once).
func TestSingleFlightWalks(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			tr := obs.NewTracer(0)
			cfg := Config{}
			cfg.Obs = obs.NewRecorder(obs.Views{Trace: tr})
			netCfg := churnNetCfg()
			netCfg.Obs = cfg.Obs
			eng, nodes := lossyNet(t, 32, 11, workers, cfg, netCfg)
			rng := rand.New(rand.NewSource(11))
			var qids []string
			var queries []*query.Query
			for _, sql := range sfCascade {
				q := sqlparse.MustParse(sql, testCat)
				qid, err := eng.SubmitQuery(nodes[rng.Intn(len(nodes))], q)
				if err != nil {
					t.Fatal(err)
				}
				qids, queries = append(qids, qid), append(queries, q)
			}
			eng.Run()
			zipf := rand.NewZipf(rng, 1.3, 1, 5)
			var published []*relation.Tuple
			for burst := 0; burst < 20; burst++ {
				for i := 0; i < 6; i++ {
					tu := mkTuple([]string{"R", "S", "J", "M"}[rng.Intn(4)], int64(zipf.Uint64()), int64(zipf.Uint64()), int64(rng.Intn(50)))
					published = append(published, tu)
					eng.PublishTuple(nodes[rng.Intn(len(nodes))], tu)
				}
				eng.Run()
			}
			checkNothingWaits(t, eng)
			if now := eng.Sim().Now(); now >= ctValidity {
				t.Fatalf("the run took %d ticks, longer than a table entry lives", now)
			}
			for i, qid := range qids {
				want := refeval.Evaluate(queries[i], published)
				if got := answersToRows(eng.Answers(qid)); len(want) == 0 || !refeval.EqualBags(got, want) {
					t.Fatalf("%s: delivered %d rows, reference %d", sfCascade[i], len(got), len(want))
				}
			}
			var misses, walks, joins int64
			pairs := make(map[string]bool)
			for _, ev := range tr.Events() {
				switch ev.Kind {
				case obs.KindCTMiss:
					misses++
					pairs[fmt.Sprintf("%x|%s", ev.Node, ev.Key)] = true
				case obs.KindRICWalk:
					walks++
				case obs.KindRICJoin:
					joins++
				}
			}
			got := eng.Counters.RICRequests
			t.Logf("%d placements missed the table on %d keys (%d distinct node-key pairs): %d walked, %d joined", walks+joins, misses, len(pairs), walks, joins)
			if got != walks || eng.Counters.RICReplies != walks {
				t.Fatalf("%d walks counted, %d replies, %d traced", got, eng.Counters.RICReplies, walks)
			}
			if misses < walks+joins {
				t.Fatalf("%d placements waited on %d misses: some placement waited without missing", walks+joins, misses)
			}
			if joins == 0 || got >= walks+joins {
				t.Fatalf("%d walks for %d placements that missed: nothing coalesced", got, walks+joins)
			}
			if got > int64(len(pairs)) {
				t.Fatalf("%d walks for %d distinct (node, key) misses: some pair was fetched twice", got, len(pairs))
			}
		})
	}
}
