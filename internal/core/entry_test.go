package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
)

// TestEntrySizeClass pins a rewrite's one object, its entry (the stored
// query, the query and their arrays), in the 576-byte size class, where
// it is 568 bytes: two more words move every rewrite, and every spare
// on the free list, into the 640-byte class. storedQuery.gen and pos sit
// in the padding after level.
func TestEntrySizeClass(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 576 {
		t.Fatalf("an entry is %d bytes, past the 576-byte size class", n)
	}
}

// storedOnce checks the premise of allocating a query together with its
// stored entry, and of reusing a dead rewrite's entry: across the
// network no two holders of an entry — stored entries, waiting
// placements, Evals in flight and the engine's free list — share a
// storedQuery, nor two of them a query. So no spare entry is stored,
// waiting or on the wire, and none is spare twice.
func storedOnce(eng *Engine) error {
	sqs := make(map[*storedQuery]string)
	qs := make(map[*query.Query]string)
	var err error
	hold := func(sq *storedQuery, where string) {
		if prev, dup := sqs[sq]; dup && err == nil {
			err = fmt.Errorf("one entry of %q is %s and %s", sq.q.ID, prev, where)
		}
		if prev, dup := qs[sq.q]; dup && err == nil {
			err = fmt.Errorf("one query %q is %s and %s", sq.q.ID, prev, where)
		}
		sqs[sq], qs[sq.q] = where, where
	}
	for _, n := range eng.Ring().Nodes() {
		eng.procs[n.ID()].st.each(classQueries|classPending, nil, func(op stateOp) {
			if op.pp != nil {
				hold(op.pp.sq, fmt.Sprintf("waiting at %s as a placement", n.ID()))
				return
			}
			hold(op.sq, fmt.Sprintf("stored at %s under %s", n.ID(), op.key))
		})
	}
	eng.sim.EachPending(func(c sim.Ctx) {
		if m, ok := c.C.(*evalMsg); ok {
			hold(m.SQ, fmt.Sprintf("carried by an Eval in flight to %s", m.Key))
		}
	})
	for i, e := range eng.free.spare {
		hold(&e.storedQuery, fmt.Sprintf("spare entry %d", i))
	}
	return err
}

// TestNoQueryStoredTwice: every path that places a query — submission,
// a canonical pipeline, a rewrite, a walk restarted by a leave or a
// crash, an input re-indexed after a crash — hands over an entry
// nothing else holds. The subscriber-side query mix (duplicates, a
// permuted form, DISTINCT, aggregates) runs with and without sharing,
// without replication (crashes re-index inputs) and at rf 2 (they
// promote), at one worker and at four, while nodes join, leave and
// crash with walks in flight; after every drain every stored entry and
// waiting placement is held once.
func TestNoQueryStoredTwice(t *testing.T) {
	for _, rf := range []int{1, 2} {
		for _, sharing := range []bool{false, true} {
			for _, workers := range []int{0, 4} {
				t.Run(fmt.Sprintf("rf%d/sharing=%v/workers%d", rf, sharing, workers), func(t *testing.T) {
					cfg := replCfg(rf)
					if sharing {
						cfg.Catalog = testCat
					}
					eng, nodes := lossyNet(t, 24, 11, workers, cfg, lossyNetCfg(nil))
					for i, sql := range subsQueries {
						if _, err := eng.SubmitQuery(nodes[i%3], sqlparse.MustParse(sql, testCat)); err != nil {
							t.Fatal(err)
						}
					}
					for i := 0; i < 60; i++ {
						alive := eng.Ring().Nodes()
						eng.PublishTuple(alive[i%len(alive)], mkTuple("R", int64(i%3), int64(i%4), int64(i)))
						eng.PublishTuple(alive[(i+5)%len(alive)], mkTuple("S", int64(i%3), int64(i%2), int64(i)))
						eng.PublishTuple(alive[(i+9)%len(alive)], mkTuple("J", int64(i), int64(i%2), int64(i%5)))
						eng.RunUntil(eng.Sim().Now() + 1) // walks and placements in flight
						var err error
						switch i % 10 {
						case 3:
							_, err = eng.JoinNode(alive[i%len(alive)].ID() + id.ID(1+i))
						case 6:
							err = eng.LeaveNode(alive[(2*i)%len(alive)])
						case 9:
							err = eng.CrashNode(alive[(3*i)%len(alive)])
						}
						if err != nil {
							t.Fatal(err)
						}
						if err := storedOnce(eng); err != nil {
							t.Fatalf("step %d, mid-drain: %v", i, err)
						}
						eng.Run()
						if err := storedOnce(eng); err != nil {
							t.Fatalf("step %d: %v", i, err)
						}
						checkNothingWaits(t, eng)
					}
					if c := eng.Counters; sharing && c.QueriesShared == 0 || c.RewritesStored == 0 {
						t.Fatalf("the run stored %d rewrites and shared %d queries: a path went unexercised",
							c.RewritesStored, c.QueriesShared)
					}
				})
			}
		}
	}
}

// TestFreeEntriesAcrossGoroutines: goroutines that take entries from one
// free list and return them at once never hold one entry together; and
// the list keeps no more than spareCap spares.
func TestFreeEntriesAcrossGoroutines(t *testing.T) {
	var free freeEntries
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := fmt.Sprint(g)
			var held []*storedQuery
			for i := range 3000 {
				sq := free.newEntry()
				if sq.q.ID != "" {
					t.Errorf("goroutine %d took an entry %s still holds", g, sq.q.ID)
					return
				}
				sq.q.ID, sq.q.Depth = mine, 1
				held = append(held, sq)
				if i%3 == 2 { // return all but the newest
					for _, sq := range held[:len(held)-1] {
						if sq.q.ID != mine {
							t.Errorf("goroutine %d's entry was taken by %s", g, sq.q.ID)
							return
						}
						free.put(sq)
					}
					held = held[len(held)-1:]
				}
			}
		}()
	}
	wg.Wait()
	var dead []*storedQuery
	for range spareCap + 1 {
		sq := free.newEntry()
		sq.q.Depth = 1
		dead = append(dead, sq)
	}
	for _, sq := range dead {
		free.put(sq)
	}
	if n := len(free.spare); n != spareCap {
		t.Fatalf("%d dead entries put, the list keeps %d; want its cap, %d", len(dead), n, spareCap)
	}
}

// recycleQueries are windowed queries on both clocks, so that rewrites
// die all the time: at drains, triggered out of window between them,
// at departures and with their pipeline's teardown.
var recycleQueries = []string{
	"select R.B, S.B from R,S where R.A=S.A within 6 tuples",
	"select R.B, J.C from R,S,J where R.A=S.A and S.B=J.B within 9 tuples",
	"select distinct R.A, S.B from R,S where R.A=S.A within 5 tuples",
	"select S.B, J.C from R,S,J where R.A=S.A and S.B=J.B within 7 ticks tumbling",
	"select R.A, count(*), sum(S.B) from R,S where R.A=S.A group by R.A within 8 tuples",
}

// TestSpareEntriesHeldByNothing: a dead rewrite's entry goes to the
// engine's free list only once nothing holds it, and leaves it only as
// a new rewrite. Windowed queries run on the paths a rewrite dies on —
// the drain, a trigger out of window between drains (tuples in flight
// across RunUntil steps), joins, leaves and crashes at rf 1 and 2 with
// walks in flight (restarted or lost, rewrites lost with them) and
// teardown with a walk waiting and with an Eval in flight — and after
// every step no entry on the list is stored, waiting, on the wire,
// listed on a record or on the list twice (storedOnce, ownershipErr).
// The list is used both ways, and four workers, which take and return
// spares in no fixed order, deliver the same answers and counts as one.
func TestSpareEntriesHeldByNothing(t *testing.T) {
	for _, rf := range []int{1, 2} {
		var ref string
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("rf %d, %d workers", rf, workers)
			eng, nodes := lossyNet(t, 24, 17, workers, replCfg(rf), lossyNetCfg(nil))
			check := func(when string) {
				t.Helper()
				if err := storedOnce(eng); err != nil {
					t.Fatalf("%s, %s: %v", label, when, err)
				}
				if err := ownershipErr(eng); err != nil {
					t.Fatalf("%s, %s: %v", label, when, err)
				}
			}
			var qids []string
			for i, sql := range recycleQueries {
				qid, err := eng.SubmitQuery(nodes[i%3], sqlparse.MustParse(sql, testCat))
				if err != nil {
					t.Fatal(err)
				}
				qids = append(qids, qid)
			}
			eng.Run()
			grew, shrank, prev, departures, downs := false, false, 0, 0, 0
			for i := 0; i < 80; i++ {
				alive := eng.Ring().Nodes()
				eng.PublishTuple(alive[i%len(alive)], mkTuple("R", int64(i%13), int64(i%4), int64(i)))
				eng.PublishTuple(alive[(i+5)%len(alive)], mkTuple("S", int64(i%13), int64(i%5), int64(i)))
				eng.PublishTuple(alive[(i+9)%len(alive)], mkTuple("J", int64(i), int64(i%5), int64(i%5)))
				eng.RunUntil(eng.Sim().Now() + sim.Time(1+i%7)) // Evals, walks and tuples in flight
				check(fmt.Sprintf("step %d, mid-drain", i))
				// Every fifth step a node joins, and every tenth one leaves
				// and another crashes; a node with walks in flight departs
				// at once, by a leave or a crash in turn, which restarts or
				// loses them, while the ring keeps more than 20 nodes.
				var busy *chord.Node
				for _, n := range alive {
					if k := len(eng.procs[n.ID()].st.pending); k > 0 && (busy == nil || k > len(eng.procs[busy.ID()].st.pending)) {
						busy = n
					}
				}
				leaving := alive[(2*i)%len(alive)]
				if busy != nil {
					leaving = busy
				}
				var err error
				switch {
				case i%5 == 3:
					_, err = eng.JoinNode(alive[i%len(alive)].ID() + id.ID(1+i))
				case i%10 == 6 || busy != nil && len(alive) > 20 && departures%2 == 0:
					err = eng.LeaveNode(leaving)
					departures++
				case i%10 == 9 || busy != nil && len(alive) > 20:
					err = eng.CrashNode(leaving)
					departures++
				}
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("step %d, after churn", i))
				// From step 30 on, the first pipeline that lists a waiting
				// walk is torn down, and then the first with an Eval in
				// flight, which arrives as a straggler.
				for _, qid := range qids {
					s, flying := eng.sub(qid), false
					eng.sim.EachPending(func(c sim.Ctx) {
						if m, ok := c.C.(*evalMsg); ok && m.SQ.pipe == s {
							flying = true
						}
					})
					if i >= 30 && s.cls != nil && (downs == 0 && len(s.pending) > 0 || downs == 1 && flying) {
						if err := eng.Unsubscribe(qid); err != nil {
							t.Fatal(err)
						}
						downs++
						check(fmt.Sprintf("step %d, after tearing %s down", i, qid))
					}
				}
				if i%3 == 2 {
					eng.Run()
					check(fmt.Sprintf("step %d", i))
					checkNothingWaits(t, eng)
				}
				n := len(eng.free.spare)
				grew, shrank, prev = grew || n > prev, shrank || n < prev, n
			}
			eng.Run()
			check("at the end")
			if !grew || !shrank || downs != 2 {
				t.Fatalf("%s: the free list grew %v and shrank %v, and %d pipelines were torn down; want both, and 2", label, grew, shrank, downs)
			}
			eng.Sync()
			got := fmt.Sprintf("%+v", eng.Counters)
			for _, qid := range qids {
				got += fmt.Sprint(answerBag(eng, qid), eng.AggRows(qid))
			}
			if ref == "" {
				ref = got
			} else if got != ref {
				t.Fatalf("%s: counters and answers differ from one worker's:\n%s\n%s", label, got, ref)
			}
		}
	}
}

// TestRewriteOwnsItsLists holds stored rewrites to the entry ownership
// rule: a rewrite's Select and Selections lie in its own entry's arrays
// or are an input query's lists, never in another rewrite's entry. The
// chain R ⋈ S ⋈ J on one equivalence class runs through every
// consumption order; its select list names no column of S, so when S is
// consumed in the middle the step binds nothing and a shortcut that
// shared the parent's list would leave the child in its parent's entry.
// The twelve submissions permute the FROM list and the conjuncts, so
// no two are byte-identical and each places a pipeline of its own.
func TestRewriteOwnsItsLists(t *testing.T) {
	perms := [][]string{{"R", "S", "J"}, {"R", "J", "S"}, {"S", "R", "J"}, {"S", "J", "R"}, {"J", "R", "S"}, {"J", "S", "R"}}
	orders := make(map[string]bool)
	for _, strat := range []Strategy{StrategyRIC, StrategyRandom} {
		eng, nodes := testNet(t, 16, 3, Config{Strategy: strat, Provenance: true}, overlay.DefaultConfig())
		for i := range 12 {
			where := []string{"R.A=S.A", "S.A=J.A"}
			if i >= len(perms) {
				where[0], where[1] = where[1], where[0]
			}
			sql := "select R.B, J.C from " + strings.Join(perms[i%len(perms)], ",") + " where " + strings.Join(where, " and ")
			if _, err := eng.SubmitQuery(nodes[i%len(nodes)], sqlparse.MustParse(sql, testCat)); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		relOf := make(map[int64]string) // publication sequence → relation
		for v := range int64(36) {
			for j, rel := range perms[v%6] {
				tu := mkTuple(rel, v, 100+v, 200+v)
				eng.PublishTuple(nodes[(int(v)+j)%len(nodes)], tu)
				relOf[tu.PubSeq] = rel
				eng.Run()
			}
		}

		inputs := make(map[any]bool) // the lists of every stored input query
		var rewrites []*storedQuery
		for _, n := range eng.Ring().Nodes() {
			eng.procs[n.ID()].st.each(classQueries, nil, func(op stateOp) {
				if q := op.sq.q; q.Depth == 0 {
					inputs[unsafe.SliceData(q.Select)] = true
					inputs[unsafe.SliceData(q.Selections)] = true
				} else {
					rewrites = append(rewrites, op.sq)
				}
			})
		}
		for _, sq := range rewrites {
			q, e := sq.q, (*entry)(unsafe.Pointer(sq))
			if &e.body != q {
				t.Fatalf("%v: stored rewrite %s is not an entry's", strat, q)
			}
			if p := unsafe.SliceData(q.Select); p != &e.sel[0] && !inputs[p] {
				t.Fatalf("%v: the select list of %s lies outside its entry and its input", strat, q)
			}
			if p := unsafe.SliceData(q.Selections); len(q.Selections) > 0 && p != &e.sels[0] && !inputs[p] {
				t.Fatalf("%v: the selections of %s lie outside its entry and its input", strat, q)
			}
			if q.Depth == 2 {
				orders[relOf[q.Lineage[0].Seq]+relOf[q.Lineage[1].Seq]+q.Relations[0]] = true
			}
		}
		if len(rewrites) == 0 {
			t.Fatalf("%v: no rewrite was stored", strat)
		}
	}
	for _, p := range perms {
		if o := p[0] + p[1] + p[2]; !orders[o] {
			t.Errorf("no stored rewrite consumed %s", o)
		}
	}
}

// TestPlacementAllocs pins what one trigger allocates once warm, from
// the stored query it meets to its rewrite's placement, and what the
// reply that releases a waiting placement allocates. While no rewrite
// has died, so the engine's free list is empty, a rewrite placed on a
// candidate-table hit is its entry alone (the Eval message is pooled
// and its report rides in the message's own array); so is one whose
// placement waits for a walk (the pendingPlacement is pooled, its slots
// inline, and the walk request is pooled, its keys in its own array).
// Once a rewrite died in a drain, the next one reuses its entry and
// allocates nothing. The reply — onRICReply merging the report, decide,
// the Eval send and the placement's return to its pool — allocates
// nothing. Delivery runs between the measured calls, outside the count.
func TestPlacementAllocs(t *testing.T) {
	eng, nodes := testNet(t, 16, 1, Config{}, overlay.DefaultConfig())
	p := eng.procs[nodes[0].ID()]
	sq := eng.free.entryOf(sqlparse.MustParse("select R.B, S.B from R,S,J where R.A=S.A and S.B=J.B", testCat))
	tu := mkTuple("R", 1, 2, 3)
	key := relation.ValueKeyOf("S", "A", relation.Int64(1)) // the rewrite's one candidate
	trigger := func() { p.trigger(eng.sim.Now(), sq, tu, false) }
	trigger() // warm: the plan, the interned key, the pools
	eng.Run()

	const runs = 200
	walks, stored := eng.Counters.RICRequests, eng.Counters.RewritesStored
	if n := allocsOf(runs, eng.Run, trigger); n != 1 {
		t.Errorf("a rewrite placed on a candidate-table hit: %d allocations, want 1 (its entry)", n)
	}
	if eng.Counters.RICRequests != walks || eng.Counters.RewritesStored != stored+runs {
		t.Fatalf("hits walked %d times and stored %d rewrites, want 0 and %d",
			eng.Counters.RICRequests-walks, eng.Counters.RewritesStored-stored, runs)
	}

	walks, stored = eng.Counters.RICRequests, eng.Counters.RewritesStored
	forget := func() { eng.Run(); delete(p.st.ct.entries, key) }
	if n := allocsOf(runs, forget, trigger); n != 1 {
		t.Errorf("a rewrite whose placement waits for a walk: %d allocations, want 1 (its entry)", n)
	}
	if eng.Counters.RICRequests != walks+runs || eng.Counters.RewritesStored != stored+runs {
		t.Fatalf("misses walked %d times and stored %d rewrites, want %d each",
			eng.Counters.RICRequests-walks, eng.Counters.RewritesStored-stored, runs)
	}

	// Each counted reply reports key to a placement that waits for it,
	// both made between the calls; the walk's own reply, delivered by the
	// next Run, finds nobody waiting and only feeds the table.
	owner := eng.ring.Owner(key.ID()).ID()
	var reply *ricReplyMsg
	waiting := func() {
		if len(p.st.pending) != 0 {
			t.Fatalf("a reply left %d placements waiting", len(p.st.pending))
		}
		forget()
		trigger()
		reply = newRICReplyMsg(p.node.ID(), []ricInfo{{Key: key, Rate: 1, Addr: owner, At: eng.sim.Now()}})
	}
	release := func() {
		p.onRICReply(eng.sim.Now(), reply)
		reply.recycle()
	}
	walks, stored = eng.Counters.RICRequests, eng.Counters.RewritesStored
	if n := allocsOf(runs, waiting, release); n != 0 {
		t.Errorf("a reply releasing a waiting placement: %d allocations, want 0", n)
	}
	eng.Run() // the last waiting placement's own walk places it
	if eng.Counters.RICRequests != walks+runs+1 || eng.Counters.RewritesStored != stored+runs+1 || len(p.st.pending) != 0 {
		t.Fatalf("replies: %d walks, %d rewrites stored, %d still waiting; want %d, %d and 0",
			eng.Counters.RICRequests-walks, eng.Counters.RewritesStored-stored, len(p.st.pending), runs+1, runs+1)
	}

	// A one-tuple window: the rewrite starts at the tuple's sequence, 0,
	// and dies at 1, which the horizon of the Run that stores it has
	// passed, so that Run's drain hands its entry to the free list.
	wq := eng.free.entryOf(sqlparse.MustParse("select R.B, S.B from R,S,J where R.A=S.A and S.B=J.B within 1 tuples", testCat))
	windowed := func() { p.trigger(eng.sim.Now(), wq, tu, false) }
	windowed()
	eng.Run()
	stored, expired := eng.Counters.RewritesStored, eng.Counters.QueriesExpired
	if n := allocsOf(runs, eng.Run, windowed); n != 0 {
		t.Errorf("a rewrite made after one died: %d allocations, want 0 (a dead rewrite's entry)", n)
	}
	if eng.Counters.RewritesStored != stored+runs || eng.Counters.QueriesExpired != expired+runs {
		t.Fatalf("windowed: %d rewrites stored and %d expired, want %d each",
			eng.Counters.RewritesStored-stored, eng.Counters.QueriesExpired-expired, runs)
	}
}

// TestPublishAllocs pins Procedure 1's publisher side at nothing once
// warm: PublishTuple of a k-attribute tuple builds its 2k pooled tuple
// messages, their keys and identifiers in the engine's scratch, and
// MultiSend orders the legs in its lane's buffer. The tuple itself is
// the caller's. Delivery runs between the measured calls.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops puts, so the 2k pooled messages allocate")
	}
	eng, nodes := testNet(t, 16, 1, Config{}, overlay.DefaultConfig())
	for _, k := range []int{1, 3, 8} {
		attrs, vals := make([]string, k), make([]relation.Value, k)
		for i := range attrs {
			attrs[i], vals[i] = fmt.Sprintf("A%d", i), relation.Int64(int64(i))
		}
		schema := relation.MustSchema(fmt.Sprintf("P%d", k), attrs...)
		const runs = 100
		tuples := make([]*relation.Tuple, runs+1)
		for i := range tuples {
			tuples[i] = relation.MustTuple(schema, vals...)
		}
		next := 0
		publish := func() { eng.PublishTuple(nodes[3], tuples[next]); next++ }
		publish() // warm: the interned keys, the pools, the scratch
		eng.Run()
		published, delivered := eng.Counters.TuplesPublished, eng.net.Delivered
		if n := allocsOf(runs, eng.Run, publish); n != 0 {
			t.Errorf("publishing a %d-attribute tuple: %d allocations, want 0", k, n)
		}
		if got, want := eng.net.Delivered-delivered, int64(2*k*runs); eng.Counters.TuplesPublished != published+runs || got != want {
			t.Fatalf("k=%d: %d tuples published, %d messages delivered; want %d and %d",
				k, eng.Counters.TuplesPublished-published, got, runs, want)
		}
	}
}

// allocsOf returns the heap objects f allocates per call over runs
// calls, rounded down as testing.AllocsPerRun rounds, with between run
// before every call and after the last one, outside the count.
func allocsOf(runs int, between, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var total uint64
	for range runs {
		between()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	between()
	return total / uint64(runs)
}
