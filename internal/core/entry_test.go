package core

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"rjoin/internal/id"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sqlparse"
)

// TestEntrySizeClass pins a rewrite's one allocation, its entry (the
// stored query, the query and their arrays), in the 576-byte size class,
// where it is 568 bytes: one more word moves every rewrite into the
// 640-byte class. storedQuery.pos sits in the padding after level.
func TestEntrySizeClass(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 576 {
		t.Fatalf("an entry is %d bytes, past the 576-byte size class", n)
	}
}

// storedOnce checks the premise of allocating a query together with its
// stored entry: across the network no two stored entries or waiting
// placements share a storedQuery, nor two of them a query.
func storedOnce(eng *Engine) error {
	sqs := make(map[*storedQuery]string)
	qs := make(map[*query.Query]string)
	var err error
	for _, n := range eng.Ring().Nodes() {
		eng.procs[n.ID()].st.each(classQueries|classPending, nil, func(op stateOp) {
			sq, where := op.sq, fmt.Sprintf("stored at %s under %s", n.ID(), op.key)
			if op.pp != nil {
				sq, where = op.pp.sq, fmt.Sprintf("waiting at %s as a placement", n.ID())
			}
			if prev, dup := sqs[sq]; dup && err == nil {
				err = fmt.Errorf("one entry of %s is %s and %s", sq.q.ID, prev, where)
			}
			if prev, dup := qs[sq.q]; dup && err == nil {
				err = fmt.Errorf("one query %s is %s and %s", sq.q.ID, prev, where)
			}
			sqs[sq], qs[sq.q] = where, where
		})
	}
	return err
}

// TestNoQueryStoredTwice: every path that places a query — submission,
// a canonical pipeline, a rewrite, a containment replay, a walk
// restarted by a leave or a crash, an input re-indexed after a crash —
// hands over an entry nothing else holds. The subscriber-side query mix
// (duplicates, a containment child, DISTINCT, aggregates) runs with and
// without sharing, without replication (crashes re-index inputs) and at
// rf 2 (they promote), at one worker and at four, while nodes join,
// leave and crash with walks in flight; after every drain every stored
// entry and waiting placement is held once.
func TestNoQueryStoredTwice(t *testing.T) {
	for _, rf := range []int{1, 2} {
		for _, sharing := range []bool{false, true} {
			for _, workers := range []int{0, 4} {
				t.Run(fmt.Sprintf("rf%d/sharing=%v/workers%d", rf, sharing, workers), func(t *testing.T) {
					cfg := replCfg(rf)
					cfg.ShareExact = true
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
					if c := eng.Counters; sharing && c.ContainmentRewrites == 0 || c.RewritesStored == 0 {
						t.Fatalf("the run stored %d rewrites and replayed %d containment rows: a path went unexercised",
							c.RewritesStored, c.ContainmentRewrites)
					}
				})
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
func TestRewriteOwnsItsLists(t *testing.T) {
	const sql = "select R.B, J.C from R,S,J where R.A=S.A and S.A=J.A"
	perms := [][]string{{"R", "S", "J"}, {"R", "J", "S"}, {"S", "R", "J"}, {"S", "J", "R"}, {"J", "R", "S"}, {"J", "S", "R"}}
	orders := make(map[string]bool)
	for _, strat := range []Strategy{StrategyRIC, StrategyRandom} {
		eng, nodes := testNet(t, 16, 3, Config{Strategy: strat, Provenance: true}, overlay.DefaultConfig())
		for i := range 12 {
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
// reply that releases a waiting placement allocates. A rewrite placed
// on a candidate-table hit is its entry alone (the Eval message is
// pooled and its report rides in the message's own array); so is one
// whose placement waits for a walk (the pendingPlacement is pooled,
// its slots inline, and the walk request is pooled, its keys in its own
// array); and the reply — onRICReply merging the report, decide, the
// Eval send and the placement's return to its pool — allocates nothing.
// Delivery runs between the measured calls, outside the count.
func TestPlacementAllocs(t *testing.T) {
	eng, nodes := testNet(t, 16, 1, Config{}, overlay.DefaultConfig())
	p := eng.procs[nodes[0].ID()]
	sq := entryOf(sqlparse.MustParse("select R.B, S.B from R,S,J where R.A=S.A and S.B=J.B", testCat))
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
