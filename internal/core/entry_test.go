package core

import (
	"fmt"
	"testing"

	"rjoin/internal/id"
	"rjoin/internal/query"
	"rjoin/internal/sqlparse"
)

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
				sq, where = op.pp.sq, fmt.Sprintf("waiting at %s as placement %d", n.ID(), op.id)
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
// rf 2 (they promote), serial and at four workers, while nodes join,
// leave and crash with walks in flight; after every drain every stored
// entry and waiting placement is held once.
func TestNoQueryStoredTwice(t *testing.T) {
	for _, rf := range []int{1, 2} {
		for _, sharing := range []bool{false, true} {
			for _, workers := range []int{0, 4} {
				t.Run(fmt.Sprintf("rf%d/sharing=%v/workers%d", rf, sharing, workers), func(t *testing.T) {
					cfg := replCfg(rf)
					cfg.ShareExact, cfg.ShareQueries, cfg.Catalog = true, sharing, testCat
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
						eng.Ring().TickStabilize()
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
