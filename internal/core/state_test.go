package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rjoin/internal/agg"
	"rjoin/internal/id"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
)

// equal reports the first divergence between two states over the wanted
// classes, nil when they hold the same entries in the same order. ALTT
// lists compare on their entries still live at now: expiry is an
// unlogged local prune, so a mirror legitimately trails its primary by
// the expired prefix. The dirty sets of aggregator groups are flush
// bookkeeping of the live copy and are not compared.
func (s *state) equal(o *state, want class, now sim.Time) error {
	if want&classQueries != 0 {
		if len(s.queries) != len(o.queries) {
			return fmt.Errorf("queries under %d keys, other %d", len(s.queries), len(o.queries))
		}
		for key, list := range s.queries {
			ol := o.queries[key]
			if len(ol) != len(list) {
				return fmt.Errorf("key %s: %d queries, other %d", key, len(list), len(ol))
			}
			for i, a := range list {
				b := ol[i]
				if a.q != b.q || a.key != b.key || a.level != b.level || a.agg != b.agg ||
					a.replID != b.replID || a.triggers != b.triggers ||
					!maps.Equal(a.seen, b.seen) || !slices.Equal(a.combined, b.combined) {
					return fmt.Errorf("key %s: stored query %d (identity %d) diverged", key, i, a.replID)
				}
			}
		}
	}
	if want&classTuples != 0 {
		if len(s.tuples) != len(o.tuples) {
			return fmt.Errorf("tuples under %d keys, other %d", len(s.tuples), len(o.tuples))
		}
		for key, list := range s.tuples {
			if !slices.Equal(list, o.tuples[key]) {
				return fmt.Errorf("key %s: tuple lists diverged (%d vs %d)", key, len(list), len(o.tuples[key]))
			}
		}
	}
	if want&classALTT != 0 {
		live := func(m map[relation.Key][]alttEntry) map[relation.Key][]alttEntry {
			out := make(map[relation.Key][]alttEntry)
			for key, list := range m {
				for _, e := range list {
					if e.expireAt >= now {
						out[key] = append(out[key], e)
					}
				}
			}
			return out
		}
		a, b := live(s.altt), live(o.altt)
		if len(a) != len(b) {
			return fmt.Errorf("live ALTT under %d keys, other %d", len(a), len(b))
		}
		for key, list := range a {
			if !slices.Equal(list, b[key]) {
				return fmt.Errorf("key %s: live ALTT entries diverged (%d vs %d)", key, len(list), len(b[key]))
			}
		}
	}
	if want&classStats != 0 {
		if len(s.stats) != len(o.stats) {
			return fmt.Errorf("stats for %d keys, other %d", len(s.stats), len(o.stats))
		}
		for key, st := range s.stats {
			if ost := o.stats[key]; ost == nil || *ost != *st {
				return fmt.Errorf("key %s: rate statistic diverged", key)
			}
		}
	}
	if want&classAggs != 0 {
		if len(s.aggs) != len(o.aggs) {
			return fmt.Errorf("%d aggregator groups, other %d", len(s.aggs), len(o.aggs))
		}
		for key, g := range s.aggs {
			og := o.aggs[key]
			if og == nil {
				return fmt.Errorf("agg group %s missing", key)
			}
			if g.qid != og.qid || g.owner != og.owner || g.gkey != og.gkey || g.pubAt != og.pubAt ||
				!slices.Equal(g.group, og.group) {
				return fmt.Errorf("agg group %s: identity or watermark diverged (pubAt %d vs %d)", key, g.pubAt, og.pubAt)
			}
			if !reflect.DeepEqual(g.epochs, og.epochs) {
				return fmt.Errorf("agg group %s: partials diverged", key)
			}
			if len(g.lins)+len(og.lins) > 0 && !reflect.DeepEqual(g.lins, og.lins) {
				return fmt.Errorf("agg group %s: lineage sets diverged", key)
			}
		}
	}
	if want&classCT != 0 && !maps.Equal(s.ct.entries, o.ct.entries) {
		return fmt.Errorf("candidate tables diverged (%d vs %d entries)", s.ct.size(), o.ct.size())
	}
	if want&classPending != 0 {
		if len(s.pending) != len(o.pending) {
			return fmt.Errorf("%d pending walks, other %d", len(s.pending), len(o.pending))
		}
		for reqID, pp := range s.pending {
			if opp := o.pending[reqID]; opp == nil || opp.q != pp.q {
				return fmt.Errorf("pending walk %d diverged", reqID)
			}
		}
		// The waiting index is derived per state, not copied: a mirror
		// keeps a placement's query alone and so indexes nothing.
		for _, st := range []*state{s, o} {
			if err := st.waitingErr(); err != nil {
				return err
			}
		}
	}
	return nil
}

// waitingErr checks the waiting index against the class it is derived
// from: a key is in it iff some pending placement still misses it, and
// under each key stand exactly the placements that do, once each.
func (s *state) waitingErr() error {
	want := make(map[relation.Key][]int64)
	for reqID, pp := range s.pending {
		for _, c := range pp.cands {
			if pp.misses(c.Key) {
				want[c.Key] = append(want[c.Key], reqID)
			}
		}
	}
	if len(s.waiting) != len(want) {
		return fmt.Errorf("waiting index holds %d keys, pending placements miss %d", len(s.waiting), len(want))
	}
	for key, ids := range want {
		got := slices.Clone(s.waiting[key])
		slices.Sort(got)
		slices.Sort(ids)
		if !slices.Equal(got, ids) {
			return fmt.Errorf("key %s: placements %v wait in the index, %v miss it", key, got, ids)
		}
	}
	return nil
}

// stateFixture supplies the immutable objects store-level tests build
// entries from: a plain, a DISTINCT and an aggregate query, the
// aggregate's spec, and a few keys.
type stateFixture struct {
	plain, distinct, aggQ *query.Query
	spec                  *agg.Spec
	keys                  []relation.Key
}

func newStateFixture() *stateFixture {
	f := &stateFixture{
		plain:    sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat),
		distinct: sqlparse.MustParse("select distinct S.B from R,S where R.A=S.A", testCat),
		aggQ:     sqlparse.MustParse("select R.A, count(*), max(S.B) from R,S where R.A=S.A group by R.A", testCat),
	}
	f.plain.ID, f.distinct.ID, f.aggQ.ID = "plain", "distinct", "agg"
	f.distinct.Depth = 1
	f.spec = agg.SpecOf(f.aggQ)
	for _, k := range []string{"R+A", "R+A+1", "S+A+2", "S+B"} {
		f.keys = append(f.keys, relation.KeyOf(k))
	}
	return f
}

func (f *stateFixture) specOf(qid string) *agg.Spec {
	if qid == f.aggQ.ID {
		return f.spec
	}
	return nil
}

func (f *stateFixture) logging() *state {
	s := newState(f.specOf)
	s.logging = true
	return s
}

func (f *stateFixture) stored(q *query.Query, key relation.Key) *storedQuery {
	return &storedQuery{q: q, key: key, level: query.ValueLevel, agg: q.IsAggregate()}
}

func (f *stateFixture) row(group, v int64) []relation.Value {
	return []relation.Value{relation.Int64(group), relation.Int64(0), relation.Int64(v)}
}

func (f *stateFixture) lin(seq int64) []query.LineageStep {
	return []query.LineageStep{{Pub: 7, Seq: seq, Node: 9}}
}

// checkCopies asserts the two copy paths of a logging primary: its op
// log replayed into a fresh mirror, and its each() sequence cloned into
// a fresh state, both reproduce it.
func checkCopies(t *testing.T, f *stateFixture, a *state, now sim.Time) {
	t.Helper()
	mirror := newMirror(f.specOf)
	for _, op := range a.outbox {
		mirror.apply(op)
	}
	if err := a.equal(mirror, classMirrored, now); err != nil {
		t.Fatalf("log replayed into a mirror: %v", err)
	}
	snap := newState(f.specOf)
	a.each(classAll, nil, func(op stateOp) { snap.apply(op.clone()) })
	if err := a.equal(snap, classAll, now); err != nil {
		t.Fatalf("each() replayed into an empty state: %v", err)
	}
}

// stateRoundTrips holds one scenario per op kind: the mutator calls
// that end in the kind's op. Adding an op kind without a row here fails
// TestStateOpRoundTrips.
func stateRoundTrips(f *stateFixture) map[opKind]func(s *state) {
	k := f.keys
	tu := mkTuple("R", 1, 2, 3)
	return map[opKind]func(s *state){
		opAddQuery: func(s *state) { s.addQuery(f.stored(f.plain, k[0])) },
		opRemoveQuery: func(s *state) {
			sq := f.stored(f.plain, k[0])
			s.addQuery(f.stored(f.distinct, k[0]))
			s.addQuery(sq)
			s.removeQuery(sq)
		},
		opTrigger: func(s *state) {
			sq := f.stored(f.distinct, k[1])
			s.addQuery(sq)
			s.trigger(sq, "B=4|", 11)
		},
		opAddTuple: func(s *state) { s.addTuple(k[1], tu) },
		opRemoveTuple: func(s *state) {
			s.addTuple(k[1], tu)
			s.addTuple(k[1], mkTuple("R", 1, 5, 6))
			s.removeTuple(k[1], tu.PubSeq)
		},
		opAddALTT: func(s *state) {
			s.addALTT(k[0], alttEntry{t: tu, expireAt: 9})
			s.addALTT(k[0], alttEntry{t: mkTuple("R", 2, 2, 2), expireAt: 4}) // moved entry: lands in front
		},
		opStat: func(s *state) {
			s.recordArrival(k[2], 5, 10)
			s.mergeStat(k[3], rateStat{epoch: 3, countCur: 2, countPrev: 1})
		},
		opAggFold: func(s *state) {
			s.aggFold(aggKeyOf("agg", "1"), "agg", 42, 0, f.row(1, 5), f.lin(1), 17)
			s.aggFold(aggKeyOf("agg", "1"), "agg", 42, 1, f.row(1, 8), f.lin(2), 12)
		},
		opAggMerge: func(s *state) {
			src := newState(f.specOf)
			src.aggFold(aggKeyOf("agg", "2"), "agg", 42, 0, f.row(2, 3), f.lin(3), 21)
			s.aggFold(aggKeyOf("agg", "2"), "agg", 42, 0, f.row(2, 9), f.lin(4), 20)
			s.aggMerge(aggKeyOf("agg", "2"), src.aggs[aggKeyOf("agg", "2")])
		},
		opCT: func(s *state) {
			s.ctMerge(ricInfo{Key: k[2], Rate: 2.5, Addr: 77, At: 6})
			s.ctMerge(ricInfo{Key: k[2], Rate: 9, Addr: 78, At: 3}) // stale: ignored on both sides
		},
		opAddPending: func(s *state) {
			s.addPending(5, &pendingPlacement{q: f.plain, known: []ricInfo{{Key: k[0]}}})
		},
		opRemovePending: func(s *state) {
			s.addPending(5, &pendingPlacement{q: f.plain})
			s.addPending(6, &pendingPlacement{q: f.distinct})
			s.removePending(5)
		},
		opDropKey: func(s *state) {
			s.addQuery(f.stored(f.plain, k[0]))
			s.addTuple(k[0], tu)
			s.addTuple(k[1], tu)
			s.recordArrival(k[0], 1, 10)
			s.dropKey(k[0])
		},
	}
}

func TestStateOpRoundTrips(t *testing.T) {
	f := newStateFixture()
	cases := stateRoundTrips(f)
	for kind := opKind(0); kind < numOpKinds; kind++ {
		do, ok := cases[kind]
		if !ok {
			t.Errorf("op kind %d has no round-trip case", kind)
			continue
		}
		a := f.logging()
		do(a)
		// The scenario must actually produce its kind: logged by the
		// mutator, or — rate statistics are unmirrored — yielded by each().
		seen := slices.ContainsFunc(append(a.ops(classAll, nil), a.outbox...),
			func(op stateOp) bool { return op.kind == kind })
		if !seen {
			t.Errorf("op kind %d: scenario never produced the op", kind)
		}
		checkCopies(t, f, a, 0)
	}
	if len(cases) != int(numOpKinds) {
		t.Errorf("%d round-trip cases for %d op kinds", len(cases), numOpKinds)
	}
}

// TestStateCopyOwnsMutableParts is the aliasing rule: after a copy,
// mutating the primary must not show through in the mirror.
func TestStateCopyOwnsMutableParts(t *testing.T) {
	f := newStateFixture()
	a := f.logging()
	sq := f.stored(f.distinct, f.keys[1])
	a.addQuery(sq)
	gk := aggKeyOf("agg", "1")
	a.aggFold(gk, "agg", 42, 0, f.row(1, 5), f.lin(1), 17)
	mirror := newMirror(f.specOf)
	a.each(classMirrored, nil, func(op stateOp) { mirror.apply(op.clone()) })
	a.outbox = nil
	a.trigger(sq, "B=1|", 3)
	a.aggFold(gk, "agg", 42, 0, f.row(1, 6), f.lin(2), 30)
	if err := a.equal(mirror, classMirrored, 0); err == nil {
		t.Fatal("mirror followed the primary without receiving its ops: a copy aliases live state")
	}
	for _, op := range a.outbox {
		mirror.apply(op)
	}
	if err := a.equal(mirror, classMirrored, 0); err != nil {
		t.Fatalf("mirror diverged after catching up: %v", err)
	}
}

// checkDirtySet asserts the flush bookkeeping invariant: a live state's
// dirty-key set is exactly the keys of its groups with un-flushed
// epochs; a mirror tracks none, whatever its groups' own dirty maps say.
func checkDirtySet(t *testing.T, s *state, label string) {
	t.Helper()
	want := make(map[relation.Key]struct{})
	if s.bySq == nil {
		for k, g := range s.aggs {
			if len(g.dirty) > 0 {
				want[k] = struct{}{}
			}
		}
	}
	if !maps.Equal(s.dirtyAggs, want) {
		t.Fatalf("%s: dirty-key set has %d keys, %d groups hold un-flushed epochs", label, len(s.dirtyAggs), len(want))
	}
}

// TestStateRandomSequences is the store's property suite: whatever
// sequence of mutators runs against a logging primary, (1) the logged
// ops replayed into an empty mirror and each() replayed into an empty
// state both equal the primary, and (2) after every mutator the
// dirty-key set of the primary — and of a second live state that
// receives what the primary hands over — names exactly the groups with
// un-flushed epochs, while the mirror following the log tracks none.
func TestStateRandomSequences(t *testing.T) {
	f := newStateFixture()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := f.logging()
		heir := newState(f.specOf) // applies what take() hands over
		mirror, applied := newMirror(f.specOf), 0
		var now sim.Time
		var live []*storedQuery
		var pubSeq, reqID int64
		key := func() relation.Key { return f.keys[rng.Intn(len(f.keys))] }
		aggKey := func() (relation.Key, int64) {
			g := int64(rng.Intn(3))
			return aggKeyOf("agg", fmt.Sprint(g)), g
		}
		for step := 0; step < 300; step++ {
			now += sim.Time(rng.Intn(3))
			switch rng.Intn(20) {
			case 0, 1:
				q := []*query.Query{f.plain, f.distinct}[rng.Intn(2)]
				sq := f.stored(q, key())
				a.addQuery(sq)
				live = append(live, sq)
			case 2:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					a.removeQuery(live[i])
					live = slices.Delete(live, i, i+1)
				}
			case 3:
				if len(live) > 0 {
					pubSeq++
					a.trigger(live[rng.Intn(len(live))], fmt.Sprintf("B=%d|", rng.Intn(4)), pubSeq*int64(rng.Intn(2)))
				}
			case 4, 5:
				pubSeq++
				tu := mkTuple("R", int64(rng.Intn(3)), pubSeq, 0)
				tu.PubSeq = pubSeq
				a.addTuple(key(), tu)
			case 6:
				k := key()
				a.filterTuples(k, func(*relation.Tuple) bool { return rng.Intn(3) > 0 })
			case 7:
				a.addALTT(key(), alttEntry{t: mkTuple("S", 1, 1, 1), expireAt: now + sim.Time(rng.Intn(6))})
			case 8:
				a.alttScan(key(), now)
			case 9:
				a.recordArrival(key(), now, 8)
			case 10, 11:
				k, g := aggKey()
				a.aggFold(k, "agg", 42, int64(rng.Intn(2)), f.row(g, int64(rng.Intn(9))), f.lin(int64(step)), int64(now))
			case 12:
				a.ctMerge(ricInfo{Key: key(), Rate: float64(rng.Intn(5)), Addr: id.ID(rng.Intn(9)), At: now - sim.Time(rng.Intn(4))})
			case 13:
				if rng.Intn(2) == 0 || len(a.pending) == 0 {
					// A placement over a random candidate set, some of it
					// already answered by the table, at least one key not.
					reqID++
					pp := &pendingPlacement{q: f.plain}
					for i, j := range rng.Perm(len(f.keys))[:1+rng.Intn(len(f.keys))] {
						pp.cands = append(pp.cands, query.Candidate{Key: f.keys[j]})
						if i > 0 && rng.Intn(2) == 0 {
							pp.known = append(pp.known, ricInfo{Key: f.keys[j]})
						}
					}
					a.addPending(reqID, pp)
				} else {
					a.removePending(int64(rng.Intn(int(reqID))) + 1) // torn down, or long gone
				}
			case 19:
				// A report arrives: every placement waiting on its key has it,
				// and those it completed decide and leave, as onRICReply does.
				k := key()
				waiters := slices.Clone(a.waiting[k])
				ready := a.report(ricInfo{Key: k, At: now})
				for _, id := range waiters {
					if a.pending[id].misses(k) {
						t.Fatalf("seed %d step %d: placement %d waited on %s and was not told", seed, step, id, k)
					}
				}
				for _, id := range ready {
					if pp := a.pending[id]; len(pp.known) != len(pp.cands) {
						t.Fatalf("seed %d step %d: placement %d released with %d of %d reports", seed, step, id, len(pp.known), len(pp.cands))
					}
					a.removePending(id)
				}
				for id, pp := range a.pending {
					if len(pp.cands) > 0 && len(pp.known) == len(pp.cands) {
						t.Fatalf("seed %d step %d: placement %d holds every report and still waits", seed, step, id)
					}
				}
			case 14:
				k := key()
				a.dropKey(k)
				live = slices.DeleteFunc(live, func(sq *storedQuery) bool { return sq.key == k })
				if rng.Intn(2) == 0 {
					k, _ := aggKey()
					a.dropKey(k)
				}
			case 15:
				// A whole group arrives (handover, re-homing, promotion):
				// un-flushed, or flushed at its previous home.
				k, g := aggKey()
				src := newState(f.specOf)
				src.aggFold(k, "agg", 42, int64(rng.Intn(2)), f.row(g, int64(rng.Intn(9))), f.lin(int64(step)), int64(now))
				if rng.Intn(2) == 0 {
					src.flushDirty(func(*aggGroup) {})
				}
				a.aggMerge(k, src.aggs[k])
			case 16:
				// Keys move to a new owner, dirty groups among them.
				gk, _ := aggKey()
				qk := key()
				for _, op := range a.take(func(k relation.Key) bool { return k == gk || k == qk }) {
					heir.apply(op)
				}
				live = slices.DeleteFunc(live, func(sq *storedQuery) bool { return sq.key == qk })
			case 17:
				// A flush visits exactly the dirty groups, in key order.
				var want, got []*aggGroup
				for _, k := range sortedStateKeys(a.dirtyAggs) {
					want = append(want, a.aggs[k])
				}
				a.flushDirty(func(g *aggGroup) { got = append(got, g) })
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: flush visited %d groups, want the %d dirty ones in key order", seed, step, len(got), len(want))
				}
				if rng.Intn(2) == 0 {
					heir.flushDirty(func(*aggGroup) {})
				}
			case 18:
				if rng.Intn(8) == 0 { // the state moved away wholesale; its mirror goes with it
					a.clear()
					a.outbox, live = nil, nil
					mirror, applied = newMirror(f.specOf), 0
				}
			}
			for ; applied < len(a.outbox); applied++ {
				mirror.apply(a.outbox[applied])
			}
			label := fmt.Sprintf("seed %d step %d", seed, step)
			checkDirtySet(t, a, label+" (primary)")
			checkDirtySet(t, heir, label+" (heir)")
			checkDirtySet(t, mirror, label+" (mirror)")
			// The mirror's placements carry no candidates, so for it this
			// asserts an empty index.
			for _, st := range []*state{a, heir, mirror} {
				if err := st.waitingErr(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
		if err := a.equal(mirror, classMirrored, now); err != nil {
			t.Fatalf("seed %d: mirror following the log: %v", seed, err)
		}
		checkCopies(t, f, a, now)
		c := a.counts()
		if c.queries != len(live) {
			t.Fatalf("seed %d: counts() reports %d queries, %d are live", seed, c.queries, len(live))
		}
	}
}

// TestStateSweepOrder: a sweep that matches nothing reports so and logs
// nothing; one that matches removes — and mirrors the removals of —
// exactly the matching entries in each()'s order, whatever order the
// unordered first pass happened to meet them in.
func TestStateSweepOrder(t *testing.T) {
	f := newStateFixture()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := f.logging()
		for i := 0; i < 30; i++ {
			q := []*query.Query{f.plain, f.distinct}[rng.Intn(2)]
			a.addQuery(f.stored(q, relation.KeyOf(fmt.Sprintf("R+A+%d", rng.Intn(12)))))
			a.addPending(int64(i+1), &pendingPlacement{q: q})
			g := int64(rng.Intn(12))
			a.aggFold(aggKeyOf("agg", fmt.Sprint(g)), "agg", 42, 0, f.row(g, 1), nil, 0)
		}
		a.outbox = nil
		if a.sweep(classQueries|classPending, func(op stateOp) bool { return op.query().ID == "nobody" }) || len(a.outbox) != 0 {
			t.Fatalf("seed %d: a sweep matching nothing reported a hit or logged %d ops", seed, len(a.outbox))
		}
		for _, sw := range []struct {
			want  class
			match func(stateOp) bool
		}{
			{classQueries | classPending, func(op stateOp) bool { return op.query().ID == f.distinct.ID }},
			{classAggs, func(op stateOp) bool { return op.g.qid == "agg" }},
		} {
			var want []stateOp
			a.each(sw.want, nil, func(op stateOp) {
				switch {
				case !sw.match(op):
				case op.kind == opAddQuery:
					want = append(want, stateOp{kind: opRemoveQuery, key: op.key, id: op.sq.replID})
				case op.kind == opAddPending:
					want = append(want, stateOp{kind: opRemovePending, id: op.id})
				default:
					want = append(want, stateOp{kind: opDropKey, key: op.key})
				}
			})
			a.outbox = nil
			if !a.sweep(sw.want, sw.match) || len(want) == 0 {
				t.Fatalf("seed %d: sweep over classes %b found nothing", seed, sw.want)
			}
			if !reflect.DeepEqual(a.outbox, want) {
				t.Fatalf("seed %d: sweep over classes %b logged %d removals out of each() order (want %d)", seed, sw.want, len(a.outbox), len(want))
			}
			a.each(sw.want, nil, func(op stateOp) {
				if sw.match(op) {
					t.Fatalf("seed %d: a matching entry of kind %d survived the sweep", seed, op.kind)
				}
			})
		}
	}
}
