package core

import (
	"fmt"
	"maps"
	"math/rand"
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
// classes, nil when they hold the same entries in the same order. The
// dirty sets of aggregator groups are flush bookkeeping and are not
// compared.
func (s *state) equal(o *state, want class) error {
	if want&classQueries != 0 {
		if len(s.queries) != len(o.queries) {
			return fmt.Errorf("queries under %d keys, other %d", len(s.queries), len(o.queries))
		}
		for key, list := range s.queries {
			if !slices.Equal(list, o.queries[key]) {
				return fmt.Errorf("key %s: stored query lists diverged (%d vs %d)", key, len(list), len(o.queries[key]))
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
		if len(s.altt) != len(o.altt) {
			return fmt.Errorf("ALTT under %d keys, other %d", len(s.altt), len(o.altt))
		}
		for key, list := range s.altt {
			if !slices.Equal(list, o.altt[key]) {
				return fmt.Errorf("key %s: ALTT entries diverged (%d vs %d)", key, len(list), len(o.altt[key]))
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
	// Groups and placements move, so the other state holds the very
	// objects.
	if want&classAggs != 0 && !maps.Equal(s.aggs, o.aggs) {
		return fmt.Errorf("aggregator groups diverged (%d vs %d)", len(s.aggs), len(o.aggs))
	}
	if want&classCT != 0 && !maps.Equal(s.ct.entries, o.ct.entries) {
		return fmt.Errorf("candidate tables diverged (%d vs %d entries)", s.ct.size(), o.ct.size())
	}
	if want&classPending != 0 {
		if !maps.Equal(s.pending, o.pending) {
			return fmt.Errorf("pending walks diverged (%d vs %d)", len(s.pending), len(o.pending))
		}
		// The waiting index is derived per state, not moved.
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

func (f *stateFixture) stored(q *query.Query, key relation.Key) *storedQuery {
	return &storedQuery{q: q, key: key, level: query.ValueLevel, agg: q.IsAggregate()}
}

func (f *stateFixture) row(group, v int64) []relation.Value {
	return []relation.Value{relation.Int64(group), relation.Int64(0), relation.Int64(v)}
}

func (f *stateFixture) lin(seq int64) []query.LineageStep {
	return []query.LineageStep{{Pub: 7, Seq: seq, Node: 9}}
}

// checkRoundTrip asserts that a state's each() sequence applied to an
// empty state reproduces it: the path handover and promotion take.
func checkRoundTrip(t *testing.T, f *stateFixture, a *state) {
	t.Helper()
	snap := newState(f.specOf)
	a.each(classAll, nil, snap.apply)
	if err := a.equal(snap, classAll); err != nil {
		t.Fatalf("each() replayed into an empty state: %v", err)
	}
}

// stateCharge is one mutator scenario and the replica ops it charges:
// the length of the op log the scenario wrote before the log gave way to
// a count (pinned at 9c30999), silent cases and one op per filter victim
// included.
type stateCharge struct {
	name string
	ops  int
	do   func(s *state)
}

// removeQuery removes one stored query through the filter mutator.
func removeQuery(s *state, sq *storedQuery) {
	s.filterQueries(sq.key, func(x *storedQuery) bool { return x != sq })
}

func stateCharges(f *stateFixture) []stateCharge {
	k := f.keys
	tu := mkTuple("R", 1, 2, 3)
	seqTuple := func(seq int64) *relation.Tuple {
		x := mkTuple("R", 1, seq, 0)
		x.PubSeq = seq
		return x
	}
	pending := func(keys ...int) *pendingPlacement {
		pp := &pendingPlacement{q: f.plain}
		for _, i := range keys {
			pp.cands = append(pp.cands, query.Candidate{Key: k[i]})
		}
		return pp
	}
	return []stateCharge{
		{"addQuery", 1, func(s *state) { s.addQuery(f.stored(f.plain, k[0])) }},
		{"filterQueries removing one", 3, func(s *state) {
			sq := f.stored(f.plain, k[0])
			s.addQuery(f.stored(f.distinct, k[0]))
			s.addQuery(sq)
			removeQuery(s, sq)
		}},
		{"filterQueries removing nothing", 1, func(s *state) {
			s.addQuery(f.stored(f.plain, k[0]))
			removeQuery(s, f.stored(f.plain, k[0]))
		}},
		{"trigger with projection and pubSeq", 2, func(s *state) {
			sq := f.stored(f.distinct, k[1])
			s.addQuery(sq)
			s.trigger(sq, "B=4|", 11)
		}},
		{"trigger with projection", 2, func(s *state) {
			sq := f.stored(f.distinct, k[1])
			s.addQuery(sq)
			s.trigger(sq, "B=4|", 0)
		}},
		{"trigger with pubSeq", 2, func(s *state) {
			sq := f.stored(f.plain, k[1])
			s.addQuery(sq)
			s.trigger(sq, "", 11)
		}},
		{"trigger leaving no memory", 1, func(s *state) {
			sq := f.stored(f.plain, k[1])
			s.addQuery(sq)
			s.trigger(sq, "", 0)
		}},
		{"addTuple", 1, func(s *state) { s.addTuple(k[1], tu) }},
		{"filterTuples: one op per victim", 8, func(s *state) {
			for seq := int64(0); seq < 5; seq++ {
				s.addTuple(k[1], seqTuple(seq))
			}
			s.filterTuples(k[1], func(x *relation.Tuple) bool { return x.PubSeq%2 == 1 })
		}},
		{"filterTuples keeping all", 2, func(s *state) {
			s.addTuple(k[1], seqTuple(1))
			s.addTuple(k[1], seqTuple(2))
			s.filterTuples(k[1], func(*relation.Tuple) bool { return true })
		}},
		{"addALTT", 2, func(s *state) {
			s.addALTT(k[0], alttEntry{t: tu, expireAt: 9})
			s.addALTT(k[0], alttEntry{t: mkTuple("R", 2, 2, 2), expireAt: 4}) // moved entry: lands in front
		}},
		{"alttScan prune", 1, func(s *state) {
			s.addALTT(k[0], alttEntry{t: tu, expireAt: 1})
			s.alttScan(k[0], 5)
		}},
		{"rate statistics", 0, func(s *state) {
			s.recordArrival(k[2], 5, 10)
			s.mergeStat(k[3], rateStat{epoch: 3, countCur: 2, countPrev: 1})
		}},
		{"aggFold", 2, func(s *state) {
			s.aggFold(aggKeyOf("agg", "1"), "agg", 42, 0, f.row(1, 5), f.lin(1), 17)
			s.aggFold(aggKeyOf("agg", "1"), "agg", 42, 1, f.row(1, 8), f.lin(2), 12)
		}},
		{"aggFold of an unsubscribed query", 0, func(s *state) {
			s.aggFold(aggKeyOf("plain", "1"), "plain", 42, 0, f.row(1, 5), nil, 17)
		}},
		{"aggMerge", 2, func(s *state) {
			src := newState(f.specOf)
			src.aggFold(aggKeyOf("agg", "2"), "agg", 42, 0, f.row(2, 3), f.lin(3), 21)
			s.aggFold(aggKeyOf("agg", "2"), "agg", 42, 0, f.row(2, 9), f.lin(4), 20)
			s.aggMerge(aggKeyOf("agg", "2"), src.aggs[aggKeyOf("agg", "2")])
		}},
		{"aggMerge of an unsubscribed query", 0, func(s *state) {
			s.aggMerge(aggKeyOf("plain", "1"), &aggGroup{qid: "plain"})
		}},
		{"ctMerge, stale included", 2, func(s *state) {
			s.ctMerge(ricInfo{Key: k[2], Rate: 2.5, Addr: 77, At: 6})
			s.ctMerge(ricInfo{Key: k[2], Rate: 9, Addr: 78, At: 3}) // stale: ignored, still charged
		}},
		{"addPending", 1, func(s *state) {
			s.addPending(5, &pendingPlacement{q: f.plain, known: []ricInfo{{Key: k[0]}}})
		}},
		{"removePending", 3, func(s *state) {
			s.addPending(5, &pendingPlacement{q: f.plain})
			s.addPending(6, &pendingPlacement{q: f.distinct})
			s.removePending(5)
		}},
		{"removePending of a placement long gone", 1, func(s *state) { s.removePending(7) }},
		{"report", 1, func(s *state) {
			s.addPending(5, pending(0))
			s.report(ricInfo{Key: k[0]})
		}},
		{"dropKey", 4, func(s *state) {
			s.addQuery(f.stored(f.plain, k[0]))
			s.addTuple(k[0], tu)
			s.addTuple(k[1], tu)
			s.recordArrival(k[0], 1, 10)
			s.dropKey(k[0])
		}},
		{"dropKey of an aggregator group", 2, func(s *state) {
			s.aggFold(aggKeyOf("agg", "1"), "agg", 42, 0, f.row(1, 5), nil, 17)
			s.dropKey(aggKeyOf("agg", "1"))
		}},
		{"dropKey of statistics alone", 0, func(s *state) {
			s.recordArrival(k[0], 1, 10)
			s.dropKey(k[0])
		}},
		{"dropKey of nothing", 0, func(s *state) { s.dropKey(k[0]) }},
		{"take", 4, func(s *state) {
			s.addQuery(f.stored(f.plain, k[0]))
			s.addTuple(k[1], tu)
			s.recordArrival(k[2], 1, 10)
			s.take(func(relation.Key) bool { return true })
		}},
		{"sweep", 7, func(s *state) {
			s.addQuery(f.stored(f.plain, k[0]))
			s.addQuery(f.stored(f.distinct, k[0]))
			s.addPending(3, &pendingPlacement{q: f.plain})
			s.aggFold(aggKeyOf("agg", "1"), "agg", 42, 0, f.row(1, 5), nil, 17)
			s.sweep(classAll, func(op stateOp) bool { return op.query() == f.plain || op.kind == opAggMerge })
		}},
	}
}

// TestStateOpRoundTrips pins the replica charge of every mutator and
// round-trips what each scenario leaves through each() and apply():
// between them the scenarios leave an entry of every op kind behind, so
// adding a kind without a scenario that stores one fails here.
func TestStateOpRoundTrips(t *testing.T) {
	f := newStateFixture()
	seen := make(map[opKind]bool)
	for _, c := range stateCharges(f) {
		a := newState(f.specOf)
		c.do(a)
		if a.replOps != c.ops {
			t.Errorf("%s: charged %d replica ops, want %d", c.name, a.replOps, c.ops)
		}
		a.each(classAll, nil, func(op stateOp) { seen[op.kind] = true })
		checkRoundTrip(t, f, a)
	}
	for kind := opKind(0); kind < numOpKinds; kind++ {
		if !seen[kind] {
			t.Errorf("op kind %d: no scenario leaves an entry of it", kind)
		}
	}
}

// checkDirtySet asserts the flush bookkeeping invariant: a state's
// dirty-key set is exactly the keys of its groups with un-flushed
// epochs.
func checkDirtySet(t *testing.T, s *state, label string) {
	t.Helper()
	want := make(map[relation.Key]struct{})
	for k, g := range s.aggs {
		if len(g.dirty) > 0 {
			want[k] = struct{}{}
		}
	}
	if !maps.Equal(s.dirtyAggs, want) {
		t.Fatalf("%s: dirty-key set has %d keys, %d groups hold un-flushed epochs", label, len(s.dirtyAggs), len(want))
	}
}

// TestStateRandomSequences is the store's property suite: whatever
// sequence of mutators runs against a state, (1) each() replayed into an
// empty state equals it, (2) after every mutator its dirty-key set — and
// that of a second live state that receives what it hands over — names
// exactly the groups with un-flushed epochs and its waiting index is
// exactly what its placements miss, and (3) the replica ops it charged
// per seed equal the length of the op log the same sequence wrote before
// the log gave way to a count (pinned at 9c30999).
func TestStateRandomSequences(t *testing.T) {
	f := newStateFixture()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := newState(f.specOf)
		heir := newState(f.specOf) // applies what take() hands over
		charged := 0
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
					removeQuery(a, live[i])
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
				if rng.Intn(8) == 0 { // the state moved away wholesale
					a.clear()
					charged += a.replOps
					a.replOps, live = 0, nil
				}
			}
			label := fmt.Sprintf("seed %d step %d", seed, step)
			checkDirtySet(t, a, label+" (primary)")
			checkDirtySet(t, heir, label+" (heir)")
			for _, st := range []*state{a, heir} {
				if err := st.waitingErr(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
		if charged += a.replOps; charged != randomSequenceCharges[seed-1] {
			t.Fatalf("seed %d: charged %d replica ops, the op log held %d", seed, charged, randomSequenceCharges[seed-1])
		}
		checkRoundTrip(t, f, a)
		c := a.counts()
		if c.queries != len(live) {
			t.Fatalf("seed %d: counts() reports %d queries, %d are live", seed, c.queries, len(live))
		}
	}
}

// randomSequenceCharges is, per seed of TestStateRandomSequences, the
// op log's length at 9c30999.
var randomSequenceCharges = [40]int{
	203, 232, 205, 201, 200, 201, 229, 224, 213, 204,
	206, 218, 213, 218, 202, 221, 224, 216, 215, 212,
	232, 204, 206, 220, 227, 203, 203, 199, 202, 208,
	202, 210, 195, 210, 226, 213, 207, 225, 202, 197,
}

// TestStateSweepOrder: a sweep that matches nothing reports so and
// charges nothing; one that matches removes exactly the matching
// entries, one replica op each, whatever order its unordered first pass
// happened to meet them in.
func TestStateSweepOrder(t *testing.T) {
	f := newStateFixture()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := newState(f.specOf)
		for i := 0; i < 30; i++ {
			q := []*query.Query{f.plain, f.distinct}[rng.Intn(2)]
			a.addQuery(f.stored(q, relation.KeyOf(fmt.Sprintf("R+A+%d", rng.Intn(12)))))
			a.addPending(int64(i+1), &pendingPlacement{q: q})
			g := int64(rng.Intn(12))
			a.aggFold(aggKeyOf("agg", fmt.Sprint(g)), "agg", 42, 0, f.row(g, 1), nil, 0)
		}
		a.replOps = 0
		if a.sweep(classQueries|classPending, func(op stateOp) bool { return op.query().ID == "nobody" }) || a.replOps != 0 {
			t.Fatalf("seed %d: a sweep matching nothing reported a hit or charged %d ops", seed, a.replOps)
		}
		for _, sw := range []struct {
			want  class
			match func(stateOp) bool
		}{
			{classQueries | classPending, func(op stateOp) bool { return op.query().ID == f.distinct.ID }},
			{classAggs, func(op stateOp) bool { return op.g.qid == "agg" }},
		} {
			matches := 0
			a.each(sw.want, nil, func(op stateOp) {
				if sw.match(op) {
					matches++
				}
			})
			a.replOps = 0
			if !a.sweep(sw.want, sw.match) || matches == 0 {
				t.Fatalf("seed %d: sweep over classes %b found nothing", seed, sw.want)
			}
			if a.replOps != matches {
				t.Fatalf("seed %d: sweep over classes %b charged %d ops for %d removals", seed, sw.want, a.replOps, matches)
			}
			a.each(sw.want, nil, func(op stateOp) {
				if sw.match(op) {
					t.Fatalf("seed %d: a matching entry of kind %d survived the sweep", seed, op.kind)
				}
			})
		}
	}
}
