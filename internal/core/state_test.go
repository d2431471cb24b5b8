package core

import (
	"fmt"
	"maps"
	"math"
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
// compared; the derived indexes are checked per state against what they
// are derived from.
func (s *state) equal(o *state, want class) error {
	if want&(classQueries|classTuples|classALTT|classAggs|classCT) != 0 {
		for _, st := range []*state{s, o} {
			if err := st.deathsErr(); err != nil {
				return err
			}
		}
	}
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
	// Groups move, so the other state holds the very objects.
	if want&classAggs != 0 && !maps.Equal(s.aggs, o.aggs) {
		return fmt.Errorf("aggregator groups diverged (%d vs %d)", len(s.aggs), len(o.aggs))
	}
	if want&classCT != 0 && !maps.Equal(s.ct.entries, o.ct.entries) {
		return fmt.Errorf("candidate tables diverged (%d vs %d entries)", s.ct.size(), o.ct.size())
	}
	return nil
}

// waitingErr checks the waiting index against the class it is derived
// from: a key is in it iff some pending placement still misses it, and
// under each key stand exactly the placements that do, once each.
func (s *state) waitingErr() error {
	want := make(map[relation.Key][]int64)
	for reqID, pp := range s.pending {
		for _, sl := range pp.slots {
			if pp.misses(sl.Key) {
				want[sl.Key] = append(want[sl.Key], reqID)
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

// deathsErr checks the death wheels against the entries they are derived
// from: every windowed rewrite is filed at its death on its clock, every
// stored tuple's key — under a reach — at its death on a clock, every
// ALTT entry's key at the first instant past its expiry, every
// candidate-table key no later than its entry's death, every aggregate
// epoch's group key at the epoch's death — unless the horizon passed it
// and a flush still owes one of its views — and the filings are
// ascending. An item whose entry left another way may stay filed.
func (s *state) deathsErr() error {
	var queries [numClocks]map[filing[*storedQuery]]bool
	for c := range s.rewrites {
		queries[c] = make(map[filing[*storedQuery]]bool)
		if err := filed(&s.rewrites[c], func(at int64, sq *storedQuery) { queries[c][filing[*storedQuery]{at, sq}] = true }); err != nil {
			return fmt.Errorf("clock %d: %v", c, err)
		}
	}
	// keys holds every key wheel's filings, by its row in mortals.
	var keys [len(mortals)]map[filing[relation.Key]]bool
	for i, m := range mortals {
		keys[i] = make(map[filing[relation.Key]]bool)
		if err := filed(&s.wheels[i], func(at int64, key relation.Key) { keys[i][filing[relation.Key]{at, key}] = true }); err != nil {
			return fmt.Errorf("class %b, clock %d: %v", m.cl, m.c, err)
		}
	}
	wheel := func(cl class, c clock) map[filing[relation.Key]]bool {
		return keys[slices.Index(mortals[:], mortal{cl, c})]
	}
	on := func(cl class, c clock, at int64, key relation.Key) bool {
		return wheel(cl, c)[filing[relation.Key]{at, key}]
	}
	// A tuple is filed at its sequence death, and once a drain found that
	// passed, at its time death: the filing whose drain will find it dead.
	if r := s.tupleReach(); r > 0 {
		for key, list := range s.tuples {
			for _, t := range list {
				seq, time := tupleDeath(t, clockSeq, r), tupleDeath(t, clockTime, r)
				if !on(classTuples, clockSeq, seq, key) && !on(classTuples, clockTime, time, key) {
					return fmt.Errorf("key %s: a tuple dying at %d on the sequence clock and %d on time is filed on neither", key, seq, time)
				}
			}
		}
	}
	for key, list := range s.queries {
		for _, sq := range list {
			if c, at, ok := deathOf(sq.q); ok && !queries[c][filing[*storedQuery]{at, sq}] {
				return fmt.Errorf("key %s: a rewrite dying at %d on clock %d is not filed", key, at, c)
			}
		}
	}
	for key, list := range s.altt {
		for _, e := range list {
			if !on(classALTT, clockTime, int64(e.expireAt)+1, key) {
				return fmt.Errorf("key %s: an ALTT entry expiring at %d is not filed", key, e.expireAt)
			}
		}
	}
	ct := make(map[relation.Key]int64) // the earliest filing of each key
	for f := range wheel(classCT, clockTime) {
		if cur, ok := ct[f.item]; !ok || f.at < cur {
			ct[f.item] = f.at
		}
	}
	for key, e := range s.ct.entries {
		if at, ok := ct[key]; !ok || at > ctDeath(e.At) {
			return fmt.Errorf("key %s: a candidate-table entry dying at %d is not filed by then", key, ctDeath(e.At))
		}
	}
	h := s.horizon()
	for key, g := range s.aggs {
		spec := g.sub.spec
		for i, ep := range g.epochs {
			if i > 0 && g.epochs[i-1].epoch >= ep.epoch {
				return fmt.Errorf("key %s: epochs %d and %d out of order", key, g.epochs[i-1].epoch, ep.epoch)
			}
			c, at, ok := epochDeath(spec.Window, ep.epoch)
			if ok && !on(classAggs, c, at, key) && !(h.epochDead(spec.Window, ep.epoch) && g.owes(ep.epoch)) {
				return fmt.Errorf("key %s: aggregate epoch %d, dying at %d on clock %d, is not filed", key, ep.epoch, at, c)
			}
		}
	}
	return nil
}

// filed hands visit every pending item of a wheel with the value it is
// filed under, and reports filings out of order.
func filed[T comparable](w *wheel[T], visit func(int64, T)) error {
	pend := w.pending()
	for i, f := range pend {
		if i > 0 && pend[i-1].at > f.at {
			return fmt.Errorf("filing %d (at %d) is out of order", i, f.at)
		}
		visit(f.at, f.item)
	}
	return nil
}

// stateFixture supplies the immutable objects store-level tests build
// entries from: a plain, a DISTINCT and an aggregate query, the
// aggregate's record, whose spec is unwindowed unless a test windows it,
// and a few keys.
type stateFixture struct {
	plain, distinct, aggQ *query.Query
	agg                   *subscription
	keys                  []relation.Key
}

// windowAgg gives the aggregate query's groups a window from now on.
func (f *stateFixture) windowAgg(w query.WindowSpec) {
	spec := *f.agg.spec
	spec.Window = w
	f.agg.spec = &spec
}

func newStateFixture() *stateFixture {
	f := &stateFixture{
		plain:    sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat),
		distinct: sqlparse.MustParse("select distinct S.B from R,S where R.A=S.A", testCat),
		aggQ:     sqlparse.MustParse("select R.A, count(*), max(S.B) from R,S where R.A=S.A group by R.A", testCat),
	}
	f.plain.ID, f.distinct.ID, f.aggQ.ID = "plain", "distinct", "agg"
	f.distinct.Depth = 1
	f.aggQ.Owner = 42
	f.agg = &subscription{q: f.aggQ, spec: agg.SpecOf(f.aggQ)}
	for _, k := range []string{"R+A", "R+A+1", "S+A+2", "S+B"} {
		f.keys = append(f.keys, relation.KeyOf(k))
	}
	return f
}

// windowed returns a rewrite of the plain query started at start, in a
// window of size 8 on the given clock: sliding, it dies at start+8;
// tumbling, at the end of start's epoch of 8.
func (f *stateFixture) windowed(kind query.WindowKind, tumbling bool, start int64) *query.Query {
	q := f.plain.Clone()
	q.ID, q.Depth, q.Start = "windowed", 1, start
	q.Window = query.WindowSpec{Kind: kind, Size: 8, Tumbling: tumbling}
	return q
}

// withReach gives s a fixed tuple reach, the engine's tupleReach under
// Config.TupleGC, and returns it.
func withReach(s *state, r int64) *state {
	s.reach = func() int64 { return r }
	return s
}

func (f *stateFixture) stored(q *query.Query, key relation.Key) *storedQuery {
	return &storedQuery{q: q, key: key, level: query.ValueLevel}
}

// placement builds a pending placement of q over the candidate keys
// cands, those among known already reported.
func placement(q *query.Query, cands []relation.Key, known ...relation.Key) *pendingPlacement {
	pp := &pendingPlacement{sq: &storedQuery{q: q}}
	for _, k := range cands {
		s := slot{ricInfo: ricInfo{Key: k}, have: slices.Contains(known, k)}
		if !s.have {
			pp.missing++
		}
		pp.slots = append(pp.slots, s)
	}
	return pp
}

func (f *stateFixture) row(group, v int64) []relation.Value {
	return []relation.Value{relation.Int64(group), relation.Int64(0), relation.Int64(v)}
}

func (f *stateFixture) lin(seq int64) []query.LineageStep {
	return []query.LineageStep{{Pub: 7, Seq: seq, Node: 9}}
}

// checkRoundTrip asserts that a state's each() sequence applied to an
// empty state reproduces it — the path handover and promotion take —
// and that each() names every placement walk once, in request order, for
// the heir to restart through place.
func checkRoundTrip(t *testing.T, f *stateFixture, a *state) {
	t.Helper()
	snap := newState()
	moved := classAll &^ classPending
	a.each(moved, nil, snap.apply)
	if err := a.equal(snap, moved); err != nil {
		t.Fatalf("each() replayed into an empty state: %v", err)
	}
	var walks, want []*pendingPlacement
	a.each(classPending, nil, func(op stateOp) { walks = append(walks, op.pp) })
	for _, id := range slices.Sorted(maps.Keys(a.pending)) {
		want = append(want, a.pending[id])
	}
	if !slices.Equal(walks, want) {
		t.Fatalf("each() named %d placement walks, the state holds %d in another order or set", len(walks), len(want))
	}
	if err := a.waitingErr(); err != nil {
		t.Fatal(err)
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
		var cands []relation.Key
		for _, i := range keys {
			cands = append(cands, k[i])
		}
		return placement(f.plain, cands)
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
		{"trigger with projection", 2, func(s *state) {
			sq := f.stored(f.distinct, k[1])
			s.addQuery(sq)
			s.trigger(sq, "B=4|")
		}},
		{"trigger leaving no memory", 1, func(s *state) {
			sq := f.stored(f.plain, k[1])
			s.addQuery(sq)
			s.trigger(sq, "")
		}},
		{"addTuple", 1, func(s *state) { s.addTuple(k[1], tu) }},
		{"expire of tuples: the drain charges nothing", 3, func(s *state) {
			withReach(s, 4)
			s.addTuple(k[1], seqTuple(9)) // dies at seq 13: kept
			s.addTuple(k[1], seqTuple(1)) // at seq 5 and time 4
			s.addTuple(k[2], seqTuple(2)) // at seq 6 and time 4
			s.expire(horizon{6, 4}, func(*storedQuery) {})
		}},
		{"addALTT", 2, func(s *state) {
			s.addALTT(k[0], alttEntry{t: tu, expireAt: 9})
			s.addALTT(k[0], alttEntry{t: mkTuple("R", 2, 2, 2), expireAt: 4}) // moved entry: lands in front
		}},
		{"alttScan skipping a lapsed entry", 1, func(s *state) {
			s.addALTT(k[0], alttEntry{t: tu, expireAt: 1})
			s.alttScan(k[0], 5)
		}},
		{"expire: the drain charges nothing", 4, func(s *state) {
			s.addQuery(f.stored(f.windowed(query.WindowTuples, false, 2), k[1])) // dies at seq 10
			s.addQuery(f.stored(f.windowed(query.WindowTuples, false, 5), k[1])) // at seq 13: kept
			s.addQuery(f.stored(f.windowed(query.WindowTime, true, 3), k[2]))    // at time 8
			s.addALTT(k[0], alttEntry{t: tu, expireAt: 4})
			s.expire(horizon{10, 8}, func(*storedQuery) {})
		}},
		{"take of windowed state, then the drain", 3, func(s *state) {
			s.addQuery(f.stored(f.windowed(query.WindowTime, false, 2), k[1]))
			s.addALTT(k[1], alttEntry{t: tu, expireAt: 4})
			s.take(func(relation.Key) bool { return true })
			s.expire(horizon{100, 100}, func(*storedQuery) {})
		}},
		{"rate statistics", 0, func(s *state) {
			s.recordArrival(k[2], 5, 10)
			s.mergeStat(k[3], rateStat{epoch: 3, countCur: 2, countPrev: 1})
		}},
		{"aggFold", 2, func(s *state) {
			s.aggFold(aggKeyOf("agg", "1"), f.agg, 0, f.row(1, 5), f.lin(1), 17)
			s.aggFold(aggKeyOf("agg", "1"), f.agg, 1, f.row(1, 8), f.lin(2), 12)
		}},
		{"aggMerge", 2, func(s *state) {
			src := newState()
			src.aggFold(aggKeyOf("agg", "2"), f.agg, 0, f.row(2, 3), f.lin(3), 21)
			s.aggFold(aggKeyOf("agg", "2"), f.agg, 0, f.row(2, 9), f.lin(4), 20)
			s.aggMerge(aggKeyOf("agg", "2"), src.aggs[aggKeyOf("agg", "2")])
		}},
		{"ctMerge, stale included", 2, func(s *state) {
			s.ctMerge(ricInfo{Key: k[2], Rate: 2.5, Addr: 77, At: 6})
			s.ctMerge(ricInfo{Key: k[2], Rate: 9, Addr: 78, At: 3}) // stale: ignored, still charged
		}},
		{"addPending", 1, func(s *state) {
			s.addPending(5, placement(f.plain, nil))
		}},
		{"removePending", 3, func(s *state) {
			s.addPending(5, placement(f.plain, nil))
			s.addPending(6, placement(f.distinct, nil))
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
			s.aggFold(aggKeyOf("agg", "1"), f.agg, 0, f.row(1, 5), nil, 17)
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
			s.addPending(3, placement(f.plain, nil))
			s.aggFold(aggKeyOf("agg", "1"), f.agg, 0, f.row(1, 5), nil, 17)
			s.sweep(classAll, func(op stateOp) bool { return op.kind == opAggMerge || op.stored().q == f.plain })
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
		a := newState()
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

// TestPruneTuplesReleasesCollected: the tuple drain compacts a key's
// list in place, whichever of its tuples died — arrival order is not
// publication order — and the array past the kept prefix must not keep
// the collected tuples reachable: the "zero past len" invariant
// spares.put states for every list array. A list the drain empties hands
// its array to the next key that starts one.
func TestPruneTuplesReleasesCollected(t *testing.T) {
	f := newStateFixture()
	s := newState()
	key := f.keys[1]
	for _, seq := range []int64{2, 4, 3, 1} {
		tu := mkTuple("R", 1, seq, 0)
		tu.PubSeq = seq
		s.addTuple(key, tu)
	}
	if gone := filterKey(s.tuples, &s.spareTuples, key, func(x *relation.Tuple) bool { return x.PubSeq == 3 }); gone != 3 {
		t.Fatalf("collected %d tuples, want 3", gone)
	}
	list := s.tuples[key]
	if len(list) != 1 || list[0].PubSeq != 3 {
		t.Fatalf("kept %d tuples, want only seq 3", len(list))
	}
	for i, x := range list[len(list):cap(list)] {
		if x != nil {
			t.Fatalf("slot %d past the kept prefix still holds tuple seq %d", len(list)+i, x.PubSeq)
		}
	}
	array := &list[0]
	if gone := filterKey(s.tuples, &s.spareTuples, key, func(*relation.Tuple) bool { return false }); gone != 1 || s.tuples[key] != nil {
		t.Fatalf("collected %d of the last tuple, the key still lists %d", gone, len(s.tuples[key]))
	}
	s.addTuple(f.keys[2], mkTuple("R", 5, 5, 5))
	if &s.tuples[f.keys[2]][0] != array {
		t.Fatal("the emptied list's array did not serve the next key to start one")
	}
}

// checkDirtySet asserts the flush bookkeeping invariant: a state's
// dirty-key set is exactly the keys of its groups with un-flushed
// epochs, and each group lists those epochs once each, ascending — the
// order the flush emits them in.
func checkDirtySet(t *testing.T, s *state, label string) {
	t.Helper()
	want := make(map[relation.Key]struct{})
	for k, g := range s.aggs {
		if len(g.dirty) > 0 {
			want[k] = struct{}{}
		}
		for i := 1; i < len(g.dirty); i++ {
			if g.dirty[i-1] >= g.dirty[i] {
				t.Fatalf("%s: group %s lists dirty epochs %v", label, k, g.dirty)
			}
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
// exactly the groups with un-flushed epochs, its waiting index is
// exactly what its placements miss and its death wheels file every
// windowed rewrite, stored tuple, ALTT entry, candidate-table entry and
// aggregate epoch it holds, (3) the replica ops it charged per seed equal
// the length of the op log the same sequence wrote before the log gave
// way to a count (pinned at 9c30999), and (4) a drain — of the second
// state now and then, of the first at the end — drops exactly the
// entries dead by its horizon, tuples stored out of publication order
// included, and charges nothing, leaving an epoch a flush still owes a
// view of to that flush, which drops it. The aggregate's window rotates
// over the seeds (none, tuples or ticks, sliding or tumbling); the
// windowed rewrites, the heir's stale reports and the drains draw from a
// stream of their own, so the pinned sequence is the one the op log
// wrote.
func TestStateRandomSequences(t *testing.T) {
	f := newStateFixture()
	drain := func(s *state, h horizon, label string) {
		t.Helper()
		if s.hz != nil {
			*s.hz = h
		}
		want := s.dead(h)
		ops := s.replOps
		got := s.expire(h, func(sq *storedQuery) {
			if !h.dead(sq.q) {
				t.Fatalf("%s: the drain dropped a live query", label)
			}
		})
		if got != want || s.replOps != ops {
			t.Fatalf("%s: the drain dropped %+v charging %d ops; %+v were dead", label, got, s.replOps-ops, want)
		}
		if n := s.dead(h); n != (DeadCounts{}) {
			t.Fatalf("%s: %+v dead by the horizon survived the drain", label, n)
		}
	}
	windows := []query.WindowSpec{
		{},
		{Kind: query.WindowTuples, Size: 4},
		{Kind: query.WindowTuples, Size: 4, Tumbling: true},
		{Kind: query.WindowTime, Size: 4},
		{Kind: query.WindowTime, Size: 4, Tumbling: true},
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		drng := rand.New(rand.NewSource(-seed))
		f.windowAgg(windows[seed%int64(len(windows))])
		a := withReach(newState(), 7)
		heir := withReach(newState(), 7) // applies what take() hands over
		heir.hz = new(horizon)           // its drains' horizon; a is drained only at the end
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
				if q == f.distinct && drng.Intn(2) == 0 {
					kind, start := query.WindowTuples, pubSeq
					if drng.Intn(2) == 0 {
						kind, start = query.WindowTime, int64(now)
					}
					q = f.windowed(kind, drng.Intn(2) == 0, start)
				}
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
					a.trigger(live[rng.Intn(len(live))], fmt.Sprintf("B=%d|", rng.Intn(4)))
					rng.Intn(2) // a draw the pinned sequence still makes
				}
			case 4, 5:
				pubSeq++
				tu := mkTuple("R", int64(rng.Intn(3)), pubSeq, 0)
				tu.PubSeq, tu.PubTime = pubSeq, int64(now)
				if drng.Intn(4) == 0 { // overtaken in flight by later publications
					lag := int64(drng.Intn(6))
					tu.PubSeq, tu.PubTime = max(pubSeq-lag, 0), max(int64(now)-lag, 0)
				}
				a.addTuple(key(), tu)
			case 6:
				// Tuples leave uncharged, whichever of a key's died. The op
				// log counted one op per tuple its charged filter collected
				// here, and the pin still does.
				k := key()
				charged += filterKey(a.tuples, &a.spareTuples, k, func(*relation.Tuple) bool { return rng.Intn(3) != 0 })
			case 7:
				a.addALTT(key(), alttEntry{t: mkTuple("S", 1, 1, 1), expireAt: now + sim.Time(rng.Intn(6))})
			case 8:
				a.pruneALTT(key(), now)
			case 9:
				a.recordArrival(key(), now, 8)
			case 10, 11:
				k, g := aggKey()
				a.aggFold(k, f.agg, int64(rng.Intn(2)), f.row(g, int64(rng.Intn(9))), f.lin(int64(step)), int64(now))
			case 12:
				info := ricInfo{Key: key(), Rate: float64(rng.Intn(5)), Addr: id.ID(rng.Intn(9)), At: now - sim.Time(rng.Intn(4))}
				a.ctMerge(info)
				if drng.Intn(2) == 0 {
					// A report about to go stale reaches the heir: its entry
					// dies a few ticks on, unless a later one refreshes it.
					info.At -= ctValidity - sim.Time(drng.Intn(8))
					heir.ctMerge(info)
				}
			case 13:
				if rng.Intn(2) == 0 || len(a.pending) == 0 {
					// A placement over a random candidate set, some of it
					// already answered by the table, at least one key not.
					reqID++
					var cands, known []relation.Key
					for i, j := range rng.Perm(len(f.keys))[:1+rng.Intn(len(f.keys))] {
						cands = append(cands, f.keys[j])
						if i > 0 && rng.Intn(2) == 0 {
							known = append(known, f.keys[j])
						}
					}
					a.addPending(reqID, placement(f.plain, cands, known...))
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
					if pp := a.pending[id]; pp.missing != 0 {
						t.Fatalf("seed %d step %d: placement %d released with %d of %d reports missing", seed, step, id, pp.missing, len(pp.slots))
					}
					a.removePending(id)
				}
				for id, pp := range a.pending {
					if len(pp.slots) > 0 && pp.missing == 0 {
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
				src := newState()
				src.aggFold(k, f.agg, int64(rng.Intn(2)), f.row(g, int64(rng.Intn(9))), f.lin(int64(step)), int64(now))
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
					// A flush drops the dead epochs of the groups it
					// flushed: those a drain left for it among them.
					var flushed []*aggGroup
					heir.flushDirty(func(g *aggGroup) { flushed = append(flushed, g) })
					for _, g := range flushed {
						for _, ep := range g.epochs {
							if heir.hz.epochDead(f.agg.spec.Window, ep.epoch) {
								t.Fatalf("seed %d step %d: a flushed heir group holds epoch %d, dead by %v", seed, step, ep.epoch, *heir.hz)
							}
						}
					}
				}
			case 18:
				if rng.Intn(8) == 0 { // the state moved away wholesale
					a.clear()
					charged += a.replOps
					a.replOps, live = 0, nil
				}
			}
			label := fmt.Sprintf("seed %d step %d", seed, step)
			if drng.Intn(8) == 0 {
				drain(heir, horizon{pubSeq, int64(now)}, label+" (heir)")
			}
			checkDirtySet(t, a, label+" (primary)")
			checkDirtySet(t, heir, label+" (heir)")
			for _, st := range []*state{a, heir} {
				if err := st.waitingErr(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := st.deathsErr(); err != nil {
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
		drain(a, horizon{math.MaxInt64, math.MaxInt64}, fmt.Sprintf("seed %d, the end", seed))
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

// TestStateDeathsOutliveNoEntry: an entry that leaves a state another way
// — taken to a new owner, dropped with its key, swept by teardown —
// leaves its death filed, and the filing neither resurrects nor recounts
// it: the drain finds nothing dead under the key. apply files a moved
// entry's death afresh, so it dies at its new owner, once; and one that
// moves back to a node still filing its old death dies there once too.
// A candidate-table entry follows its node, never a key: it stays, and
// dies, where it was learned.
func TestStateDeathsOutliveNoEntry(t *testing.T) {
	f := newStateFixture()
	f.windowAgg(query.WindowSpec{Kind: query.WindowTuples, Size: 8, Tumbling: true})
	k := f.keys
	group := aggKeyOf("agg", "1")
	empty := func() *state { return withReach(newState(), 4) }
	fill := func() *state {
		s := empty()
		s.addQuery(f.stored(f.windowed(query.WindowTuples, false, 3), k[1]))
		s.addQuery(f.stored(f.windowed(query.WindowTime, true, 5), k[2]))
		s.addQuery(f.stored(f.plain, k[2])) // an input query: never dies
		s.addTuple(k[3], mkTuple("S", 1, 2, 3))
		s.addALTT(k[0], alttEntry{t: mkTuple("R", 1, 2, 3), expireAt: 7})
		s.ctMerge(ricInfo{Key: k[2], At: 4}) // node-bound: never taken
		s.aggFold(group, f.agg, 0, f.row(1, 5), nil, 17)
		s.flushDirty(func(*aggGroup) {})
		return s
	}
	moveAll := func(from, to *state) {
		for _, op := range from.take(func(relation.Key) bool { return true }) {
			to.apply(op)
		}
	}
	drainsTo := func(label string, s *state, want DeadCounts) {
		t.Helper()
		if err := s.deathsErr(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ops := s.replOps
		got := s.expire(horizon{math.MaxInt64, math.MaxInt64}, func(*storedQuery) {})
		if got != want || s.replOps != ops {
			t.Fatalf("%s: the drain dropped %+v charging %d ops; want %+v and none", label, got, s.replOps-ops, want)
		}
	}

	a, heir := fill(), empty()
	moveAll(a, heir)
	drainsTo("taken from", a, DeadCounts{CT: 1})
	drainsTo("applied at the heir", heir, DeadCounts{Rewrites: 2, Tuples: 1, ALTT: 1, Epochs: 1})

	a, heir = fill(), empty()
	moveAll(a, heir)
	moveAll(heir, a)
	drainsTo("the heir, after handing back", heir, DeadCounts{})
	drainsTo("taken back", a, DeadCounts{Rewrites: 2, Tuples: 1, ALTT: 1, CT: 1, Epochs: 1})

	a = fill()
	a.dropKey(k[1])
	a.dropKey(k[0])
	a.dropKey(k[3])
	a.dropKey(group)
	drainsTo("dropKey", a, DeadCounts{Rewrites: 1, CT: 1})

	a = fill()
	a.sweep(classQueries, func(op stateOp) bool { return op.sq.q.ID == "windowed" })
	a.sweep(classAggs, func(stateOp) bool { return true })
	drainsTo("sweep", a, DeadCounts{Tuples: 1, ALTT: 1, CT: 1})
}

// TestExpireAllocatesNothing pins the drain at no allocation in steady
// state: each round refills a state — reach 8, a sliding-window
// aggregate — with four windowed rewrites under one key, a tuple, an
// ALTT entry, a candidate-table entry and an aggregate epoch whose views
// are flushed, and once the wheels, the lists and the group are warm,
// expire at a horizon past all of them drops exactly those and allocates
// nothing.
func TestExpireAllocatesNothing(t *testing.T) {
	f := newStateFixture()
	f.windowAgg(query.WindowSpec{Kind: query.WindowTuples, Size: 4})
	s := withReach(newState(), 8)
	k, group := f.keys, aggKeyOf("agg", "1")
	var rewrites []*storedQuery
	for start := range int64(4) {
		rewrites = append(rewrites, f.stored(f.windowed(query.WindowTuples, false, start), k[1]))
	}
	tu := mkTuple("R", 1, 2, 3)
	tu.PubSeq, tu.PubTime = 1, 1
	refill := func() {
		for _, sq := range rewrites {
			s.addQuery(sq)
		}
		s.addTuple(k[2], tu)
		s.addALTT(k[0], alttEntry{t: tu, expireAt: 5})
		s.ctMerge(ricInfo{Key: k[3], At: 5})
		s.aggFold(group, f.agg, 0, f.row(1, 5), nil, 1)
		s.flushDirty(func(*aggGroup) {}) // no view of the epoch is owed
	}
	want := DeadCounts{Rewrites: 4, Tuples: 1, ALTT: 1, CT: 1, Epochs: 1}
	drain := func() {
		if n := s.expire(horizon{math.MaxInt64, math.MaxInt64}, func(*storedQuery) {}); n != want {
			t.Fatalf("the drain dropped %+v, want %+v", n, want)
		}
	}
	for range 3 { // warm
		refill()
		drain()
	}
	if n := allocsOf(100, refill, drain); n != 0 {
		t.Errorf("a warm drain allocates %d times, want 0", n)
	}
}

// TestStateSweepOrder: a sweep that matches nothing reports so and
// charges nothing; one that matches removes exactly the matching
// entries, one replica op each, whatever order its unordered first pass
// happened to meet them in.
func TestStateSweepOrder(t *testing.T) {
	f := newStateFixture()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := newState()
		for i := 0; i < 30; i++ {
			q := []*query.Query{f.plain, f.distinct}[rng.Intn(2)]
			a.addQuery(f.stored(q, relation.KeyOf(fmt.Sprintf("R+A+%d", rng.Intn(12)))))
			a.addPending(int64(i+1), placement(q, nil))
			g := int64(rng.Intn(12))
			a.aggFold(aggKeyOf("agg", fmt.Sprint(g)), f.agg, 0, f.row(g, 1), nil, 0)
		}
		a.replOps = 0
		if a.sweep(classQueries|classPending, func(op stateOp) bool { return op.stored().q.ID == "nobody" }) || a.replOps != 0 {
			t.Fatalf("seed %d: a sweep matching nothing reported a hit or charged %d ops", seed, a.replOps)
		}
		for _, sw := range []struct {
			want  class
			match func(stateOp) bool
		}{
			{classQueries | classPending, func(op stateOp) bool { return op.stored().q.ID == f.distinct.ID }},
			{classAggs, func(op stateOp) bool { return op.g.sub == f.agg }},
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
