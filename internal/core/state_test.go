package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
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
// ALTT entry's key at the first instant past its expiry (and each key's
// entries in expiry order, which alttScan and pruneALTT rely on), every
// candidate-table key no later than its entry's death, every aggregate
// epoch's group key at the epoch's death — unless the horizon passed it
// and a flush still owes one of its views — and the filings are
// ascending. An item whose entry left another way may stay filed.
func (s *state) deathsErr() error {
	var queries [numClocks]map[filing[filedRewrite]]bool
	for c := range s.rewrites {
		queries[c] = make(map[filing[filedRewrite]]bool)
		if err := filed(&s.rewrites[c], func(at int64, f filedRewrite) { queries[c][filing[filedRewrite]{at, f}] = true }); err != nil {
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
			if c, at, ok := deathOf(sq.q); ok && !queries[c][filing[filedRewrite]{at, filedRewrite{sq, sq.gen}}] {
				return fmt.Errorf("key %s: a rewrite dying at %d on clock %d is not filed", key, at, c)
			}
		}
	}
	for key, list := range s.altt {
		for i, e := range list {
			if !on(classALTT, clockTime, int64(e.expireAt)+1, key) {
				return fmt.Errorf("key %s: an ALTT entry expiring at %d is not filed", key, e.expireAt)
			}
			if i > 0 && list[i-1].expireAt > e.expireAt {
				return fmt.Errorf("key %s: an ALTT entry expiring at %d follows one expiring at %d", key, e.expireAt, list[i-1].expireAt)
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
	free                  freeEntries // where stored takes its entries
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

// stored returns an entry holding a copy of q, stored under key at value
// level: every storedQuery heads an entry (newEntry), which the free
// list relies on.
func (f *stateFixture) stored(q *query.Query, key relation.Key) *storedQuery {
	sq := f.free.entryOf(q)
	sq.key, sq.level = key, query.ValueLevel
	return sq
}

// placement builds a pending placement of a copy of q over the
// candidate keys cands, those among known already reported.
func placement(q *query.Query, cands []relation.Key, known ...relation.Key) *pendingPlacement {
	pp := &pendingPlacement{sq: new(freeEntries).entryOf(q)}
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
// included. The addAgg scenario, an install at an empty key, postdates
// the log: one op, like every add.
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
			s.addALTT(k[0], alttEntry{t: tu, expireAt: 4})
			s.addALTT(k[0], alttEntry{t: mkTuple("R", 2, 2, 2), expireAt: 9}) // admitted later: expires later
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
			s.addStat(k[3], rateStat{epoch: 3, countCur: 2, countPrev: 1})
		}},
		{"aggFold", 2, func(s *state) {
			s.aggFold(aggKeyOf("agg", "1"), f.agg, 0, f.row(1, 5), f.lin(1), 17)
			s.aggFold(aggKeyOf("agg", "1"), f.agg, 1, f.row(1, 8), f.lin(2), 12)
		}},
		{"addAgg", 1, func(s *state) {
			src := newState()
			src.aggFold(aggKeyOf("agg", "2"), f.agg, 0, f.row(2, 3), f.lin(3), 21)
			s.addAgg(aggKeyOf("agg", "2"), src.aggs[aggKeyOf("agg", "2")])
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
		{"drop", 7, func(s *state) {
			sq, pp := f.stored(f.plain, k[0]), placement(f.plain, nil)
			s.addQuery(sq)
			s.addQuery(f.stored(f.distinct, k[0]))
			s.addPending(3, pp)
			g := s.aggFold(aggKeyOf("agg", "1"), f.agg, 0, f.row(1, 5), nil, 17)
			s.drop(stateOp{kind: opAddQuery, key: sq.key, sq: sq})
			s.drop(stateOp{kind: opAddPending, pp: pp})
			s.drop(stateOp{kind: opAddAgg, key: g.key, g: g})
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

// TestStateInstallOnHeldKeyPanics: a move installs a group or a rate
// statistic only at a key the heir does not hold (I3), so an install at
// a held key is a broken invariant and panics, naming the key — quoted,
// since aggregator keys hold NULs. So does teardown dropping a stored
// query its key does not list: the record and the state disagree.
func TestStateInstallOnHeldKeyPanics(t *testing.T) {
	f := newStateFixture()
	group := aggKeyOf("agg", "1")
	cases := []struct {
		name string
		key  relation.Key
		do   func(s *state)
	}{
		{"addAgg", group, func(s *state) {
			g := s.aggFold(group, f.agg, 0, f.row(1, 5), nil, 17)
			s.addAgg(group, &aggGroup{sub: g.sub, key: group})
		}},
		{"addStat", f.keys[2], func(s *state) {
			s.recordArrival(f.keys[2], 5, 10)
			s.addStat(f.keys[2], rateStat{epoch: 3})
		}},
		{"drop of a stored query not held", f.keys[0], func(s *state) {
			sq := f.stored(f.plain, f.keys[0])
			s.drop(stateOp{kind: opAddQuery, key: sq.key, sq: sq})
		}},
	}
	for _, c := range cases {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			c.do(newState())
			return ""
		}()
		if !strings.Contains(msg, fmt.Sprintf("%q", c.key)) {
			t.Errorf("%s: panicked with %q, want a panic naming %q", c.name, msg, c.key)
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
// an independent count (randomSequenceCharges), and (4) a drain — of the second
// state now and then, of the first at the end — drops exactly the
// entries dead by its horizon, tuples stored out of publication order
// included, and charges nothing, leaving an epoch a flush still owes a
// view of to that flush, which drops it. The aggregate's window rotates
// over the seeds (none, tuples or ticks, sliding or tumbling); the
// windowed rewrites, the heir's stale reports and the drains draw from a
// stream of their own, which the charges do not depend on. As in the
// engine, no install lands on a key the receiving state holds (I3).
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
	const alttDelta = 5 // Δ: a fresh ALTT admission expires at now+Δ
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
			switch rng.Intn(19) {
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
				a.addALTT(key(), alttEntry{t: mkTuple("S", 1, 1, 1), expireAt: now + alttDelta})
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
			case 18:
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
				// un-flushed, or flushed at its previous home. A key moves
				// only to a node that does not hold it, so it arrives only
				// where no group sits.
				k, g := aggKey()
				src := newState()
				src.aggFold(k, f.agg, int64(rng.Intn(2)), f.row(g, int64(rng.Intn(9))), f.lin(int64(step)), int64(now))
				if rng.Intn(2) == 0 {
					src.flushDirty(func(*aggGroup) {})
				}
				if a.aggs[k] == nil {
					a.addAgg(k, src.aggs[k])
				}
			case 16:
				// Keys move to a new owner, dirty groups among them. The
				// heir passed on what it held under them since it last
				// received them: it never holds a key it receives.
				gk, _ := aggKey()
				qk := key()
				heir.dropKey(gk)
				heir.dropKey(qk)
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
// replica ops its sequence charges, counted independently of state.go:
// the same draws replayed against a model holding only each key's
// occupancy, charged by the rules the mutators state (one per add, per
// removed entry of a filter, per removePending, per dropKey of a key
// holding a replicated class, none for statistics, reports and prunes).
var randomSequenceCharges = [40]int{
	229, 226, 215, 222, 213, 214, 203, 238, 214, 210,
	222, 201, 207, 208, 222, 211, 218, 215, 205, 195,
	196, 221, 220, 225, 208, 218, 213, 218, 196, 211,
	206, 214, 211, 207, 235, 213, 225, 213, 222, 213,
}

// TestStateDeathsOutliveNoEntry: an entry that leaves a state another way
// — taken to a new owner, dropped with its key, dropped by teardown —
// leaves its death filed, and the filing neither resurrects nor recounts
// it: the drain finds nothing dead under the key. apply files a moved
// entry's death afresh, so it dies at its new owner, once; and one that
// moves back to a node still filing its old death dies there once too.
// A candidate-table entry follows its node, never a key: it stays, and
// dies, where it was learned. A rewrite's entry that left by a trigger
// deletion, by teardown or by a move, went to the free list and is
// reborn at the same node under the same key with a later death is not
// dropped or counted by its old life's filing: it dies at its own, once.
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
	for _, op := range a.ops(classQueries|classAggs, nil) {
		if op.kind == opAddAgg || op.sq.q.ID == "windowed" {
			a.drop(op)
		}
	}
	drainsTo("drop", a, DeadCounts{Tuples: 1, ALTT: 1, CT: 1})

	for _, leave := range []struct {
		how string
		out func(s *state, sq *storedQuery) // takes sq out of s and ends its life
	}{
		{"a trigger deletion", func(s *state, sq *storedQuery) {
			s.filterQueries(sq.key, func(x *storedQuery) bool { return x != sq })
			f.free.put(sq)
		}},
		{"teardown", func(s *state, sq *storedQuery) {
			s.drop(stateOp{kind: opAddQuery, key: sq.key, sq: sq})
			f.free.put(sq)
		}},
		{"a move", func(s *state, sq *storedQuery) {
			heir := empty()
			moveAll(s, heir)
			heir.expire(horizon{math.MaxInt64, math.MaxInt64}, f.free.put) // it dies at the heir
		}},
	} {
		a := empty()
		old := f.stored(f.windowed(query.WindowTuples, false, 3), k[1]) // dies at 11
		a.addQuery(old)
		leave.out(a, old)
		sq := f.free.newEntry()
		if sq != old {
			t.Fatalf("%s: the free list did not hand back the dead entry", leave.how)
		}
		f.windowed(query.WindowTuples, false, 20).CloneInto(sq.q) // dies at 28
		sq.key, sq.level = k[1], query.ValueLevel
		a.addQuery(sq)
		if err := a.deathsErr(); err != nil {
			t.Fatalf("%s, reborn: %v", leave.how, err)
		}
		if got := a.expire(horizon{27, 27}, func(*storedQuery) {}); got != (DeadCounts{}) || len(a.queries[k[1]]) != 1 {
			t.Fatalf("%s: the old life's filing dropped %+v and left %d queries under the key, want nothing and 1", leave.how, got, len(a.queries[k[1]]))
		}
		drainsTo(leave.how+", reborn", a, DeadCounts{Rewrites: 1})
	}
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

// TestStateDropOrder: teardown removes a pipeline's or a subscriber's
// entries from a state in whatever order its record happens to list
// them; each removal charges one replica op, a removed entry is gone
// from each(), a removed placement is back in its pool (recycled: zero),
// and what stays keeps its order.
func TestStateDropOrder(t *testing.T) {
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
		var gone, kept []stateOp
		for _, op := range a.ops(classQueries|classPending|classAggs, nil) {
			if op.kind == opAddAgg || op.stored().q == f.distinct {
				gone = append(gone, op)
			} else {
				kept = append(kept, op)
			}
		}
		rng.Shuffle(len(gone), func(i, j int) { gone[i], gone[j] = gone[j], gone[i] })
		for _, op := range gone {
			a.drop(op)
		}
		if a.replOps != len(gone) {
			t.Fatalf("seed %d: %d removals charged %d ops", seed, len(gone), a.replOps)
		}
		if left := a.ops(classQueries|classPending|classAggs, nil); !slices.EqualFunc(left, kept, func(x, y stateOp) bool { return x.sq == y.sq && x.pp == y.pp }) {
			t.Fatalf("seed %d: %d entries left, want the %d not dropped in their order", seed, len(left), len(kept))
		}
		for _, op := range gone {
			if op.pp != nil && (op.pp.sq != nil || len(op.pp.slots) != 0) {
				t.Fatalf("seed %d: a dropped placement was not recycled", seed)
			}
		}
		if err := a.waitingErr(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
