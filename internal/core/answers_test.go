package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rjoin/internal/agg"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sqlparse"
)

// TestRowKeyInjective is the regression test for the DISTINCT
// canonicalization bug: the old encoding joined values with a bare NUL
// separator, so rows whose string values straddled a NUL collided —
// ["a\x00", "b"] and ["a", "\x00b"] both encoded to "a\x00\x00b\x00"
// and the second real answer was silently dropped as a duplicate. The
// length-prefixed encoding must keep every distinct row distinct.
func TestRowKeyInjective(t *testing.T) {
	str := func(s string) relation.Value { return relation.String64(s) }
	cases := [][2][]relation.Value{
		// The original collision: a NUL moving across the value split.
		{{str("a\x00"), str("b")}, {str("a"), str("\x00b")}},
		// A value equal to the old separator vs an empty pair shift.
		{{str("\x00"), str("")}, {str(""), str("\x00")}},
		// Concatenation-equal rows with different arity splits.
		{{str("ab"), str("c")}, {str("a"), str("bc")}},
		// Numeric renderings that concatenate equally.
		{{relation.Int64(12), relation.Int64(3)}, {relation.Int64(1), relation.Int64(23)}},
		// Kind confusion: an integer and a string rendering identically
		// (Publish accepts mixed kinds per position, so both can reach
		// the same DISTINCT query).
		{{relation.Int64(12)}, {str("12")}},
	}
	for i, c := range cases {
		if string(appendRowKey(nil, c[0])) == string(appendRowKey(nil, c[1])) {
			t.Errorf("case %d: distinct rows %v and %v share a row key", i, c[0], c[1])
		}
	}
	// Equal rows must still share a key.
	a := []relation.Value{str("x\x00y"), relation.Int64(7)}
	b := []relation.Value{str("x\x00y"), relation.Int64(7)}
	if string(appendRowKey(nil, a)) != string(appendRowKey(nil, b)) {
		t.Error("equal rows produced different row keys")
	}
}

// TestAnswerRowAllocs: once warm, a completed row costs no allocation
// on its way to where it is kept. On the plain path AppendComplete
// writes it into the slot's scratch, newAnswerMsg copies it into the
// pooled message's own buffer, recordAnswer encodes it onto the owner's
// byte log and the message is recycled; on the aggregate path
// the partial's buffer carries it into aggFold on an existing group.
// The log's amortized growth averages out below one allocation per row;
// a row a DISTINCT owner drops allocates nothing at all.
// What lies between the two ends — the overlay's scheduling of the
// delivery and, for a partial, the group key's hash — is not measured.
func TestAnswerRowAllocs(t *testing.T) {
	eng, nodes := testNet(t, 16, 1, Config{}, overlay.DefaultConfig())
	submit := func(sql string) (string, *query.Query) {
		qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(sql, testCat))
		if err != nil {
			t.Fatal(err)
		}
		// The last step of the chain: the query with R consumed.
		last, ok := query.Rewrite(eng.sub(qid).q, mkTuple("R", 1, 2, 3))
		if !ok {
			t.Fatalf("%s: R tuple did not trigger", sql)
		}
		return qid, last
	}
	plainID, plain := submit("select R.B, S.B, S.C from R,S where R.A=S.A")
	distinctID, distinct := submit("select distinct S.B, S.C from R,S where R.A=S.A")
	aggID, aggQ := submit("select S.B, count(*), sum(S.C), max(R.C) from R,S where R.A=S.A group by S.B")
	eng.Run()
	owner := eng.procs[nodes[0].ID()]
	at := eng.procs[nodes[5].ID()] // where the chains complete
	tu := mkTuple("S", 1, 4, 5)
	now := eng.sim.Now()
	complete := func(q *query.Query) []relation.Value {
		row, ok := query.AppendComplete(at.sc.row[:0], q, tu)
		if !ok {
			t.Fatalf("%s: S tuple did not complete", q)
		}
		at.sc.row = row
		return row
	}

	if n := testing.AllocsPerRun(1000, func() {
		owner.HandleMessage(now, newAnswerMsg(plainID, nodes[0].ID(), complete(plain), 0, nil))
	}); n != 0 {
		t.Errorf("plain row: %v allocations from completion to the log, want 0", n)
	}
	ans := eng.Answers(plainID)
	if len(ans) != 1001 || ans[1000].Row[2] != relation.Int64(5) || ans[0].Row[0] != relation.Int64(2) {
		t.Fatalf("log holds %d rows, last %v: want 1001 of [2 4 5]", len(ans), ans[len(ans)-1].Row)
	}

	// A DISTINCT owner encodes each row onto its log's tail and makes a
	// key string only for a row it keeps: a repeat costs nothing.
	if n := testing.AllocsPerRun(1000, func() {
		owner.HandleMessage(now, newAnswerMsg(distinctID, nodes[0].ID(), complete(distinct), 0, nil))
	}); n != 0 {
		t.Errorf("repeated DISTINCT row: %v allocations, want 0", n)
	}
	if n := eng.AnswerCount(distinctID); n != 1 {
		t.Fatalf("DISTINCT log holds %d rows, want 1", n)
	}

	spec := eng.sub(aggID).spec
	key := aggKeyOf(aggID, string(spec.AppendGroupKey(nil, complete(aggQ))))
	aggr := eng.procs[eng.ring.Owner(key.ID()).ID()]
	fold := func() {
		aggr.HandleMessage(now, newAggPartialMsg(aggID, key, 0, complete(aggQ), 0, nil))
	}
	fold() // the group and its epoch's partial are made once
	if n := testing.AllocsPerRun(1000, fold); n != 0 {
		t.Errorf("aggregate row: %v allocations from completion to the fold, want 0", n)
	}
	eng.Run()
	if rows := eng.AggRows(aggID); len(rows) != 1 || rows[0].Row[1] != relation.Int64(1002) || rows[0].Row[2] != relation.Int64(5*1002) {
		t.Fatalf("view %v: want one group of 1002 rows", rows)
	}
}

// TestAggPathAllocs: once warm, a completed aggregate row costs nothing
// from completion to the subscriber's view. Emitting it into a group
// whose key is interned builds the key's text in the slot's scratch and
// finds it there; the aggregator folds it into its existing (group,
// epoch) partial in place; and the flush of the dirty group finalizes
// the view row into a pooled update, which the subscriber copies over
// the view row it already holds before the update is recycled. A row
// that opens a new (group, epoch) on a node that pruned an epoch before
// allocates nothing either: the pruned partial's column array waits in
// the node's spares. What is left are the objects the network keeps: a
// new group, one object while its grouping value, epochs and marks fit
// its inline arrays; a (group, epoch)'s column array while its node has
// no spare; and the growth of the view's row array.
func TestAggPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops puts, so the pooled partials and updates allocate")
	}
	eng, nodes := testNet(t, 16, 1, Config{}, overlay.DefaultConfig())
	qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse("select S.B, count(*), sum(S.C), min(R.C), max(R.C), count(distinct S.C) from R,S where R.A=S.A group by S.B", testCat))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	spec, owner := eng.sub(qid).spec, nodes[0].ID()
	iv := relation.Int64
	row := []relation.Value{iv(4), iv(1), iv(5), iv(3), iv(3), iv(5)}
	at := eng.procs[nodes[5].ID()]
	emit := func() { at.emitTo(eng.sim.Now(), qid, owner, spec, completion{vals: row}) }
	emit() // warm: the group, its epoch, the view row, the candidate table
	eng.Run()
	const runs = 100
	if n := allocsOf(runs, eng.Run, emit); n != 0 {
		t.Errorf("emitting a row into an interned group key: %d allocations, want 0", n)
	}

	key := at.sc.aggKey(qid, spec, row)
	aggr := eng.procs[eng.ring.Owner(key.ID()).ID()]
	fold := func() { aggr.st.aggFold(key, eng.sub(qid), 0, row, nil, 0) }
	if n := testing.AllocsPerRun(runs, fold); n != 0 {
		t.Errorf("aggFold into an existing (group, epoch): %v allocations, want 0", n)
	}
	eng.Run()
	updates := eng.Counters.AggUpdates
	if n := allocsOf(runs, fold, eng.Run); n != 0 {
		t.Errorf("flushing a dirty group into the view row its subscriber holds: %d allocations, want 0", n)
	}
	eng.Run()
	if got := eng.Counters.AggUpdates - updates; got != runs+1 {
		t.Fatalf("%d group updates delivered, want %d: one per flush", got, runs+1)
	}
	// AllocsPerRun warms with one call of its own; allocsOf folds once
	// more after its last flush.
	folded := int64(1 + runs + (runs + 1) + (runs + 1))
	want := []relation.Value{iv(4), iv(folded), iv(5 * folded), iv(3), iv(3), iv(1)}
	if rows := eng.AggRows(qid); len(rows) != 1 || !slices.Equal(rows[0].Row, want) {
		t.Fatalf("view %v: want one row %v", rows, want)
	}

	// One node's state under a tumbling window of 4 tuples: every group
	// of runs+1 folds one row per epoch, and the flush and the drain at
	// the epoch's end prune it (the first epoch's partials are the only
	// ones made).
	tq := sqlparse.MustParse("select S.B, count(*), sum(S.C), min(R.C), max(R.C), count(distinct S.C) from R,S where R.A=S.A group by S.B within 4 tuples tumbling", testCat)
	tq.ID = "tumbling"
	tsub, st := &subscription{q: tq, spec: agg.SpecOf(tq)}, newState()
	keys, rows := make([]relation.Key, runs+1), make([][]relation.Value, runs+1)
	for i := range keys {
		rows[i] = []relation.Value{iv(int64(i)), iv(1), iv(5), iv(3), iv(3), iv(5)}
		keys[i] = at.sc.aggKey(tq.ID, tsub.spec, rows[i])
	}
	epoch, next := int64(0), 0
	open := func() { // the next group's row in the current epoch
		st.aggFold(keys[next], tsub, epoch, rows[next], nil, 0)
		next++
	}
	closeEpoch := func() {
		epoch, next = epoch+1, 0
		h := horizon{clockSeq: 4 * epoch}
		st.hz = &h
		st.flushDirty(func(*aggGroup) {})
		st.expire(h, func(*storedQuery) {})
	}
	for range 2 {
		for range keys {
			open()
		}
		closeEpoch()
	}
	if len(st.spareParts) != len(keys) {
		t.Fatalf("%d spare partials after an epoch of %d groups died, want %d", len(st.spareParts), len(keys), len(keys))
	}
	if n := testing.AllocsPerRun(runs, open); n != 0 {
		t.Errorf("a row opening a (group, epoch) on a node holding spares: %v allocations, want 0", n)
	}
	closeEpoch()
	for _, k := range keys {
		st.dropKey(k)
	}
	if n := testing.AllocsPerRun(runs, open); n != 1 {
		t.Errorf("a row opening a new group on a node holding spares: %v allocations, want 1, the group", n)
	}
	if len(st.spareParts) != 0 || len(st.aggs) != len(keys) {
		t.Fatalf("%d spares and %d groups left, want 0 and %d", len(st.spareParts), len(st.aggs), len(keys))
	}
}

// TestPooledMessagesKeepOnlyOwnedBuffers holds every pooled message
// kind, and the pooled waiting placement, to the pools' one ownership
// rule (messages.go): after recycle a message is its zero value except
// for its own buffers — the unexported slice fields — which are kept
// empty, their arrays cleared, so a recycled message references nothing
// it was handed. A placement's one buffer is its inline slot array, also
// after its slots spilled off it. A rewrite's entry on the engine's free
// list is held to the same rule: every field zero but its generation,
// one past its dead life's, and its query's select list and selections,
// empty slices over the entry's own arrays — no DISTINCT memory, lineage,
// record, key or plan survives. So is a partial a flush prunes into its
// node's spares: it keeps its column array, every column empty but for
// its COUNT(DISTINCT) set, cleared, and the group keeps no reference to
// it.
func TestPooledMessagesKeepOnlyOwnedBuffers(t *testing.T) {
	key := relation.KeyOf("R+A+1")
	row := []relation.Value{relation.String64("held"), relation.Int64(1), relation.String64("too")}
	lin := []query.LineageStep{{Pub: 1, Seq: 2, Node: 3}}
	info := ricInfo{Key: key, Rate: 1, Addr: 7, At: 9}
	var free freeEntries
	eval := newEvalMsg(free.newEntry(), key, query.ValueLevel)
	eval.RIC = append(eval.RIC, info, info, info) // spills off the inline array
	spec := agg.SpecOf(sqlparse.MustParse("select R.A, count(*), max(R.B) from R,S where R.A=S.A group by R.A", testCat))
	sub := &subscription{q: &query.Query{ID: "q", Owner: 5}, spec: spec}
	g := newAggGroup(sub, aggKeyOf("q", "held"), row)
	g.pubAt = 3
	g.addPartial(2, *agg.NewPartial(spec)).Add(spec, row)
	if newAggUpdateMsg(g, 7) != nil {
		t.Fatal("an epoch with no data made a group update")
	}
	update := newAggUpdateMsg(g, 2)
	update.Lineage = lin
	msgs := []interface{ recycle() }{
		newTupleMsg(mkTuple("R", 1, 2, 3), key, query.ValueLevel, 5),
		eval,
		newAnswerMsg("q", 5, row, 3, lin),
		newAggPartialMsg("q", key, 2, row, 3, lin),
		update,
		newRICRequestMsg(5, []relation.Key{key, key, key}),
		newRICReplyMsg(5, []ricInfo{info}),
	}
	slots := []slot{{ricInfo: info}, {ricInfo: info, have: true}, {ricInfo: info}}
	fits, spills := newPending(nil, free.newEntry(), slots, 2), newPending(nil, free.newEntry(), append(slots, slot{ricInfo: info}), 3)
	if &fits.slots[0] != &fits.inline[0] || &spills.slots[0] == &spills.inline[0] {
		t.Fatal("three slots do not lie in the placement's inline array, or four do")
	}
	msgs = append(msgs, fits, spills)
	for _, m := range msgs {
		m.recycle()
		v := reflect.ValueOf(m).Elem()
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), v.Type().Name()+"."+v.Type().Field(i).Name
			if v.Type().Field(i).IsExported() || f.Kind() != reflect.Slice {
				if !f.IsZero() {
					t.Errorf("%s survives recycle", name)
				}
				continue
			}
			if f.Len() != 0 || f.Cap() == 0 {
				t.Errorf("%s: recycle left len %d, cap %d; want the buffer kept, emptied", name, f.Len(), f.Cap())
			}
			for j, all := 0, f.Slice(0, f.Cap()); j < all.Len(); j++ {
				if !all.Index(j).IsZero() {
					t.Errorf("%s still holds %v at %d", name, all.Index(j), j)
				}
			}
		}
	}
	for _, pp := range []*pendingPlacement{fits, spills} {
		if cap(pp.slots) != len(pp.inline) || &pp.slots[:1][0] != &pp.inline[0] {
			t.Errorf("a recycled placement's slots lie off its inline array")
		}
	}

	parent := free.entryOf(sqlparse.MustParse("select distinct R.B, S.B from R,S,J where R.A=S.A and S.B=J.B and S.C=4 within 9 tuples", testCat))
	sq := free.newEntry()
	if !query.RewriteInto(sq.q, parent.q, mkTuple("R", 1, 2, 3)) {
		t.Fatal("the rewrite failed")
	}
	sq.q.Lineage = lin
	sq.key, sq.level, sq.seen, sq.pipe = key, query.ValueLevel, map[string]bool{"held": true}, sub
	sub.enlist(sq)
	sub.delist(sq)
	sq.gen = 7
	if len(sq.q.Select) == 0 || len(sq.q.Selections) == 0 {
		t.Fatal("the rewrite left its entry's lists empty: nothing to clear")
	}
	free.put(sq)
	if len(free.spare) != 1 || &free.spare[0].storedQuery != sq {
		t.Fatalf("the free list holds %d entries, want the dead rewrite's", len(free.spare))
	}
	e := free.spare[0]
	if e.gen != 8 || e.q != &e.body {
		t.Errorf("a recycled entry is at generation %d with its query at %p, want 8 and its own %p", e.gen, e.q, &e.body)
	}
	own := map[string]reflect.Value{ // the fields that keep an owned buffer
		"Select":     reflect.ValueOf(e.sel[:0]),
		"Selections": reflect.ValueOf(e.sels[:0]),
	}
	for _, v := range []reflect.Value{reflect.ValueOf(&e.storedQuery).Elem(), reflect.ValueOf(&e.body).Elem(), reflect.ValueOf(e).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), v.Type().Name()+"."+v.Type().Field(i).Name
			switch buf, ok := own[v.Type().Field(i).Name]; {
			case v.Type() == reflect.TypeOf(storedQuery{}) && (name == "storedQuery.gen" || name == "storedQuery.q"),
				v.Type() == reflect.TypeOf(entry{}) && (name == "entry.storedQuery" || name == "entry.body"):
				// checked above, or field by field
			case ok:
				if f.Len() != 0 || f.Cap() != buf.Cap() || f.Pointer() != buf.Pointer() {
					t.Errorf("%s: len %d, cap %d off the entry's array; want its emptied own buffer", name, f.Len(), f.Cap())
				}
			case !f.IsZero():
				t.Errorf("%s survives recycling", name)
			}
		}
	}

	dq := sqlparse.MustParse("select R.A, count(*), sum(R.B), min(R.B), count(distinct R.B) from R,S where R.A=S.A group by R.A within 4 tuples tumbling", testCat)
	dq.ID = "dq"
	st, dsub := newState(), &subscription{q: dq, spec: agg.SpecOf(dq)}
	dg := st.aggFold(aggKeyOf("dq", "held"), dsub, 0, []relation.Value{row[0], relation.Int64(1), relation.Int64(5), relation.Int64(5), relation.Int64(5)}, lin, 3)
	st.aggFold(dg.key, dsub, 0, []relation.Value{row[0], relation.Int64(1), relation.Int64(6), relation.Int64(6), relation.Int64(6)}, lin, 3)
	cols := dg.epochs[0].part
	st.hz = &horizon{clockSeq: 4} // epoch 0 of 4 tuples closed
	st.flushDirty(func(*aggGroup) {})
	if len(dg.epochs) != 0 || len(st.spareParts) != 1 {
		t.Fatalf("the flush left %d epochs and %d spare partials, want 0 and 1", len(dg.epochs), len(st.spareParts))
	}
	if !reflect.ValueOf(dg.inEpochs).IsZero() {
		t.Error("a pruned epoch's partial survives in its group's inline array")
	}
	spare := reflect.ValueOf(st.spareParts[0])
	if !spare.FieldByName("rows").IsZero() {
		t.Error("a spare partial keeps its row count")
	}
	all := spare.FieldByName("cols")
	if all.Len() != 3 || all.Pointer() != reflect.ValueOf(cols).FieldByName("cols").Pointer() {
		t.Fatalf("a spare partial holds %d columns off its epoch's array; want that array's 3", all.Len())
	}
	for j := 0; j < all.Cap(); j++ {
		c := all.Slice(0, all.Cap()).Index(j)
		for i := 0; i < c.NumField(); i++ {
			f, name := c.Field(i), fmt.Sprintf("column %d's %s", j, c.Type().Field(i).Name)
			switch {
			case name == "column 2's distinct":
				if f.IsNil() || f.Len() != 0 {
					t.Errorf("%s: nil %v, %d values; want its set kept, cleared", name, f.IsNil(), f.Len())
				}
			case !f.IsZero():
				t.Errorf("%s survives in a spare partial", name)
			}
		}
	}
}
