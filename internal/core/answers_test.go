package core

import (
	"reflect"
	"testing"

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
// pooled message's own buffer, recordAnswer appends its values to the
// owner's flat log and the message is recycled; on the aggregate path
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

	// A DISTINCT owner encodes each row into its own buffer and makes a
	// key string only for a row it keeps: a repeat costs nothing.
	if n := testing.AllocsPerRun(1000, func() {
		owner.HandleMessage(now, newAnswerMsg(distinctID, nodes[0].ID(), complete(distinct), 0, nil))
	}); n != 0 {
		t.Errorf("repeated DISTINCT row: %v allocations, want 0", n)
	}
	if n := eng.AnswerCount(distinctID); n != 1 {
		t.Fatalf("DISTINCT log holds %d rows, want 1", n)
	}

	spec := eng.aggSpec(aggID)
	key := aggKeyOf(aggID, spec.GroupKey(complete(aggQ)))
	aggr := eng.procs[eng.ring.Owner(key.ID()).ID()]
	fold := func() {
		aggr.HandleMessage(now, newAggPartialMsg(aggID, key, nodes[0].ID(), 0, complete(aggQ), 0, nil))
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

// TestPooledMessagesKeepOnlyOwnedBuffers holds every pooled message
// kind to the pools' one ownership rule (messages.go): after recycle a
// message is its zero value except for its own buffers — the unexported
// slice fields — which are kept empty, their arrays cleared, so a
// recycled message references nothing it was handed.
func TestPooledMessagesKeepOnlyOwnedBuffers(t *testing.T) {
	key := relation.KeyOf("R+A+1")
	row := []relation.Value{relation.String64("held"), relation.Int64(1), relation.String64("too")}
	lin := []query.LineageStep{{Pub: 1, Seq: 2, Node: 3}}
	info := ricInfo{Key: key, Rate: 1, Addr: 7, At: 9}
	eval := newEvalMsg(newEntry(), key, query.ValueLevel)
	eval.RIC = append(eval.RIC, info, info, info) // spills off the inline array
	msgs := []interface{ recycle() }{
		newTupleMsg(mkTuple("R", 1, 2, 3), key, query.ValueLevel, 5),
		eval,
		newAnswerMsg("q", 5, row, 3, lin),
		newAggPartialMsg("q", key, 5, 2, row, 3, lin),
		newRICRequestMsg(5, []relation.Key{key, key, key}),
		newRICReplyMsg(5, []ricInfo{info}),
	}
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
}
