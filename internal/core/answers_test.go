package core

import (
	"testing"

	"rjoin/internal/overlay"
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
		if rowKey(c[0]) == rowKey(c[1]) {
			t.Errorf("case %d: distinct rows %v and %v share a row key", i, c[0], c[1])
		}
	}
	// Equal rows must still share a key.
	a := []relation.Value{str("x\x00y"), relation.Int64(7)}
	b := []relation.Value{str("x\x00y"), relation.Int64(7)}
	if rowKey(a) != rowKey(b) {
		t.Error("equal rows produced different row keys")
	}
}

// TestAllAnswersSnapshot: the map AllAnswers returns must be detached
// from engine state — mutating it (as the churn experiments' multiset
// bookkeeping reasonably could) must not corrupt the live answer
// stream or the counters derived from it.
func TestAllAnswersSnapshot(t *testing.T) {
	eng, nodes := testNet(t, 16, 3, DefaultConfig(), overlay.DefaultConfig())
	q := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat)
	qid, err := eng.SubmitQuery(nodes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	eng.PublishTuple(nodes[1], mkTuple("R", 1, 10, 0))
	eng.PublishTuple(nodes[2], mkTuple("S", 1, 20, 0))
	eng.Run()

	before := len(eng.Answers(qid))
	if before == 0 {
		t.Fatal("workload produced no answers")
	}
	snap := eng.AllAnswers()
	// Corrupt the snapshot every way a caller could, including mutating
	// the value rows in place (the slices must be deep copies).
	for k, list := range snap {
		for i := range list {
			list[i].Query = "corrupted"
			for j := range list[i].Row {
				list[i].Row[j] = relation.Int64(-999)
			}
			list[i].Row = nil
		}
		snap[k] = append(list, Answer{Query: "injected"})
	}
	delete(snap, qid)

	live := eng.Answers(qid)
	if len(live) != before {
		t.Fatalf("live answer stream length changed: %d -> %d", before, len(live))
	}
	for _, a := range live {
		if a.Query != qid || a.Row == nil {
			t.Fatalf("live answer corrupted through AllAnswers: %+v", a)
		}
		for _, v := range a.Row {
			if v.Kind == relation.KindInt && v.Int == -999 {
				t.Fatalf("live answer values mutated through shallow snapshot: %+v", a)
			}
		}
	}
	if again := eng.AllAnswers(); len(again[qid]) != before {
		t.Fatalf("second snapshot sees %d answers, want %d", len(again[qid]), before)
	}
}
