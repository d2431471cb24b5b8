package core

import (
	"testing"

	"rjoin/internal/relation"
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
