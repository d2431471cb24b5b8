package query

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"rjoin/internal/relation"
)

var (
	schemaR = relation.MustSchema("R", "A", "B", "C")
	schemaS = relation.MustSchema("S", "A", "B", "C")
	schemaJ = relation.MustSchema("J", "A", "B", "C")
	schemaM = relation.MustSchema("M", "A", "B", "C")
)

// paperQuery builds the Section 3 example:
// select R.B, S.B from R,S,P where R.A=S.A and S.B=P.B
// (with P renamed to J to reuse schemas).
func sectionThreeQuery() *Query {
	return &Query{
		ID: "q1",
		Select: []SelectItem{
			{Col: ColRef{"R", "B"}},
			{Col: ColRef{"S", "B"}},
		},
		Relations: []string{"R", "S", "J"},
		Joins: []JoinCond{
			{ColRef{"R", "A"}, ColRef{"S", "A"}},
			{ColRef{"S", "B"}, ColRef{"J", "B"}},
		},
	}
}

func TestRewriteSectionThreeExample(t *testing.T) {
	// Incoming tuple t of R with t=(3,5,...) must produce
	// select 5, S.B from S,P where 3=S.A and S.B=P.B.
	q := sectionThreeQuery()
	tup := relation.MustTuple(schemaR, relation.Int64(3), relation.Int64(5), relation.Int64(0))
	q2, ok := Rewrite(q, tup)
	if !ok {
		t.Fatal("tuple failed to trigger query")
	}
	if q2.HasRelation("R") {
		t.Fatal("R still in FROM after rewrite")
	}
	if !q2.Select[0].IsConst || q2.Select[0].Const.Int != 5 {
		t.Fatalf("select item not substituted: %v", q2.Select[0])
	}
	if len(q2.Selections) != 1 || q2.Selections[0].Col != (ColRef{"S", "A"}) || q2.Selections[0].Val.Int != 3 {
		t.Fatalf("expected selection 3=S.A, got %v", q2.Selections)
	}
	if len(q2.Joins) != 1 || q2.Joins[0].Left != (ColRef{"S", "B"}) {
		t.Fatalf("expected remaining join S.B=J.B, got %v", q2.Joins)
	}
	if got := q2.String(); got != "select 5, S.B from S,J where 3=S.A and S.B=J.B" {
		t.Fatalf("rendered %q", got)
	}
	if q2.Depth != 1 {
		t.Fatalf("depth = %d, want 1", q2.Depth)
	}
}

// figure1Query is the Figure 1 input query:
// select S.B, M.A from R,S,J,M where R.A=S.A and S.B=J.B and J.C=M.C.
func figure1Query() *Query {
	return &Query{
		ID: "q",
		Select: []SelectItem{
			{Col: ColRef{"S", "B"}},
			{Col: ColRef{"M", "A"}},
		},
		Relations: []string{"R", "S", "J", "M"},
		Joins: []JoinCond{
			{ColRef{"R", "A"}, ColRef{"S", "A"}},
			{ColRef{"S", "B"}, ColRef{"J", "B"}},
			{ColRef{"J", "C"}, ColRef{"M", "C"}},
		},
	}
}

func TestPaperFigure1RewriteChain(t *testing.T) {
	q := figure1Query()

	// Event 2: t1=(2,5,8) of R.
	t1 := relation.MustTuple(schemaR, relation.Int64(2), relation.Int64(5), relation.Int64(8))
	q1, ok := Rewrite(q, t1)
	if !ok {
		t.Fatal("t1 did not trigger q")
	}
	if got := q1.String(); got != "select S.B, M.A from S,J,M where 2=S.A and S.B=J.B and J.C=M.C" {
		t.Fatalf("q1 = %q", got)
	}

	// Event 3: t2=(2,6,3) of S.
	t2 := relation.MustTuple(schemaS, relation.Int64(2), relation.Int64(6), relation.Int64(3))
	q2, ok := Rewrite(q1, t2)
	if !ok {
		t.Fatal("t2 did not trigger q1")
	}
	if got := q2.String(); got != "select 6, M.A from J,M where 6=J.B and J.C=M.C" {
		t.Fatalf("q2 = %q", got)
	}

	// Event 5: t4=(7,6,2) of J.
	t4 := relation.MustTuple(schemaJ, relation.Int64(7), relation.Int64(6), relation.Int64(2))
	q3, ok := Rewrite(q2, t4)
	if !ok {
		t.Fatal("t4 did not trigger q2")
	}
	if got := q3.String(); got != "select 6, M.A from M where 2=M.C" {
		t.Fatalf("q3 = %q", got)
	}

	// t3=(9,1,2) of M completes the query.
	t3 := relation.MustTuple(schemaM, relation.Int64(9), relation.Int64(1), relation.Int64(2))
	q4, ok := Rewrite(q3, t3)
	if !ok {
		t.Fatal("t3 did not trigger q3")
	}
	if !q4.IsComplete() {
		t.Fatal("q4 not complete")
	}
	vals := q4.AnswerValues()
	if len(vals) != 2 || vals[0].Int != 6 || vals[1].Int != 9 {
		t.Fatalf("answer = %v, want S.B=6, M.A=9", vals)
	}
}

func TestRewriteNonMatchingSelection(t *testing.T) {
	q := sectionThreeQuery()
	tR := relation.MustTuple(schemaR, relation.Int64(3), relation.Int64(5), relation.Int64(0))
	q2, _ := Rewrite(q, tR)
	// q2 requires 3=S.A; an S tuple with A=4 must not trigger it.
	bad := relation.MustTuple(schemaS, relation.Int64(4), relation.Int64(1), relation.Int64(0))
	if _, ok := Rewrite(q2, bad); ok {
		t.Fatal("selection-violating tuple triggered query")
	}
	// But A=3 must trigger.
	good := relation.MustTuple(schemaS, relation.Int64(3), relation.Int64(1), relation.Int64(0))
	if _, ok := Rewrite(q2, good); !ok {
		t.Fatal("selection-satisfying tuple rejected")
	}
}

func TestRewriteWrongRelation(t *testing.T) {
	q := sectionThreeQuery()
	tM := relation.MustTuple(schemaM, relation.Int64(1), relation.Int64(2), relation.Int64(3))
	if _, ok := Rewrite(q, tM); ok {
		t.Fatal("tuple of non-referenced relation triggered query")
	}
}

func TestRewriteIntraRelationJoin(t *testing.T) {
	// R.A = R.B is checked against the tuple directly.
	q := &Query{
		ID:        "qq",
		Select:    []SelectItem{{Col: ColRef{"R", "C"}}},
		Relations: []string{"R", "S"},
		Joins: []JoinCond{
			{ColRef{"R", "A"}, ColRef{"R", "B"}},
			{ColRef{"R", "C"}, ColRef{"S", "C"}},
		},
	}
	bad := relation.MustTuple(schemaR, relation.Int64(1), relation.Int64(2), relation.Int64(3))
	if _, ok := Rewrite(q, bad); ok {
		t.Fatal("tuple violating intra-relation join accepted")
	}
	good := relation.MustTuple(schemaR, relation.Int64(2), relation.Int64(2), relation.Int64(3))
	q2, ok := Rewrite(q, good)
	if !ok {
		t.Fatal("tuple satisfying intra-relation join rejected")
	}
	if len(q2.Joins) != 0 || len(q2.Selections) != 1 {
		t.Fatalf("unexpected clause after rewrite: %v", q2)
	}
}

func TestRewriteDoesNotMutateOriginal(t *testing.T) {
	q := figure1Query()
	before := q.String()
	tup := relation.MustTuple(schemaR, relation.Int64(2), relation.Int64(5), relation.Int64(8))
	if _, ok := Rewrite(q, tup); !ok {
		t.Fatal("rewrite failed")
	}
	if q.String() != before {
		t.Fatalf("original mutated: %q -> %q", before, q.String())
	}
}

func TestCandidatesInputQuery(t *testing.T) {
	q := figure1Query()
	cands := q.Candidates()
	// All candidates of an input query are attribute level.
	wantKeys := map[string]bool{"R+A": true, "S+A": true, "S+B": true, "J+B": true, "J+C": true, "M+C": true}
	if len(cands) != len(wantKeys) {
		t.Fatalf("got %d candidates, want %d: %v", len(cands), len(wantKeys), cands)
	}
	for _, c := range cands {
		if c.Level != AttrLevel {
			t.Fatalf("input query candidate at value level: %v", c)
		}
		if !wantKeys[c.Key.String()] {
			t.Fatalf("unexpected candidate key %q", c.Key)
		}
	}
}

func TestCandidatesRewrittenIncludeImplied(t *testing.T) {
	q := figure1Query()
	t1 := relation.MustTuple(schemaR, relation.Int64(2), relation.Int64(5), relation.Int64(8))
	q1, _ := Rewrite(q, t1)
	// q1: select S.B, M.A from S,J,M where 2=S.A and S.B=J.B and J.C=M.C
	cands := q1.Candidates()
	keys := make(map[string]Level)
	for _, c := range cands {
		keys[c.Key.String()] = c.Level
	}
	// (a) join pairs at attribute level.
	for _, k := range []string{"S+B", "J+B", "J+C", "M+C"} {
		if lvl, ok := keys[k]; !ok || lvl != AttrLevel {
			t.Fatalf("missing attribute-level candidate %s (keys=%v)", k, keys)
		}
	}
	// (b) explicit selection 2=S.A at value level.
	if lvl, ok := keys["S+A+2"]; !ok || lvl != ValueLevel {
		t.Fatalf("missing value-level candidate S+A+2")
	}
	// S.A participates in no remaining join; no implied triples exist
	// because the only selection's column joins nothing.
	if _, ok := keys["J+B+2"]; ok {
		t.Fatal("bogus implied candidate")
	}
}

func TestImpliedSelectionPropagation(t *testing.T) {
	// where 6=J.B and J.B=M.B implies M.B=6 → value candidate M+B+6.
	q := &Query{
		ID:        "impl",
		Select:    []SelectItem{{Col: ColRef{"M", "A"}}},
		Relations: []string{"J", "M"},
		Joins:     []JoinCond{{ColRef{"J", "B"}, ColRef{"M", "B"}}},
		Selections: []SelCond{
			{Col: ColRef{"J", "B"}, Val: relation.Int64(6)},
		},
	}
	keys := make(map[string]bool)
	for _, c := range q.Candidates() {
		keys[c.Key.String()] = true
	}
	if !keys["M+B+6"] {
		t.Fatalf("implied candidate M+B+6 missing: %v", keys)
	}
	if !keys["J+B+6"] {
		t.Fatalf("explicit candidate J+B+6 missing: %v", keys)
	}
}

func TestImpliedTransitivePropagation(t *testing.T) {
	// 7=A.X, A.X=B.Y, B.Y=C.Z implies C.Z=7 through two hops.
	q := &Query{
		ID:        "impl2",
		Select:    []SelectItem{{Col: ColRef{"C", "Z"}}},
		Relations: []string{"A", "B", "C"},
		Joins: []JoinCond{
			{ColRef{"A", "X"}, ColRef{"B", "Y"}},
			{ColRef{"B", "Y"}, ColRef{"C", "Z"}},
		},
		Selections: []SelCond{{Col: ColRef{"A", "X"}, Val: relation.Int64(7)}},
	}
	keys := make(map[string]bool)
	for _, c := range q.Candidates() {
		keys[c.Key.String()] = true
	}
	for _, want := range []string{"B+Y+7", "C+Z+7"} {
		if !keys[want] {
			t.Fatalf("missing transitive implied candidate %s: %v", want, keys)
		}
	}
}

func TestContradictory(t *testing.T) {
	q := &Query{
		Relations: []string{"S"},
		Joins:     []JoinCond{},
		Selections: []SelCond{
			{Col: ColRef{"S", "A"}, Val: relation.Int64(3)},
			{Col: ColRef{"S", "A"}, Val: relation.Int64(5)},
		},
	}
	if !q.Contradictory() {
		t.Fatal("conflicting selections not detected")
	}
	q2 := &Query{
		Relations: []string{"S", "J"},
		Joins:     []JoinCond{{ColRef{"S", "A"}, ColRef{"J", "B"}}},
		Selections: []SelCond{
			{Col: ColRef{"S", "A"}, Val: relation.Int64(3)},
			{Col: ColRef{"J", "B"}, Val: relation.Int64(4)},
		},
	}
	if !q2.Contradictory() {
		t.Fatal("join-implied contradiction not detected")
	}
	q3 := sectionThreeQuery()
	if q3.Contradictory() {
		t.Fatal("satisfiable query flagged contradictory")
	}
}

// TestJoinClasses: the join conjuncts' equivalence classes come out
// with members sorted and classes ordered by their first member —
// through a transitive merge, a conjunct within one relation and
// flipped orientations — and nil without joins.
func TestJoinClasses(t *testing.T) {
	c := func(rel, attr string) ColRef { return ColRef{rel, attr} }
	q := &Query{Joins: []JoinCond{
		{c("S", "B"), c("J", "B")},
		{c("R", "C"), c("R", "A")}, // within R
		{c("J", "B"), c("M", "A")}, // S.B = J.B = M.A
		{c("S", "A"), c("R", "A")}, // R.C = R.A = S.A, flipped
		{c("M", "A"), c("S", "B")}, // closes the cycle
	}}
	want := [][]ColRef{
		{c("J", "B"), c("M", "A"), c("S", "B")},
		{c("R", "A"), c("R", "C"), c("S", "A")},
	}
	if got := q.JoinClasses(); !reflect.DeepEqual(got, want) {
		t.Errorf("JoinClasses = %v, want %v", got, want)
	}
	flipped := &Query{Joins: slices.Clone(q.Joins)}
	for i := range flipped.Joins {
		flipped.Joins[i].Left, flipped.Joins[i].Right = flipped.Joins[i].Right, flipped.Joins[i].Left
	}
	slices.Reverse(flipped.Joins)
	if got := flipped.JoinClasses(); !reflect.DeepEqual(got, want) {
		t.Errorf("JoinClasses of the flipped, reversed conjuncts = %v, want %v", got, want)
	}
	if got := (&Query{Relations: []string{"R"}}).JoinClasses(); got != nil {
		t.Errorf("JoinClasses without joins = %v, want nil", got)
	}
}

func TestWindowValidSliding(t *testing.T) {
	w := WindowSpec{Kind: WindowTuples, Size: 10}
	if !w.Valid(5, 14) {
		t.Fatal("|5-14|+1=10 <= 10 must be valid")
	}
	if w.Valid(5, 15) {
		t.Fatal("|5-15|+1=11 > 10 must be invalid")
	}
	if !w.Valid(14, 5) {
		t.Fatal("window must be symmetric")
	}
}

func TestWindowValidTumbling(t *testing.T) {
	w := WindowSpec{Kind: WindowTuples, Size: 10, Tumbling: true}
	if !w.Valid(11, 19) {
		t.Fatal("same epoch must be valid")
	}
	if w.Valid(9, 11) {
		t.Fatal("adjacent epochs must be invalid even if close")
	}
}

func TestWindowDisabled(t *testing.T) {
	var w WindowSpec
	if !w.Valid(0, 1<<40) {
		t.Fatal("disabled window must always be valid")
	}
	if w.Enabled() {
		t.Fatal("zero WindowSpec must be disabled")
	}
}

func TestWindowClock(t *testing.T) {
	tup := relation.MustTuple(schemaR, relation.Int64(1), relation.Int64(2), relation.Int64(3))
	tup.PubTime = 111
	tup.PubSeq = 222
	if (WindowSpec{Kind: WindowTime, Size: 5}).Clock(tup) != 111 {
		t.Fatal("time window clock")
	}
	if (WindowSpec{Kind: WindowTuples, Size: 5}).Clock(tup) != 222 {
		t.Fatal("tuple window clock")
	}
}

func TestTriggerProjectionCanonical(t *testing.T) {
	q := sectionThreeQuery()
	q.Distinct = true
	proj := func(tu *relation.Tuple) string { return string(q.AppendProjection(nil, tu)) }
	t1 := relation.MustTuple(schemaS, relation.Int64(3), relation.Int64(5), relation.Int64(7))
	t2 := relation.MustTuple(schemaS, relation.Int64(3), relation.Int64(5), relation.Int64(99))
	// S.C is not referenced by q, so projections must be equal.
	if proj(t1) != proj(t2) {
		t.Fatal("projection must ignore unreferenced attributes")
	}
	t3 := relation.MustTuple(schemaS, relation.Int64(4), relation.Int64(5), relation.Int64(7))
	if proj(t1) == proj(t3) {
		t.Fatal("projection must distinguish referenced attributes")
	}
	// Renderings that spell the values out would collide on a separator
	// inside a value, or on an integer and a string with the same text.
	for _, pair := range [][2]*relation.Tuple{
		{
			relation.MustTuple(schemaS, relation.String64("1|B=2"), relation.String64("3"), relation.Int64(7)),
			relation.MustTuple(schemaS, relation.String64("1"), relation.String64("2|B=3"), relation.Int64(7)),
		},
		{
			relation.MustTuple(schemaS, relation.Int64(12), relation.Int64(5), relation.Int64(7)),
			relation.MustTuple(schemaS, relation.String64("12"), relation.Int64(5), relation.Int64(7)),
		},
	} {
		if proj(pair[0]) == proj(pair[1]) {
			t.Fatalf("%v and %v project alike", pair[0], pair[1])
		}
	}
	q.Distinct = false
	if p := q.AppendProjection(nil, t1); len(p) != 0 {
		t.Fatalf("a query that is not DISTINCT projected %q", p)
	}
}

func TestValidate(t *testing.T) {
	cat, _ := relation.NewCatalog(schemaR, schemaS, schemaJ, schemaM)
	if err := figure1Query().Validate(cat); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := figure1Query()
	bad.Relations = append(bad.Relations, "R") // duplicate FROM
	if err := bad.Validate(cat); err == nil {
		t.Fatal("duplicate FROM accepted")
	}
	bad2 := figure1Query()
	bad2.Joins[0].Left.Attr = "Z"
	if err := bad2.Validate(cat); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	bad3 := figure1Query()
	bad3.Relations = []string{"R", "S", "J", "M", "X"}
	if err := bad3.Validate(cat); err == nil {
		t.Fatal("unknown relation accepted")
	}
	cross := &Query{
		ID:        "cross",
		Select:    []SelectItem{{Col: ColRef{"R", "A"}}},
		Relations: []string{"R", "S"},
	}
	if err := cross.Validate(cat); err == nil {
		t.Fatal("cross product accepted")
	}
}

// Property: rewriting by a matching tuple always removes exactly one
// relation and never leaves conjuncts mentioning it.
func TestRewriteRemovesRelationProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		q := figure1Query()
		tup := relation.MustTuple(schemaR,
			relation.Int64(int64(a%10)), relation.Int64(int64(b%10)), relation.Int64(int64(c%10)))
		q1, ok := Rewrite(q, tup)
		if !ok {
			return false // figure1Query has no selections on R; R tuples always match
		}
		if len(q1.Relations) != len(q.Relations)-1 {
			return false
		}
		for _, j := range q1.Joins {
			if j.Left.Rel == "R" || j.Right.Rel == "R" {
				return false
			}
		}
		for _, s := range q1.Selections {
			if s.Col.Rel == "R" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a chain of rewrites over tuples that pairwise satisfy the
// join conditions always terminates in a complete query whose answer
// matches direct evaluation.
func TestFullRewriteChainProperty(t *testing.T) {
	f := func(av, bv uint8) bool {
		a, b := int64(av%20), int64(bv%20)
		q := &Query{
			ID:        "p",
			Select:    []SelectItem{{Col: ColRef{"R", "B"}}, {Col: ColRef{"S", "B"}}},
			Relations: []string{"R", "S"},
			Joins:     []JoinCond{{ColRef{"R", "A"}, ColRef{"S", "A"}}},
		}
		tR := relation.MustTuple(schemaR, relation.Int64(a), relation.Int64(b), relation.Int64(0))
		tS := relation.MustTuple(schemaS, relation.Int64(a), relation.Int64(b+1), relation.Int64(0))
		q1, ok := Rewrite(q, tR)
		if !ok {
			return false
		}
		q2, ok := Rewrite(q1, tS)
		if !ok {
			return false
		}
		if !q2.IsComplete() {
			return false
		}
		vals := q2.AnswerValues()
		return vals[0].Int == b && vals[1].Int == b+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: rewrite order does not change the final answer (R then S
// vs S then R).
func TestRewriteOrderIndependenceProperty(t *testing.T) {
	f := func(av, bv, cv uint8) bool {
		a, b, c := int64(av%10), int64(bv%10), int64(cv%10)
		mk := func() *Query {
			return &Query{
				ID:        "p",
				Select:    []SelectItem{{Col: ColRef{"R", "C"}}, {Col: ColRef{"S", "C"}}},
				Relations: []string{"R", "S"},
				Joins:     []JoinCond{{ColRef{"R", "A"}, ColRef{"S", "A"}}},
			}
		}
		tR := relation.MustTuple(schemaR, relation.Int64(a), relation.Int64(0), relation.Int64(b))
		tS := relation.MustTuple(schemaS, relation.Int64(a), relation.Int64(0), relation.Int64(c))
		viaR, ok1 := Rewrite(mk(), tR)
		if !ok1 {
			return false
		}
		ansR, ok2 := Rewrite(viaR, tS)
		if !ok2 {
			return false
		}
		viaS, ok3 := Rewrite(mk(), tS)
		if !ok3 {
			return false
		}
		ansS, ok4 := Rewrite(viaS, tR)
		if !ok4 {
			return false
		}
		v1, v2 := ansR.AnswerValues(), ansS.AnswerValues()
		return v1[0] == v2[0] && v1[1] == v2[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAnswerValuesPanicsOnIncomplete(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	figure1Query().AnswerValues()
}

func TestStringRendersDistinctAndWindow(t *testing.T) {
	q := figure1Query()
	q.Distinct = true
	q.Window = WindowSpec{Kind: WindowTuples, Size: 100}
	s := q.String()
	if !strings.Contains(s, "distinct") || !strings.Contains(s, "within 100 tuples") {
		t.Fatalf("rendered %q", s)
	}
}

// ---------------------------------------------------------------------
// The reference: Rewrite, RewriteComplete (now AppendComplete), Candidates, impliedSelections
// and Contradictory as they were before the rewrite tree, verbatim but
// for their names, their shared union-find (refFind) and one line —
// refRewrite copies the parent with copyInto, since the plan's atomic
// pointer may not be copied (and the reference must not carry a plan
// anyway) — and the join classes the sharing layer derived on its own
// (refJoinClasses). TestRewriteTreeMatchesReference holds the tree to
// them.

func refRewriteComplete(q *Query, t *relation.Tuple) ([]relation.Value, bool) {
	if len(q.Relations) != 1 || !q.Matches(t) {
		return nil, false
	}
	rel := t.Relation()
	out := make([]relation.Value, len(q.Select))
	for i, s := range q.Select {
		if s.IsConst {
			out[i] = s.Const
			continue
		}
		if s.Col.Rel != rel {
			// The general path would have produced an "complete" query
			// with an unresolved column and panicked in AnswerValues;
			// validated queries cannot reach this.
			panic(fmt.Sprintf("query: RewriteComplete on query %s (column %s unresolved)", q.ID, s.Col))
		}
		v, ok := t.Value(s.Col.Attr)
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

func refRewrite(q *Query, t *relation.Tuple) (*Query, bool) {
	if !q.Matches(t) {
		return nil, false
	}
	rel := t.Relation()
	out := new(Query)
	q.copyInto(out) // scalars copied, slice headers shared
	out.Depth = q.Depth + 1

	// FROM list loses the substituted relation.
	rels := make([]string, 0, len(q.Relations)-1)
	for _, r := range q.Relations {
		if r != rel {
			rels = append(rels, r)
		}
	}
	out.Relations = rels

	// Select columns of rel become constants; untouched lists stay
	// shared with the parent. Substitution sets only IsConst/Const, so
	// an aggregate item keeps its Agg marker (the aggregation layer
	// recognises the completed query by it) and the column it came from.
	for i, s := range q.Select {
		if !s.IsConst && s.Col.Rel == rel {
			sel := make([]SelectItem, len(q.Select))
			copy(sel, q.Select)
			for k := i; k < len(sel); k++ {
				if sc := sel[k]; !sc.IsConst && sc.Col.Rel == rel {
					v, ok := t.Value(sc.Col.Attr)
					if !ok {
						return nil, false
					}
					sel[k].IsConst = true
					sel[k].Const = v
				}
			}
			out.Select = sel
			break
		}
	}

	// Size the surviving clauses in one counting pass: join conjuncts
	// with one side on rel become selections on the other side,
	// conjuncts fully on rel were validated by Matches and are dropped,
	// and selections on rel are likewise validated and dropped.
	keptJoins, converted := 0, 0
	for _, j := range q.Joins {
		lOn, rOn := j.Left.Rel == rel, j.Right.Rel == rel
		switch {
		case lOn && rOn:
		case lOn, rOn:
			converted++
		default:
			keptJoins++
		}
	}
	keptSels := 0
	for _, s := range q.Selections {
		if s.Col.Rel != rel {
			keptSels++
		}
	}

	if keptJoins < len(q.Joins) {
		joins := make([]JoinCond, 0, keptJoins)
		for _, j := range q.Joins {
			if j.Left.Rel != rel && j.Right.Rel != rel {
				joins = append(joins, j)
			}
		}
		out.Joins = joins
	}

	if converted > 0 || keptSels < len(q.Selections) {
		// Surviving selections keep clause order; selections converted
		// from join conjuncts follow, in join order — the same ordering
		// the pre-copy-on-write implementation produced.
		sels := make([]SelCond, 0, keptSels+converted)
		for _, s := range q.Selections {
			if s.Col.Rel != rel {
				sels = append(sels, s)
			}
		}
		for _, j := range q.Joins {
			lOn, rOn := j.Left.Rel == rel, j.Right.Rel == rel
			switch {
			case lOn && rOn:
			case lOn:
				v, _ := t.Value(j.Left.Attr)
				sels = append(sels, SelCond{Col: j.Right, Val: v})
			case rOn:
				v, _ := t.Value(j.Right.Attr)
				sels = append(sels, SelCond{Col: j.Left, Val: v})
			}
		}
		out.Selections = sels
	}
	return out, true
}

func refCandidates(q *Query) []Candidate {
	out := make([]Candidate, 0, 2*len(q.Joins)+len(q.Selections))
	// Candidate sets are small (one or two per clause), so dedup by
	// linear scan instead of a map — cheaper and allocation free.
	add := func(c Candidate) {
		for i := range out {
			if out[i].Key == c.Key {
				return
			}
		}
		out = append(out, c)
	}
	// (a) attribute-level pairs from join conjuncts.
	for _, j := range q.Joins {
		add(Candidate{Key: relation.AttrKeyOf(j.Left.Rel, j.Left.Attr), Level: AttrLevel, Col: j.Left})
		add(Candidate{Key: relation.AttrKeyOf(j.Right.Rel, j.Right.Attr), Level: AttrLevel, Col: j.Right})
	}
	// (b) explicit value-level triples from selections.
	for _, s := range q.Selections {
		add(Candidate{
			Key:   relation.ValueKeyOf(s.Col.Rel, s.Col.Attr, s.Val),
			Level: ValueLevel, Col: s.Col, Val: s.Val,
		})
	}
	// (c) implied triples: propagate selection values across join
	// equivalence classes.
	for _, imp := range refImpliedSelections(q) {
		add(Candidate{
			Key:   relation.ValueKeyOf(imp.Col.Rel, imp.Col.Attr, imp.Val),
			Level: ValueLevel, Col: imp.Col, Val: imp.Val,
		})
	}
	return out
}

// refFind is the references' union-find over the join conjuncts'
// columns: find names a column's class by one of its members, and a
// column no conjunct names by itself.
func refFind(joins []JoinCond) func(ColRef) ColRef {
	parent := make(map[ColRef]ColRef)
	var find func(c ColRef) ColRef
	find = func(c ColRef) ColRef {
		p, ok := parent[c]
		if !ok || p == c {
			return c
		}
		root := find(p)
		parent[c] = root
		return root
	}
	for _, j := range joins {
		ra, rb := find(j.Left), find(j.Right)
		if ra != rb {
			parent[ra] = rb
		}
	}
	return find
}

// refJoinClasses is the sharing layer's join classes as it derived them
// before it read the rewrite tree's: members sorted, classes ordered by
// their first member, nil without joins.
func refJoinClasses(q *Query) [][]ColRef {
	if len(q.Joins) == 0 {
		return nil
	}
	find := refFind(q.Joins)
	less := func(a, b ColRef) bool { return a.Rel < b.Rel || a.Rel == b.Rel && a.Attr < b.Attr }
	groups := make(map[ColRef][]ColRef)
	var roots []ColRef
	for _, j := range q.Joins {
		for _, c := range [2]ColRef{j.Left, j.Right} {
			root := find(c)
			if slices.Contains(groups[root], c) {
				continue
			}
			if groups[root] == nil {
				roots = append(roots, root)
			}
			groups[root] = append(groups[root], c)
		}
	}
	var out [][]ColRef
	for _, root := range roots {
		cls := groups[root]
		sort.Slice(cls, func(i, j int) bool { return less(cls[i], cls[j]) })
		out = append(out, cls)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i][0], out[j][0]) })
	return out
}

func refImpliedSelections(q *Query) []SelCond {
	if len(q.Selections) == 0 || len(q.Joins) == 0 {
		return nil
	}
	find := refFind(q.Joins)
	cols := make(map[ColRef]bool)
	for _, j := range q.Joins {
		cols[j.Left] = true
		cols[j.Right] = true
	}
	classValue := make(map[ColRef]relation.Value)
	explicit := make(map[ColRef]bool)
	for _, s := range q.Selections {
		classValue[find(s.Col)] = s.Val
		explicit[s.Col] = true
	}
	var out []SelCond
	for col := range cols {
		if explicit[col] {
			continue
		}
		if v, ok := classValue[find(col)]; ok {
			out = append(out, SelCond{Col: col, Val: v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Col.Rel != out[j].Col.Rel {
			return out[i].Col.Rel < out[j].Col.Rel
		}
		return out[i].Col.Attr < out[j].Col.Attr
	})
	return out
}

func refContradictory(q *Query) bool {
	// A contradiction needs two constants on one class, i.e. at least
	// two selection conjuncts.
	if len(q.Selections) < 2 {
		return false
	}
	// Without joins every column is its own class: compare selections
	// pairwise (clauses are few) instead of building the union-find.
	if len(q.Joins) == 0 {
		for i, a := range q.Selections {
			for _, b := range q.Selections[:i] {
				if a.Col == b.Col && !a.Val.Equal(b.Val) {
					return true
				}
			}
		}
		return false
	}
	find := refFind(q.Joins)
	classValue := make(map[ColRef]relation.Value)
	for _, s := range q.Selections {
		root := find(s.Col)
		if v, ok := classValue[root]; ok && !v.Equal(s.Val) {
			return true
		}
		classValue[root] = s.Val
	}
	return false
}

// ---------------------------------------------------------------------
// The rewrite tree against the reference.

// diffSchemas are the relations the differential queries draw from,
// R0..R7, and the paper examples' R, S, J and M.
var diffSchemas = func() map[string]*relation.Schema {
	m := map[string]*relation.Schema{"R": schemaR, "S": schemaS, "J": schemaJ, "M": schemaM}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("R%d", i)
		m[name] = relation.MustSchema(name, "A0", "A1", "A2", "A3")
	}
	return m
}()

// diffValues is the value domain: small, so tuples join and implied
// selections and contradictions arise, with an integer and a string that
// render alike, so value keys collide across kinds.
var diffValues = []relation.Value{
	relation.Int64(0), relation.Int64(1), relation.Int64(12), relation.String64("1"), relation.String64("12"),
}

// diffQuery draws a k-way query: a join chain over k of the relations,
// then by the draw extra conjuncts between any two of them (a relation
// and itself included), user selections, constant select items,
// aggregates and DISTINCT, with the conjuncts shuffled.
func diffQuery(rng *rand.Rand, k int) *Query {
	q := &Query{ID: fmt.Sprintf("d%d", k), Distinct: rng.Intn(2) == 0}
	for _, i := range rng.Perm(8)[:k] {
		q.Relations = append(q.Relations, fmt.Sprintf("R%d", i))
	}
	rel := func() string { return q.Relations[rng.Intn(k)] }
	col := func(r string) ColRef { return ColRef{r, fmt.Sprintf("A%d", rng.Intn(4))} }
	for i := 0; i+1 < k; i++ {
		q.Joins = append(q.Joins, JoinCond{col(q.Relations[i]), col(q.Relations[i+1])})
	}
	for n := rng.Intn(3); n > 0; n-- {
		q.Joins = append(q.Joins, JoinCond{col(rel()), col(rel())})
	}
	rng.Shuffle(len(q.Joins), func(i, j int) { q.Joins[i], q.Joins[j] = q.Joins[j], q.Joins[i] })
	for n := rng.Intn(4); n > 0; n-- {
		q.Selections = append(q.Selections, SelCond{col(rel()), diffValues[rng.Intn(len(diffValues))]})
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(5) {
		case 0:
			q.Select = append(q.Select, SelectItem{IsConst: true, Const: diffValues[rng.Intn(len(diffValues))]})
		case 1:
			q.Select = append(q.Select, SelectItem{Col: col(rel()), Agg: AggSum})
		case 2:
			q.Select = append(q.Select, SelectItem{IsConst: true, Const: relation.Int64(1), Star: true, Agg: AggCount})
		default:
			q.Select = append(q.Select, SelectItem{Col: col(rel())})
		}
	}
	return q
}

// diffTuple draws a tuple of rel, which three times in four is made to
// trigger q where it can: q's selections on rel and its conjuncts within
// rel are imposed in clause order (of two that disagree the last stands,
// so the tuple fails the first).
func diffTuple(rng *rand.Rand, q *Query, rel string) *relation.Tuple {
	s := diffSchemas[rel]
	vals := make([]relation.Value, s.Arity())
	for i := range vals {
		vals[i] = diffValues[rng.Intn(len(diffValues))]
	}
	at := func(attr string) *relation.Value { i, _ := s.AttrIndex(attr); return &vals[i] }
	if rng.Intn(4) > 0 {
		for _, sc := range q.Selections {
			if sc.Col.Rel == rel {
				*at(sc.Col.Attr) = sc.Val
			}
		}
		for _, j := range q.Joins {
			if j.Left.Rel == rel && j.Right.Rel == rel {
				*at(j.Right.Attr) = *at(j.Left.Attr)
			}
		}
	}
	return relation.MustTuple(s, vals...)
}

// refProjection is the projection the DISTINCT rule compares, as values:
// the attributes of t's relation q's select or where clause names, in
// schema order.
func refProjection(q *Query, t *relation.Tuple) []relation.Value {
	rel := t.Relation()
	used := func(attr string) bool {
		for _, s := range q.Select {
			if !s.IsConst && s.Col == (ColRef{rel, attr}) {
				return true
			}
		}
		for _, j := range q.Joins {
			if j.Left == (ColRef{rel, attr}) || j.Right == (ColRef{rel, attr}) {
				return true
			}
		}
		for _, s := range q.Selections {
			if s.Col == (ColRef{rel, attr}) {
				return true
			}
		}
		return false
	}
	var out []relation.Value
	for i, attr := range t.Schema.Attrs {
		if used(attr) {
			out = append(out, t.Values[i])
		}
	}
	return out
}

// diffState compares a tree query with its reference twin: clauses,
// candidates (order included), contradiction, and for a DISTINCT query
// the projection of two tuples of each open relation.
func diffState(rng *rand.Rand, q, r *Query) error {
	switch {
	case !slices.Equal(q.Relations, r.Relations):
		return fmt.Errorf("Relations %v, reference %v", q.Relations, r.Relations)
	case !slices.Equal(q.Joins, r.Joins):
		return fmt.Errorf("Joins %v, reference %v", q.Joins, r.Joins)
	case !slices.Equal(q.Selections, r.Selections):
		return fmt.Errorf("Selections %v, reference %v", q.Selections, r.Selections)
	case !slices.Equal(q.Select, r.Select):
		return fmt.Errorf("Select %v, reference %v", q.Select, r.Select)
	case q.Depth != r.Depth:
		return fmt.Errorf("Depth %d, reference %d", q.Depth, r.Depth)
	case q.Contradictory() != refContradictory(r):
		return fmt.Errorf("Contradictory %v, reference %v", q.Contradictory(), refContradictory(r))
	case !reflect.DeepEqual(q.JoinClasses(), refJoinClasses(r)):
		return fmt.Errorf("JoinClasses %v, reference %v", q.JoinClasses(), refJoinClasses(r))
	}
	want := refCandidates(r)
	if got := q.Candidates(); !slices.Equal(got, want) {
		return fmt.Errorf("Candidates %v, reference %v", got, want)
	}
	prefix := []Candidate{{Key: relation.KeyOf("prefix")}}
	if got := q.AppendCandidates(prefix); got[0] != prefix[0] || !slices.Equal(got[1:], want) {
		return fmt.Errorf("AppendCandidates after a prefix: %v, reference %v", got, want)
	}
	if !q.Distinct {
		return nil
	}
	for _, rel := range q.Relations {
		a, b := diffTuple(rng, r, rel), diffTuple(rng, r, rel)
		if rng.Intn(2) == 0 {
			b = a
		}
		same := string(q.AppendProjection(nil, a)) == string(q.AppendProjection(nil, b))
		if want := slices.Equal(refProjection(r, a), refProjection(r, b)); same != want {
			return fmt.Errorf("projections of %v and %v equal: %v, reference %v", a, b, same, want)
		}
	}
	return nil
}

// diffWalk rewrites q and its reference twin r by a drawn tuple of every
// open relation in turn, recursively — every consumption order — and
// compares them at every step.
func diffWalk(rng *rand.Rand, q, r *Query) error {
	if err := diffState(rng, q, r); err != nil {
		return fmt.Errorf("%s: %v", r, err)
	}
	for _, rel := range r.Relations {
		tu := diffTuple(rng, r, rel)
		if len(r.Relations) == 1 {
			// Appended after a prefix the call must leave alone, into a
			// buffer it may or may not have to grow.
			prefix := []relation.Value{relation.String64("prefix")}
			got, ok := AppendComplete(prefix, q, tu)
			want, wok := refRewriteComplete(r, tu)
			if ok != wok || !slices.Equal(got[0:1], prefix) || ok && !slices.Equal(got[1:], want) || !ok && len(got) != 1 {
				return fmt.Errorf("%s by %v: AppendComplete %v %v, reference %v %v", r, tu, got, ok, want, wok)
			}
		}
		q2, ok := Rewrite(q, tu)
		r2, wok := refRewrite(r, tu)
		if ok != wok {
			return fmt.Errorf("%s by %v: Rewrite triggered %v, reference %v", r, tu, ok, wok)
		}
		if ok {
			if err := diffWalk(rng, q2, r2); err != nil {
				return err
			}
		}
	}
	return nil
}

// diffShapes are hand-written inputs next to the drawn ones: the paper's
// examples, a conjunct within a relation, a cycle of joins through one
// column, and selections that propagate, collide and contradict.
func diffShapes() []*Query {
	c := func(rel, attr string) ColRef { return ColRef{rel, attr} }
	return []*Query{
		sectionThreeQuery(),
		figure1Query(),
		{
			Select:    []SelectItem{{Col: c("R0", "A2")}, {IsConst: true, Const: relation.Int64(1), Star: true, Agg: AggCount}},
			Relations: []string{"R0", "R1"},
			Joins:     []JoinCond{{c("R0", "A0"), c("R0", "A1")}, {c("R0", "A2"), c("R1", "A2")}},
		},
		{
			Distinct:  true,
			Select:    []SelectItem{{Col: c("R0", "A1")}, {Col: c("R2", "A1")}},
			Relations: []string{"R0", "R1", "R2"},
			Joins:     []JoinCond{{c("R0", "A0"), c("R1", "A0")}, {c("R1", "A0"), c("R2", "A0")}, {c("R2", "A0"), c("R0", "A0")}},
		},
		{
			Select:    []SelectItem{{Col: c("R3", "A3")}},
			Relations: []string{"R1", "R2", "R3"},
			Joins:     []JoinCond{{c("R1", "A0"), c("R2", "A1")}, {c("R1", "A1"), c("R2", "A1")}, {c("R2", "A1"), c("R3", "A1")}},
			Selections: []SelCond{
				{c("R3", "A1"), relation.Int64(12)}, {c("R3", "A1"), relation.String64("12")}, {c("R1", "A2"), relation.Int64(0)},
			},
		},
	}
}

// TestRewriteTreeMatchesReference holds the rewrite tree to the
// implementation it replaced: on hand-written and drawn 2–8-way queries,
// along every consumption order, with drawn tuples, every step's clauses,
// candidate list and contradiction equal the reference's, and so does
// whether a tuple triggers at all. The concurrent variant rewrites one
// input's descendants from several goroutines at once, so the race
// detector watches the tree being grown and published (run it with
// -race).
func TestRewriteTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := diffShapes()
	perSize := map[int]int{2: 40, 3: 40, 4: 30, 5: 12, 6: 4, 7: 1, 8: 1}
	for k := 2; k <= 8; k++ {
		if testing.Short() && k > 6 {
			break
		}
		for i := 0; i < perSize[k]; i++ {
			inputs = append(inputs, diffQuery(rng, k))
		}
	}
	for _, in := range inputs {
		if err := diffWalk(rng, in.Clone(), in.Clone()); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("concurrent", func(t *testing.T) {
		for round := 0; round < 8; round++ {
			in := diffQuery(rng, 5)
			shared := in.Clone() // every goroutine rewrites this one input
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for g := range errs {
				wg.Add(1)
				go func(g int, seed int64) {
					defer wg.Done()
					errs[g] = diffWalk(rand.New(rand.NewSource(seed)), shared, in.Clone())
				}(g, rng.Int63())
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestPlanNeverStale: a plan answers only for the clauses it was compiled
// from. A query appended to after its candidates were enumerated (as the
// parser builds one), a clone permuted in place (as canonicalization
// does), and a rewrite given other selections each compile afresh and
// agree with the reference, and the original keeps its own answers.
func TestPlanNeverStale(t *testing.T) {
	check := func(label string, q *Query) {
		t.Helper()
		if got, want := q.Candidates(), refCandidates(q); !slices.Equal(got, want) {
			t.Fatalf("%s: candidates %v, reference %v", label, got, want)
		}
		if q.Contradictory() != refContradictory(q) {
			t.Fatalf("%s: contradiction %v, reference %v", label, q.Contradictory(), refContradictory(q))
		}
		for _, tu := range []*relation.Tuple{
			relation.MustTuple(schemaR, relation.Int64(3), relation.Int64(5), relation.Int64(0)),
			relation.MustTuple(schemaS, relation.Int64(3), relation.Int64(5), relation.Int64(6)),
			relation.MustTuple(schemaJ, relation.Int64(4), relation.Int64(5), relation.Int64(6)),
		} {
			got, ok := Rewrite(q, tu)
			want, wok := refRewrite(q, tu)
			if ok != wok || ok && (!slices.Equal(got.Relations, want.Relations) || !slices.Equal(got.Joins, want.Joins) ||
				!slices.Equal(got.Selections, want.Selections) || !slices.Equal(got.Candidates(), refCandidates(want))) {
				t.Fatalf("%s: rewrite by %v gives %v, reference %v", label, tu, got, want)
			}
		}
	}

	q := &Query{Select: []SelectItem{{Col: ColRef{"R", "B"}}}, Relations: []string{"R", "S"}}
	q.Joins = append(q.Joins, JoinCond{ColRef{"R", "A"}, ColRef{"S", "A"}})
	check("parsed so far", q)
	q.Relations = append(q.Relations, "J")
	q.Joins = append(q.Joins, JoinCond{ColRef{"S", "B"}, ColRef{"J", "B"}})
	check("a relation and a join appended", q)
	q.Selections = append(q.Selections, SelCond{ColRef{"J", "B"}, relation.Int64(5)})
	check("a selection appended", q)
	q.Selections = append(q.Selections, SelCond{ColRef{"R", "A"}, relation.Int64(4)})
	check("a contradicting selection appended", q)
	q.Joins = q.Joins[:1]
	check("the joins cut", q)

	orig := sectionThreeQuery()
	before := orig.Candidates()
	c := orig.Clone()
	slices.Reverse(c.Relations)
	slices.Reverse(c.Joins)
	c.Joins[0].Left, c.Joins[0].Right = c.Joins[0].Right, c.Joins[0].Left
	check("a clone permuted in place", c)
	if after := orig.Candidates(); !slices.Equal(after, before) {
		t.Fatalf("the original's candidates moved with its clone: %v, then %v", before, after)
	}

	r, _ := Rewrite(figure1Query(), relation.MustTuple(schemaR, relation.Int64(2), relation.Int64(5), relation.Int64(8)))
	r.Selections = []SelCond{{ColRef{"S", "B"}, relation.Int64(6)}}
	check("a rewrite given other selections", r)
}

// TestCloneCopiesEveryField: Clone and Rewrite copy a query field by
// field (the plan may not be copied), so a field added to Query without
// being added there fails here.
func TestCloneCopiesEveryField(t *testing.T) {
	q := &Query{
		ID: "q", Owner: 1, InsertTime: 2, Distinct: true, OneTime: true,
		Select:     []SelectItem{{Col: ColRef{"R", "A"}}},
		Relations:  []string{"R"},
		Joins:      []JoinCond{{ColRef{"R", "A"}, ColRef{"R", "B"}}},
		Selections: []SelCond{{ColRef{"R", "C"}, relation.Int64(1)}},
		GroupBy:    []ColRef{{"R", "A"}},
		Window:     WindowSpec{Kind: WindowTuples, Size: 3},
		Start:      4, AggClock: 5, MinPub: 6, Depth: 7,
		Lineage: []LineageStep{{Pub: 8, Seq: 9, Node: 10}},
	}
	q.Candidates() // compiles a plan, which the clone must not carry
	c := q.Clone()
	if c.plan.Load() != nil {
		t.Fatal("the clone carries its original's plan")
	}
	src, dst := reflect.ValueOf(q).Elem(), reflect.ValueOf(c).Elem()
	for i := 0; i < src.NumField(); i++ {
		f := src.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		if src.Field(i).IsZero() {
			t.Fatalf("field %s is zero in the test's query: give it a value", f.Name)
		}
		if !reflect.DeepEqual(src.Field(i).Interface(), dst.Field(i).Interface()) {
			t.Fatalf("Clone dropped field %s", f.Name)
		}
	}
}

// TestRewriteAllocs pins what a rewrite step allocates once its tree has
// grown: the Query, its Selections and, when a select column binds, its
// Select — never the FROM list or the join conjuncts.
func TestRewriteAllocs(t *testing.T) {
	q := sectionThreeQuery()
	steps := []*relation.Tuple{
		relation.MustTuple(schemaR, relation.Int64(3), relation.Int64(5), relation.Int64(0)),
		relation.MustTuple(schemaS, relation.Int64(3), relation.Int64(6), relation.Int64(0)),
		relation.MustTuple(schemaJ, relation.Int64(3), relation.Int64(6), relation.Int64(0)),
	}
	for i, tu := range steps {
		if n := testing.AllocsPerRun(100, func() { Rewrite(q, tu) }); n > 3 {
			t.Fatalf("step %d allocates %v times, want at most 3", i+1, n)
		}
		q, _ = Rewrite(q, tu)
	}
	if !q.IsComplete() {
		t.Fatalf("the chain did not complete: %s", q)
	}
}

// TestRewriteIntoWithRoomAllocs: into a query whose select list and
// selections have room, a rewrite allocates nothing at any step of the
// Section 3 chain — not even for a list the step leaves untouched, which
// is copied into the room rather than shared — and equals Rewrite's.
func TestRewriteIntoWithRoomAllocs(t *testing.T) {
	q := sectionThreeQuery()
	steps := []*relation.Tuple{
		relation.MustTuple(schemaR, relation.Int64(3), relation.Int64(5), relation.Int64(0)),
		relation.MustTuple(schemaS, relation.Int64(3), relation.Int64(6), relation.Int64(0)),
		relation.MustTuple(schemaJ, relation.Int64(3), relation.Int64(6), relation.Int64(0)),
	}
	for i, tu := range steps {
		var sel [2]SelectItem
		var sels [2]SelCond
		dst := new(Query)
		into := func() {
			dst.Select, dst.Selections = sel[:0], sels[:0]
			if !RewriteInto(dst, q, tu) {
				t.Fatalf("step %d did not trigger", i+1)
			}
		}
		if n := testing.AllocsPerRun(100, into); n != 0 {
			t.Fatalf("step %d allocates %v times, want 0", i+1, n)
		}
		want, _ := Rewrite(q, tu)
		if dst.String() != want.String() || dst.Depth != want.Depth {
			t.Fatalf("step %d: RewriteInto gave %s, Rewrite %s", i+1, dst, want)
		}
		if unsafe.SliceData(dst.Select) != &sel[0] || len(dst.Selections) > 0 && unsafe.SliceData(dst.Selections) != &sels[0] {
			t.Fatalf("step %d: the result's lists are not in the room it was given", i+1)
		}
		q = dst
	}
	if !q.IsComplete() {
		t.Fatalf("the chain did not complete: %s", q)
	}
}

// TestAppendCandidatesAllocs: into a buffer with room, enumerating
// candidates allocates nothing — input query or rewrite, implied triples
// included.
func TestAppendCandidatesAllocs(t *testing.T) {
	q := &Query{
		Select:     []SelectItem{{Col: ColRef{"M", "A"}}},
		Relations:  []string{"J", "M"},
		Joins:      []JoinCond{{ColRef{"J", "B"}, ColRef{"M", "B"}}},
		Selections: []SelCond{{Col: ColRef{"J", "B"}, Val: relation.Int64(6)}},
	}
	rw, _ := Rewrite(figure1Query(), relation.MustTuple(schemaR, relation.Int64(2), relation.Int64(5), relation.Int64(8)))
	buf := make([]Candidate, 0, 16)
	for _, x := range []*Query{figure1Query(), rw, q} {
		if n := testing.AllocsPerRun(100, func() { x.AppendCandidates(buf[:0]) }); n != 0 {
			t.Fatalf("%s: AppendCandidates allocates %v times", x, n)
		}
	}
	if got := q.AppendCandidates(buf[:0]); len(got) != 4 || got[3].Key.String() != "M+B+6" {
		t.Fatalf("candidates %v, want the implied M+B+6 last of 4", got)
	}
}
