package share

import (
	"math/rand"
	"reflect"
	"testing"

	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sqlparse"
)

// testCatalog builds the five three-attribute relations the tests and
// the fuzzer draw from.
func testCatalog(t testing.TB) *relation.Catalog {
	t.Helper()
	cat, err := relation.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"R0", "R1", "R2", "R3", "R4"} {
		s, err := relation.NewSchema(name, "A", "B", "C")
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func mustCanon(t *testing.T, cat *relation.Catalog, sql string) *Canonical {
	t.Helper()
	q := sqlparse.MustParse(sql, cat)
	c, ok := Canonicalize(q, cat)
	if !ok {
		t.Fatalf("Canonicalize(%q) declined", sql)
	}
	return c
}

// TestFormInvariance: queries that differ only in clause order — of the
// FROM list, the WHERE conjuncts, or the orientation of an equality —
// canonicalize to the same Form.
func TestFormInvariance(t *testing.T) {
	cat := testCatalog(t)
	base := mustCanon(t, cat, "select R0.A from R0,R1,R2 where R0.A=R1.A and R1.B=R2.B")
	variants := []string{
		"select R0.A from R2,R1,R0 where R1.B=R2.B and R0.A=R1.A",
		"select R0.A from R1,R0,R2 where R1.A=R0.A and R2.B=R1.B",
		// A different projection is residual, not form.
		"select R2.C, R0.B from R0,R1,R2 where R0.A=R1.A and R1.B=R2.B",
	}
	for _, sql := range variants {
		if got := mustCanon(t, cat, sql); got.Form != base.Form {
			t.Errorf("form of %q differs from base", sql)
		}
	}
}

// TestFormDistinguishes: semantically different queries never share a
// Form.
func TestFormDistinguishes(t *testing.T) {
	cat := testCatalog(t)
	forms := map[string]string{}
	for _, sql := range []string{
		"select R0.A from R0,R1 where R0.A=R1.A",
		"select R0.A from R0,R1 where R0.A=R1.B",
		"select R0.A from R0,R1 where R0.B=R1.A",
		"select R0.A from R0,R1,R2 where R0.A=R1.A and R1.A=R2.A",
		// Same conjuncts as the base but one more merged class.
		"select R0.A from R0,R1 where R0.A=R1.A and R0.B=R1.B",
		"select R0.A from R0,R1 where R0.A=R1.A within 8 ticks",
		"select R0.A from R0,R1 where R0.A=R1.A within 8 ticks tumbling",
		"select R0.A from R0,R1 where R0.A=R1.A within 8 tuples",
		"select R0.A from R0 where R0.A=7",
		"select R0.A from R0 where R0.A=8",
		"select R0.A from R0 where R0.B=7",
	} {
		c := mustCanon(t, cat, sql)
		if prev, dup := forms[c.Form]; dup {
			t.Errorf("form collision: %q vs %q", prev, sql)
		}
		forms[c.Form] = sql
	}
}

// TestCanonicalizeDeclines: forms that cannot share a canonical
// pipeline are rejected rather than mis-encoded.
func TestCanonicalizeDeclines(t *testing.T) {
	cat := testCatalog(t)
	once := sqlparse.MustParse("select R0.A from R0,R1 where R0.A=R1.A once", cat)
	if _, ok := Canonicalize(once, cat); ok {
		t.Error("Canonicalize accepted a one-time snapshot query")
	}
	// A multi-relation query whose relation appears only in selections
	// must be declined (the canonical pipeline drops selections).
	q := &query.Query{
		Select:     []query.SelectItem{{Col: query.ColRef{Rel: "R0", Attr: "A"}}},
		Relations:  []string{"R0", "R1"},
		Selections: []query.SelCond{{Col: query.ColRef{Rel: "R1", Attr: "A"}, Val: relation.Int64(3)}},
	}
	if _, ok := Canonicalize(q, cat); ok {
		t.Error("Canonicalize accepted a multi-relation query with a join-free relation")
	}
	if _, ok := Canonicalize(q, nil); ok {
		t.Error("Canonicalize accepted a nil catalog")
	}
}

// TestResidual: filters and projections factored out of the class shape
// apply correctly to full pipeline rows.
func TestResidual(t *testing.T) {
	cat := testCatalog(t)
	q := sqlparse.MustParse(
		"select R1.C, R0.B from R0,R1 where R0.A=R1.A and R0.B=5", cat)
	c, ok := Canonicalize(q, cat)
	if !ok {
		t.Fatal("Canonicalize declined")
	}
	res, ok := c.ResidualOf(q)
	if !ok {
		t.Fatal("ResidualOf declined")
	}
	// Full row layout: R0.A R0.B R0.C R1.A R1.B R1.C.
	row := []relation.Value{
		relation.Int64(1), relation.Int64(5), relation.Int64(3),
		relation.Int64(1), relation.Int64(4), relation.Int64(9),
	}
	if !res.Eval(row) {
		t.Error("residual rejected a row with R0.B=5")
	}
	got := res.Project(row)
	want := []relation.Value{relation.Int64(9), relation.Int64(5)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Project = %v, want %v", got, want)
	}
	row[1] = relation.Int64(6)
	if res.Eval(row) {
		t.Error("residual accepted a row with R0.B=6")
	}
}

// TestRegistryLifecycle: register, attach, detach to empty, drop —
// every index released.
func TestRegistryLifecycle(t *testing.T) {
	cat := testCatalog(t)
	r := NewRegistry()
	q := sqlparse.MustParse("select R0.A from R0,R1 where R0.A=R1.A", cat)
	can, _ := Canonicalize(q, cat)
	cls := &Class{QID: "q1", Exact: q.String(), Form: can.Form, Canonical: true, Can: can, Pipeline: can.Pipeline()}
	r.Register(cls, &Subscriber{QID: "q1"})
	if r.LookupExact(q.String()) != cls || r.LookupForm(can.Form) != cls {
		t.Fatal("registered class not found by its keys")
	}
	r.Attach(cls, &Subscriber{QID: "q2"})
	if got := r.ClassOf("q2"); got != cls {
		t.Fatalf("ClassOf(q2) = %v", got)
	}
	if c := r.Detach("q2"); c != cls || cls.Empty() {
		t.Fatal("detach of second subscriber emptied the class")
	}
	if c := r.Detach("q1"); c != cls || !cls.Empty() {
		t.Fatal("detach of last subscriber did not empty the class")
	}
	r.Drop(cls)
	if r.LookupExact(q.String()) != nil || r.LookupForm(can.Form) != nil || r.Get(cls.QID) != nil {
		t.Fatal("Drop left stale index entries")
	}
	if r.Detach("q1") != nil {
		t.Fatal("double detach returned a class")
	}
}

// TestFindParent: a three-way join attaches to the registered two-way
// class its join graph strictly contains, and non-containments are
// rejected.
func TestFindParent(t *testing.T) {
	cat := testCatalog(t)
	r := NewRegistry()
	pq := sqlparse.MustParse("select R0.A from R0,R1 where R0.A=R1.A", cat)
	pcan, _ := Canonicalize(pq, cat)
	parent := &Class{QID: "p", Form: pcan.Form, Canonical: true, Can: pcan, Pipeline: pcan.Pipeline()}
	r.Register(parent, &Subscriber{QID: "p"})

	child := mustCanon(t, cat, "select R0.A from R0,R1,R2 where R0.A=R1.A and R1.B=R2.B")
	if got := r.FindParent(child); got != parent {
		t.Fatalf("FindParent = %v, want the two-way class", got)
	}
	for _, sql := range []string{
		"select R0.A from R0,R1,R2 where R0.A=R2.A and R1.B=R2.B",                // R0.A=R1.A not implied
		"select R0.A from R0,R1,R2 where R0.A=R1.A and R1.B=R2.B within 4 ticks", // windowed child
		"select R0.A from R0,R1 where R0.A=R1.A and R0.B=R1.B",                   // same rel set, not strict superset
	} {
		if got := r.FindParent(mustCanon(t, cat, sql)); got != nil {
			t.Errorf("FindParent(%q) = %v, want nil", sql, got)
		}
	}
}

// fuzzQuery builds a random shareable query over the test catalog from
// a seeded stream, returning the query plus an independent semantic
// fingerprint of (relation set, join classes, window) used by the
// collision probe.
func fuzzQuery(rng *rand.Rand, cat *relation.Catalog) *query.Query {
	names := []string{"R0", "R1", "R2", "R3", "R4"}
	attrs := []string{"A", "B", "C"}
	n := 1 + rng.Intn(4)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	rels := append([]string(nil), names[:n]...)
	q := &query.Query{Relations: rels}
	col := func(rel string) query.ColRef {
		return query.ColRef{Rel: rel, Attr: attrs[rng.Intn(len(attrs))]}
	}
	// Chain joins keep every relation join-connected; extra random
	// conjuncts merge classes.
	for i := 0; i+1 < n; i++ {
		q.Joins = append(q.Joins, query.JoinCond{Left: col(rels[i]), Right: col(rels[i+1])})
	}
	for i := rng.Intn(3); i > 0 && n > 1; i-- {
		q.Joins = append(q.Joins, query.JoinCond{
			Left: col(rels[rng.Intn(n)]), Right: col(rels[rng.Intn(n)]),
		})
	}
	for i := rng.Intn(3); i > 0; i-- {
		q.Selections = append(q.Selections, query.SelCond{
			Col: col(rels[rng.Intn(n)]), Val: relation.Int64(int64(rng.Intn(4))),
		})
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		if rng.Intn(4) == 0 {
			q.Select = append(q.Select, query.SelectItem{IsConst: true, Const: relation.Int64(int64(rng.Intn(10)))})
		} else {
			q.Select = append(q.Select, query.SelectItem{Col: col(rels[rng.Intn(n)])})
		}
	}
	switch rng.Intn(4) {
	case 1:
		q.Window = query.WindowSpec{Kind: query.WindowTime, Size: int64(1 + rng.Intn(16))}
	case 2:
		q.Window = query.WindowSpec{Kind: query.WindowTuples, Size: int64(1 + rng.Intn(16)), Tumbling: rng.Intn(2) == 0}
	}
	return q
}

// permute returns a clause-order permutation of q with identical
// semantics: shuffled FROM list, shuffled and flipped join conjuncts,
// shuffled selections.
func permute(rng *rand.Rand, q *query.Query) *query.Query {
	p := q.Clone()
	rng.Shuffle(len(p.Relations), func(i, j int) {
		p.Relations[i], p.Relations[j] = p.Relations[j], p.Relations[i]
	})
	rng.Shuffle(len(p.Joins), func(i, j int) { p.Joins[i], p.Joins[j] = p.Joins[j], p.Joins[i] })
	for i := range p.Joins {
		if rng.Intn(2) == 0 {
			p.Joins[i].Left, p.Joins[i].Right = p.Joins[i].Right, p.Joins[i].Left
		}
	}
	rng.Shuffle(len(p.Selections), func(i, j int) {
		p.Selections[i], p.Selections[j] = p.Selections[j], p.Selections[i]
	})
	return p
}

// semantics is the independent (non-Form) description of a canonical
// form; two queries are class-equivalent iff these are deep-equal.
type semantics struct {
	Rels       []string
	Classes    [][]query.ColRef
	Selections []query.SelCond
	Window     query.WindowSpec
}

func semanticsOf(c *Canonical) semantics {
	return semantics{Rels: c.Rels, Classes: c.Classes, Selections: c.Selections, Window: c.Window}
}

// FuzzCanonicalize checks the two canonicalization invariants on random
// queries: (1) the Form is invariant under any permutation of the
// relation list, join conjuncts (including orientation) and selection
// list; (2) the Form never collides — byte-equal Forms imply identical
// class semantics (quickcheck-style collision probe across the whole
// fuzz corpus of one run).
func FuzzCanonicalize(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1 << 30, -9} {
		f.Add(seed)
	}
	cat := testCatalog(f)
	byForm := map[string]semantics{}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 32; iter++ {
			q := fuzzQuery(rng, cat)
			c, ok := Canonicalize(q, cat)
			if !ok {
				t.Fatalf("Canonicalize declined generated query %s", q.String())
			}
			for v := 0; v < 4; v++ {
				pc, ok := Canonicalize(permute(rng, q), cat)
				if !ok {
					t.Fatalf("Canonicalize declined a permutation of %s", q.String())
				}
				if pc.Form != c.Form {
					t.Fatalf("form not permutation-invariant for %s", q.String())
				}
			}
			sem := semanticsOf(c)
			if prev, seen := byForm[c.Form]; seen {
				if !reflect.DeepEqual(prev, sem) {
					t.Fatalf("form collision: %+v vs %+v", prev, sem)
				}
			} else {
				byForm[c.Form] = sem
			}
			// The residual must reproduce the subscriber's projection on
			// any full row.
			res, ok := c.ResidualOf(q)
			if !ok {
				t.Fatalf("ResidualOf declined for %s", q.String())
			}
			row := make([]relation.Value, c.Arity())
			for i := range row {
				row[i] = relation.Int64(int64(rng.Intn(4)))
			}
			if got := res.Project(row); len(got) != len(q.Select) {
				t.Fatalf("projection arity %d, want %d", len(got), len(q.Select))
			}
		}
	})
}
