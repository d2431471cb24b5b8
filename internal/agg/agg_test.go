package agg

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sqlparse"
)

func iv(v int64) relation.Value  { return relation.Int64(v) }
func sv(s string) relation.Value { return relation.String64(s) }

var testCat = func() *relation.Catalog {
	cat, _ := relation.NewCatalog(
		relation.MustSchema("R", "A", "B"),
		relation.MustSchema("S", "A", "B"),
	)
	return cat
}()

func parse(t *testing.T, sql string) *query.Query {
	t.Helper()
	return sqlparse.MustParse(sql, testCat)
}

func TestSpecOf(t *testing.T) {
	q := parse(t, "select R.A, count(*), sum(S.B), count(distinct S.B) from R,S where R.A=S.A group by R.A")
	s := SpecOf(q)
	if s == nil {
		t.Fatal("aggregate query produced no spec")
	}
	if s.Width != 4 || !reflect.DeepEqual(s.GroupPos, []int{0}) {
		t.Fatalf("bad spec: %+v", s)
	}
	if s.Fns[1] != query.AggCount || s.Fns[2] != query.AggSum || !s.Distinct[3] {
		t.Fatalf("bad fns: %+v", s)
	}
	if SpecOf(parse(t, "select R.A from R,S where R.A=S.A")) != nil {
		t.Fatal("plain query produced a spec")
	}
}

// Folding rows one at a time must equal folding them through merged
// partials split at every possible point — the property handover and
// sliding-ring merging rely on.
func TestPartialMergeAssociativity(t *testing.T) {
	q := parse(t, "select R.A, count(*), sum(S.B), min(S.B), max(S.B), avg(S.B), count(distinct S.B) from R,S where R.A=S.A group by R.A")
	s := SpecOf(q)
	rows := [][]relation.Value{
		{iv(1), iv(1), iv(5), iv(5), iv(5), iv(5), iv(5)},
		{iv(1), iv(1), iv(2), iv(2), iv(2), iv(2), iv(2)},
		{iv(1), iv(1), iv(9), iv(9), iv(9), iv(9), iv(9)},
		{iv(1), iv(1), iv(2), iv(2), iv(2), iv(2), iv(2)},
	}
	group := []relation.Value{iv(1)}

	whole := NewPartial(s)
	for _, r := range rows {
		whole.Add(s, r)
	}
	want := s.FinalizeRow(group, whole)

	for split := 0; split <= len(rows); split++ {
		a, b := NewPartial(s), NewPartial(s)
		for _, r := range rows[:split] {
			a.Add(s, r)
		}
		for _, r := range rows[split:] {
			b.Add(s, r)
		}
		a.Merge(b)
		if got := s.FinalizeRow(group, a); !reflect.DeepEqual(got, want) {
			t.Fatalf("split %d: merged fold diverged: got %v want %v", split, got, want)
		}
	}

	// count=4, sum=18, min=2, max=9, avg=4.5, distinct=3
	exp := []relation.Value{iv(1), iv(4), iv(18), iv(2), iv(9), sv("4.5"), iv(3)}
	if !reflect.DeepEqual(want, exp) {
		t.Fatalf("final row wrong: got %v want %v", want, exp)
	}
}

func TestGroupKeyInjective(t *testing.T) {
	q := parse(t, "select R.A, R.B, count(*) from R,S where R.A=S.A group by R.A, R.B")
	s := SpecOf(q)
	key := func(row []relation.Value) string { return string(s.AppendGroupKey(nil, row)) }
	a := key([]relation.Value{sv("x\x00y"), sv("z"), iv(1)})
	b := key([]relation.Value{sv("x"), sv("\x00yz"), iv(1)})
	if a == b {
		t.Fatal("NUL-straddling groups collided")
	}
	c := key([]relation.Value{iv(12), sv("z"), iv(1)})
	d := key([]relation.Value{sv("12"), sv("z"), iv(1)})
	if c == d {
		t.Fatal("int 12 and string \"12\" groups collided")
	}
}

func TestValueOrder(t *testing.T) {
	if !Less(iv(3), iv(5)) || Less(iv(5), iv(3)) {
		t.Fatal("int order wrong")
	}
	if !Less(iv(99), sv("a")) {
		t.Fatal("ints must order before strings")
	}
	if !Less(sv("a"), sv("b")) {
		t.Fatal("string order wrong")
	}
}

// Reference: tumbling epochs finalize independently; sliding view rows
// merge the previous epoch's partial.
func TestReferenceEpochs(t *testing.T) {
	q := parse(t, "select R.A, max(S.B) from R,S where R.A=S.A group by R.A within 10 tuples tumbling")
	rows := [][]relation.Value{
		{iv(1), iv(5)},
		{iv(1), iv(7)},
		{iv(1), iv(3)},
	}
	clocks := []int64{2, 8, 15} // epochs 0, 0, 1
	view := Reference(q, rows, clocks)
	if len(view) != 2 {
		t.Fatalf("tumbling view rows: got %d want 2", len(view))
	}
	if view[0].Epoch != 0 || !view[0].Row[1].Equal(iv(7)) {
		t.Fatalf("epoch 0 row wrong: %+v", view[0])
	}
	if view[1].Epoch != 1 || !view[1].Row[1].Equal(iv(3)) {
		t.Fatalf("epoch 1 row wrong: %+v", view[1])
	}

	qs := parse(t, "select R.A, max(S.B) from R,S where R.A=S.A group by R.A within 10 tuples")
	slide := Reference(qs, rows, clocks)
	// Sliding: epochs 0, 1 (merging 0) and 2 (merging 1).
	if len(slide) != 3 {
		t.Fatalf("sliding view rows: got %d want 3", len(slide))
	}
	if slide[1].Epoch != 1 || !slide[1].Row[1].Equal(iv(7)) {
		t.Fatalf("sliding epoch 1 must merge epoch 0's max: %+v", slide[1])
	}
	if slide[2].Epoch != 2 || !slide[2].Row[1].Equal(iv(3)) {
		t.Fatalf("sliding epoch 2 row wrong: %+v", slide[2])
	}
}

// TestAppendRowMatchesMerge: finalizing one or two partials column by
// column equals finalizing their Merge into a fresh partial, for every
// aggregate function — COUNT(DISTINCT) over overlapping sets, extrema
// over mixed kinds, parts with no rows at a position — and with nil
// parts. Into a buffer with room, a spec without AVG allocates nothing.
func TestAppendRowMatchesMerge(t *testing.T) {
	s := SpecOf(parse(t, "select R.A, count(*), count(S.B), count(distinct S.B), sum(S.B), min(S.B), max(S.B), avg(S.B) from R,S where R.A=S.A group by R.A"))
	group := []relation.Value{sv("g")}
	rng := rand.New(rand.NewSource(1))
	value := func() relation.Value {
		if rng.Intn(4) == 0 {
			return sv(string(rune('a' + rng.Intn(4))))
		}
		return iv(int64(rng.Intn(12) - 4))
	}
	partial := func() *Partial {
		if rng.Intn(6) == 0 {
			return nil
		}
		p := NewPartial(s)
		for range rng.Intn(6) {
			v := value()
			p.Add(s, []relation.Value{sv("g"), iv(1), v, v, v, v, v, v})
		}
		return p
	}
	for i := range 2000 {
		a, b := partial(), partial()
		merged := NewPartial(s)
		for _, p := range []*Partial{a, b} {
			if p != nil {
				merged.Merge(p)
			}
		}
		want := s.AppendRow(nil, group, merged)
		if got := s.AppendRow(nil, group, a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: AppendRow(a, b) = %v, finalizing their merge = %v", i, got, want)
		}
		if got := s.FinalizeRow(group, b, a); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: FinalizeRow(b, a) = %v, finalizing the merge = %v", i, got, want)
		}
	}

	noAvg := SpecOf(parse(t, "select R.A, count(*), count(distinct S.B), sum(S.B), min(S.B), max(S.B) from R,S where R.A=S.A group by R.A"))
	a, b := NewPartial(noAvg), NewPartial(noAvg)
	for v := range int64(8) {
		a.Add(noAvg, []relation.Value{sv("g"), iv(1), iv(v), iv(v), iv(v), iv(v)})
		b.Add(noAvg, []relation.Value{sv("g"), iv(1), iv(v + 4), iv(v + 4), iv(v + 4), iv(v + 4)})
	}
	room := make([]relation.Value, 0, noAvg.Width)
	if n := testing.AllocsPerRun(100, func() { room = noAvg.AppendRow(room[:0], group, a, b) }); n != 0 {
		t.Errorf("AppendRow into a buffer with room: %v allocations, want 0", n)
	}
	if want := []relation.Value{sv("g"), iv(16), iv(12), iv(28 + 60), iv(0), iv(11)}; !reflect.DeepEqual(room, want) {
		t.Fatalf("AppendRow = %v, want %v", room, want)
	}
}

// naiveView computes the aggregate view of rows from first principles,
// position by position, with no partial at all: the rows of a group
// whose epoch a view row covers (its own, and a sliding view's previous
// one), each aggregate taken over them directly.
func naiveView(s *Spec, rows [][]relation.Value, clocks []int64) []ViewRow {
	type cell struct {
		group string
		epoch int64
	}
	members := map[cell][]int{}
	for i, row := range rows {
		g, e := string(s.AppendGroupKey(nil, row)), s.Window.EpochOf(clocks[i])
		members[cell{g, e}] = append(members[cell{g, e}], i)
		if s.Sliding() {
			members[cell{g, e + 1}] = append(members[cell{g, e + 1}], i)
		}
	}
	var out []ViewRow
	for c, idx := range members {
		row := make([]relation.Value, s.Width)
		for i, fn := range s.Fns {
			var sum, ints int64
			var lo, hi relation.Value
			set := map[relation.Value]bool{}
			for k, r := range idx {
				v := rows[r][i]
				set[v] = true
				if v.Kind == relation.KindInt {
					sum += v.Int
					ints++
				}
				if k == 0 || Less(v, lo) {
					lo = v
				}
				if k == 0 || Less(hi, v) {
					hi = v
				}
			}
			switch fn {
			case query.AggNone:
				row[i] = rows[idx[0]][i]
			case query.AggCount:
				row[i] = iv(int64(len(idx)))
				if s.Distinct[i] {
					row[i] = iv(int64(len(set)))
				}
			case query.AggSum:
				row[i] = iv(sum)
			case query.AggMin:
				row[i] = lo
			case query.AggMax:
				row[i] = hi
			case query.AggAvg:
				row[i] = sv("-")
				if ints > 0 {
					row[i] = sv(strconv.FormatFloat(float64(sum)/float64(ints), 'g', -1, 64))
				}
			}
		}
		out = append(out, ViewRow{Group: c.group, Epoch: c.epoch, Row: row})
	}
	SortViewRows(out)
	return out
}

// TestReusedPartialsMatchReference: under a tumbling and a sliding
// window, with every aggregate function — COUNT(*), COUNT(col),
// COUNT(DISTINCT), SUM, AVG, MIN and MAX — over mixed-kind values, the
// view folded into partials that were Reset and refitted (Spec.Fit) from
// a wider and a narrower spec's, into fresh ones, and into merges of
// partials folding a random split of each (group, epoch)'s rows, equals
// Reference, and both equal the aggregates taken over the rows directly
// (naiveView). A partial keeps one column per SUM, AVG, MIN, MAX and
// COUNT(DISTINCT) position and none for a grouping position or a COUNT.
func TestReusedPartialsMatchReference(t *testing.T) {
	other := []*Spec{
		SpecOf(parse(t, "select R.A, sum(S.B), min(S.B), max(S.B), avg(S.B), count(distinct S.B), count(distinct R.B), min(R.B), max(R.B), sum(R.B) from R,S where R.A=S.A group by R.A")),
		SpecOf(parse(t, "select R.A, count(distinct S.B) from R,S where R.A=S.A group by R.A")),
	}
	for _, window := range []string{"within 4 tuples tumbling", "within 4 tuples"} {
		q := parse(t, "select R.A, count(*), count(S.B), count(distinct S.B), sum(S.B), avg(S.B), min(S.B), max(S.B), R.B from R,S where R.A=S.A group by R.A, R.B "+window)
		s := SpecOf(q)
		if p := NewPartial(s); len(p.cols) != 5 {
			t.Fatalf("%s: a partial of %d columns, want 5", window, len(p.cols))
		}
		rng := rand.New(rand.NewSource(int64(len(window))))
		value := func() relation.Value {
			if rng.Intn(5) == 0 {
				return sv(string(rune('a' + rng.Intn(3))))
			}
			return iv(int64(rng.Intn(10) - 3))
		}
		var pool []Partial // reset partials of other specs, and of s
		for i := range 60 {
			o := other[i%2]
			if i%3 == 0 {
				o = s
			}
			p := NewPartial(o)
			for range rng.Intn(5) {
				row := make([]relation.Value, o.Width)
				for j := range row {
					row[j] = value()
				}
				p.Add(o, row)
			}
			p.Reset()
			pool = append(pool, *p)
		}
		reused := func() *Partial {
			for len(pool) > 0 {
				p := pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				if s.Fit(&p) {
					return &p
				}
			}
			t.Fatal("the pool ran dry")
			return nil
		}
		for round := range 20 {
			var rows [][]relation.Value
			var clocks []int64
			for range 1 + rng.Intn(40) {
				row := make([]relation.Value, s.Width)
				for j := range row {
					row[j] = value()
				}
				row[0], row[8] = iv(int64(rng.Intn(3))), iv(int64(rng.Intn(2)))
				rows, clocks = append(rows, row), append(clocks, int64(rng.Intn(16)))
			}
			want := naiveView(s, rows, clocks)
			if ref := Reference(q, rows, clocks); !reflect.DeepEqual(ref, want) {
				t.Fatalf("%s round %d: Reference %v, the rows' own aggregates %v", window, round, ref, want)
			}

			type cell struct {
				group string
				epoch int64
			}
			type parts struct{ pooled, fresh, a, b *Partial }
			cells, groups := map[cell]*parts{}, map[string][]relation.Value{}
			for i, row := range rows {
				c := cell{string(s.AppendGroupKey(nil, row)), s.Window.EpochOf(clocks[i])}
				ps := cells[c]
				if ps == nil {
					ps = &parts{reused(), NewPartial(s), reused(), NewPartial(s)}
					cells[c], groups[c.group] = ps, s.GroupValues(row)
				}
				ps.pooled.Add(s, row)
				ps.fresh.Add(s, row)
				if rng.Intn(2) == 0 {
					ps.a.Add(s, row)
				} else {
					ps.b.Add(s, row)
				}
			}
			for _, ps := range cells {
				ps.a.Merge(ps.b)
			}
			for _, pick := range []func(*parts) *Partial{
				func(ps *parts) *Partial { return ps.pooled },
				func(ps *parts) *Partial { return ps.fresh },
				func(ps *parts) *Partial { return ps.a },
			} {
				var got []ViewRow
				for _, w := range want {
					ps := []*Partial{nil, nil}
					if c := cells[cell{w.Group, w.Epoch}]; c != nil {
						ps[0] = pick(c)
					}
					if c := cells[cell{w.Group, w.Epoch - 1}]; c != nil && s.Sliding() {
						ps[1] = pick(c)
					}
					got = append(got, ViewRow{Group: w.Group, Epoch: w.Epoch, Row: s.FinalizeRow(groups[w.Group], ps...)})
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s round %d: partials finalize to %v, want %v", window, round, got, want)
				}
			}
			for _, ps := range cells {
				for _, p := range []*Partial{ps.pooled, ps.a, ps.b} {
					p.Reset()
					pool = append(pool, *p)
				}
			}
		}
	}
}
