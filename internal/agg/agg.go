// Package agg implements the in-network continuous-aggregation
// subsystem's data plane: the aggregate specification derived from a
// GROUP BY query, the mergeable per-(group, epoch) partial state
// aggregator nodes maintain, and the one-shot reference fold tests
// compare the distributed machinery against.
//
// Answer rows of an aggregate query are partitioned into epochs by
// their completion clock (the maximum window-clock over the combined
// tuples): unwindowed queries use the single epoch 0, windowed queries
// use epochs of one window length. Partials are mergeable — and kept
// per epoch rather than as one running value — because MIN and MAX are
// not invertible: a sliding view cannot subtract expired rows, so it
// merges the ring of epoch partials that overlap the window instead.
//
//   - Tumbling windows: every valid combination's tuples share one
//     epoch, so the per-epoch partial finalizes into exactly the
//     window's aggregate.
//   - Sliding windows: a window ending at clock c in epoch e spans at
//     most epochs e-1 and e, so the view row for epoch e merges those
//     two partials — the aggregate over every answer visible in some
//     window ending in that epoch.
//   - No window: one running aggregate per group in epoch 0.
package agg

import (
	"strconv"

	"rjoin/internal/query"
	"rjoin/internal/relation"
)

// Spec is the aggregation layout of one query, immutable after
// submission: which select positions are grouping columns and which
// carry which aggregate function.
type Spec struct {
	// Width is the select-list length (= answer-row length).
	Width int
	// Fns holds the aggregate function per position (AggNone for plain
	// group/constant positions).
	Fns []query.AggFunc
	// Distinct marks COUNT(DISTINCT col) positions.
	Distinct []bool
	// GroupPos lists the non-aggregate positions, in select order; the
	// values at these positions identify the row's group.
	GroupPos []int
	// Window is the query's window parameter block, which fixes the
	// epoch length and the sliding/tumbling finalization rule.
	Window query.WindowSpec

	// cols maps each select position to its column in a partial, -1 for
	// a position that keeps no state: a grouping position or a plain
	// COUNT, which reads the partial's row count. ncols is the number of
	// columns, one per SUM, AVG, MIN, MAX or COUNT(DISTINCT) position.
	cols  []int
	ncols int
}

// SpecOf derives the aggregation spec of a validated aggregate query.
// It returns nil for non-aggregate queries.
func SpecOf(q *query.Query) *Spec {
	if !q.IsAggregate() {
		return nil
	}
	s := &Spec{
		Width:    len(q.Select),
		Fns:      make([]query.AggFunc, len(q.Select)),
		Distinct: make([]bool, len(q.Select)),
		Window:   q.Window,
		cols:     make([]int, len(q.Select)),
	}
	for i, it := range q.Select {
		s.Fns[i] = it.Agg
		s.Distinct[i] = it.AggDistinct
		s.cols[i] = -1
		switch {
		case it.Agg == query.AggNone:
			s.GroupPos = append(s.GroupPos, i)
		case it.Agg != query.AggCount || it.AggDistinct:
			s.cols[i] = s.ncols
			s.ncols++
		}
	}
	return s
}

// Sliding reports whether view rows merge adjacent epoch partials.
func (s *Spec) Sliding() bool { return s.Window.Enabled() && !s.Window.Tumbling }

// AppendGroupKey appends the group identity of an answer row to b: the
// values at the grouping positions under the shared injective encoding
// (relation.AppendCanonical), so no choice of values can make two
// distinct groups collide.
func (s *Spec) AppendGroupKey(b []byte, row []relation.Value) []byte {
	for _, i := range s.GroupPos {
		b = relation.AppendCanonical(b, row[i])
	}
	return b
}

// GroupValues extracts (copies of) the grouping values of a row, in
// group-position order.
func (s *Spec) GroupValues(row []relation.Value) []relation.Value {
	return s.AppendGroupValues(make([]relation.Value, 0, len(s.GroupPos)), row)
}

// AppendGroupValues appends GroupValues' values of row to dst.
func (s *Spec) AppendGroupValues(dst, row []relation.Value) []relation.Value {
	for _, i := range s.GroupPos {
		dst = append(dst, row[i])
	}
	return dst
}

// Less is the total order MIN/MAX aggregate under: integers before
// strings, then by value.
func Less(a, b relation.Value) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Kind == relation.KindInt {
		return a.Int < b.Int
	}
	return a.Str < b.Str
}

// colPartial is the per-position incremental state of one partial.
type colPartial struct {
	sum      int64                       // running sum of integer values (SUM, AVG)
	ints     int64                       // integer rows folded (AVG denominator)
	min, max relation.Value              // extrema under Less
	have     bool                        // min/max initialised
	distinct map[relation.Value]struct{} // COUNT(DISTINCT) memory
}

// Partial is the mergeable aggregate state of one (group, epoch): a row
// count plus the column state of each position that keeps some
// (Spec.cols). Partials move between nodes on membership handover and
// merge associatively, so any partition of an answer stream across
// aggregator incarnations folds to the same final values.
type Partial struct {
	rows int64
	cols []colPartial
}

// NewPartial returns the empty state for a spec.
func NewPartial(s *Spec) *Partial {
	return &Partial{cols: make([]colPartial, s.ncols)}
}

// Reset empties p for another (group, epoch) to reuse (Spec.Fit): its
// rows and column values go, its column array stays, and so do its
// COUNT(DISTINCT) sets, cleared. Every column up to the array's capacity
// is then empty.
func (p *Partial) Reset() {
	p.rows = 0
	for i := range p.cols {
		set := p.cols[i].distinct
		clear(set)
		p.cols[i] = colPartial{distinct: set}
	}
}

// Fit sizes an emptied partial (Reset) for s in place and reports
// whether its column array had room; a partial without room is left as
// it was. A column may keep an empty DISTINCT set from an earlier spec:
// s fills it if the column is a COUNT(DISTINCT) of its own, and never
// reads it otherwise.
func (s *Spec) Fit(p *Partial) bool {
	if cap(p.cols) < s.ncols {
		return false
	}
	p.cols = p.cols[:s.ncols]
	return true
}

// Add folds one answer row into the partial.
func (p *Partial) Add(s *Spec, row []relation.Value) {
	p.rows++
	for i, k := range s.cols {
		if k < 0 {
			continue
		}
		c := &p.cols[k]
		v := row[i]
		switch s.Fns[i] {
		case query.AggCount: // COUNT(DISTINCT): a plain COUNT keeps no column
			if c.distinct == nil {
				c.distinct = make(map[relation.Value]struct{})
			}
			c.distinct[v] = struct{}{}
		case query.AggSum, query.AggAvg:
			if v.Kind == relation.KindInt {
				c.sum += v.Int
				c.ints++
			}
		case query.AggMin, query.AggMax:
			if !c.have {
				c.min, c.max, c.have = v, v, true
			} else {
				if Less(v, c.min) {
					c.min = v
				}
				if Less(c.max, v) {
					c.max = v
				}
			}
		}
	}
}

// Merge folds another partial into p. Merging commutes and associates.
func (p *Partial) Merge(o *Partial) {
	p.rows += o.rows
	for i := range o.cols {
		oc := &o.cols[i]
		c := &p.cols[i]
		c.sum += oc.sum
		c.ints += oc.ints
		if oc.have {
			if !c.have {
				c.min, c.max, c.have = oc.min, oc.max, true
			} else {
				if Less(oc.min, c.min) {
					c.min = oc.min
				}
				if Less(c.max, oc.max) {
					c.max = oc.max
				}
			}
		}
		for v := range oc.distinct {
			if c.distinct == nil {
				c.distinct = make(map[relation.Value]struct{}, len(oc.distinct))
			}
			c.distinct[v] = struct{}{}
		}
	}
}

// FinalizeRow renders the aggregate view row of a group from one or
// more epoch partials (a sliding view passes the ring of overlapping
// epochs; nil entries are skipped): grouping positions carry the
// group's values, aggregate positions the finalized aggregates. An
// aggregate over zero contributing values (MIN/MAX/AVG with no rows at
// that position) renders the placeholder string "-".
func (s *Spec) FinalizeRow(group []relation.Value, parts ...*Partial) []relation.Value {
	return s.AppendRow(make([]relation.Value, 0, s.Width), group, parts...)
}

// AppendRow appends FinalizeRow's row to dst, computing each aggregate
// over the parts column by column: the result is that of finalizing
// their Merge, without the merged partial. A COUNT(DISTINCT) counts the
// union of the parts' sets without building it. Into a dst with room it
// allocates nothing but AVG's rendering.
func (s *Spec) AppendRow(dst, group []relation.Value, parts ...*Partial) []relation.Value {
	rows := MergedRows(parts...)
	gi := 0
	for i, fn := range s.Fns {
		var sum, ints int64
		var lo, hi relation.Value
		have := false
		k := s.cols[i]
		for _, p := range parts {
			if p == nil || k < 0 {
				continue
			}
			c := &p.cols[k]
			sum += c.sum
			ints += c.ints
			if c.have {
				if !have || Less(c.min, lo) {
					lo = c.min
				}
				if !have || Less(hi, c.max) {
					hi = c.max
				}
				have = true
			}
		}
		var v relation.Value
		switch fn {
		case query.AggNone:
			v = group[gi]
			gi++
		case query.AggCount:
			if s.Distinct[i] {
				v = relation.Int64(distinctUnion(k, parts))
			} else {
				v = relation.Int64(rows)
			}
		case query.AggSum:
			v = relation.Int64(sum)
		case query.AggMin, query.AggMax:
			switch {
			case !have:
				v = relation.String64("-")
			case fn == query.AggMin:
				v = lo
			default:
				v = hi
			}
		case query.AggAvg:
			if ints == 0 {
				v = relation.String64("-")
			} else {
				v = relation.String64(strconv.FormatFloat(
					float64(sum)/float64(ints), 'g', -1, 64))
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// distinctUnion counts the union of the parts' COUNT(DISTINCT) sets in
// column i: each value is counted in the first part that holds it.
func distinctUnion(i int, parts []*Partial) int64 {
	var n int64
	for k, p := range parts {
		if p == nil {
			continue
		}
	values:
		for v := range p.cols[i].distinct {
			for _, q := range parts[:k] {
				if q != nil {
					if _, dup := q.cols[i].distinct[v]; dup {
						continue values
					}
				}
			}
			n++
		}
	}
	return n
}

// MergedRows returns the version stamp of a view row built from the
// given partials: the total answer rows folded into them.
func MergedRows(parts ...*Partial) int64 {
	var n int64
	for _, p := range parts {
		if p != nil {
			n += p.rows
		}
	}
	return n
}
