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
	}
	for i, it := range q.Select {
		s.Fns[i] = it.Agg
		s.Distinct[i] = it.AggDistinct
		if it.Agg == query.AggNone {
			s.GroupPos = append(s.GroupPos, i)
		}
	}
	return s
}

// Sliding reports whether view rows merge adjacent epoch partials.
func (s *Spec) Sliding() bool { return s.Window.Enabled() && !s.Window.Tumbling }

// GroupKey renders the group identity of an answer row: the values at
// the grouping positions under the shared injective encoding
// (relation.AppendCanonical), so no choice of values can make two
// distinct groups collide.
func (s *Spec) GroupKey(row []relation.Value) string {
	var b []byte
	for _, i := range s.GroupPos {
		b = relation.AppendCanonical(b, row[i])
	}
	return string(b)
}

// GroupValues extracts (copies of) the grouping values of a row, in
// group-position order.
func (s *Spec) GroupValues(row []relation.Value) []relation.Value {
	out := make([]relation.Value, len(s.GroupPos))
	for k, i := range s.GroupPos {
		out[k] = row[i]
	}
	return out
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
// count plus per-position column state. Partials move between nodes on
// membership handover and merge associatively, so any partition of an
// answer stream across aggregator incarnations folds to the same final
// values.
type Partial struct {
	rows int64
	cols []colPartial
}

// NewPartial returns the empty state for a spec.
func NewPartial(s *Spec) *Partial {
	return &Partial{cols: make([]colPartial, s.Width)}
}

// Rows returns how many answer rows this partial has folded in — the
// monotone version stamp aggregate-update messages carry so reordered
// deliveries cannot regress the subscriber's view.
func (p *Partial) Rows() int64 { return p.rows }

// Add folds one answer row into the partial.
func (p *Partial) Add(s *Spec, row []relation.Value) {
	p.rows++
	for i := range s.Fns {
		fn := s.Fns[i]
		if fn == query.AggNone {
			continue
		}
		c := &p.cols[i]
		v := row[i]
		switch fn {
		case query.AggCount:
			if s.Distinct[i] {
				if c.distinct == nil {
					c.distinct = make(map[relation.Value]struct{})
				}
				c.distinct[v] = struct{}{}
			}
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
	merged := NewPartial(s)
	for _, p := range parts {
		if p != nil {
			merged.Merge(p)
		}
	}
	out := make([]relation.Value, s.Width)
	gi := 0
	for i := range s.Fns {
		c := &merged.cols[i]
		switch s.Fns[i] {
		case query.AggNone:
			out[i] = group[gi]
			gi++
		case query.AggCount:
			if s.Distinct[i] {
				out[i] = relation.Int64(int64(len(c.distinct)))
			} else {
				out[i] = relation.Int64(merged.rows)
			}
		case query.AggSum:
			out[i] = relation.Int64(c.sum)
		case query.AggMin:
			if !c.have {
				out[i] = relation.String64("-")
			} else {
				out[i] = c.min
			}
		case query.AggMax:
			if !c.have {
				out[i] = relation.String64("-")
			} else {
				out[i] = c.max
			}
		case query.AggAvg:
			if c.ints == 0 {
				out[i] = relation.String64("-")
			} else {
				out[i] = relation.String64(strconv.FormatFloat(
					float64(c.sum)/float64(c.ints), 'g', -1, 64))
			}
		}
	}
	return out
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
