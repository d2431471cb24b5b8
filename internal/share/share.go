// Package share is the form algebra of RJoin's multi-query
// optimization: it maps each submitted query to a canonical form —
// relation set, join-graph attribute equivalence classes (the rewrite
// tree's own, query.Query.JoinClasses) and window clock — such that two
// queries may share one stored and rewritten pipeline exactly when
// their forms are byte-identical. Everything a query asks for beyond
// the form (constants, filter predicates, projection lists) is split
// out as a Residual that the completion node applies to each pipeline
// row before emitting the query's answer. Pipeline builds a form's
// full-row pipeline query. Forms are only ever compared for equality.
//
// The package is pure, immutable computation over queries: it never
// sends messages, touches the simulator or keeps any state between
// calls. The classes themselves — which queries ride which pipeline —
// live in the engine (internal/core/share.go).
package share

import (
	"fmt"
	"sort"

	"rjoin/internal/query"
	"rjoin/internal/relation"
)

// formVersion tags the canonical-form encoding; bump it if the layout
// of the injective encoding below ever changes.
const formVersion = "rjoin/share/v1"

// Pred is one residual filter conjunct: the row value at Pos must equal
// Val. Positions index the shared pipeline's full output row.
type Pred struct {
	Pos int
	Val relation.Value
}

// ProjItem is one column of a subscriber's projection: either a
// constant (COUNT(*) rides through here as the constant 1, exactly as
// in the query representation) or a position in the pipeline's full
// output row.
type ProjItem struct {
	IsConst bool
	Const   relation.Value
	Pos     int
}

// Residual is what remains of a subscriber's query after the canonical
// pipeline shape is factored out: filter predicates over constants and
// the projection list. DISTINCT memory and the aggregate spec stay
// with the subscriber, on the owner side.
type Residual struct {
	Preds []Pred
	Items []ProjItem
}

// Eval reports whether a completed pipeline row satisfies every
// residual predicate.
func (r *Residual) Eval(row []relation.Value) bool {
	for _, p := range r.Preds {
		if !row[p.Pos].Equal(p.Val) {
			return false
		}
	}
	return true
}

// AppendProject appends the subscriber-shaped answer row built from a
// completed pipeline row to dst.
func (r *Residual) AppendProject(dst, row []relation.Value) []relation.Value {
	for _, it := range r.Items {
		if it.IsConst {
			dst = append(dst, it.Const)
		} else {
			dst = append(dst, row[it.Pos])
		}
	}
	return dst
}

// Canonical is the canonical form of a query: the part every member of
// an equivalence class agrees on. Two queries share a pipeline exactly
// when their Forms are byte-identical.
type Canonical struct {
	// Form is the injective encoding of (relation set, window clock,
	// join equivalence classes, and — for single-relation queries —
	// the selection conjuncts, which are then the only placement keys
	// the pipeline has).
	Form string
	// Rels is the relation set in sorted order; the pipeline's full
	// output row concatenates their schema rows in this order.
	Rels []string
	// Classes are the equi-join equivalence classes, as the rewrite
	// tree derives them (query.Query.JoinClasses): members sorted,
	// classes ordered by first member, so the layout is invariant
	// under any permutation of the source query's clauses.
	Classes [][]query.ColRef
	// Selections is the sorted selection list of a single-relation
	// form (nil for multi-relation forms, where selections become
	// per-subscriber residual predicates).
	Selections []query.SelCond
	// Window is the shared window clock.
	Window query.WindowSpec

	schemas []*relation.Schema
	pos     map[query.ColRef]int
	arity   int
}

// Canonicalize maps q to its canonical form. ok is false when the
// query cannot share a canonical pipeline: one-time snapshots (they
// keep no standing state), relations missing from the catalog, or a
// multi-relation query with a relation held only by selections (the
// canonical pipeline drops selections, which would leave that relation
// an unindexable cross product).
func Canonicalize(q *query.Query, cat *relation.Catalog) (*Canonical, bool) {
	if q == nil || cat == nil || q.OneTime || len(q.Relations) == 0 {
		return nil, false
	}
	c := &Canonical{
		Rels:   append([]string(nil), q.Relations...),
		Window: q.Window,
		pos:    make(map[query.ColRef]int),
	}
	sort.Strings(c.Rels)
	for _, r := range c.Rels {
		s, ok := cat.Schema(r)
		if !ok {
			return nil, false
		}
		for i, a := range s.Attrs {
			c.pos[query.ColRef{Rel: r, Attr: a}] = c.arity + i
		}
		c.schemas = append(c.schemas, s)
		c.arity += s.Arity()
	}
	if len(c.Rels) > 1 {
		inJoin := make(map[string]bool, len(c.Rels))
		for _, j := range q.Joins {
			inJoin[j.Left.Rel] = true
			inJoin[j.Right.Rel] = true
		}
		for _, r := range c.Rels {
			if !inJoin[r] {
				return nil, false
			}
		}
	} else {
		c.Selections = append([]query.SelCond(nil), q.Selections...)
		sort.Slice(c.Selections, func(i, j int) bool {
			a, b := c.Selections[i], c.Selections[j]
			if a.Col != b.Col {
				if a.Col.Rel != b.Col.Rel {
					return a.Col.Rel < b.Col.Rel
				}
				return a.Col.Attr < b.Col.Attr
			}
			return valueLess(a.Val, b.Val)
		})
	}
	c.Classes = q.JoinClasses()
	c.Form = c.encode()
	return c, true
}

// valueLess is a total order on constants used only to canonicalize
// selection lists (kind, then value).
func valueLess(a, b relation.Value) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Int != b.Int {
		return a.Int < b.Int
	}
	return a.Str < b.Str
}

// encode builds the injective Form encoding. Every component rides
// through relation.AppendCanonical (kind tag + length + payload), and
// variable-length lists are count-prefixed, so distinct forms can
// never encode to the same bytes.
func (c *Canonical) encode() string {
	b := relation.AppendCanonical(nil, relation.String64(formVersion))
	b = relation.AppendCanonical(b, relation.Int64(int64(len(c.Rels))))
	for _, r := range c.Rels {
		b = relation.AppendCanonical(b, relation.String64(r))
	}
	b = relation.AppendCanonical(b, relation.Int64(int64(c.Window.Kind)))
	b = relation.AppendCanonical(b, relation.Int64(c.Window.Size))
	tumbling := int64(0)
	if c.Window.Tumbling {
		tumbling = 1
	}
	b = relation.AppendCanonical(b, relation.Int64(tumbling))
	b = relation.AppendCanonical(b, relation.Int64(int64(len(c.Classes))))
	for _, cls := range c.Classes {
		b = relation.AppendCanonical(b, relation.Int64(int64(len(cls))))
		for _, col := range cls {
			b = relation.AppendCanonical(b, relation.String64(col.Rel))
			b = relation.AppendCanonical(b, relation.String64(col.Attr))
		}
	}
	b = relation.AppendCanonical(b, relation.Int64(int64(len(c.Selections))))
	for _, s := range c.Selections {
		b = relation.AppendCanonical(b, relation.String64(s.Col.Rel))
		b = relation.AppendCanonical(b, relation.String64(s.Col.Attr))
		b = relation.AppendCanonical(b, s.Val)
	}
	return string(b)
}

// Pipeline builds the shared pipeline query of the class: the full
// output row (every attribute of every relation, schema order within
// the sorted relation order), one chain of join conjuncts per
// equivalence class, and — single-relation forms only — the canonical
// selection list. DISTINCT, GROUP BY and aggregate markers never
// appear: those are per-subscriber residual semantics applied on the
// owner side. The caller stamps ID, Owner, InsertTime and MinPub.
func (c *Canonical) Pipeline() *query.Query {
	sel := make([]query.SelectItem, 0, c.arity)
	for i, r := range c.Rels {
		for _, a := range c.schemas[i].Attrs {
			sel = append(sel, query.SelectItem{Col: query.ColRef{Rel: r, Attr: a}})
		}
	}
	var joins []query.JoinCond
	for _, cls := range c.Classes {
		for k := 0; k+1 < len(cls); k++ {
			joins = append(joins, query.JoinCond{Left: cls[k], Right: cls[k+1]})
		}
	}
	return &query.Query{
		Select:     sel,
		Relations:  append([]string(nil), c.Rels...),
		Joins:      joins,
		Selections: append([]query.SelCond(nil), c.Selections...),
		Window:     c.Window,
	}
}

// ResidualOf extracts q's residual against this canonical form: every
// select item becomes a constant or a position in the pipeline's full
// row, and (multi-relation forms) every selection conjunct becomes a
// predicate over a row position. q must be a query that canonicalized
// to this form, whose every column has a position in the row: a column
// outside the form is a caller's bug, and panics.
func (c *Canonical) ResidualOf(q *query.Query) *Residual {
	res := &Residual{Items: make([]ProjItem, 0, len(q.Select))}
	for _, s := range q.Select {
		if s.IsConst {
			res.Items = append(res.Items, ProjItem{IsConst: true, Const: s.Const})
		} else {
			res.Items = append(res.Items, ProjItem{Pos: c.posOf(s.Col)})
		}
	}
	if len(c.Rels) > 1 {
		for _, s := range q.Selections {
			res.Preds = append(res.Preds, Pred{Pos: c.posOf(s.Col), Val: s.Val})
		}
	}
	return res
}

// posOf is col's position in the pipeline's full row.
func (c *Canonical) posOf(col query.ColRef) int {
	p, ok := c.pos[col]
	if !ok {
		panic(fmt.Sprintf("share: column %s.%s is outside the form over %v", col.Rel, col.Attr, c.Rels))
	}
	return p
}
