// Package share implements multi-query optimization for RJoin: it maps
// each submitted query to a canonical form — relation set, join-graph
// attribute equivalence classes (the rewrite tree's own,
// query.Query.JoinClasses) and window clock — and keeps a registry of
// equivalence classes so the engine stores and rewrites one shared
// pipeline per class. Everything a query asks for beyond the class
// shape (constants, filter predicates, projection lists) is split out
// as a per-subscriber residual that a fan-out table applies at the
// completion node before emitting answer rows; every query has a
// residual against the form it canonicalized to. A query whose join
// graph strictly contains an existing class's attaches to that class's
// completed rewrites (containment sharing) instead of starting from
// scratch. Every submitted query belongs to a class: one nothing
// shares with is a class of one, whose fan-out holds one subscriber
// with no residual.
//
// The package is pure bookkeeping: it never sends messages and never
// touches the simulator. The registry is written only from the
// engine's coordinator context (SubmitQuery / Unsubscribe); the
// immutable Fanout snapshots it produces are read lock-free by the
// message handlers, which find them on the subscription record of the
// QID naming the pipeline.
package share

import (
	"fmt"
	"sort"

	"rjoin/internal/agg"
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
// the projection list. DISTINCT memory stays per-subscriber on the
// owner side, and the aggregate spec rides on the Subscriber.
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

// RelSlice locates one relation's row inside a pipeline's full output
// row: the completed row's values [Off, Off+Schema.Arity()) are that
// relation's attributes in schema order.
type RelSlice struct {
	Schema *relation.Schema
	Off    int
}

// RelSlices returns the per-relation layout of the pipeline's full
// output row, used to synthesize pseudo-tuples for containment
// sharing.
func (c *Canonical) RelSlices() []RelSlice {
	out := make([]RelSlice, len(c.Rels))
	off := 0
	for i := range c.Rels {
		out[i] = RelSlice{Schema: c.schemas[i], Off: off}
		off += c.schemas[i].Arity()
	}
	return out
}

// Arity is the width of the pipeline's full output row.
func (c *Canonical) Arity() int { return c.arity }

// Subscriber is one query attached to a class: its own query ID
// (answer identity), owner node, insertion time (rows whose earliest
// tuple predates it are filtered out at the fan-out; a one-time query
// has no cutoff, math.MinInt64), residual and aggregation spec. A nil
// Residual means the subscriber's query is byte-identical to the
// pipeline and rows pass through unchanged; a nil Spec, that the
// subscriber's rows go to its owner rather than into aggregation.
type Subscriber struct {
	QID        string
	Owner      uint64
	InsertTime int64
	Res        *Residual
	Spec       *agg.Spec
}

// Kid is a containment child attached to a parent class: a query
// whose join graph strictly contains the parent's. The child places
// no pipeline of its own; every completed parent row is re-played
// through the child's pipeline as pseudo-tuples, and the resulting
// partial rewrite is dispatched from the completion node.
type Kid struct {
	QID        string
	Pipeline   *query.Query
	InsertTime int64
	Rels       []RelSlice
}

// Class is one equivalence class in the registry: the shared pipeline
// (identified by the first subscriber's query ID), its subscribers,
// and any containment children feeding off its completions. A query
// nothing shares with is a class of one.
type Class struct {
	// QID is the pipeline identity: the first subscriber's query ID.
	QID string
	// Exact is the canonical SQL rendering used for byte-identical
	// duplicate detection.
	Exact string
	// Form is the canonical-form key ("" for exact-only classes whose
	// pipeline is the subscriber's query verbatim).
	Form string
	// Shared marks a class whose pipeline has served more than its own
	// query: a canonical one, or one a second subscriber joined at some
	// point. It is never cleared; its fan-out rows are the shared ones.
	Shared bool
	// Pipeline is the class's pipeline query (for containment
	// children, the unplaced query replayed over parent completions).
	Pipeline *query.Query
	// Can is the canonical form, nil for exact-only classes. A class
	// with one is canonical: its pipeline is the full-row shape and its
	// subscribers carry projection residuals.
	Can *Canonical
	// Parent is the containment parent, nil when the class owns a
	// placed pipeline.
	Parent *Class
	Kids   []*Kid
	Subs   []*Subscriber
}

// Empty reports whether nothing references the class any more.
func (c *Class) Empty() bool { return len(c.Subs) == 0 && len(c.Kids) == 0 }

// Fanout is the immutable completion-node snapshot of a class: built
// fresh on every membership change and swapped in from coordinator
// context, read lock-free by the message handlers.
type Fanout struct {
	Subs   []Subscriber
	Kids   []*Kid
	Shared bool // the class's Shared flag
}

// Snapshot builds the current Fanout of the class.
func (c *Class) Snapshot() *Fanout {
	fo := &Fanout{
		Subs:   make([]Subscriber, len(c.Subs)),
		Kids:   append([]*Kid(nil), c.Kids...),
		Shared: c.Shared,
	}
	for i, s := range c.Subs {
		fo.Subs[i] = *s
	}
	return fo
}

// Registry holds every live equivalence class, keyed three ways: by
// exact SQL rendering, by canonical form, and by subscriber query ID.
// It is written only from the engine's coordinator context.
type Registry struct {
	bySQL  map[string]*Class
	byForm map[string]*Class
	subs   map[string]*Class // subscriber QID -> class
	// order lists classes in creation order: the deterministic
	// iteration sequence for containment-parent search.
	order []*Class
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		bySQL:  make(map[string]*Class),
		byForm: make(map[string]*Class),
		subs:   make(map[string]*Class),
	}
}

// LookupExact returns the class registered under the SQL rendering.
func (r *Registry) LookupExact(sql string) *Class { return r.bySQL[sql] }

// LookupForm returns the class registered under the canonical form.
func (r *Registry) LookupForm(form string) *Class { return r.byForm[form] }

// ClassOf returns the class a subscriber query ID is attached to.
func (r *Registry) ClassOf(subQID string) *Class { return r.subs[subQID] }

// Register adds a new class and its first subscriber. The exact/form
// keys are claimed only if free (a key can be occupied when sharing
// declined to attach, e.g. a DISTINCT duplicate of a non-canonical
// class).
func (r *Registry) Register(cls *Class, first *Subscriber) {
	cls.Subs = append(cls.Subs, first)
	r.subs[first.QID] = cls
	if cls.Exact != "" {
		if _, taken := r.bySQL[cls.Exact]; !taken {
			r.bySQL[cls.Exact] = cls
		}
	}
	if cls.Form != "" {
		if _, taken := r.byForm[cls.Form]; !taken {
			r.byForm[cls.Form] = cls
		}
	}
	r.order = append(r.order, cls)
}

// Attach adds a further subscriber to an existing class, which is
// shared from then on.
func (r *Registry) Attach(cls *Class, sub *Subscriber) {
	cls.Subs = append(cls.Subs, sub)
	cls.Shared = true
	r.subs[sub.QID] = cls
}

// Detach removes a subscriber from its class and returns the class,
// or nil if the QID is unknown.
func (r *Registry) Detach(subQID string) *Class {
	cls := r.subs[subQID]
	if cls == nil {
		return nil
	}
	delete(r.subs, subQID)
	for i, s := range cls.Subs {
		if s.QID == subQID {
			cls.Subs = append(cls.Subs[:i], cls.Subs[i+1:]...)
			break
		}
	}
	return cls
}

// DetachKid removes a containment child entry from its parent.
func (r *Registry) DetachKid(parent *Class, kidQID string) {
	for i, k := range parent.Kids {
		if k.QID == kidQID {
			parent.Kids = append(parent.Kids[:i], parent.Kids[i+1:]...)
			return
		}
	}
}

// Drop removes a class from every index. Keys are released only if
// they still point at this class.
func (r *Registry) Drop(cls *Class) {
	if r.bySQL[cls.Exact] == cls {
		delete(r.bySQL, cls.Exact)
	}
	if cls.Form != "" && r.byForm[cls.Form] == cls {
		delete(r.byForm, cls.Form)
	}
	for i, c := range r.order {
		if c == cls {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// FindParent searches for a containment parent of the canonical form:
// an existing class whose join graph is a strict prefix of can's. Of
// the eligible classes the one covering the most relations wins, ties
// broken by creation order, so the choice is deterministic.
func (r *Registry) FindParent(can *Canonical) *Class {
	var best *Class
	for _, cls := range r.order {
		if !containsParent(cls, can) {
			continue
		}
		if best == nil || len(cls.Can.Rels) > len(best.Can.Rels) {
			best = cls
		}
	}
	return best
}

// containsParent reports whether p's join graph is a strict prefix of
// can's: p owns a placed canonical pipeline over at least two
// relations, both forms are unwindowed and selection-free, p's
// relation set is a strict subset of can's, and every equivalence
// class of p lies inside a single equivalence class of can. Conjuncts
// can is stricter about (classes it merges that p keeps apart) are
// enforced when the parent row is re-played through the child
// pipeline, so they do not block sharing.
func containsParent(p *Class, can *Canonical) bool {
	if p.Can == nil || p.Parent != nil {
		return false
	}
	pc := p.Can
	if pc.Window.Enabled() || can.Window.Enabled() {
		return false
	}
	if len(pc.Selections) != 0 {
		return false
	}
	if len(pc.Rels) < 2 || len(pc.Rels) >= len(can.Rels) {
		return false
	}
	relSet := make(map[string]bool, len(can.Rels))
	for _, r := range can.Rels {
		relSet[r] = true
	}
	for _, r := range pc.Rels {
		if !relSet[r] {
			return false
		}
	}
	colClass := make(map[query.ColRef]int)
	for i, cls := range can.Classes {
		for _, col := range cls {
			colClass[col] = i
		}
	}
	for _, cls := range pc.Classes {
		idx, ok := colClass[cls[0]]
		if !ok {
			return false
		}
		for _, col := range cls[1:] {
			if j, ok := colClass[col]; !ok || j != idx {
				return false
			}
		}
	}
	return true
}
