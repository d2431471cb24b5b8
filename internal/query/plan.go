package query

import (
	"cmp"
	"slices"
	"sync/atomic"

	"rjoin/internal/relation"
)

// This file is the rewrite tree. Every query that is rewritten, or
// whose candidates are enumerated, compiles once into the root of a
// tree of nodes, grown lazily: one node per sequence of relations
// consumed so far, reached from its parent by the edge of the last
// relation consumed. A node holds everything its consumed relations
// alone decide, so a rewrite shares its node's FROM list and join
// conjuncts and allocates only the values it binds — the Query, its
// Selections and, when a select column binds, its Select; RewriteInto
// into a caller's Query whose lists have room allocates nothing.
//
// A node's content is a pure function of the clauses the root was
// compiled from and the path to the node, so the first rewrite to cross
// an edge publishes the child with a compare-and-swap and a loser uses
// the winner's node: every worker count builds identical trees.
//
// Staleness. A plan is tied to the clauses it was compiled from, and a
// query that does not carry them compiles afresh: at every node the
// FROM list and the join conjuncts must be the node's own slices
// (identity: first element's address and length) and the selections
// must name the node's columns, in order (by value: a rewrite's
// selections are its own, only their values are new); at the root the
// select list must also be the one compiled (identity) and DISTINCT
// unchanged. A slice appended to while a query is built, replaced or cut
// fails the check, and Clone drops the plan, so a clone may be permuted
// in place. What the check cannot see is an in-place write into the FROM
// list, joins or select list of a query already used; queries are
// immutable once rewritten, as Rewrite's sharing has always required.

// node is one vertex of a rewrite tree.
type node struct {
	rels  []string   // the FROM list still to join
	joins []JoinCond // the join conjuncts still open, in clause order

	// sels is every selection a query at this node carries, in
	// Selections order (the order the path produced them in): its column
	// and that column's equivalence class under joins — two selections
	// contradict each other only within one class.
	sels []selCol

	// attr is candidate group (a): the attribute-level pairs of the join
	// conjuncts, deduplicated, in clause order, with interned keys.
	attr []attrCand
	// implied is group (c): the join columns no selection names whose
	// class one does, sorted by (Rel, Attr).
	implied []impliedCol

	// next[i] is the child consuming rels[i], nil until first needed.
	next []atomic.Pointer[node]
	// conv is what the edge into this node did: the join conjuncts with
	// one side on the relation it consumed, in clause order, which became
	// selections on their other side. proj is, in a DISTINCT tree, that
	// relation's attributes the projection of its tuples covers: those
	// the input selects (no rewrite binds them while the relation is
	// open) and those a conjunct or selection of the parent names, sorted.
	conv []conversion
	proj []string

	src  *source // the root's, shared by the whole tree
	root bool    // compiled from a query rather than grown
}

// source is what a tree's root was compiled from beyond its clauses: the
// select list, which every rewrite replaces once it binds, and DISTINCT.
type source struct {
	sel      []SelectItem
	distinct bool
}

type selCol struct {
	col   ColRef
	class int
}

type attrCand struct {
	key relation.Key
	col ColRef
}

// impliedCol is one implied selection: col equals the value of
// Selections[from], the last selection in col's class.
type impliedCol struct {
	col  ColRef
	from int
}

// conversion turns a join conjunct into a selection: col = the tuple's
// value of attr.
type conversion struct {
	attr string
	col  ColRef
}

// node returns q's plan node, compiling q afresh when it has none or
// the one it has was compiled from other clauses.
func (q *Query) node() *node {
	if n := q.plan.Load(); n != nil && n.fits(q) {
		return n
	}
	n := compile(q)
	q.plan.Store(n)
	return n
}

// same reports whether two slices are the same slice: same first
// element, same length.
func same[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// fits reports whether n was compiled from q's clauses.
func (n *node) fits(q *Query) bool {
	if !same(q.Relations, n.rels) || !same(q.Joins, n.joins) || len(q.Selections) != len(n.sels) {
		return false
	}
	for i := range q.Selections {
		if q.Selections[i].Col != n.sels[i].col {
			return false
		}
	}
	return !n.root || same(q.Select, n.src.sel) && q.Distinct == n.src.distinct
}

// compile builds the root of q's tree.
func compile(q *Query) *node {
	cols := make([]ColRef, len(q.Selections))
	for i, s := range q.Selections {
		cols[i] = s.Col
	}
	n := build(q.Relations, q.Joins, cols, &source{sel: q.Select, distinct: q.Distinct})
	n.root = true
	return n
}

func compareCols(a, b ColRef) int {
	if c := cmp.Compare(a.Rel, b.Rel); c != 0 {
		return c
	}
	return cmp.Compare(a.Attr, b.Attr)
}

// joinClasses is the union-find over the columns the join conjuncts
// name: cols, sorted by (Rel, Attr) without repeats, and find, which
// names a column's class by its root, the class's smallest index — its
// first column.
func joinClasses(joins []JoinCond) (cols []ColRef, find func(int) int) {
	for _, j := range joins {
		for _, c := range [2]ColRef{j.Left, j.Right} {
			if !slices.Contains(cols, c) {
				cols = append(cols, c)
			}
		}
	}
	slices.SortFunc(cols, compareCols)
	root := make([]int, len(cols))
	for i := range root {
		root[i] = i
	}
	find = func(i int) int {
		for root[i] != i {
			i = root[i]
		}
		return i
	}
	for _, j := range joins {
		a, b := find(slices.Index(cols, j.Left)), find(slices.Index(cols, j.Right))
		root[max(a, b)] = min(a, b)
	}
	return cols, find
}

// JoinClasses returns the equivalence classes the join conjuncts make of
// the columns they name: each class sorted by (Rel, Attr), the classes
// ordered by their first column — a layout no permutation or flip of the
// conjuncts changes. It is nil without joins.
func (q *Query) JoinClasses() [][]ColRef {
	cols, find := joinClasses(q.Joins)
	var out [][]ColRef
	at := make([]int, len(cols)) // a root's index in out
	for i, c := range cols {
		if r := find(i); r != i {
			out[at[r]] = append(out[at[r]], c)
		} else {
			at[i] = len(out)
			out = append(out, []ColRef{c})
		}
	}
	return out
}

// build derives a node of src's tree from its FROM list, open joins and
// selection columns.
func build(rels []string, joins []JoinCond, selCols []ColRef, src *source) *node {
	n := &node{rels: rels, joins: joins, src: src, next: make([]atomic.Pointer[node], len(rels))}

	for _, j := range joins {
		for _, c := range [2]ColRef{j.Left, j.Right} {
			if key := relation.AttrKeyOf(c.Rel, c.Attr); !slices.ContainsFunc(n.attr, func(a attrCand) bool { return a.key == key }) {
				n.attr = append(n.attr, attrCand{key: key, col: c})
			}
		}
	}
	cols, find := joinClasses(joins)

	// A selection on a joined column is in that column's class; one on
	// any other column is alone in its own, named past the join classes
	// by its first occurrence.
	n.sels = make([]selCol, len(selCols))
	for j, c := range selCols {
		class := len(cols) + slices.Index(selCols, c)
		if i := slices.Index(cols, c); i >= 0 {
			class = find(i)
		}
		n.sels[j] = selCol{col: c, class: class}
	}
	for i, c := range cols {
		if slices.Contains(selCols, c) {
			continue
		}
		for from := len(selCols) - 1; from >= 0; from-- {
			if n.sels[from].class == find(i) {
				n.implied = append(n.implied, impliedCol{col: c, from: from})
				break
			}
		}
	}
	return n
}

// child returns the node past consuming rels[i], growing it on first
// use.
func (n *node) child(i int) *node {
	if c := n.next[i].Load(); c != nil {
		return c
	}
	if c := n.grow(i); n.next[i].CompareAndSwap(nil, c) {
		return c
	}
	return n.next[i].Load()
}

// grow derives the node past consuming rels[i]: the relation leaves the
// FROM list, the conjuncts on it close — those with one side on it
// converted — its selections go and the conversions follow the
// surviving selections.
func (n *node) grow(i int) *node {
	r := n.rels[i]
	var conv []conversion
	for _, j := range n.joins {
		lOn, rOn := j.Left.Rel == r, j.Right.Rel == r
		switch {
		case lOn && !rOn:
			conv = append(conv, conversion{attr: j.Left.Attr, col: j.Right})
		case rOn && !lOn:
			conv = append(conv, conversion{attr: j.Right.Attr, col: j.Left})
		}
	}
	touches := func(j JoinCond) bool { return j.Left.Rel == r || j.Right.Rel == r }
	joins := n.joins
	if slices.ContainsFunc(n.joins, touches) {
		joins = slices.Clip(slices.DeleteFunc(slices.Clone(n.joins), touches))
		if len(joins) == 0 {
			joins = nil // no array kept for the last relation's node
		}
	}
	cols := make([]ColRef, 0, len(n.sels)+len(conv))
	for _, s := range n.sels {
		if s.col.Rel != r {
			cols = append(cols, s.col)
		}
	}
	for _, cv := range conv {
		cols = append(cols, cv.col)
	}
	c := build(slices.Delete(slices.Clone(n.rels), i, i+1), joins, cols, n.src)
	c.conv = conv
	if n.src.distinct {
		for _, s := range n.src.sel {
			if !s.IsConst && s.Col.Rel == r {
				c.proj = append(c.proj, s.Col.Attr)
			}
		}
		for _, j := range n.joins {
			for _, col := range [2]ColRef{j.Left, j.Right} {
				if col.Rel == r {
					c.proj = append(c.proj, col.Attr)
				}
			}
		}
		for _, s := range n.sels {
			if s.col.Rel == r {
				c.proj = append(c.proj, s.col.Attr)
			}
		}
		slices.Sort(c.proj)
		c.proj = slices.Clip(slices.Compact(c.proj))
	}
	return c
}
