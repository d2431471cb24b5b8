// Package query implements the continuous-query representation RJoin
// rewrites: multi-way equi-join queries over the relational model, the
// rewriting step that substitutes an arriving tuple's values into a
// query (Section 3), the index-key candidate enumeration used to decide
// where a query is placed (Sections 3 and 6), and the sliding-window
// parameters of Section 5.
package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"rjoin/internal/relation"
)

// ColRef names one attribute of one relation, e.g. R.A.
type ColRef struct {
	Rel  string
	Attr string
}

// String renders the reference as Rel.Attr.
func (c ColRef) String() string { return c.Rel + "." + c.Attr }

// AggFunc identifies the aggregate function applied to a select item.
// AggNone marks a plain (non-aggregate) item, so the zero value of
// SelectItem keeps its pre-aggregation meaning.
type AggFunc uint8

const (
	// AggNone marks a plain column or constant select item.
	AggNone AggFunc = iota
	// AggCount is COUNT(col) or COUNT(*) (Star set); with AggDistinct
	// it is COUNT(DISTINCT col).
	AggCount
	// AggSum sums integer values (string values are ignored).
	AggSum
	// AggMin takes the minimum under the total value order (integers
	// before strings, then by value).
	AggMin
	// AggMax takes the maximum under the same order.
	AggMax
	// AggAvg averages integer values; it finalizes to a decimal string.
	AggAvg
)

// String renders the function name as it appears in SQL text.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return "none"
	}
}

// SelectItem is one output column: either a column reference or, after
// rewriting substituted it, a constant. An aggregate item (Agg !=
// AggNone) travels through rewriting exactly like the plain item its
// argument column would — the rewrite machinery substitutes the
// argument's value — and only the aggregation layer interprets the Agg
// marker when folding completed answer rows into per-group state.
// COUNT(*) carries no argument: it is represented as the constant 1
// with Star set, so a completed row holds 1 at its position.
type SelectItem struct {
	IsConst bool
	Const   relation.Value
	Col     ColRef

	// Agg is the aggregate function applied to this position (AggNone
	// for plain items). Star marks COUNT(*); AggDistinct marks
	// COUNT(DISTINCT col).
	Agg         AggFunc
	Star        bool
	AggDistinct bool
}

// sqlValue renders a constant as SQL text: strings are single-quoted
// with ” escaping so that String() output re-parses to the same query
// (Value.String is the raw key form and cannot be changed — it is
// baked into index keys).
func sqlValue(v relation.Value) string {
	if v.Kind == relation.KindString {
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	}
	return v.String()
}

// String renders the item as it appears in SQL text.
func (s SelectItem) String() string {
	if s.Agg != AggNone {
		arg := s.Col.String()
		if s.Star {
			arg = "*"
		} else if s.AggDistinct {
			arg = "distinct " + arg
		}
		return s.Agg.String() + "(" + arg + ")"
	}
	if s.IsConst {
		return sqlValue(s.Const)
	}
	return s.Col.String()
}

// JoinCond is an equi-join conjunct Left = Right between two columns.
type JoinCond struct {
	Left  ColRef
	Right ColRef
}

// String renders the conjunct.
func (j JoinCond) String() string { return j.Left.String() + "=" + j.Right.String() }

// SelCond is a selection conjunct Col = Val, either written by the user
// or introduced by rewriting (the paper renders these "3=S.A").
type SelCond struct {
	Col ColRef
	Val relation.Value
}

// String renders the conjunct in the paper's value-first style, with
// string constants quoted as SQL so the rendering re-parses.
func (s SelCond) String() string { return sqlValue(s.Val) + "=" + s.Col.String() }

// WindowKind selects the window clock of Section 5.
type WindowKind uint8

const (
	// WindowNone evaluates the query over the entire stream suffix.
	WindowNone WindowKind = iota
	// WindowTime windows are measured on the virtual clock (pubT).
	WindowTime
	// WindowTuples windows are measured in network-wide tuple arrivals
	// (the publication sequence number).
	WindowTuples
)

// WindowSpec is the useWindows/window/start parameter block each query
// carries in Section 5, plus the sliding/tumbling distinction. (Size
// leads so the two one-byte fields share a word: every stored rewrite
// carries one.)
type WindowSpec struct {
	Size     int64
	Kind     WindowKind
	Tumbling bool
}

// Enabled reports whether window restrictions apply.
func (w WindowSpec) Enabled() bool { return w.Kind != WindowNone && w.Size > 0 }

// Clock extracts the window clock value from a tuple: publication time
// for time windows, publication sequence for tuple windows.
func (w WindowSpec) Clock(t *relation.Tuple) int64 {
	if w.Kind == WindowTuples {
		return t.PubSeq
	}
	return t.PubTime
}

// Valid reports whether a rewritten query with window start "start" may
// combine with a tuple observed at clock value "clock":
// sliding windows require |start-clock|+1 <= Size, tumbling windows
// require both to fall in the same window epoch.
func (w WindowSpec) Valid(start, clock int64) bool {
	if !w.Enabled() {
		return true
	}
	if w.Tumbling {
		return epoch(start, w.Size) == epoch(clock, w.Size)
	}
	d := start - clock
	if d < 0 {
		d = -d
	}
	return d+1 <= w.Size
}

func epoch(clock, size int64) int64 {
	if clock >= 0 {
		return clock / size
	}
	return (clock - size + 1) / size
}

// EpochOf returns the window epoch a clock value falls in: clock/Size
// (floor) for windowed queries, 0 for unwindowed ones. The aggregation
// subsystem partitions each query's answer stream into these epochs.
func (w WindowSpec) EpochOf(clock int64) int64 {
	if !w.Enabled() {
		return 0
	}
	return epoch(clock, w.Size)
}

// Query is a continuous multi-way equi-join, either an input query as
// submitted or a rewritten query produced by substituting tuples. The
// answer to the input query is the union of the answers of its
// rewrites.
type Query struct {
	// ID is Key(q): the key of the submitting node concatenated with a
	// positive integer, unique network-wide.
	ID string
	// Owner is the identifier of the node that submitted the input
	// query; answers are sent directly to it.
	Owner uint64
	// InsertTime is insT(q) for the input query; rewrites inherit it.
	// Only tuples with pubT >= InsertTime may contribute to answers.
	InsertTime int64
	// Distinct requests set semantics (duplicate elimination).
	Distinct bool
	// OneTime marks a one-time (snapshot) query: it combines only
	// tuples published at or before its insertion time, delivers the
	// answers present in the network at submission, and keeps no
	// standing state (Section 4's Δ = ∞ remark). Completeness at the
	// attribute level is bounded by the ALTT retention Δ.
	OneTime bool

	Select     []SelectItem
	Relations  []string
	Joins      []JoinCond
	Selections []SelCond

	// GroupBy lists the grouping columns of an aggregate query. Every
	// GroupBy column must appear as a plain item of the select list (so
	// the group's values ride in every answer row), and every plain
	// column item must appear in GroupBy.
	GroupBy []ColRef

	Window WindowSpec
	// Start is the window-start parameter of a rewritten query
	// (meaningless while Depth == 0).
	Start int64
	// AggClock is the maximum window-clock value over the tuples this
	// rewrite chain has combined — the completion clock that assigns a
	// finished answer row to its aggregation epoch. Maintained alongside
	// Start by the trigger sites; zero on input queries.
	AggClock int64
	// MinPub is the minimum publication time over the tuples this
	// rewrite chain has combined. The engine initialises it to MaxInt64
	// on input queries and the trigger sites min-update it alongside
	// AggClock; the multi-query sharing fan-out uses it to decide which
	// subscribers of a shared pipeline a completed row belongs to (a
	// subscriber may only see rows whose every tuple was published at or
	// after its own insertion time).
	MinPub int64
	// Depth counts how many rewriting steps produced this query; an
	// input query has Depth 0.
	Depth int
	// Lineage is the provenance of this rewrite chain: one step per
	// tuple combined, in rewrite order. It is populated only when the
	// engine runs with provenance enabled, and only by the core trigger
	// sites — Rewrite itself shares the parent's slice header (like
	// every other untouched slice), so appends MUST go through
	// AppendLineage, which always copies into a fresh slice.
	Lineage []LineageStep

	// plan is the query's node in its rewrite tree (plan.go): compiled on
	// first use, set by Rewrite on every rewrite, dropped by Clone.
	plan atomic.Pointer[node]
}

// LineageStep records one tuple a rewrite chain combined: the base
// tuple's network-wide identity ((publisher, publication sequence))
// and the ring identifier of the node whose trigger consumed it — the
// rewrite hop path of an answer row.
type LineageStep struct {
	// Pub is the publishing node's ring identifier; Seq the tuple's
	// network-wide publication sequence number.
	Pub uint64 `json:"pub"`
	Seq int64  `json:"seq"`
	// Node is the ring identifier of the node where the rewrite step
	// consumed the tuple.
	Node uint64 `json:"node"`
}

// AppendLineage returns lin extended by step, always in freshly
// allocated backing storage: rewritten queries share their parent's
// slice headers, so an in-place append could corrupt a sibling
// rewrite's provenance.
func AppendLineage(lin []LineageStep, step LineageStep) []LineageStep {
	out := make([]LineageStep, len(lin)+1)
	copy(out, lin)
	out[len(lin)] = step
	return out
}

// SortLineage orders steps by (Pub, Seq, Node) — the canonical order
// lineage set unions are snapshotted in, so equal sets render equal
// slices regardless of fold order.
func SortLineage(lin []LineageStep) {
	sort.Slice(lin, func(i, j int) bool {
		a, b := lin[i], lin[j]
		if a.Pub != b.Pub {
			return a.Pub < b.Pub
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Node < b.Node
	})
}

// Clone returns a deep copy without the plan, so the copy may be edited
// in place; rewriting never mutates a stored query.
func (q *Query) Clone() *Query {
	c := new(Query)
	q.CloneInto(c)
	return c
}

// CloneInto writes a deep copy of q, without its plan, into dst. Like
// RewriteInto, it copies the select list and selections into dst's
// when they have room.
func (q *Query) CloneInto(dst *Query) {
	sel, sels := dst.Select[:0], dst.Selections[:0]
	q.copyInto(dst)
	dst.Select = append(sel, q.Select...)
	dst.Relations = append([]string(nil), q.Relations...)
	dst.Joins = append([]JoinCond(nil), q.Joins...)
	dst.Selections = append(sels, q.Selections...)
	dst.GroupBy = append([]ColRef(nil), q.GroupBy...)
	dst.Lineage = append([]LineageStep(nil), q.Lineage...)
}

// copyInto overwrites dst with a shallow copy of q — every field, slice
// headers shared — except the plan, which stays unset.
func (q *Query) copyInto(dst *Query) {
	*dst = Query{
		ID: q.ID, Owner: q.Owner, InsertTime: q.InsertTime, Distinct: q.Distinct, OneTime: q.OneTime,
		Select: q.Select, Relations: q.Relations, Joins: q.Joins, Selections: q.Selections, GroupBy: q.GroupBy,
		Window: q.Window, Start: q.Start, AggClock: q.AggClock, MinPub: q.MinPub, Depth: q.Depth, Lineage: q.Lineage,
	}
}

// IsAggregate reports whether any select item carries an aggregate
// function. Select lists are short, so the scan is cheap; hot paths
// that trigger per tuple cache the result on the stored query.
func (q *Query) IsAggregate() bool {
	for i := range q.Select {
		if q.Select[i].Agg != AggNone {
			return true
		}
	}
	return false
}

// HasRelation reports whether rel still appears in the FROM list.
func (q *Query) HasRelation(rel string) bool {
	for _, r := range q.Relations {
		if r == rel {
			return true
		}
	}
	return false
}

// IsComplete reports whether the where clause has become equivalent to
// "true": no relations (hence no conjuncts) remain, and an answer can
// be formed.
func (q *Query) IsComplete() bool { return len(q.Relations) == 0 }

// AnswerValues returns the output row of a complete query. It panics if
// called on an incomplete query — callers must check IsComplete.
func (q *Query) AnswerValues() []relation.Value {
	out := make([]relation.Value, len(q.Select))
	for i, s := range q.Select {
		if !s.IsConst {
			panic(fmt.Sprintf("query: AnswerValues on incomplete query %s (column %s unresolved)", q.ID, s.Col))
		}
		out[i] = s.Const
	}
	return out
}

// Matches reports whether tuple t can trigger q for rewriting: t's
// relation is still joined in q and every selection conjunct on that
// relation is satisfied by t (including join conjuncts internal to the
// relation, e.g. R.A = R.B).
func (q *Query) Matches(t *relation.Tuple) bool {
	rel := t.Relation()
	if !q.HasRelation(rel) {
		return false
	}
	for _, s := range q.Selections {
		if s.Col.Rel != rel {
			continue
		}
		v, ok := t.Value(s.Col.Attr)
		if !ok || !v.Equal(s.Val) {
			return false
		}
	}
	for _, j := range q.Joins {
		if j.Left.Rel == rel && j.Right.Rel == rel {
			lv, lok := t.Value(j.Left.Attr)
			rv, rok := t.Value(j.Right.Attr)
			if !lok || !rok || !lv.Equal(rv) {
				return false
			}
		}
	}
	return true
}

// Release does nothing. It used to return a dropped rewrite to a free
// list that Rewrite drew from, but since the AppendComplete fast path
// only contradictory and unplaceable rewrites were ever released, which
// is none on the benchmark's workloads, so the pool recycled nothing and
// is gone. The function stays only because the frozen
// perfbench/layers.go calls it; delete it with that call.
func Release(*Query) {}

// AppendComplete performs the final rewriting step for a query whose
// FROM list holds exactly one remaining relation: substituting a
// triggering tuple completes the query, so the answer row — one value
// per select item — is appended to dst directly, without materialising
// the intermediate child query that Rewrite would build only for
// dispatch to immediately tear down into AnswerValues. It returns dst
// unextended and ok=false when t does not trigger q, exactly like
// Rewrite.
func AppendComplete(dst []relation.Value, q *Query, t *relation.Tuple) ([]relation.Value, bool) {
	if len(q.Relations) != 1 || !q.Matches(t) {
		return dst, false
	}
	rel := t.Relation()
	n := len(dst)
	for _, s := range q.Select {
		if s.IsConst {
			dst = append(dst, s.Const)
			continue
		}
		if s.Col.Rel != rel {
			// The general path would have produced an "complete" query
			// with an unresolved column and panicked in AnswerValues;
			// validated queries cannot reach this.
			panic(fmt.Sprintf("query: AppendComplete on query %s (column %s unresolved)", q.ID, s.Col))
		}
		v, ok := t.Value(s.Col.Attr)
		if !ok {
			return dst[:n], false
		}
		dst = append(dst, v)
	}
	return dst, true
}

// Rewrite substitutes tuple t into q, producing the query with one
// fewer relation (the paper's rewrite(q, t)). It returns ok=false when
// t does not trigger q. The caller is responsible for window-validity
// checks and for setting Start on the result.
//
// The result is copy-on-write: the FROM list and join conjuncts are its
// rewrite-tree node's (plan.go), and the lists the substitution leaves
// untouched (Select when no column of rel appears, Selections when
// nothing is added or dropped, and Lineage) are the parent's. Neither
// parent nor child is ever mutated after creation, so sharing is safe;
// anyone who needs an independent deep copy uses Clone.
func Rewrite(q *Query, t *relation.Tuple) (*Query, bool) {
	out := new(Query)
	if !RewriteInto(out, q, t) {
		return nil, false
	}
	return out, true
}

// RewriteInto is Rewrite writing the result into dst, which the caller
// allocated — alongside whatever will hold it. It reports whether t
// triggers q; when not, dst is left unspecified.
//
// dst's Select and Selections may come with room: empty slices over
// arrays the caller owns, as a stored entry's are (core's entry). A
// result list that fits is written there, a list the substitution
// leaves untouched included, so nothing is allocated for it and the
// result never shares a list with q. A list that does not fit is built
// as Rewrite builds it: shared with q when untouched, allocated
// otherwise.
func RewriteInto(dst, q *Query, t *relation.Tuple) bool {
	n := q.node()
	i := slices.Index(n.rels, t.Relation())
	if i < 0 || !q.Matches(t) {
		return false
	}
	rel, c := n.rels[i], n.child(i)
	selRoom, selsRoom := dst.Select[:0], dst.Selections[:0]

	// Select columns of rel become constants. Substitution sets only
	// IsConst/Const, so an aggregate item keeps its Agg marker (the
	// aggregation layer recognises the completed query by it) and the
	// column it came from.
	binds := func(s SelectItem) bool { return !s.IsConst && s.Col.Rel == rel }
	sel := q.Select
	if bind := slices.ContainsFunc(q.Select, binds); len(q.Select) <= cap(selRoom) || bind {
		if len(q.Select) > cap(selRoom) {
			selRoom = make([]SelectItem, 0, len(q.Select))
		}
		sel = append(selRoom, q.Select...)
		for k := range sel {
			if binds(sel[k]) {
				v, ok := t.Value(sel[k].Col.Attr)
				if !ok {
					return false
				}
				sel[k].IsConst = true
				sel[k].Const = v
			}
		}
	}

	// Selections on rel were checked by Matches and go; the surviving ones
	// keep clause order, and the join conjuncts with one side on rel
	// follow as selections on their other side, in join order.
	onRel := func(s SelCond) bool { return s.Col.Rel == rel }
	sels := q.Selections
	if len(c.sels) <= cap(selsRoom) || len(c.conv) > 0 || slices.ContainsFunc(q.Selections, onRel) {
		if len(c.sels) > cap(selsRoom) {
			selsRoom = make([]SelCond, 0, len(c.sels))
		}
		sels = selsRoom
		for _, s := range q.Selections {
			if !onRel(s) {
				sels = append(sels, s)
			}
		}
		for _, cv := range c.conv {
			v, _ := t.Value(cv.attr)
			sels = append(sels, SelCond{Col: cv.col, Val: v})
		}
	}

	q.copyInto(dst)
	dst.Select, dst.Relations, dst.Joins, dst.Selections = sel, c.rels, c.joins, sels
	dst.Depth = q.Depth + 1
	dst.plan.Store(c)
	return true
}

// Level distinguishes the two indexing granularities of Section 3.
type Level uint8

const (
	// AttrLevel indexes under Rel+Attr.
	AttrLevel Level = iota
	// ValueLevel indexes under Rel+Attr+Value.
	ValueLevel
)

// String implements fmt.Stringer.
func (l Level) String() string {
	if l == AttrLevel {
		return "attribute"
	}
	return "value"
}

// Candidate is one possible index placement for a query: a key (with
// its ring identifier precomputed), its level, and the column (and
// value, for value level) it derives from.
type Candidate struct {
	Key   relation.Key
	Level Level
	Col   ColRef
	Val   relation.Value
}

// Candidates enumerates the placements Section 6 considers for a query:
// (a) every relation-attribute pair in a join conjunct, (b) every
// explicit relation-attribute-value selection, and (c) every implied
// selection obtained by propagating selection values through the
// equi-join equivalence classes. Input queries (Depth 0, no
// selections) naturally yield only attribute-level candidates, matching
// Section 3. The result is deduplicated and deterministically ordered
// (joins and selections in clause order, implied triples last).
func (q *Query) Candidates() []Candidate {
	n := q.node()
	return q.AppendCandidates(make([]Candidate, 0, len(n.attr)+len(q.Selections)+len(n.implied)))
}

// AppendCandidates appends Candidates() to dst and returns the extended
// slice: group (a) copied from the rewrite-tree node, (b) and (c)
// filled with q's values. The appended entries are the caller's — they
// never alias the node — and with room in dst nothing is allocated.
func (q *Query) AppendCandidates(dst []Candidate) []Candidate {
	n := q.node()
	start := len(dst)
	for _, a := range n.attr {
		dst = append(dst, Candidate{Key: a.key, Level: AttrLevel, Col: a.col})
	}
	// Candidate sets are small (one or two per clause), so dedup by
	// linear scan instead of a map — cheaper and allocation free.
	add := func(dst []Candidate, c Candidate) []Candidate {
		for i := range dst[start:] {
			if dst[start+i].Key == c.Key {
				return dst
			}
		}
		return append(dst, c)
	}
	// (b) explicit value-level triples from selections.
	for _, s := range q.Selections {
		dst = add(dst, Candidate{
			Key:   relation.ValueKeyOf(s.Col.Rel, s.Col.Attr, s.Val),
			Level: ValueLevel, Col: s.Col, Val: s.Val,
		})
	}
	// (c) implied triples: a selection's value propagated across its
	// join equivalence class.
	for _, im := range n.implied {
		v := q.Selections[im.from].Val
		dst = add(dst, Candidate{
			Key:   relation.ValueKeyOf(im.col.Rel, im.col.Attr, v),
			Level: ValueLevel, Col: im.col, Val: v,
		})
	}
	return dst
}

// Contradictory reports whether the where clause is unsatisfiable
// because two different constants are forced onto the same join
// equivalence class (e.g. 3=S.A and 5=S.A, possibly through joins).
// RJoin discards such rewrites instead of indexing them.
func (q *Query) Contradictory() bool {
	// A contradiction needs two constants on one class, i.e. at least
	// two selection conjuncts.
	if len(q.Selections) < 2 {
		return false
	}
	n := q.node()
	for i, a := range q.Selections {
		for k, b := range q.Selections[:i] {
			if n.sels[i].class == n.sels[k].class && !a.Val.Equal(b.Val) {
				return true
			}
		}
	}
	return false
}

// AppendProjection appends the projection pi_{A1..Ak}(t) of a DISTINCT
// query over the attributes of t's relation mentioned in its select or
// where clause — the duplicate-elimination memory of Section 4 — and
// returns the extended slice. The attributes are the rewrite-tree
// node's, sorted, and each value is encoded by relation.AppendCanonical,
// so two projections render equal bytes exactly when they are equal.
// A query that is not DISTINCT, or a tuple of a relation it no longer
// joins, appends nothing.
func (q *Query) AppendProjection(dst []byte, t *relation.Tuple) []byte {
	n := q.node()
	i := slices.Index(n.rels, t.Relation())
	if i < 0 {
		return dst
	}
	for _, attr := range n.child(i).proj {
		v, _ := t.Value(attr)
		dst = relation.AppendCanonical(dst, v)
	}
	return dst
}

// String renders the query as SQL in the style of the paper's examples,
// e.g. "select 5, S.B from S,P where 3=S.A and S.B=P.B".
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("select ")
	if q.Distinct {
		b.WriteString("distinct ")
	}
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(" from ")
	b.WriteString(strings.Join(q.Relations, ","))
	var conj []string
	for _, s := range q.Selections {
		conj = append(conj, s.String())
	}
	for _, j := range q.Joins {
		conj = append(conj, j.String())
	}
	if len(conj) > 0 {
		b.WriteString(" where ")
		b.WriteString(strings.Join(conj, " and "))
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, c := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	if q.OneTime {
		b.WriteString(" once")
	}
	if q.Window.Enabled() {
		fmt.Fprintf(&b, " within %d ", q.Window.Size)
		if q.Window.Kind == WindowTuples {
			b.WriteString("tuples")
		} else {
			b.WriteString("ticks")
		}
		if q.Window.Tumbling {
			b.WriteString(" tumbling")
		}
	}
	return b.String()
}

// Validate checks structural well-formedness of an input query against
// a catalog: every referenced relation is in the FROM list and the
// catalog, every attribute exists, no relation repeats in FROM, and
// every FROM relation is connected to the where clause (adjacent joins
// share a relation is not required, but a cross product is rejected
// because RJoin has no key to index it under).
func (q *Query) Validate(cat *relation.Catalog) error {
	fromSet := make(map[string]bool)
	for _, r := range q.Relations {
		if fromSet[r] {
			return fmt.Errorf("query %s: relation %s repeated in FROM (self-joins are unsupported, as in the paper)", q.ID, r)
		}
		fromSet[r] = true
		if _, ok := cat.Schema(r); !ok {
			return fmt.Errorf("query %s: unknown relation %s", q.ID, r)
		}
	}
	checkCol := func(c ColRef) error {
		if !fromSet[c.Rel] {
			return fmt.Errorf("query %s: column %s references relation missing from FROM", q.ID, c)
		}
		s, _ := cat.Schema(c.Rel)
		if _, ok := s.AttrIndex(c.Attr); !ok {
			return fmt.Errorf("query %s: relation %s has no attribute %s", q.ID, c.Rel, c.Attr)
		}
		return nil
	}
	for _, s := range q.Select {
		if !s.IsConst {
			if err := checkCol(s.Col); err != nil {
				return err
			}
		}
	}
	if err := q.validateAggregates(checkCol); err != nil {
		return err
	}
	touched := make(map[string]bool)
	for _, j := range q.Joins {
		if err := checkCol(j.Left); err != nil {
			return err
		}
		if err := checkCol(j.Right); err != nil {
			return err
		}
		touched[j.Left.Rel] = true
		touched[j.Right.Rel] = true
	}
	for _, s := range q.Selections {
		if err := checkCol(s.Col); err != nil {
			return err
		}
		touched[s.Col.Rel] = true
	}
	// Walk the FROM list, not fromSet: with several unjoined relations
	// the reported offender must not depend on map iteration order.
	for _, r := range q.Relations {
		if !touched[r] && len(fromSet) > 1 {
			return fmt.Errorf("query %s: relation %s joins nothing (cross products are unsupported)", q.ID, r)
		}
	}
	if len(q.Joins)+len(q.Selections) == 0 && len(q.Relations) > 1 {
		return fmt.Errorf("query %s: no where clause over %d relations", q.ID, len(q.Relations))
	}
	if q.Window.Enabled() && q.Window.Size <= 0 {
		return fmt.Errorf("query %s: non-positive window size", q.ID)
	}
	if q.OneTime && q.Window.Enabled() {
		return fmt.Errorf("query %s: one-time queries cannot carry windows", q.ID)
	}
	return nil
}

// validateAggregates checks the grouping rules of an aggregate query:
// GROUP BY requires at least one aggregate item, every plain column of
// the select list must be a grouping column and vice versa (so group
// identity is fully determined by an answer row), aggregates exclude
// DISTINCT (set semantics on raw rows would change multiplicities under
// the aggregates) and one-time snapshots (aggregation is a property of
// the continuous answer stream).
func (q *Query) validateAggregates(checkCol func(ColRef) error) error {
	if !q.IsAggregate() {
		if len(q.GroupBy) > 0 {
			return fmt.Errorf("query %s: GROUP BY without an aggregate select item", q.ID)
		}
		return nil
	}
	if q.Distinct {
		return fmt.Errorf("query %s: DISTINCT cannot combine with aggregate functions", q.ID)
	}
	if q.OneTime {
		return fmt.Errorf("query %s: one-time queries cannot aggregate", q.ID)
	}
	grouped := make(map[ColRef]bool, len(q.GroupBy))
	for _, c := range q.GroupBy {
		if err := checkCol(c); err != nil {
			return err
		}
		grouped[c] = true
	}
	selected := make(map[ColRef]bool)
	for _, s := range q.Select {
		if s.Agg != AggNone {
			continue
		}
		if s.IsConst {
			continue // constants are group-invariant
		}
		if !grouped[s.Col] {
			return fmt.Errorf("query %s: select column %s is neither aggregated nor in GROUP BY", q.ID, s.Col)
		}
		selected[s.Col] = true
	}
	for _, c := range q.GroupBy {
		if !selected[c] {
			return fmt.Errorf("query %s: GROUP BY column %s missing from the select list", q.ID, c)
		}
	}
	return nil
}
