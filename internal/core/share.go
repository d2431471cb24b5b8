package core

// This file keeps the engine's multi-query sharing classes. Every
// submission belongs to one class — a query nothing shares with is a
// class of one — whose pipeline is named by its first member's QID:
// that QID's subscription record (subs.go) names the class, every
// stored entry of the pipeline points at the record (storedQuery.pipe),
// and the pipeline is live exactly while the record names a class.
// Every member's record points at the class it rides and holds its own
// residual (internal/share computes it against the class's canonical
// form); a containment child is a class with a parent, fed by replaying
// the parent's completed rows through its own unplaced pipeline. Every
// completed row leaves through the class's fan-out to its members and
// kids (fanoutComplete).
//
// Classes are written only in coordinator context — SubmitQuery and
// Unsubscribe run between drains, never beside a handler — and handlers
// read them without a lock and without a copy: the drain barrier orders
// every write before the next handler that reads it, exactly as it does
// for the records themselves.

import (
	"fmt"
	"math"
	"slices"

	"rjoin/internal/id"
	"rjoin/internal/obs"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/share"
	"rjoin/internal/sim"
)

// shareClass is one shared pipeline and everything that rides it.
type shareClass struct {
	// pipe is the record of the QID naming the pipeline: its first
	// member's. query is the pipeline query — the member's own, or a
	// canonical full-row one; a containment child's is never placed,
	// only replayed over its parent's rows.
	pipe  *subscription
	query *query.Query
	// sql and form are the exact-SQL and canonical-form keys the class
	// was opened under ("" when it has none: a one-time query claims
	// neither, a non-canonical class no form); each is claimed in the
	// engine's index only while free. can is the canonical form, nil for
	// a class whose pipeline is its first member's query verbatim.
	sql, form string
	can       *share.Canonical
	// shared marks a class whose pipeline has served more than its own
	// query: a canonical one, or one a second member joined at some
	// point. It is never cleared; its fan-out rows are the shared ones.
	shared bool
	// parent is a containment child's parent, and rels the parent's row
	// layout its replays carve pseudo-tuples from; nil for a class that
	// owns a placed pipeline.
	parent *shareClass
	rels   []share.RelSlice
	// members and kids, in attach order: the records of the queries
	// riding the pipeline and the containment children fed by it.
	members []*subscription
	kids    []*shareClass
}

// shareSubmit puts a freshly stamped query's record into a class and
// decides what to index: it returns the query to place (the input
// itself, or a canonical full-row pipeline standing in for it), or nil
// when the submission attached to an existing pipeline and nothing new
// needs placing. Every submission gets a class — even with all sharing
// off its fan-out is what its completions leave through, and what makes
// Unsubscribe able to find and tear down the pipeline later.
func (e *Engine) shareSubmit(s *subscription) *query.Query {
	q := s.q
	if q.OneTime {
		// One-time snapshots never share: they keep no standing state to
		// share, and an attacher's snapshot semantics would differ. The
		// class claims no key, so nothing ever attaches.
		e.openClass(&shareClass{query: q}, s)
		return q
	}
	sql := q.String()
	if cls := e.bySQL[sql]; cls != nil && e.canAttach(cls, q) {
		e.attach(cls, s)
		return nil
	}
	if can, ok := share.Canonicalize(q, e.Cfg.Catalog); ok {
		if cls := e.byForm[can.Form]; cls != nil {
			e.attach(cls, s)
			return nil
		}
		return e.openCanonical(can, s, sql)
	}
	// No sharing possible: the query is its own singleton class and its
	// own pipeline.
	e.openClass(&shareClass{sql: sql, query: q}, s)
	return q
}

// openClass opens a class with its first member, whose QID names the
// pipeline, and claims the class's keys where they are free (a key can
// be taken when sharing declined to attach, e.g. a DISTINCT duplicate
// of a non-canonical class). A placed canonical class becomes a
// candidate containment parent.
func (e *Engine) openClass(cls *shareClass, first *subscription) {
	cls.pipe, cls.members = first, []*subscription{first}
	first.cls, first.rides = cls, cls
	if cls.sql != "" && e.bySQL[cls.sql] == nil {
		e.bySQL[cls.sql] = cls
	}
	if cls.form != "" && e.byForm[cls.form] == nil {
		e.byForm[cls.form] = cls
	}
	if cls.can != nil && cls.parent == nil {
		e.parents = append(e.parents, cls)
	}
}

// canAttach reports whether a new subscriber may ride an existing
// class's pipeline. Sharing must be enabled; mid-stream attachment is
// only sound when completions cannot happen on the attach tick itself
// (ShareExact is gated on MinHopDelay >= 1 by the caller). DISTINCT
// queries may not attach to a non-canonical pipeline: that pipeline
// suppresses repeated trigger projections in-network, so a late
// attacher would silently miss rows that are first-time answers for
// it. Canonical pipelines carry no DISTINCT marker — set semantics are
// enforced per-subscriber at the owner — so they are safe for anyone. A
// one-time class claims no SQL key, so it is never a candidate.
func (e *Engine) canAttach(cls *shareClass, q *query.Query) bool {
	if !e.Cfg.ShareExact && e.Cfg.Catalog == nil {
		return false
	}
	if q.Distinct && cls.can == nil {
		return false
	}
	return true
}

// attach adds a member to an existing class, which is shared from then
// on. For a canonical class the member's residual (predicates over
// constants, projection) is extracted against the class form, which
// its query canonicalized to or whose SQL it repeats; for an exact
// class the residual is nil and rows pass through unchanged.
func (e *Engine) attach(cls *shareClass, s *subscription) {
	if cls.can != nil {
		s.res = cls.can.ResidualOf(s.q)
	}
	cls.members = append(cls.members, s)
	cls.shared = true
	s.rides = cls
	e.Counters.QueriesShared++
}

// openCanonical opens a new canonical class for s, with its residual
// against can. If a placed class's form can strictly contains, the new
// class becomes a containment child: it places no pipeline of its own
// (the parent's completions are replayed through it) and the function
// returns nil. Otherwise the canonical full-row pipeline is returned
// for placement.
func (e *Engine) openCanonical(can *share.Canonical, s *subscription, sql string) *query.Query {
	q := s.q
	s.res = can.ResidualOf(q)
	pipe := can.Pipeline()
	pipe.ID = q.ID
	pipe.Owner = q.Owner
	pipe.InsertTime = q.InsertTime
	pipe.Depth = 0
	pipe.MinPub = math.MaxInt64
	cls := &shareClass{sql: sql, form: can.Form, can: can, shared: true, query: pipe}
	if parent := e.findParent(can); parent != nil {
		cls.parent, cls.rels = parent, parent.can.RelSlices()
		parent.kids = append(parent.kids, cls)
		e.openClass(cls, s)
		e.Counters.QueriesShared++
		return nil
	}
	e.openClass(cls, s)
	return pipe
}

// findParent returns the containment parent of a new canonical form:
// of the placed classes whose form can strictly contains, the one
// covering the most relations, ties broken by creation order, so the
// choice is deterministic.
func (e *Engine) findParent(can *share.Canonical) *shareClass {
	var best *shareClass
	for _, cls := range e.parents {
		if can.Contains(cls.can) && (best == nil || len(cls.can.Rels) > len(best.can.Rels)) {
			best = cls
		}
	}
	return best
}

// Unsubscribe removes a live subscription: the subscriber leaves its
// class, its owner-side answer and aggregate state is released, and —
// when it was the class's last member — the pipeline itself is torn
// down network-wide. Safe under churn and replication: a retired record
// and a pipeline record naming no class make every resurrection path
// (handover, replica promotion, crash recovery) skip the state they
// name, and in-flight messages for them are dropped at their
// destination.
func (e *Engine) Unsubscribe(subQID string) error {
	s := e.sub(subQID)
	if s == nil || s.retired() {
		return fmt.Errorf("core: unknown or already-removed subscription %s", subQID)
	}
	cls := s.rides
	cls.members = remove(cls.members, s)
	e.retireSub(s)
	e.Counters.QueriesUnsubscribed++
	e.sweepState(classAggs, func(op stateOp) bool { return op.g.sub == s })
	e.settle(cls)
	return nil
}

// settle tears down a class a member or kid left once nothing rides it
// any more: its pipeline's record stops naming it, its keys are
// released, its stored rewrites are swept off every node, and a
// containment child detaches from its parent, which settles in turn.
func (e *Engine) settle(cls *shareClass) {
	if len(cls.members) > 0 || len(cls.kids) > 0 {
		return
	}
	cls.pipe.cls = nil
	if e.bySQL[cls.sql] == cls {
		delete(e.bySQL, cls.sql)
	}
	if e.byForm[cls.form] == cls {
		delete(e.byForm, cls.form)
	}
	// The input query and all its rewrites share the pipeline's QID, and
	// so do the rewrites a containment child's replays placed.
	qid := cls.pipe.q.ID
	e.sweepState(classQueries|classPending, func(op stateOp) bool { return op.stored().q.ID == qid })
	if cls.parent == nil {
		e.parents = remove(e.parents, cls)
		return
	}
	cls.parent.kids = remove(cls.parent.kids, cls)
	e.settle(cls.parent)
}

// remove deletes x's first occurrence from list, keeping the order.
func remove[T comparable](list []T, x T) []T {
	if i := slices.Index(list, x); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// retiredOp reports whether a state entry belongs to a torn-down
// pipeline (stored queries and placement walks carry its QID) or an
// unsubscribed aggregate (its aggregator groups): every resurrection
// path — handover, replica promotion, crash recovery — skips such
// entries, and no loss counter charges them.
func (e *Engine) retiredOp(op stateOp) bool {
	if sq := op.stored(); sq != nil {
		return sq.tornDown()
	}
	return op.kind == opAggMerge && op.g.sub.retired()
}

// sweepState removes the matching entries of the wanted classes from
// every node in deterministic node/entry order, charging each removal
// to the replica group. Stragglers still in flight are caught by the
// tornDown and retired checks when they arrive.
func (e *Engine) sweepState(want class, match func(stateOp) bool) {
	for _, n := range e.ring.Nodes() { // identifier order: deterministic
		if p := e.procs[n.ID()]; p != nil && p.st.sweep(want, match) {
			p.replFlush() // coordinator context: ship the removals now
		}
	}
}

// fanoutComplete delivers one completed pipeline row through its
// class's fan-out: each member whose insertion time the row
// predates is skipped (a subscriber may only see rows whose every
// tuple was published at or after its own insertion — exactly the
// reference semantics), each residual predicate is evaluated, the
// subscriber-shaped projection is built, and the row ships to the
// subscriber — or into its per-subscriber aggregation pipeline. Only a
// shared class's rows count as fan-out rows. Then every containment
// child replays the row through its own pipeline.
// lin is the completed row's provenance (nil unless Config.Provenance):
// every subscriber's copy of the row shares it, and containment replays
// inherit it — the child's rows are built from exactly the parent
// row's base tuples.
func (p *Proc) fanoutComplete(now sim.Time, cls *shareClass, c completion) {
	for _, s := range cls.members {
		if c.minPub < s.since() {
			continue
		}
		if s.res != nil && !s.res.Eval(c.vals) {
			continue
		}
		row := c
		if s.res != nil {
			row.vals = s.res.AppendProject(p.sc.fan[:0], c.vals)
			p.sc.fan = row.vals
		}
		if cls.shared {
			p.ctr.SharedFanoutRows++
			if ob := p.eng.obs; ob != nil {
				ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindFanoutRow, QID: s.q.ID})
			}
		}
		p.emitTo(now, s.q.ID, id.ID(s.q.Owner), s.spec, row)
	}
	for _, kid := range cls.kids {
		if c.minPub < kid.pipe.q.InsertTime {
			continue
		}
		p.spawnContainment(now, kid, c)
	}
}

// spawnContainment replays a completed parent-class row through a
// containment child's pipeline: one pseudo-tuple per parent relation
// (carved out of the full row by the parent's layout) is substituted
// in sequence, enforcing along the way any conjunct the child is
// stricter about, and the resulting partial rewrite — depth equal to
// the parent's relation count, with the child's remaining relations
// still open — is dispatched from the completion node exactly as a
// locally triggered rewrite would be. The pseudo-tuples carry the
// row's minimum publication time so downstream subscriber filtering
// stays exact; they are never stored, only substituted.
func (p *Proc) spawnContainment(now sim.Time, kid *shareClass, c completion) {
	sq := newEntry()
	sq.pipe = kid.pipe
	cur := kid.query
	for i, rs := range kid.rels {
		t := relation.MustTuple(rs.Schema, c.vals[rs.Off:rs.Off+rs.Schema.Arity()]...)
		t.PubTime = c.minPub
		next := sq.q // the last substitution writes the entry's query
		if i+1 < len(kid.rels) {
			next = new(query.Query)
		}
		if !query.RewriteInto(next, cur, t) {
			return // a child-stricter conjunct rejected the row
		}
		cur = next
	}
	cur.MinPub = c.minPub
	cur.AggClock = c.clock
	// The pseudo-tuples are carved out of the parent row, so the
	// replayed rewrite's provenance is the parent row's, not new steps.
	cur.Lineage = c.lin
	p.ctr.ContainmentRewrites++
	p.dispatch(now, sq)
}
