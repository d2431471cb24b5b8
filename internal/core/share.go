package core

// This file keeps the engine's multi-query sharing classes. Every
// submission belongs to one class — a query nothing shares with is a
// class of one — whose pipeline is named by its first member's QID:
// that QID's subscription record (subs.go) names the class, every
// stored entry of the pipeline points at the record (storedQuery.pipe),
// and the pipeline is live exactly while the record names a class.
// Every member's record points at the class it rides and holds its own
// residual (internal/share computes it against the class's canonical
// form). Every completed row leaves through the class's fan-out to its
// members (fanoutComplete).
//
// Classes are written only in coordinator context — SubmitQuery and
// Unsubscribe run between drains, never beside a handler — and handlers
// read them without a lock and without a copy: the drain barrier orders
// every write before the next handler that reads it, exactly as it does
// for the records themselves. The one field a handler writes is a
// class's same-tick mark (shareClass.fresh), an atomic store.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

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
	// canonical full-row one.
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
	// members, in attach order, are the records of the queries riding
	// the pipeline.
	members []*subscription
	// fresh is one past the last tick on which the fan-out delivered a
	// row whose every tuple was published on that tick (0: none yet). A
	// subscriber inserted on that tick would have been owed the row, so
	// canAttach refuses the class until the clock moves on. Handlers of
	// several shards may store it in one sub-round.
	fresh atomic.Int64
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
	if cls := e.bySQL[sql]; e.canAttach(cls, q) {
		e.attach(cls, s)
		return nil
	}
	can, ok := share.Canonicalize(q, e.Cfg.Catalog)
	if !ok {
		// No sharing possible: the query is its own singleton class and
		// its own pipeline.
		e.openClass(&shareClass{sql: sql, query: q}, s)
		return q
	}
	if cls := e.byForm[can.Form]; e.canAttach(cls, q) {
		e.attach(cls, s)
		return nil
	}
	// The first member of a canonical class: its residual is taken
	// against the form, and the form's full-row pipeline is placed in
	// its stead.
	s.res = can.ResidualOf(q)
	pipe := can.Pipeline()
	pipe.ID, pipe.Owner, pipe.InsertTime = q.ID, q.Owner, q.InsertTime
	pipe.MinPub = math.MaxInt64
	e.openClass(&shareClass{sql: sql, form: can.Form, can: can, shared: true, query: pipe}, s)
	return pipe
}

// openClass opens a class with its first member, whose QID names the
// pipeline, and claims the class's keys where they are free (a key can
// be taken when sharing declined to attach, e.g. a DISTINCT duplicate
// of a non-canonical class).
func (e *Engine) openClass(cls *shareClass, first *subscription) {
	cls.pipe, cls.members = first, []*subscription{first}
	first.cls, first.rides = cls, cls
	if cls.sql != "" && e.bySQL[cls.sql] == nil {
		e.bySQL[cls.sql] = cls
	}
	if cls.form != "" && e.byForm[cls.form] == nil {
		e.byForm[cls.form] = cls
	}
}

// canAttach reports whether a new subscriber may ride a live class's
// pipeline (nil: none under the key). A member sees exactly the rows
// fanned out after it attached whose every tuple was published at or
// after its insertion tick (fanoutComplete's since filter), so an
// attach is exact unless the class already fanned out such a row on
// this very tick, which a node-local delivery, taking zero ticks, makes
// possible; then the subscriber places its own pipeline. DISTINCT
// queries may not attach to a non-canonical pipeline: that pipeline
// suppresses repeated trigger projections in-network, so a late
// attacher would silently miss rows that are first-time answers for
// it. Canonical pipelines carry no DISTINCT marker — set semantics are
// enforced per-subscriber at the owner — so they are safe for anyone. A
// one-time class claims no key, so it is never a candidate.
func (e *Engine) canAttach(cls *shareClass, q *query.Query) bool {
	if cls == nil || cls.fresh.Load() == int64(e.sim.Now())+1 {
		return false
	}
	return !q.Distinct || cls.can != nil
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

// Unsubscribe removes a live subscription: the subscriber leaves its
// class, its owner-side answer state is released, its aggregator groups
// are removed from the nodes holding them, and — when it was the
// class's last member — the pipeline itself is torn down. Both removals
// visit only the entries the records list, and leave no state holding
// an entry of a retired subscriber or a torn-down pipeline, so no
// membership move meets one; a message still in flight for them is
// dropped at its destination.
func (e *Engine) Unsubscribe(subQID string) error {
	s := e.sub(subQID)
	if s == nil || s.retired() {
		return fmt.Errorf("core: unknown or already-removed subscription %s", subQID)
	}
	cls := s.rides
	cls.members = slices.DeleteFunc(cls.members, func(m *subscription) bool { return m == s })
	e.retireSub(s)
	e.Counters.QueriesUnsubscribed++
	e.release(s)
	e.settle(cls)
	return nil
}

// settle tears down a class a member left once nothing rides it any
// more: its pipeline's record stops naming it, its keys are released,
// and the stored queries and placement walks its record lists — the
// input query and its rewrites — are removed.
func (e *Engine) settle(cls *shareClass) {
	if len(cls.members) > 0 {
		return
	}
	cls.pipe.cls = nil
	if e.bySQL[cls.sql] == cls {
		delete(e.bySQL, cls.sql)
	}
	if e.byForm[cls.form] == cls {
		delete(e.byForm, cls.form)
	}
	e.release(cls.pipe)
}

// release removes what s lists that no state may hold any more — a
// retired subscriber's aggregator groups, a torn-down pipeline's stored
// queries and placement walks — from the nodes that hold them: a keyed
// entry from its key's ring owner (invariant I3), a placement from its
// origin, one replica op each (state.drop), and a rewrite's entry to
// the engine's free list. Then every node it touched ships its removals
// in one batch, in identifier order, as a handler's trailing flush
// would.
func (e *Engine) release(s *subscription) {
	var touched []*Proc
	drop := func(p *Proc, op stateOp) {
		sq := op.stored()
		p.st.drop(op)
		e.free.put(sq)
		touched = append(touched, p)
	}
	owner := func(key relation.Key) *Proc { return e.procs[e.ring.Owner(key.ID()).ID()] }
	if s.retired() {
		for _, g := range s.groups {
			drop(owner(g.key), stateOp{kind: opAddAgg, key: g.key, g: g})
		}
		s.groups = nil
	}
	if s.cls == nil {
		for _, sq := range s.queries {
			drop(owner(sq.key), stateOp{kind: opAddQuery, key: sq.key, sq: sq})
		}
		for _, pp := range s.pending {
			drop(pp.origin, stateOp{kind: opAddPending, pp: pp})
		}
		s.queries, s.pending = nil, nil
	}
	slices.SortFunc(touched, func(a, b *Proc) int { return cmp.Compare(a.node.ID(), b.node.ID()) })
	for _, p := range touched {
		p.replFlush() // coordinator context: a second call for a node finds nothing
	}
}

// fanoutComplete delivers one completed pipeline row through its
// class's fan-out: each member whose insertion time the row
// predates is skipped (a subscriber may only see rows whose every
// tuple was published at or after its own insertion — exactly the
// reference semantics), each residual predicate is evaluated, the
// subscriber-shaped projection is built, and the row ships to the
// subscriber — or into its per-subscriber aggregation pipeline. Only a
// shared class's rows count as fan-out rows. lin is the completed row's
// provenance (nil unless Config.Provenance): every subscriber's copy of
// the row shares it. A row whose every tuple was published on this tick
// first marks the class fresh, which closes it to attaches until the
// clock moves on (canAttach).
func (p *Proc) fanoutComplete(now sim.Time, cls *shareClass, c completion) {
	if c.minPub >= int64(now) {
		cls.fresh.Store(int64(now) + 1)
	}
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
}
