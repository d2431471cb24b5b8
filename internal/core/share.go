package core

// This file wires the multi-query sharing subsystem (internal/share)
// into the engine: submission-time registration/attachment, the
// completion-node fan-out, containment replay, and the unsubscribe /
// teardown path. Every submission registers a class — a query nothing
// shares with is a class of one — and publishes its fan-out on the
// subscription record of the QID naming the pipeline (subs.go), which
// every stored entry of the pipeline points at: every completed row
// leaves through a fan-out, and a pipeline is live exactly while that
// record holds one. The registry and the fan-outs are written
// only from coordinator context (SubmitQuery, Unsubscribe run between
// drains); handlers read them lock-free, exactly like the rest of the
// record. A fan-out is an immutable snapshot replaced wholesale on every
// membership change, so a handler either sees the old one or the new
// one, never a partially updated list.

import (
	"fmt"
	"math"

	"rjoin/internal/id"
	"rjoin/internal/obs"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/share"
	"rjoin/internal/sim"
)

// shareSubmit registers a freshly stamped input query with the sharing
// registry and decides what to index: it returns the query to place
// (the input itself, or a canonical full-row pipeline standing in for
// it), or nil when the submission attached to an existing pipeline and
// nothing new needs placing. Every submission is registered — even with
// all sharing off its class's fan-out is what its completions leave
// through, and what makes Unsubscribe able to find and tear down the
// pipeline later.
func (e *Engine) shareSubmit(q *query.Query) *query.Query {
	sub := &share.Subscriber{QID: q.ID, Owner: q.Owner, InsertTime: q.InsertTime, Spec: e.sub(q.ID).spec}
	if q.OneTime {
		// One-time snapshots never share: they keep no standing state to
		// share, and an attacher's snapshot semantics would differ.
		// Registered with no Exact key so nothing ever attaches. Its rows
		// combine tuples published before it: no insertion-time cutoff.
		sub.InsertTime = math.MinInt64
		e.register(&share.Class{QID: q.ID, Pipeline: q}, sub)
		return q
	}
	exact := q.String()
	if cls := e.reg.LookupExact(exact); cls != nil && e.canAttach(cls, q) {
		e.attach(cls, sub, q)
		return nil
	}
	if e.Cfg.ShareQueries {
		if can, ok := share.Canonicalize(q, e.Cfg.Catalog); ok {
			if cls := e.reg.LookupForm(can.Form); cls != nil {
				e.attach(cls, sub, q)
				return nil
			}
			return e.registerCanonical(can, sub, q, exact)
		}
	}
	// No sharing possible: the query is its own singleton class and its
	// own pipeline.
	e.register(&share.Class{QID: q.ID, Exact: exact, Pipeline: q}, sub)
	return q
}

// register opens a class with its first subscriber and publishes its
// fan-out.
func (e *Engine) register(cls *share.Class, first *share.Subscriber) {
	e.reg.Register(cls, first)
	e.publish(cls)
}

// publish swaps the class's current fan-out onto the record of the QID
// naming its pipeline.
func (e *Engine) publish(cls *share.Class) { e.sub(cls.QID).fo = cls.Snapshot() }

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
func (e *Engine) canAttach(cls *share.Class, q *query.Query) bool {
	if !e.Cfg.ShareExact && !e.Cfg.ShareQueries {
		return false
	}
	if q.Distinct && cls.Can == nil {
		return false
	}
	return true
}

// attach adds a subscriber to an existing class and publishes the
// refreshed fan-out snapshot. For canonical classes the subscriber's
// residual (predicates over constants, projection) is extracted
// against the class form, which q canonicalized to or whose SQL it
// repeats; for exact classes the residual is nil and rows pass through
// unchanged.
func (e *Engine) attach(cls *share.Class, sub *share.Subscriber, q *query.Query) {
	if cls.Can != nil {
		sub.Res = cls.Can.ResidualOf(q)
	}
	e.reg.Attach(cls, sub)
	e.publish(cls)
	e.Counters.QueriesShared++
}

// registerCanonical opens a new canonical equivalence class for q,
// with q's residual against can. If an existing class's join graph is
// a strict prefix of can's, the new class becomes a containment child:
// it places no pipeline of its own (the parent's completions are
// replayed through it) and the function returns nil. Otherwise the
// canonical full-row pipeline is returned for placement.
func (e *Engine) registerCanonical(can *share.Canonical, sub *share.Subscriber, q *query.Query, exact string) *query.Query {
	sub.Res = can.ResidualOf(q)
	pipe := can.Pipeline()
	pipe.ID = q.ID
	pipe.Owner = q.Owner
	pipe.InsertTime = q.InsertTime
	pipe.Depth = 0
	pipe.MinPub = math.MaxInt64
	cls := &share.Class{
		QID: q.ID, Exact: exact, Form: can.Form,
		Shared: true, Pipeline: pipe, Can: can,
	}
	if parent := e.reg.FindParent(can); parent != nil {
		cls.Parent = parent
		parent.Kids = append(parent.Kids, &share.Kid{
			QID: q.ID, Pipeline: pipe, InsertTime: q.InsertTime,
			Rels: parent.Can.RelSlices(),
		})
		e.register(cls, sub)
		e.publish(parent)
		e.Counters.QueriesShared++
		return nil
	}
	e.register(cls, sub)
	return pipe
}

// Unsubscribe removes a live subscription: the subscriber leaves its
// class's fan-out, its owner-side answer and aggregate state is
// released, and — when it was the class's last member — the pipeline
// itself is torn down network-wide. Safe under churn and replication:
// a retired record and a record without a fan-out make every
// resurrection path (handover, replica promotion, crash recovery) skip
// the state they name, and in-flight messages for them are dropped at
// their destination.
func (e *Engine) Unsubscribe(subQID string) error {
	cls := e.reg.Detach(subQID)
	if cls == nil {
		return fmt.Errorf("core: unknown or already-removed subscription %s", subQID)
	}
	e.retireSub(subQID)
	e.Counters.QueriesUnsubscribed++
	s := e.sub(subQID)
	e.sweepState(classAggs, func(op stateOp) bool { return op.g.sub == s })
	e.settle(cls)
	return nil
}

// settle publishes the fan-out of a class a member left, or — when
// nothing references it any more — tears it down: its pipeline's record
// loses its fan-out, its stored rewrites are swept off every node, and a
// containment child detaches from its parent, which settles in turn.
func (e *Engine) settle(cls *share.Class) {
	if !cls.Empty() {
		e.publish(cls)
		return
	}
	e.sub(cls.QID).fo = nil
	e.reg.Drop(cls)
	// The input query and all its rewrites share the pipeline's QID, and
	// so do the rewrites a containment child's replays placed.
	e.sweepState(classQueries|classPending, func(op stateOp) bool { return op.stored().q.ID == cls.QID })
	if cls.Parent != nil {
		e.reg.DetachKid(cls.Parent, cls.QID)
		e.settle(cls.Parent)
	}
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
	return op.kind == opAggMerge && op.g.sub.retired
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

// fanoutComplete delivers one completed pipeline row through the
// class's fan-out table: each subscriber whose insertion time the row
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
func (p *Proc) fanoutComplete(now sim.Time, fo *share.Fanout, c completion) {
	for i := range fo.Subs {
		s := &fo.Subs[i]
		if c.minPub < s.InsertTime {
			continue
		}
		if s.Res != nil && !s.Res.Eval(c.vals) {
			continue
		}
		row := c
		if s.Res != nil {
			row.vals = s.Res.AppendProject(p.sc.fan[:0], c.vals)
			p.sc.fan = row.vals
		}
		if fo.Shared {
			p.ctr.SharedFanoutRows++
			if ob := p.eng.obs; ob != nil {
				ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindFanoutRow, QID: s.QID})
			}
		}
		p.emitTo(now, s.QID, id.ID(s.Owner), s.Spec, row)
	}
	for _, kid := range fo.Kids {
		if c.minPub < kid.InsertTime {
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
func (p *Proc) spawnContainment(now sim.Time, kid *share.Kid, c completion) {
	sq := newEntry()
	sq.pipe = p.eng.sub(kid.QID)
	cur := kid.Pipeline
	for i, rs := range kid.Rels {
		t := relation.MustTuple(rs.Schema, c.vals[rs.Off:rs.Off+rs.Schema.Arity()]...)
		t.PubTime = c.minPub
		next := sq.q // the last substitution writes the entry's query
		if i+1 < len(kid.Rels) {
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
