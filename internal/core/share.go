package core

// This file wires the multi-query sharing subsystem (internal/share)
// into the engine: submission-time registration/attachment, the
// completion-node fan-out, containment replay, and the unsubscribe /
// teardown path. The registry, the fan-out tables and the retired-pipeline
// tombstones are written only from coordinator context (SubmitQuery,
// Unsubscribe run between drains); handlers read them lock-free, exactly
// like the subscription records (subs.go). Fan-out tables are immutable
// snapshots replaced wholesale on every membership change, so a handler
// either sees the old table or the new one, never a partially updated
// list.

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

// fanoutOf returns the completion fan-out of a shared pipeline, nil for
// pipelines that deliver to exactly their own QID (the legacy path —
// byte-identical behaviour to the pre-sharing engine).
func (e *Engine) fanoutOf(qid string) *share.Fanout { return e.fanouts[qid] }

// retiredPipeline reports whether qid names a torn-down shared
// pipeline: its straggler rewrites must be dropped, not re-indexed.
func (e *Engine) retiredPipeline(qid string) bool { return e.retiredQ[qid] }

// shareSubmit registers a freshly stamped input query with the sharing
// registry and decides what to index: it returns the query to place
// (the input itself, or a canonical full-row pipeline standing in for
// it), or nil when the submission attached to an existing pipeline and
// nothing new needs placing. Every submission is registered — even with
// all sharing off the class bookkeeping is what makes Unsubscribe able
// to find and tear down the pipeline later.
func (e *Engine) shareSubmit(q *query.Query) *query.Query {
	sub := &share.Subscriber{QID: q.ID, Owner: q.Owner, InsertTime: q.InsertTime}
	if q.OneTime {
		// One-time snapshots never share: they keep no standing state to
		// share, and an attacher's snapshot semantics would differ.
		// Registered with no Exact key so nothing ever attaches.
		e.reg.Register(&share.Class{QID: q.ID, Pipeline: q}, sub)
		return q
	}
	exact := q.String()
	if cls := e.reg.LookupExact(exact); cls != nil && e.canAttach(cls, q) {
		if e.attach(cls, sub, q) {
			return nil
		}
	}
	if e.Cfg.ShareQueries {
		if can, ok := share.Canonicalize(q, e.Cfg.Catalog); ok {
			if cls := e.reg.LookupForm(can.Form); cls != nil && cls.Canonical {
				if e.attach(cls, sub, q) {
					return nil
				}
			} else if pipe := e.registerCanonical(can, sub, q, exact); pipe != nil {
				return pipe
			} else if e.reg.ClassOf(q.ID) != nil {
				return nil // containment child: registered, nothing placed
			}
		}
	}
	// No sharing possible: the query is its own singleton class and its
	// own pipeline.
	e.reg.Register(&share.Class{QID: q.ID, Exact: exact, Pipeline: q}, sub)
	return q
}

// canAttach reports whether a new subscriber may ride an existing
// class's pipeline. Sharing must be enabled; mid-stream attachment is
// only sound when completions cannot happen on the attach tick itself
// (ShareExact is gated on MinHopDelay >= 1 by the caller). DISTINCT
// queries may not attach to a non-canonical pipeline: that pipeline
// suppresses repeated trigger projections in-network, so a late
// attacher would silently miss rows that are first-time answers for
// it. Canonical pipelines carry no DISTINCT marker — set semantics are
// enforced per-subscriber at the owner — so they are safe for anyone.
func (e *Engine) canAttach(cls *share.Class, q *query.Query) bool {
	if !e.Cfg.ShareExact && !e.Cfg.ShareQueries {
		return false
	}
	if cls.Pipeline == nil || cls.Pipeline.OneTime {
		return false
	}
	if q.Distinct && !cls.Canonical {
		return false
	}
	return true
}

// attach adds a subscriber to an existing class and publishes the
// refreshed fan-out snapshot. For canonical classes the subscriber's
// residual (predicates over constants, projection) is extracted
// against the class form; for exact classes the residual is nil and
// rows pass through unchanged. Returns false if the residual cannot be
// built (a column outside the form — impossible for queries that
// canonicalized to it, kept as a safe fallback).
func (e *Engine) attach(cls *share.Class, sub *share.Subscriber, q *query.Query) bool {
	if cls.Canonical {
		res, ok := cls.Can.ResidualOf(q)
		if !ok {
			return false
		}
		sub.Res = res
	}
	e.reg.Attach(cls, sub)
	e.fanouts[cls.QID] = cls.Snapshot()
	e.Counters.QueriesShared++
	return true
}

// registerCanonical opens a new canonical equivalence class for q. If
// an existing class's join graph is a strict prefix of can's, the new
// class becomes a containment child: it places no pipeline of its own
// (the parent's completions are replayed through it) and the function
// returns nil. Otherwise the canonical full-row pipeline is returned
// for placement. A nil return with no registered class means the
// residual could not be built and the caller should fall back to a
// singleton.
func (e *Engine) registerCanonical(can *share.Canonical, sub *share.Subscriber, q *query.Query, exact string) *query.Query {
	res, ok := can.ResidualOf(q)
	if !ok {
		return nil
	}
	sub.Res = res
	pipe := can.Pipeline()
	pipe.ID = q.ID
	pipe.Owner = q.Owner
	pipe.InsertTime = q.InsertTime
	pipe.Depth = 0
	pipe.MinPub = math.MaxInt64
	cls := &share.Class{
		QID: q.ID, Exact: exact, Form: can.Form,
		Canonical: true, Pipeline: pipe, Can: can,
	}
	if parent := e.reg.FindParent(can); parent != nil {
		cls.Parent = parent
		parent.Kids = append(parent.Kids, &share.Kid{
			QID: q.ID, Pipeline: pipe, InsertTime: q.InsertTime,
			Rels: parent.Can.RelSlices(),
		})
		e.reg.Register(cls, sub)
		e.fanouts[q.ID] = cls.Snapshot()
		e.fanouts[parent.QID] = parent.Snapshot()
		e.Counters.QueriesShared++
		return nil
	}
	e.reg.Register(cls, sub)
	e.fanouts[q.ID] = cls.Snapshot()
	return pipe
}

// Unsubscribe removes a live subscription: the subscriber leaves its
// class's fan-out, its owner-side answer and aggregate state is
// released, and — when it was the class's last member — the shared
// pipeline itself is torn down network-wide. Safe under churn and
// replication: the retired marks make every resurrection path
// (handover, replica promotion, crash recovery) skip retired state, and
// in-flight messages for retired IDs are dropped at their destination.
func (e *Engine) Unsubscribe(subQID string) error {
	cls := e.reg.Detach(subQID)
	if cls == nil {
		return fmt.Errorf("core: unknown or already-removed subscription %s", subQID)
	}
	e.retireSub(subQID)
	e.Counters.QueriesUnsubscribed++
	e.sweepState(classAggs, func(op stateOp) bool { return op.g.qid == subQID })
	if cls.Empty() {
		e.teardownClass(cls)
	} else {
		e.fanouts[cls.QID] = cls.Snapshot()
	}
	return nil
}

// teardownClass retires a class nobody references any more: its
// pipeline QID is tombstoned, its stored rewrites are swept off every
// node, and a containment child detaches from its parent (cascading if
// the parent thereby empties).
func (e *Engine) teardownClass(cls *share.Class) {
	e.retiredQ[cls.QID] = true
	delete(e.fanouts, cls.QID)
	e.reg.Drop(cls)
	if cls.Parent != nil {
		// Containment children place no pipeline: detaching from the
		// parent's fan-out is the whole teardown.
		e.reg.DetachKid(cls.Parent, cls.QID)
		if cls.Parent.Empty() {
			e.teardownClass(cls.Parent)
		} else {
			e.fanouts[cls.Parent.QID] = cls.Parent.Snapshot()
		}
		return
	}
	// The input query and all its rewrites share the pipeline's QID.
	e.sweepState(classQueries|classPending, func(op stateOp) bool { return op.query().ID == cls.QID })
}

// retiredOp reports whether a state entry belongs to a torn-down
// pipeline (stored queries and placement walks carry its QID) or an
// unsubscribed aggregate (its aggregator groups): every resurrection
// path — handover, replica promotion, crash recovery — skips such
// entries, and no loss counter charges them.
func (e *Engine) retiredOp(op stateOp) bool {
	if q := op.query(); q != nil {
		return e.retiredQ[q.ID]
	}
	return op.kind == opAggMerge && e.retiredSub(op.g.qid)
}

// sweepState removes the matching entries of the wanted classes from
// every node in deterministic node/entry order, charging each removal
// to the replica group. Stragglers still in flight are caught by the
// retiredQ/retiredS guards when they arrive.
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
// subscriber — or into its per-subscriber aggregation pipeline. Then
// every containment child replays the row through its own pipeline.
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
			row.vals = s.Res.Project(c.vals)
		}
		p.ctr.SharedFanoutRows++
		if ob := p.eng.obs; ob != nil {
			ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindFanoutRow, QID: s.QID})
		}
		p.emitTo(now, s.QID, id.ID(s.Owner), p.eng.aggSpec(s.QID), row)
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
	p.dispatch(now, sq, c.pubAt)
}
