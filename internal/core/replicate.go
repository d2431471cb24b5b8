package core

import (
	"slices"

	"rjoin/internal/id"
	"rjoin/internal/sim"
)

// This file implements durable state replication over ring-successor
// replica groups. Every key a node owns shares the same replica group —
// the node plus its ReplicationFactor−1 ring successors — so each node
// mirrors its keyed RJoin state (stored queries with their DISTINCT
// projection memory, value-level tuples, ALTT entries, candidate-table
// entries, aggregator group partials, placement walks) into one copy
// per replica target. The model is a primary-backup protocol that
// acknowledges a mutation only once its backups hold it, and the
// implementation is that model taken literally: the copies live in the
// origin's own Proc (Proc.mirrors, keyed by the target that holds them),
// a handler's logged mutations are applied to every copy when the
// handler returns, and the wire cost — one message per target per batch
// — is charged under overlay.TagRepl without anything being scheduled.
// There is no instant at which a copy is behind its primary, so nothing
// has to survive one.
//
// That is shard-safe by construction: a mirror is written only by its
// origin's handlers (the origin's shard) and by coordinator-context
// membership code, and no handler of the holder ever reads one — a
// mirror is a passive state, consulted only by CrashNode.
//
// On a crash, the surviving replica the ring now routes the dead node's
// keys to — its first live successor — promotes its mirror inside
// CrashNode: the dead node's state is re-indexed at its exact keys and
// re-replicated to the promotee's own targets, instead of being counted
// lost. Graceful leaves and runtime joins keep groups consistent
// through the handover hooks (merged state re-replicates at its new
// owner, moved keys are dropped from the old owner's mirrors), and every
// membership change ends in a repair pass that diffs each node's
// replica targets against its replica group (replGroup: ring ground
// truth, never a node's own successor pointers), copying the full state
// to every new member and discarding the copies former members held.

// replFlush applies the handler batch to the mirror at every replica
// target and charges one message per target. The ops slice is shared
// read-only across the targets; a mirror clones what it applies. Runs
// at the end of every message handler and after coordinator-side
// mutations (promotion, handover construction).
func (p *Proc) replFlush() {
	if len(p.st.outbox) == 0 {
		return
	}
	ops := p.st.outbox
	p.st.outbox = nil
	if len(p.targets) == 0 {
		// No replica group exists (ring smaller than the factor); the
		// repair pass copies everything when one forms.
		return
	}
	p.ctr.ReplUpdates += int64(len(p.targets))
	p.ctr.ReplOps += int64(len(ops) * len(p.targets))
	p.eng.net.ReplicateTo(p.node, p.targets)
	for _, tgt := range p.targets {
		m := p.mirrorAt(tgt)
		for _, op := range ops {
			m.apply(op)
		}
	}
}

// mirrorAt returns the mirror replica target tgt holds of p, creating
// it on first use: a node that never stores anything costs its replicas
// nothing.
func (p *Proc) mirrorAt(tgt id.ID) *state {
	m := p.mirrors[tgt]
	if m == nil {
		m = newMirror(p.eng.aggSpec)
		p.mirrors[tgt] = m
	}
	return m
}

// ---------------------------------------------------------------------
// Group maintenance: repair, snapshots, promotion.

// replGroup returns the replica group of the node at identifier nid,
// primary excluded: the ReplicationFactor−1 alive nodes that follow nid
// in ring order, head first. The head is the node the ring routes nid's
// keys to once nid is gone. It is ring ground truth, so it is the same
// group before and after nid fails and never lags a join.
func (e *Engine) replGroup(nid id.ID) []id.ID {
	succs := e.ring.SuccessorList(nid, e.Cfg.ReplicationFactor-1)
	out := make([]id.ID, len(succs))
	for i, s := range succs {
		out[i] = s.ID()
	}
	return out
}

// replRepair reconciles every node's replica targets with its replica
// group after a membership change: the mirror a former member held is
// discarded, a new member receives a full state snapshot. Runs in
// coordinator context (no handler in flight) at the end of every
// membership operation; on a static ring it settles immediately into
// no-ops. The scan is whole-ring rather than limited to the changed
// node's k−1 predecessors: only they can differ, and the full diff
// costs O(N·k) work per membership event — noise at simulation scale.
func (e *Engine) replRepair() {
	if e.Cfg.ReplicationFactor < 2 {
		return
	}
	for _, n := range e.ring.Nodes() { // identifier order: deterministic
		p := e.procs[n.ID()]
		if p == nil {
			continue
		}
		group := e.replGroup(n.ID())
		for _, t := range p.targets {
			if !slices.Contains(group, t) {
				delete(p.mirrors, t)
			}
		}
		for _, t := range group {
			if !slices.Contains(p.targets, t) {
				e.replSnapshot(p, t)
			}
		}
		p.targets = group
	}
}

// replSnapshot builds the mirror a new replica target holds of origin p
// from p's full keyed state, charged as stateChunk-sized messages. A
// node with no keyed state sends nothing: the mirror is created by its
// first update batch, so establishing groups on a fresh engine costs no
// traffic.
func (e *Engine) replSnapshot(p *Proc, tgt id.ID) {
	n := 0
	p.st.each(classMirrored, nil, func(op stateOp) {
		p.mirrorAt(tgt).apply(op) // a mirror clones what it applies: the primary keeps mutating
		n++
	})
	if n == 0 {
		return
	}
	e.Counters.ReplSyncs++
	to := []id.ID{tgt}
	for ; n > 0; n -= stateChunk {
		p.ctr.ReplUpdates++
		p.ctr.ReplOps += int64(min(n, stateChunk))
		e.net.ReplicateTo(p.node, to)
	}
}

// promoteMirror replays a dead origin's mirror into the promotee's live
// state at its exact keys. The promotee logs what it applies, so every
// promoted entry re-replicates to its own replica group — the step that
// restores the replication factor for the recovered state. The mirror
// is consumed: its entries move.
func (e *Engine) promoteMirror(p *Proc, mirror *state, now sim.Time) {
	p.ctr.ReplPromotions++
	mirror.each(classMirrored, nil, func(op stateOp) {
		if e.retiredOp(op) {
			return // torn-down pipeline or unsubscribed aggregate: do not resurrect
		}
		promoted := int64(1)
		switch op.kind {
		case opAddALTT:
			if op.expireAt < now {
				p.ctr.ALTTExpired++ // the entry would have lapsed at the primary too
				return
			}
		case opAggMerge:
			// Re-emit every promoted row: updates the dead aggregator had
			// in flight may have died with it.
			spec := e.aggSpec(op.g.qid)
			for ep := range op.g.epochs {
				op.g.markDirty(ep, spec != nil && spec.Sliding())
			}
			promoted = op.g.epochCount()
		case opCT:
			promoted = 0
		}
		p.ctr.ReplEntriesPromoted += promoted
		if q := op.query(); q != nil && q.Depth == 0 && !q.OneTime {
			p.ctr.QueriesRecovered++
		}
		if op.kind != opAddPending {
			p.st.apply(op)
			return
		}
		// Placement walks die with their origin; restart each mirrored
		// one from here. Charged as churn traffic like the rest of crash
		// recovery — the walk is recovery work, not mirror maintenance.
		e.net.WithTag(p.node, TagChurn, func() { p.place(now, op.pp.q.Clone()) })
	})
	p.replFlush()
}
