package core

import (
	"slices"

	"rjoin/internal/id"
	"rjoin/internal/sim"
)

// This file implements durable state replication over ring-successor
// replica groups. Every key a node owns shares the same replica group —
// the node plus its ReplicationFactor−1 ring successors — and the model
// is a synchronous primary-backup protocol: a mutation is acknowledged
// only once every backup in the group applied it, so a backup's copy
// equals its primary's replicated state (stored queries with their
// DISTINCT projection memory, value-level tuples, ALTT entries,
// candidate-table entries, aggregator group partials, placement walks)
// at every instant.
//
// A copy that always equals state the simulator already holds is not
// kept. Replication is a charge: every mutator counts the ops a backup
// would apply (state.replOps), and a handler's count is billed when it
// returns — one message per target per batch under overlay.TagRepl,
// ReplOps for the ops — with nothing scheduled. A new group member is
// billed a snapshot of the origin's replicated entries. On a crash, the
// head of the dead node's group — the node the ring now routes its keys
// to — promotes what its copy would hold, which is the dead node's own
// state, inside CrashNode: re-indexed at its exact keys and
// re-replicated to the promotee's targets instead of being counted
// lost. Graceful leaves and runtime joins move state through the
// handover hooks, where the receiver's mutators charge the
// re-replication, and every membership change ends in a repair pass
// that diffs each node's replica targets against its replica group
// (replGroup: ring ground truth, never a node's own successor
// pointers), billing a snapshot to every new member.

// replFlush charges the replica updates for the ops counted since the
// last flush: one message per target, carrying every op. Runs at the
// end of every message handler and after coordinator-side mutations
// (promotion, handover construction).
func (p *Proc) replFlush() {
	n := p.st.replOps
	p.st.replOps = 0
	if n == 0 || len(p.targets) == 0 {
		// Nothing changed, or no replica group exists (ring smaller than
		// the factor); the repair pass snapshots everything when one forms.
		return
	}
	p.ctr.ReplUpdates += int64(len(p.targets))
	p.ctr.ReplOps += int64(n * len(p.targets))
	p.eng.net.ReplicateTo(p.node, p.targets)
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
// group after a membership change: a new member is billed a full state
// snapshot, and a former member simply stops being charged. Runs in
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
		for _, t := range group {
			if !slices.Contains(p.targets, t) {
				e.replSnapshot(p, t)
			}
		}
		p.targets = group
	}
}

// replSnapshot charges the copy of origin p's replicated entries a new
// replica target receives, as stateChunk-sized messages. A node with no
// such entries sends nothing, so establishing groups on a fresh engine
// costs no traffic.
func (e *Engine) replSnapshot(p *Proc, tgt id.ID) {
	n := p.st.counts().mirrored()
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

// promote replays a crashed node's replicated state — what the copy at
// the head of its replica group holds — into the promotee's live state
// at its exact keys. The promotee counts what it applies, so every
// promoted entry re-replicates to its own replica group: the step that
// restores the replication factor for the recovered state. The dead
// state is consumed: its entries move.
func (e *Engine) promote(p *Proc, dead *state, now sim.Time) {
	p.ctr.ReplPromotions++
	dead.each(classMirrored, nil, func(op stateOp) {
		if e.retiredOp(op) {
			return // torn-down pipeline or unsubscribed aggregate: do not resurrect
		}
		promoted := int64(1)
		switch op.kind {
		case opAddALTT:
			if op.expireAt < now {
				p.ctr.ALTTExpired++ // lapsed, and nobody pruned it yet
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
		// Placement walks die with their origin; restart each one from
		// here. Charged as churn traffic like the rest of crash recovery
		// — the walk is recovery work, not replica maintenance.
		e.net.WithTag(p.node, TagChurn, func() { p.place(now, op.pp.q.Clone()) })
	})
	p.replFlush()
}
