package core

import (
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
// kept, and neither is the group: it is ring ground truth
// (Ring.SuccessorList), read when it is needed. Replication is a charge:
// every mutator counts the ops a backup would apply (state.replOps), and
// a handler's count is billed when it returns — one message per group
// member per batch under overlay.TagRepl, ReplOps for the ops — with
// nothing scheduled. A membership change bills a snapshot of the
// origin's replicated entries to every group that gained a member
// (regroup). On a crash, the head of the dead node's group — the node
// the ring now routes its keys to — promotes what its copy would hold,
// which is the dead node's own state, inside CrashNode (move): it is
// re-indexed at its exact keys and re-replicated instead of being
// counted lost.

// replFlush charges the replica updates for the ops counted since the
// last flush: one message per member of the node's replica group, each
// carrying every op. Runs at the end of every message handler and after
// coordinator-side mutations (membership moves, submission, teardown).
// The group is min(k−1, size−1) nodes; a ring smaller than the factor
// replicates to every other node, a singleton to none.
func (p *Proc) replFlush() {
	n := p.st.replOps
	p.st.replOps = 0
	if n == 0 || p.eng.Cfg.ReplicationFactor < 2 {
		return
	}
	k := min(p.eng.Cfg.ReplicationFactor, p.eng.ring.Size()) - 1
	if k <= 0 {
		return
	}
	p.ctr.ReplUpdates += int64(k)
	p.ctr.ReplOps += int64(n * k)
	p.eng.net.ReplicateTo(p.node, k)
}

// regroup bills the snapshots a membership change at nid costs. The
// groups it changes are those of nid's k−1 predecessors, and each gains
// exactly one member: nid itself after a join; after a departure, the
// node that moved up into the slot the departed one freed — none when
// the ring has too few nodes left to fill it. The gained member is
// billed a snapshot of the origin's replicated entries; the member it
// replaced simply stops being charged. Runs in coordinator context,
// after the ring changed and before the change moves any state.
func (e *Engine) regroup(nid id.ID, joined bool) {
	k := e.Cfg.ReplicationFactor - 1
	if k < 1 || !joined && e.ring.Size()-1 < k {
		return
	}
	for _, n := range e.ring.PredecessorList(nid, k) {
		if p := e.procs[n.ID()]; p != nil {
			e.replSnapshot(p)
		}
	}
}

// replSnapshot charges the copy of origin p's replicated entries a new
// replica group member receives, as stateChunk-sized messages. A node
// with no such entries sends nothing, so forming groups on a fresh
// engine costs no traffic.
func (e *Engine) replSnapshot(p *Proc) {
	n := p.st.counts().mirrored()
	if n == 0 {
		return
	}
	e.Counters.ReplSyncs++
	for ; n > 0; n -= stateChunk {
		p.ctr.ReplUpdates++
		p.ctr.ReplOps += int64(min(n, stateChunk))
		e.net.ReplicateTo(p.node, 1)
	}
}

// promote is promotion's rule for one entry of a crashed node's
// replicated state — what the copy at the head of its replica group
// holds — on its way into the promotee p's live state, and reports
// whether the entry is installed. An ALTT entry that lapsed and nobody
// pruned yet is counted expired instead; a promoted aggregator group
// re-emits every row, because updates the dead aggregator had in flight
// may have died with it.
func (e *Engine) promote(p *Proc, op stateOp, now sim.Time) bool {
	promoted := int64(1)
	switch op.kind {
	case opAddALTT:
		if op.expireAt < now {
			p.ctr.ALTTExpired++
			return false
		}
	case opAggMerge:
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
	return true
}
