package core

import (
	"fmt"
	"slices"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/obs"
	"rjoin/internal/overlay"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// This file implements runtime membership changes: graceful leave with
// state handover, abrupt crash with engine-level recovery, and runtime
// join with arc transfer. The policy deciding *when* nodes churn lives
// in internal/churn; the mechanics of moving RJoin state live here,
// next to the stores they drain and fill. All three moves are one call,
// move, made inside the membership operation: what differs between them
// is the bill.

// stateChunk bounds how many state entries ride in one handover or
// replica-snapshot message, so the traffic charged for moving or
// copying state scales with its size rather than being one flat
// message.
const stateChunk = 48

// bill is what a move charges for the state it installs.
type bill uint8

const (
	// handover is the wire cost of a leave or a join: one overlay.TagChurn
	// message per stateChunk entries, counted in the handover counters.
	handover bill = iota
	// promotion is the recovery a crash performs under replication:
	// ReplPromotions once and promote's rule for every entry.
	promotion
)

// move installs the entries ops, taken from node from, at their
// ground-truth owners: a keyed entry at ring.Owner(key), a node-bound
// one at to, where every placement walk restarts — the walk died with
// its origin, or its reply is addressed to an identifier that is gone.
// Dead entries are neither billed nor installed (expired), and entries
// of pipelines or subscriptions retired meanwhile are dropped. The
// receivers count what they install, and to's replica group is charged
// one batch per handover message — stateChunk entries — or one for a
// whole promotion. It runs in coordinator context, after the replica
// groups re-formed, so nothing in flight can observe a new owner before
// its state.
func (e *Engine) move(from, to *Proc, ops []stateOp, b bill) {
	now := e.sim.Now()
	ops = slices.DeleteFunc(ops, func(op stateOp) bool { return e.expired(op, to) })
	if b == promotion {
		to.ctr.ReplPromotions++
	} else {
		e.chargeHandover(from, len(ops))
	}
	for i, op := range ops {
		retired := e.retiredOp(op)
		if b == promotion && !retired {
			e.promote(to, op)
		}
		switch {
		case retired:
			// torn down meanwhile: nothing to install
		case op.kind == opAddPending:
			// Charged as churn traffic like the rest of membership: the
			// walk is recovery work, not placement of new state.
			e.net.WithTag(to.node, overlay.TagChurn, func() { to.place(now, op.pp.sq) })
		default:
			r := e.ownerOf(op, to)
			r.st.apply(op)
			if r != to {
				r.replFlush()
			}
		}
		if b == handover && (i+1)%stateChunk == 0 {
			to.replFlush() // one replica batch per handover message
		}
	}
	to.replFlush()
}

// expired reports whether an entry leaving a node is dead and, if so,
// counts it expired (a tuple: collected) at p: nothing still to come can
// reach it, so it is neither moved nor lost. An ALTT entry is judged by
// the clock, which is exact at any instant (every later scan skips it
// too); a windowed rewrite and a stored tuple only by the horizon, since
// tuples in flight may carry clocks older than now; a candidate-table
// entry by the horizon too, since a placement begun since may still hold
// a report read from it (sendEval). An aggregator group is never dead —
// it outlives its epochs (state.pruneEpochs) — but leaves without its
// dead, flushed ones. Soft state counts nothing.
func (e *Engine) expired(op stateOp, p *Proc) bool {
	switch {
	case op.kind == opAddQuery && e.horizon.dead(op.sq.q):
		p.ctr.QueriesExpired++
		p.profStateDrop(e.sim.Now(), op.sq)
	case op.kind == opAddTuple && e.horizon.tupleDead(op.t, e.tupleReach()):
		p.ctr.TuplesCollected++
	case op.kind == opAddALTT && op.expireAt < e.sim.Now():
		p.ctr.ALTTExpired++
	case op.kind == opCT && e.horizon.ctDead(op.info.At):
	case op.kind == opAggMerge:
		// The group is the leaving node's own, which is discarded or has
		// forgotten its key.
		if spec := e.aggSpec(op.g.qid); spec != nil {
			op.g.prune(spec.Window, e.horizon)
		}
		return false
	default:
		return false
	}
	return true
}

// ownerOf resolves the processor a moved entry belongs to: the ring
// owner of a keyed entry's key, to for a node-bound one (and for a key
// whose owner runs no processor).
func (e *Engine) ownerOf(op stateOp, to *Proc) *Proc {
	if !op.keyed() {
		return to
	}
	if o := e.ring.Owner(op.key.ID()); o != nil && e.procs[o.ID()] != nil {
		return e.procs[o.ID()]
	}
	return to
}

// chargeHandover bills moving n entries off node from: one handoff
// message per stateChunk of them under the churn traffic tag.
func (e *Engine) chargeHandover(from *Proc, n int) {
	e.net.WithTag(from.node, overlay.TagChurn, func() {
		for ; n > 0; n -= stateChunk {
			c := min(n, stateChunk)
			e.Counters.HandoverMessages++
			e.Counters.HandoverEntries += int64(c)
			if ob := e.obs; ob != nil {
				// Handover runs from churn-manager (coordinator) context.
				ob.Emit(sim.NoShard, obs.Rec{At: e.sim.Now(), Kind: obs.KindHandover, Node: from.nid(), Arg: int64(c)})
			}
			e.net.Handoff(from.node)
		}
	})
}

// JoinNode adds a node with the given identifier to a running network:
// the node joins the ring, attaches a processor, and receives from its
// successor the slice of stored state falling in its new arc — the key
// handoff of Chord's join protocol, charged as churn traffic. Every
// node's routing pointers are exact when the ring join returns; a keyed
// message already in flight to the successor is forwarded to the joiner
// on arrival (Proc.reroute).
func (e *Engine) JoinNode(nid id.ID) (*chord.Node, error) {
	n, err := e.ring.Join(nid)
	if err != nil {
		return nil, err
	}
	np := e.NodeJoined(n)
	// The join shifts the replica groups of the new node's k−1
	// predecessors: each gains it.
	e.regroup(nid, true)
	if succ := e.ring.SuccessorList(nid, 1); len(succ) > 0 {
		if sp, ok := e.procs[succ[0].ID()]; ok {
			// The stored state whose keys now belong to n (ground truth
			// after the join) moves to it; sp's replicas are charged the
			// drop of each moved key, and n re-replicates it on arrival.
			ops := sp.st.take(func(key relation.Key) bool {
				o := e.ring.Owner(key.ID())
				return o != nil && o.ID() == n.ID()
			})
			sp.replFlush()
			e.move(sp, np, ops, handover)
		}
	}
	return n, nil
}

// LeaveNode removes a node gracefully: it departs the ring and moves its
// entire RJoin state to the node that owns its keys once it is gone —
// ring ground truth, its successor — counted in the churn traffic
// share. Messages already in flight to the departed node bounce to the
// same successor and find the state there, so a graceful leave loses no
// state and duplicates no answers. The
// exception is the last node: there is nobody to hand to, and its live
// state — pending placements included — is counted as lost.
func (e *Engine) LeaveNode(n *chord.Node) error {
	p, ok := e.procs[n.ID()]
	if !ok {
		return fmt.Errorf("core: node %s has no processor", n.ID())
	}
	e.ring.Leave(n)
	e.NodeLeft(n)
	// Every group the node belonged to lost a member.
	e.regroup(n.ID(), false)
	if o := e.ring.Owner(n.ID()); o != nil && e.procs[o.ID()] != nil {
		e.move(p, e.procs[o.ID()], p.st.ops(classAll, nil), handover)
	} else {
		p.st.chargeLost(&e.Counters, func(op stateOp) bool { return e.retiredOp(op) || e.expired(op, p) })
	}
	return nil
}

// CrashNode removes a node abruptly. Without replication its stored
// state is gone: the engine re-indexes every input (Depth 0) continuous
// query the dead node was storing or placing from its owner's side
// (preserving identity and insertion time so the stream picks up where
// the crash cut it), while rewritten queries, stored tuples and
// aggregator partials are lost and counted — answers they would have
// produced are the crash's answer loss.
//
// With ReplicationFactor >= 2 and a surviving replica, nothing is
// lost: the head of the dead node's replica group — the node the ring
// now routes its keys to — promotes its copy, which is the dead node's
// own replicated state, re-indexing it at its exact keys and
// re-replicating it, before CrashNode returns: every message bounced off
// the dead node finds the promoted state. In-flight placement walks are
// replicated too (rewrites included — without a copy they exist only at
// the walk's origin) and restart at the promotee.
func (e *Engine) CrashNode(n *chord.Node) error {
	p, ok := e.procs[n.ID()]
	if !ok {
		return fmt.Errorf("core: node %s has no processor", n.ID())
	}
	e.ring.Fail(n)
	e.NodeLeft(n)

	now := e.sim.Now()
	// The promotee is the head of the dead node's replica group, when the
	// node holds anything a replica keeps.
	var promotee *Proc
	if e.Cfg.ReplicationFactor >= 2 && p.st.counts().mirrored() > 0 {
		if o := e.ring.Owner(n.ID()); o != nil {
			promotee = e.procs[o.ID()]
		}
	}

	// Without a promotion, input continuous queries the dead node was
	// storing (lost) or still placing (rePlace) are recovered from their
	// owner's side, in the state's deterministic order; everything else
	// it held and still lives is counted lost. Under promotion the copy
	// carries all of it — walks included, which restart at the promotee.
	var lost, rePlace []*storedQuery
	if promotee == nil {
		p.st.each(classAll, nil, func(op stateOp) {
			sq := op.stored()
			switch {
			case e.retiredOp(op) || e.expired(op, p):
				// torn-down pipeline or dead entry: nothing to recover or count
			case sq == nil || sq.q.Depth > 0 || sq.q.OneTime:
				op.chargeLost(&e.Counters)
			case op.kind == opAddQuery:
				lost = append(lost, sq)
			default:
				rePlace = append(rePlace, sq)
			}
		})
	}

	// Coordinator-context section: crash recovery sends originate from
	// many different recovery homes, so the tag scopes to every lane.
	e.net.WithTagAll(overlay.TagChurn, func() {
		// Re-index each lost input placement at exactly the key it was
		// stored under.
		for _, lp := range lost {
			home := e.ring.Owner(id.ID(lp.q.Owner))
			if home == nil {
				e.Counters.QueriesLost++ // ring emptied out: nobody left to recover to
				continue
			}
			e.Counters.QueriesRecovered++
			// A fresh entry: the recovered query starts without the lost
			// one's DISTINCT memory.
			sq := entryOf(lp.q)
			sq.pipe = lp.pipe
			e.net.Send(home, lp.key.ID(), newEvalMsg(sq, lp.key, lp.level))
		}
		// Placements that never completed restart from scratch.
		for _, sq := range rePlace {
			home := e.ring.Owner(id.ID(sq.q.Owner))
			if home == nil {
				e.Counters.QueriesLost++
				continue
			}
			hp := e.procs[home.ID()]
			if hp == nil {
				e.Counters.QueriesLost++
				continue
			}
			e.Counters.QueriesRecovered++
			hp.place(now, sq)
			hp.replFlush() // coordinator context: charge the walk's replica op now
		}
	})
	// Every group the dead node belonged to lost a member: re-form them,
	// so what the promotee promotes is charged to its repaired group.
	e.regroup(n.ID(), false)
	if promotee != nil {
		e.move(p, promotee, p.st.ops(classMirrored, nil), promotion)
	}
	return nil
}
