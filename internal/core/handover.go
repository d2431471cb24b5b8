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
// state handover, abrupt crash with promotion or recovery, and runtime
// join with arc transfer. The policy deciding *when* nodes churn lives
// in the rjoin package (Options.Churn, AddNode, RemoveNode, Crash); the
// mechanics of moving RJoin state live here, next to the stores they
// drain and fill. Every move is one call, move, made inside the
// membership operation, and leave and crash are one departure (depart):
// what differs between them is the bill.

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
	// promotion is a crash under replication: ReplPromotions once and
	// promote's rule for every entry.
	promotion
	// recovery is a departure nobody inherits — a crash with no replica,
	// or the last node's: recover's rule for every entry, and no heir.
	recovery
)

// move installs the entries ops, taken from node from, at the heir to:
// the ring owner of every key they carry (invariant I3 — a keyed entry
// sits at its key's ring owner — and every key a membership change
// moves goes to one node), where every placement walk restarts too: the
// walk died with its origin, or its reply is addressed to an identifier
// that is gone. Under recovery to is nil and recover disposes of each
// entry. Dead entries are neither billed nor installed (expired, counted
// at from), and entries of pipelines or subscriptions retired meanwhile
// are dropped. to counts what it installs, and its replica group is
// charged one batch per handover message — stateChunk entries — or one
// for a whole promotion. Every send a move makes is churn traffic,
// whichever node makes it. It runs in coordinator context, after the
// replica groups re-formed, so nothing in flight can observe a new
// owner before its state.
func (e *Engine) move(from, to *Proc, ops []stateOp, b bill) {
	now := e.sim.Now()
	ops = slices.DeleteFunc(ops, func(op stateOp) bool { return e.expired(op, from) })
	e.net.WithTagAll(overlay.TagChurn, func() {
		switch b {
		case handover:
			e.chargeHandover(from, len(ops))
		case promotion:
			to.ctr.ReplPromotions++
		}
		for i, op := range ops {
			retired := e.retiredOp(op)
			if b == promotion && !retired {
				e.promote(to, op)
			}
			switch {
			case retired:
				// torn down meanwhile: nothing to install
			case b == recovery:
				e.recover(now, op)
			case op.kind == opAddPending:
				to.place(now, op.pp.sq)
			default:
				to.st.apply(op)
			}
			if b == handover && (i+1)%stateChunk == 0 {
				to.replFlush() // one replica batch per handover message
			}
		}
		if to != nil {
			to.replFlush()
		}
	})
}

// recover is recovery's rule for one live entry nobody inherits. An
// input (Depth 0) continuous query the departed node was storing or
// still placing is re-indexed from its owner's side, preserving
// identity and insertion time so the stream picks up where the
// departure cut it: a stored one at exactly the key it was stored
// under, a placement from scratch. Everything else — rewritten queries,
// tuples, aggregator partials, one-time queries, and input queries
// whose owner's side is gone with the ring — is charged lost: answers
// it would have produced are the departure's answer loss.
func (e *Engine) recover(now sim.Time, op stateOp) {
	sq := op.stored()
	var home *Proc
	if sq != nil && sq.q.Depth == 0 && !sq.q.OneTime {
		if o := e.ring.Owner(id.ID(sq.q.Owner)); o != nil {
			home = e.procs[o.ID()]
		}
	}
	if home == nil {
		op.chargeLost(&e.Counters)
		return
	}
	e.Counters.QueriesRecovered++
	if op.kind == opAddPending {
		home.place(now, sq)
		home.replFlush() // coordinator context: charge the walk's replica op now
		return
	}
	// A fresh entry: the recovered query starts without the lost one's
	// DISTINCT memory.
	fresh := entryOf(sq.q)
	fresh.pipe = sq.pipe
	e.net.Send(home.node, sq.key.ID(), newEvalMsg(fresh, sq.key, sq.level))
}

// expired reports whether an entry leaving node p is dead and, if so,
// counts it expired (a tuple: collected) at p: nothing still to come can
// reach it, so it is neither moved nor lost. An ALTT entry is judged by
// the clock, which is exact at any instant (every later scan skips it
// too); a windowed rewrite and a stored tuple only by the horizon, since
// tuples in flight may carry clocks older than now. A candidate-table
// entry is never dead here: the drain that moved the horizon removed
// every entry it passed, and every entry merged since was learned at or
// past it. An aggregator group is never dead either — it outlives its
// epochs (aggGroup.prune) — but leaves without its dead, flushed ones.
func (e *Engine) expired(op stateOp, p *Proc) bool {
	switch {
	case op.kind == opAddQuery && e.horizon.dead(op.sq.q):
		p.ctr.QueriesExpired++
		p.profStateDrop(e.sim.Now(), op.sq)
	case op.kind == opAddTuple && e.horizon.tupleDead(op.t, e.tupleReach()):
		p.ctr.TuplesCollected++
	case op.kind == opAddALTT && op.expireAt < e.sim.Now():
		p.ctr.ALTTExpired++
	case op.kind == opAggMerge:
		// The group is the leaving node's own, which is discarded or has
		// forgotten its key.
		op.g.prune(e.horizon)
		return false
	default:
		return false
	}
	return true
}

// chargeHandover bills moving n entries off node from: one handoff
// message per stateChunk of them, under the tag of the move that makes
// it.
func (e *Engine) chargeHandover(from *Proc, n int) {
	for ; n > 0; n -= stateChunk {
		c := min(n, stateChunk)
		e.Counters.HandoverMessages++
		e.Counters.HandoverEntries += int64(c)
		if ob := e.obs; ob != nil {
			// Handover runs from membership-call (coordinator) context.
			ob.Emit(sim.NoShard, obs.Rec{At: e.sim.Now(), Kind: obs.KindHandover, Node: from.nid(), Arg: int64(c)})
		}
		e.net.Handoff(from.node)
	}
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
	e.Counters.Joins++
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

// LeaveNode removes a node gracefully: it departs the ring and hands
// its entire RJoin state to its heir — the node that owns its keys once
// it is gone, ring ground truth, its successor — counted in the churn
// traffic share. Messages already in flight to the departed node bounce
// to the same successor and find the state there, so a graceful leave
// loses no state and duplicates no answers. The exception is the last
// node: there is nobody to hand to, and its state goes through
// recovery, which finds no owner's side left and counts it lost.
func (e *Engine) LeaveNode(n *chord.Node) error { return e.depart(n, false) }

// CrashNode removes a node abruptly. Without replication its stored
// state is gone, and recovery re-indexes every input (Depth 0)
// continuous query the dead node was storing or placing from its
// owner's side (preserving identity and insertion time so the stream
// picks up where the crash cut it), while rewritten queries, stored
// tuples and aggregator partials are lost and counted — answers they
// would have produced are the crash's answer loss.
//
// With ReplicationFactor >= 2 and a surviving replica, nothing is
// lost: the head of the dead node's replica group — its heir, the node
// the ring now routes its keys to — promotes its copy, which is the
// dead node's own replicated state, re-indexing it at its exact keys
// and re-replicating it, before CrashNode returns: every message
// bounced off the dead node finds the promoted state. In-flight
// placement walks are replicated too (rewrites included — without a
// copy they exist only at the walk's origin) and restart at the heir.
func (e *Engine) CrashNode(n *chord.Node) error { return e.depart(n, true) }

// depart removes node n — by a leave, or by a crash — and moves its
// state once: the ring forgets it, its processor detaches, every
// replica group it belonged to re-forms (regroup), and move installs
// its state at its heir under the bill the departure earns. A leave
// with an heir hands everything over; a crash with an heir promotes
// its mirrored state when a replica keeps any; anything else is
// recovery. Regrouping first is safe for recovery: it runs only where
// regroup changes nothing — rf < 2, an empty ring, or a node holding
// nothing a replica keeps.
func (e *Engine) depart(n *chord.Node, crash bool) error {
	p, ok := e.procs[n.ID()]
	if !ok {
		return fmt.Errorf("core: node %s has no processor", n.ID())
	}
	if crash {
		e.Counters.Crashes++
		e.ring.Fail(n)
	} else {
		e.Counters.Leaves++
		e.ring.Leave(n)
	}
	e.NodeLeft(n)
	e.regroup(n.ID(), false)
	var heir *Proc
	if o := e.ring.Owner(n.ID()); o != nil {
		heir = e.procs[o.ID()]
	}
	switch {
	case heir == nil || crash && (e.Cfg.ReplicationFactor < 2 || p.st.counts().mirrored() == 0):
		e.move(p, nil, p.st.ops(classAll, nil), recovery)
	case crash:
		e.move(p, heir, p.st.ops(classMirrored, nil), promotion)
	default:
		e.move(p, heir, p.st.ops(classAll, nil), handover)
	}
	return nil
}
