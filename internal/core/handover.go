package core

import (
	"fmt"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/obs"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// This file implements runtime membership changes: graceful leave with
// state handover, abrupt crash with engine-level recovery, and runtime
// join with arc transfer. The policy deciding *when* nodes churn lives
// in internal/churn; the mechanics of moving RJoin state live here,
// next to the stores they drain and fill.

// stateChunk bounds how many state entries ride in one handover or
// replica-snapshot message, so the traffic charged for moving or
// copying state scales with its size rather than being one flat
// message.
const stateChunk = 48

// sendHandover ships state entries as chunked, instantaneous transfers,
// charged under the churn traffic tag.
func (e *Engine) sendHandover(from *chord.Node, to id.ID, ops []stateOp) {
	e.net.WithTag(from, TagChurn, func() {
		for len(ops) > 0 {
			n := min(len(ops), stateChunk)
			m := &handoverMsg{From: from.ID(), To: to, Ops: ops[:n:n]}
			ops = ops[n:]
			e.Counters.HandoverMessages++
			e.Counters.HandoverEntries += int64(n)
			if ob := e.obs; ob != nil {
				// Handover runs from churn-manager (coordinator) context.
				ob.Emit(sim.NoShard, obs.Rec{At: e.sim.Now(), Kind: obs.KindHandover, Node: uint64(from.ID()), Arg: int64(n)})
			}
			e.net.Transfer(from, to, m)
		}
	})
}

// onHandover applies transferred state to the local store. A keyed
// entry whose key this node does not own (the ring moved again while
// the handover was in flight, or a chunk was bounced past its intended
// recipient) is forwarded to its key's current owner, one message per
// key in first-encounter order; once the forwarding budget has run out
// it is dropped and counted as lost exactly once — storing it here
// would leave state no traffic can reach while exposing it to double
// counting by a later crash of this node. Rate statistics are soft
// state and merge wherever they end up; candidate-table entries and
// placement walks are bound to the node, not to a key, and never
// forward. Entries of pipelines or subscriptions retired while the
// handover was in flight are dropped.
func (p *Proc) onHandover(now sim.Time, m *handoverMsg) {
	e := p.eng
	var fwdKeys []relation.Key
	fwd := make(map[relation.Key]*handoverMsg)
	for _, op := range m.Ops {
		if e.retiredOp(op) {
			continue
		}
		if op.keyed() && !p.ownsKey(op.key) {
			if m.Hops < maxReroutes {
				f, ok := fwd[op.key]
				if !ok {
					f = &handoverMsg{From: p.node.ID(), To: op.key.ID(), Hops: m.Hops + 1}
					fwd[op.key] = f
					fwdKeys = append(fwdKeys, op.key)
				}
				f.Ops = append(f.Ops, op)
				continue
			}
			if op.kind != opStat {
				op.chargeLost(p.ctr)
				continue
			}
		}
		p.st.apply(op) // logged: handed-over state re-replicates at its new home
	}
	for _, key := range fwdKeys {
		p.ctr.MessagesRerouted++
		e.net.WithTag(p.node, TagChurn, func() {
			e.net.Send(p.node, key.ID(), fwd[key])
		})
	}
}

// JoinNode adds a node with the given identifier to a running network:
// the node joins the ring, attaches a processor, and receives from its
// successor the slice of stored state falling in its new arc — the key
// handoff of Chord's join protocol, charged as churn traffic. Routing
// state elsewhere converges through periodic stabilization; until then,
// stale deliveries heal through the ownership re-route path.
func (e *Engine) JoinNode(nid id.ID) (*chord.Node, error) {
	n, err := e.ring.Join(nid)
	if err != nil {
		return nil, err
	}
	e.NodeJoined(n)
	if succ := e.ring.SuccessorList(nid, 1); len(succ) > 0 {
		if sp, ok := e.procs[succ[0].ID()]; ok {
			// The stored state whose keys now belong to n (ground truth
			// after the join) moves to it; sp's mirrors drop each moved
			// key, and n re-replicates it on arrival.
			ops := sp.st.take(func(key relation.Key) bool {
				o := e.ring.Owner(key.ID())
				return o != nil && o.ID() == n.ID()
			})
			sp.replFlush()
			e.sendHandover(succ[0], n.ID(), ops)
		}
	}
	// The join shifts the replica groups of the new node's k−1
	// predecessors: re-form them.
	e.replRepair()
	return n, nil
}

// LeaveNode removes a node gracefully: it flushes its batched outbox,
// drains its entire RJoin state to its ring successor — ground truth,
// the node that owns its keys once it is gone, not its own successor
// pointer, which lags a join behind it — as handover messages (counted
// in the churn traffic share), and departs the ring. Messages already
// in flight to the departed node bounce to the same successor, and the
// handover lands instantaneously, so a graceful leave loses no state
// and duplicates no answers. The exception is the last node: there is
// nobody to hand to, and its state — pending placements included — is
// counted as lost.
func (e *Engine) LeaveNode(n *chord.Node) error {
	p, ok := e.procs[n.ID()]
	if !ok {
		return fmt.Errorf("core: node %s has no processor", n.ID())
	}
	e.net.FlushNode(n)
	if succ := e.ring.SuccessorList(n.ID(), 1); len(succ) > 0 {
		ops := p.st.ops(classAll, nil)
		p.st.clear()
		e.sendHandover(n, succ[0].ID(), ops)
	} else {
		p.st.chargeLost(&e.Counters, e.retiredOp)
	}
	// The departed node's mirrors go with its Proc: its state lives on
	// at the successor (which re-replicates it as its own on arrival),
	// or is already counted lost.
	e.ring.Leave(n)
	e.NodeLeft(n)
	e.replRepair()
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
// lost: the head of the dead node's replica group (replGroup) — the
// node the ring now routes its keys to — promotes its mirror,
// re-indexing the state at its exact keys and re-replicating it, before
// CrashNode returns: every message bounced off the dead node finds the
// promoted state. In-flight placement walks are mirrored too (rewrites
// included — without the mirror they exist only at the walk's origin)
// and restart at the promotee.
func (e *Engine) CrashNode(n *chord.Node) error {
	p, ok := e.procs[n.ID()]
	if !ok {
		return fmt.Errorf("core: node %s has no processor", n.ID())
	}
	e.ring.Fail(n)
	e.NodeLeft(n)

	now := e.sim.Now()
	// The promotee is the head of the dead node's replica group; it
	// promotes iff it holds a mirror (a node that never stored anything,
	// or a group that formed with no repair pass since, has none).
	var promotee id.ID
	var mirror *state
	if g := e.replGroup(n.ID()); len(g) > 0 {
		promotee, mirror = g[0], p.mirrors[g[0]]
	}

	// Without a promotion, input continuous queries the dead node was
	// storing (lost) or still placing (rePlace) are recovered from their
	// owner's side, in the state's deterministic order; everything else
	// it held is counted lost. Under promotion the mirror carries all of
	// it — walks included, which restart at the promotee.
	var lost []*storedQuery
	var rePlace []*query.Query
	if mirror == nil {
		p.st.each(classAll, nil, func(op stateOp) {
			q := op.query()
			switch {
			case e.retiredOp(op):
				// torn-down pipeline: nothing to recover or count
			case q == nil || q.Depth > 0 || q.OneTime:
				op.chargeLost(&e.Counters)
			case op.kind == opAddQuery:
				lost = append(lost, op.sq)
			default:
				rePlace = append(rePlace, q)
			}
		})
	}

	// Coordinator-context section: crash recovery sends originate from
	// many different recovery homes, so the tag scopes to every lane.
	e.net.WithTagAll(TagChurn, func() {
		// Re-index each lost input placement at exactly the key it was
		// stored under: with attribute-level replication the surviving
		// replicas keep their copies, so recovering only the lost
		// replica restores completeness without duplicating answers.
		for _, lp := range lost {
			home := e.ring.Owner(id.ID(lp.q.Owner))
			if home == nil {
				e.Counters.QueriesLost++ // ring emptied out: nobody left to recover to
				continue
			}
			e.Counters.QueriesRecovered++
			e.net.Send(home, lp.key.ID(), newEvalMsg(lp.q.Clone(), lp.key, lp.level, nil))
		}
		// Placements that never completed restart from scratch.
		for _, q := range rePlace {
			home := e.ring.Owner(id.ID(q.Owner))
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
			hp.place(now, q.Clone())
			hp.replFlush() // coordinator context: ship the walk's mirror op now
		}
	})
	// Every group the dead node belonged to lost a member: re-form them
	// (origins snapshot to their new k−1th successors), the promotee's
	// included, so what it promotes re-replicates to its repaired group.
	e.replRepair()
	if mirror != nil {
		e.promoteMirror(e.procs[promotee], mirror, now)
	}
	return nil
}
