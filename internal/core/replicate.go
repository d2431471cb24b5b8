package core

import (
	"rjoin/internal/id"
	"rjoin/internal/overlay"
	"rjoin/internal/reliable"
	"rjoin/internal/sim"
)

// This file implements durable state replication over ring-successor
// replica groups. Every key a node owns shares the same replica group —
// the node plus its ReplicationFactor−1 ring successors — so each node
// mirrors its keyed RJoin state (stored queries with their DISTINCT
// projection memory, value-level tuples, ALTT entries, candidate-table
// entries, aggregator group partials) along one versioned update stream
// per replica target. Mutations batch per handler invocation and fan
// out as replica-update messages charged under overlay.TagRepl;
// delivery is Transfer-like (instantaneous, one counted message per
// target), the simulation's rendering of a primary-backup protocol that
// acknowledges a mutation only once its backups hold it.
//
// On a crash, the surviving replica the ring now routes the dead node's
// keys to — its first live successor — promotes its mirror: the dead
// node's state is re-indexed at its exact keys and re-replicated to the
// promotee's own targets, instead of being counted lost. Promotion is
// scheduled as a zero-delay event rather than performed inline so that
// replica-update batches already in flight from the dead node (their
// event sequence numbers predate the crash) land in the mirror first.
// Graceful leaves and runtime joins keep groups consistent through the
// handover hooks (merged state re-replicates at its new owner, moved
// keys are dropped from stale mirrors), and every membership change
// ends in a repair pass that diffs each node's replica targets against
// its replica group (replGroup: ring ground truth, never a node's own
// successor pointers), streaming a full state snapshot to every new
// member and discarding mirrors held by former ones.

// replUpdateMsg carries one batch of logged state ops (see state.go)
// from an origin to one replica target. Gen/First version the batch
// within the (origin, target) stream — see internal/reliable for the
// idempotency rules. Reset marks the head of a stream (always the batch
// starting at sequence 1): the receiver discards any previous mirror of
// this origin before applying.
type replUpdateMsg struct {
	From  id.ID
	To    id.ID
	Gen   int64
	First int64
	Reset bool
	Ops   []stateOp
}

// RingKey implements overlay.Rekeyable: a batch in flight to a replica
// that just departed re-routes to its ring position's new owner, which
// discards it (To no longer matches) — the repair pass has already
// superseded the stream with a fresh snapshot.
func (m *replUpdateMsg) RingKey() id.ID { return m.To }

// replInbox is the replica-side state one node keeps per origin: the
// versioned stream tracker and the mirror it materializes into — a
// passive state never consulted by query processing; only promotion
// reads it back. dead marks a mirror whose holder crashed before a
// scheduled promotion could consume it — the contents died with the
// holder and must be counted as loss, not resurrected through a stale
// pointer.
type replInbox struct {
	in     *reliable.Inbox
	mirror *state
	dead   bool
}

// replFlush ships the handler batch to every replica target: one
// message per target, each stamped with that stream's generation and
// next sequence range. The ops slice is shared read-only across the
// copies; a mirror clones what it applies.
// Runs at the end of every message handler and after coordinator-side
// mutations (promotion, handover construction).
func (p *Proc) replFlush() {
	if len(p.st.outbox) == 0 {
		return
	}
	ops := p.st.outbox
	p.st.outbox = nil
	targets := p.repl.Targets()
	if len(targets) == 0 {
		// No replica group exists (ring smaller than the factor); the
		// repair pass snapshots everything when one forms.
		return
	}
	p.ctr.ReplUpdates += int64(len(targets))
	p.ctr.ReplOps += int64(len(ops) * len(targets))
	p.eng.net.ReplicateTo(p.node, targets, func(tgt id.ID) overlay.Message {
		s := p.repl.Stream(tgt)
		first := s.Next(len(ops))
		return &replUpdateMsg{
			From: p.node.ID(), To: tgt,
			Gen: s.Gen(), First: first, Reset: first == 1,
			Ops: ops,
		}
	})
}

// ---------------------------------------------------------------------
// Replica side: stream application into the mirror.

// onReplUpdate applies one received batch. Batches for a stream this
// node no longer hosts (bounced past a departed replica) and replayed
// or superseded ranges are dropped by the inbox — the idempotency the
// versioning exists for.
func (p *Proc) onReplUpdate(now sim.Time, m *replUpdateMsg) {
	if m.To != p.node.ID() {
		return // bounced to the ring position's new owner; repair supersedes it
	}
	ib, ok := p.replInboxes[m.From]
	if !ok {
		ib = &replInbox{in: reliable.NewInbox(), mirror: newMirror(p.eng.aggSpec)}
		p.replInboxes[m.From] = ib
	}
	for _, d := range ib.in.Offer(m.Gen, m.Reset, m.First, len(m.Ops), m.Ops) {
		if d.Reset {
			ib.mirror = newMirror(p.eng.aggSpec)
		}
		for _, op := range d.Payload.([]stateOp) {
			ib.mirror.apply(op)
		}
	}
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

// replRepair reconciles every node's replica streams with its replica
// group after a membership change: new group members receive a full
// state snapshot on a fresh stream, former members discard their
// mirror. Runs in coordinator context (no handler in flight) at the end
// of every membership operation; on a static ring it settles
// immediately into no-ops. The scan is whole-ring rather than limited
// to the changed node's k−1 predecessors: only they can differ, and the
// full diff costs O(N·k) map work per membership event — noise at
// simulation scale.
func (e *Engine) replRepair() {
	if e.Cfg.ReplicationFactor < 2 {
		return
	}
	for _, n := range e.ring.Nodes() { // identifier order: deterministic
		p := e.procs[n.ID()]
		if p == nil || p.repl == nil {
			continue
		}
		added, removed := p.repl.Sync(e.replGroup(n.ID()))
		for _, t := range removed {
			e.replDropMirror(n.ID(), t)
		}
		for _, t := range added {
			e.replSendSnapshot(p, t)
		}
	}
}

// replDropMirror discards the mirror target holds for origin, closing
// the stream so in-flight remnants are rejected. A no-op when the
// target is gone or never opened the stream.
func (e *Engine) replDropMirror(origin, target id.ID) {
	tp, ok := e.procs[target]
	if !ok {
		return
	}
	if ib, ok := tp.replInboxes[origin]; ok {
		ib.in.Drop()
		delete(tp.replInboxes, origin)
	}
}

// replForgetOrigin clears every mirror of an identifier across the
// network — called when an identifier joins, so an earlier incarnation's
// streams (dead or departed) cannot shadow the new node's.
func (e *Engine) replForgetOrigin(nid id.ID) {
	if e.Cfg.ReplicationFactor < 2 {
		return
	}
	for _, p := range e.procs {
		delete(p.replInboxes, nid)
	}
}

// replSendSnapshot streams origin p's full keyed state to one new
// replica target in stateChunk-sized batches. The first batch starts the
// stream (sequence 1 ⇒ Reset), so the receiver's mirror is rebuilt
// from scratch. A node with no keyed state sends nothing: the stream
// opens lazily with its first update batch, so establishing groups on a
// fresh engine costs no traffic.
func (e *Engine) replSendSnapshot(p *Proc, tgt id.ID) {
	// The mirrored classes in the state's one enumeration order, cloned:
	// the transfer lands as an event, and the primary keeps mutating.
	var ops []stateOp
	p.st.each(classMirrored, nil, func(op stateOp) { ops = append(ops, op.clone()) })
	if len(ops) == 0 {
		return
	}
	e.Counters.ReplSyncs++
	s := p.repl.Stream(tgt)
	e.net.WithTag(p.node, overlay.TagRepl, func() {
		for len(ops) > 0 {
			n := min(len(ops), stateChunk)
			chunk := ops[:n]
			ops = ops[n:]
			first := s.Next(n)
			p.ctr.ReplUpdates++
			p.ctr.ReplOps += int64(n)
			e.net.Transfer(p.node, tgt, &replUpdateMsg{
				From: p.node.ID(), To: tgt,
				Gen: s.Gen(), First: first, Reset: first == 1,
				Ops: chunk,
			})
		}
	})
}

// promoteCtx carries a scheduled promotion: the dead origin, the
// replica expected to hold its mirror, the mirror inbox as known at
// crash time (nil when the snapshot that materializes it is still in
// flight — it is re-resolved at fire time), and a hop budget for the
// pathological case where the promotee itself departs within the same
// tick and the promotion must chase the key range's current owner.
type promoteCtx struct {
	dead     id.ID
	promotee id.ID
	ib       *replInbox
	hops     int
}

// schedulePromotion queues the mirror promotion as a zero-delay event
// on the promotee's shard. Ordering does the heavy lifting: replica
// updates the dead node flushed before crashing carry earlier sequence
// numbers than anything scheduled from the crash itself, so they are
// applied to the mirror before this event fires, while every message
// bounced off the dead node re-routes with a fresh (later) sequence and
// therefore observes the promoted state.
func (e *Engine) schedulePromotion(dead, promotee id.ID, ib *replInbox) {
	e.sim.AfterCtxShard(0, promoteEvent, sim.Ctx{A: e, B: &promoteCtx{dead: dead, promotee: promotee, ib: ib}}, sim.NoShard, e.shardOf(promotee))
}

// shardOf resolves the shard a node's events are scheduled on.
func (e *Engine) shardOf(nid id.ID) int { return e.sim.ShardOf(uint64(nid)) }

// ctrAt returns the counter slot a promotion event may write: the slot
// of the shard the event executes on (exclusively owned by the running
// worker).
func (e *Engine) ctrAt(nid id.ID) *Counters { return e.slots[e.shardOf(nid)+1].ctr }

// promoteEvent executes a scheduled promotion.
func promoteEvent(now sim.Time, c sim.Ctx) {
	e := c.A.(*Engine)
	pc := c.B.(*promoteCtx)
	p, ok := e.procs[pc.promotee]
	if !ok {
		// The promotee departed in the same tick. Chase the dead arc's
		// current owner, carrying the mirror pointer (the departed
		// promotee's inbox map is gone, but the mirror object survives
		// a graceful leave); if the chase exhausts its budget or the
		// ring emptied, the mirror is unrecoverable — count it, so the
		// zero-loss counters never lie.
		if owner := e.ring.Owner(pc.dead); owner != nil && pc.hops < maxReroutes {
			src := e.shardOf(pc.promotee) // the shard this event ran on
			pc.hops++
			pc.promotee = owner.ID()
			e.sim.AfterCtxShard(0, promoteEvent, c, src, e.shardOf(pc.promotee))
			return
		}
		if pc.ib != nil {
			pc.ib.mirror.chargeLost(e.ctrAt(pc.promotee), e.retiredOp)
		}
		return
	}
	ib := pc.ib
	if ib == nil {
		ib = p.replInboxes[pc.dead] // snapshot landed after the crash scheduled us
	}
	if ib == nil {
		return // the origin had no mirrored state
	}
	delete(p.replInboxes, pc.dead)
	if ib.dead {
		// The mirror's holder crashed before this event fired: the
		// contents died with it.
		ib.mirror.chargeLost(p.ctr, e.retiredOp)
		return
	}
	e.promoteMirror(p, ib, now)
}

// promoteMirror replays a dead origin's mirror into the promotee's live
// state at its exact keys. The promotee logs what it applies, so every
// promoted entry re-replicates to its own replica group — the step that
// restores the replication factor for the recovered state. The mirror
// is consumed: its entries move.
func (e *Engine) promoteMirror(p *Proc, ib *replInbox, now sim.Time) {
	ib.in.Kill()
	p.ctr.ReplPromotions++
	ib.mirror.each(classMirrored, nil, func(op stateOp) {
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
