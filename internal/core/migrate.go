package core

import (
	"fmt"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/relation"
)

// MoveNode implements identifier movement (Karger–Ruhl, used by the
// paper's Figure 9 experiment): the node leaves its current ring
// position and rejoins at newID, keeping its RJoin state. Stored keys
// across the network are then re-homed to their current owners, which
// models the key handoff that accompanies an id change. It returns the
// node's new ring handle.
//
// It is rejected on an unreliable network: reliable channels are keyed
// by ring identifier on both ends, so after a move the mover's
// continuing sequence numbers would meet a fresh receiver filter whose
// watermark can never pass the gap, and its peers' fresh channels would
// meet the mover's old filter, which has already seen their numbers.
func (e *Engine) MoveNode(n *chord.Node, newID id.ID) (*chord.Node, error) {
	if e.lossy {
		return nil, fmt.Errorf("core: MoveNode is not supported with Faults " +
			"(reliable-channel sequence state is keyed by ring identifier and does not survive the move)")
	}
	p, ok := e.procs[n.ID()]
	if !ok {
		return nil, fmt.Errorf("core: node %s has no processor", n.ID())
	}
	// The batched outbox does not travel: its flush event is addressed to
	// the old ring handle, which is about to die. Empty it first, exactly
	// as a graceful leave does.
	e.net.FlushNode(n)
	e.net.Detach(n)
	delete(e.procs, n.ID())
	e.ring.Leave(n)
	nn, err := e.ring.Join(newID)
	if err != nil {
		return nil, err
	}
	e.ring.BuildPerfect()
	p.bind(nn)
	e.procs[nn.ID()] = p
	e.net.Attach(nn, p)
	// The physical node keeps its accumulated load; only its ring
	// position changed.
	e.QPL.Rename(n.ID(), nn.ID())
	e.SL.Rename(n.ID(), nn.ID())
	e.net.RenameNode(n.ID(), nn.ID())
	e.replForgetOrigin(n.ID()) // mirrors of the vacated identifier are dead
	e.RehomeKeys()
	return nn, nil
}

// RehomeKeys moves every piece of keyed state — stored queries, tuples,
// ALTT entries, rate statistics, aggregator groups — to the node
// currently responsible for its key, in deterministic node and entry
// order. It must be called after membership changes that redistribute
// the identifier space (joins, id movement) so that subsequent
// deliveries find the stored state. It returns the number of entries
// moved.
func (e *Engine) RehomeKeys() int {
	moved := 0
	owner := func(key relation.Key) *Proc {
		if o := e.ring.Owner(key.ID()); o != nil {
			return e.procs[o.ID()]
		}
		return nil
	}
	for _, n := range e.ring.Nodes() { // identifier order: deterministic
		p := e.procs[n.ID()]
		if p == nil {
			continue
		}
		ops := p.st.take(func(key relation.Key) bool {
			dst := owner(key)
			return dst != nil && dst != p
		})
		for _, op := range ops {
			owner(op.key).st.apply(op)
		}
		moved += len(ops)
	}
	// Identifier movement redistributes keys wholesale; incremental
	// drop/add mirroring cannot track it, so replication rebuilds every
	// stream from a fresh snapshot.
	e.replResyncAll()
	return moved
}

// StoredOccupancy returns the node's instantaneous stored-entry count
// (live queries + tuples + ALTT entries), the quantity identifier
// movement balances.
func (e *Engine) StoredOccupancy(n *chord.Node) int {
	p, ok := e.procs[n.ID()]
	if !ok {
		return 0
	}
	c := p.st.counts()
	return c.queries + c.tuples + c.altt
}
