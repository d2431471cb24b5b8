package core

import (
	"fmt"

	"rjoin/internal/chord"
	"rjoin/internal/id"
)

// MoveNode implements identifier movement (Karger–Ruhl, used by the
// paper's Figure 9 experiment) as the two membership operations it
// consists of: the node leaves gracefully, handing its whole state to
// its successor, and a fresh node joins at newID, receiving its arc
// from its new successor. The move is therefore on the wire — charged
// to overlay.TagChurn and counted in the handover counters — and
// inherits what leave and join guarantee under replication, faults and
// every worker count. It returns the node's new ring handle.
//
// An occupied newID, or a ring with no other node to hold the mover's
// state in between, is refused before anything changes (as LeaveNode
// refuses a node this engine does not run).
//
// One step serves the caller rather than the protocol: the harness that
// moves identifiers ranks load per physical node, so the old
// identifier's QPL/SL record is added to the new identifier's and
// zeroed — the load follows the node, and the old identifier keeps only
// what is charged to it afterwards.
func (e *Engine) MoveNode(n *chord.Node, newID id.ID) (*chord.Node, error) {
	if e.ring.Node(newID) != nil {
		return nil, fmt.Errorf("core: cannot move node %s to %s: identifier taken", n.ID(), newID)
	}
	if e.ring.Size() < 2 {
		return nil, fmt.Errorf("core: cannot move node %s: no other node to hold its state", n.ID())
	}
	if err := e.LeaveNode(n); err != nil {
		return nil, err
	}
	nn, err := e.JoinNode(newID)
	if err != nil {
		return nil, err
	}
	from, to := e.loads[n.ID()], e.loads[nn.ID()]
	to.qpl += from.qpl
	to.sl += from.sl
	*from = load{}
	return nn, nil
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
