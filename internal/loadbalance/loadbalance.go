// Package loadbalance implements the identifier-movement load balancing
// the paper layers under RJoin in its Figure 9 experiment (Karger &
// Ruhl, "Simple Efficient Load Balancing Algorithms for Peer-to-Peer
// Systems", SPAA'04): a lightly loaded node changes its position on the
// identifier circle to split the arc of a heavily loaded node, taking
// over responsibility for part of its keys. The policy lives here; the
// mechanics are the engine's: core.Engine.MoveNode is a graceful leave
// and a join at the new identifier, so the moved state is charged as
// handover messages and, like all churn, wants the overlay's bounce
// path (overlay.Config.Bounce) — a round makes several moves back to
// back, and a message in flight to a node that moves next must be able
// to follow it.
package loadbalance

import (
	"sort"

	"rjoin/internal/chord"
	"rjoin/internal/core"
	"rjoin/internal/id"
)

// Rebalance performs one round: it pairs the most loaded nodes with the
// least loaded ones, and moves each light node to the midpoint of its
// heavy partner's arc so the heavy node sheds half its key range. A
// round moves at most max(nodes/16, 1) nodes, and a pair moves only
// when the heavy node holds at least 4× what its light partner holds
// (Karger–Ruhl use a constant ε-fraction test; 4 keeps moves rare and
// effective). It returns the number of id movements performed.
// Occupancy is read from the nodes' stores, so the handovers of one
// round should have landed (Engine.Run) before the next is asked for.
func Rebalance(eng *core.Engine) int {
	nodes := eng.Ring().Nodes()
	if len(nodes) < 4 {
		return 0
	}
	moves := max(len(nodes)/16, 1)

	type loaded struct {
		n   *chord.Node
		occ int
	}
	byLoad := make([]loaded, len(nodes))
	for i, n := range nodes {
		byLoad[i] = loaded{n, eng.StoredOccupancy(n)}
	}
	sort.Slice(byLoad, func(i, j int) bool { return byLoad[i].occ > byLoad[j].occ })

	performed := 0
	for i := 0; i < moves && i < len(byLoad)/2; i++ {
		heavy := byLoad[i]
		light := byLoad[len(byLoad)-1-i]
		if heavy.occ < 4*(light.occ+1) {
			break // remaining pairs are balanced enough
		}
		target, ok := splitPoint(heavy.n)
		if !ok {
			continue
		}
		if _, err := eng.MoveNode(light.n, target); err != nil {
			continue
		}
		performed++
	}
	return performed
}

// splitPoint returns the midpoint of the heavy node's arc
// (pred, heavy], the identifier at which a joining node takes over half
// the heavy node's key range.
func splitPoint(heavy *chord.Node) (id.ID, bool) {
	pred := heavy.Predecessor()
	if pred == nil || pred == heavy {
		return 0, false
	}
	span := id.Dist(pred.ID(), heavy.ID())
	if span < 2 {
		return 0, false
	}
	return pred.ID().Add(span / 2), true
}
