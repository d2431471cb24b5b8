// Package loadbalance implements the identifier-movement load balancing
// the paper layers under RJoin in its Figure 9 experiment (Karger &
// Ruhl, "Simple Efficient Load Balancing Algorithms for Peer-to-Peer
// Systems", SPAA'04): a lightly loaded node changes its position on the
// identifier circle to split the arc of a heavily loaded node, taking
// over responsibility for part of its keys. The policy lives here; the
// mechanics are the churn subsystem's: core.Engine.MoveNode is a
// graceful leave and a join at the new identifier, so the moved state
// travels as handover messages and, like all churn, wants the overlay's
// bounce path (overlay.Config.Bounce) — a round makes several moves back
// to back, and a chunk in flight to a node that moves next must be able
// to follow it.
package loadbalance

import (
	"sort"

	"rjoin/internal/chord"
	"rjoin/internal/core"
	"rjoin/internal/id"
)

// Balancer periodically rebalances stored occupancy across nodes by id
// movement.
type Balancer struct {
	// MovesPerRound bounds how many light nodes are relocated in one
	// Rebalance call (default 1/16 of the network).
	MovesPerRound int
	// Imbalance is the heavy/light occupancy ratio that justifies a
	// move (Karger–Ruhl uses a constant ε-fraction test; 4 keeps moves
	// rare and effective).
	Imbalance float64
}

// New returns a balancer with the default policy.
func New() *Balancer { return &Balancer{Imbalance: 4} }

// Rebalance performs one round: it pairs the most loaded nodes with the
// least loaded ones, and moves each light node to the midpoint of its
// heavy partner's arc so the heavy node sheds half its key range. It
// returns the number of id movements performed. Occupancy is read from
// the nodes' stores, so the handovers of one round should have landed
// (Engine.Run) before the next is asked for.
func (b *Balancer) Rebalance(eng *core.Engine) int {
	ring := eng.Ring()
	nodes := append([]*chord.Node(nil), ring.Nodes()...)
	if len(nodes) < 4 {
		return 0
	}
	moves := b.MovesPerRound
	if moves <= 0 {
		moves = len(nodes) / 16
		if moves == 0 {
			moves = 1
		}
	}
	imb := b.Imbalance
	if imb <= 1 {
		imb = 4
	}

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
		if heavy.occ < int(imb*float64(light.occ+1)) {
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
