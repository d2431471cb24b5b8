// Package chord implements the Chord distributed hash table protocol
// (Stoica et al., SIGCOMM'01) as an in-process overlay: every node keeps
// a real finger table and successor list, lookups route greedily through
// fingers in O(log N) hops, and the ring supports joins, voluntary
// leaves, failures and the periodic stabilization protocol.
//
// The RJoin layers above only consume the lookup API (the paper's
// DHT-agnostic design), but the routing below is genuine Chord so the
// per-message hop counts reported by the experiment harness have the
// same O(log N) structure as the paper's testbed.
//
// Two kinds of reader exist. Routing (Lookup, Stabilize, the finger
// table) reads each node's own protocol pointers, which lag every
// membership change until stabilization catches up. Membership
// mechanics — who owns an identifier, who follows a node — read ring
// ground truth through Owner, SuccessorList and Nodes, which never lag.
package chord

import (
	"fmt"
	"sort"

	"rjoin/internal/id"
)

// SuccessorListLen is the length r of each node's successor list. Chord
// recommends r = O(log N); 16 comfortably covers the simulated scales.
const SuccessorListLen = 16

// Node is one Chord participant. All state is protocol-visible routing
// state; application state lives in the layers above, keyed by the
// node's identifier.
type Node struct {
	id    id.ID
	alive bool

	pred   *Node
	succ   []*Node        // successor list, succ[0] is the immediate successor
	finger [id.Bits]*Node // finger[i] = successor(n + 2^i)
	ring   *Ring
}

// ID returns the node's ring identifier.
func (n *Node) ID() id.ID { return n.id }

// Alive reports whether the node is still part of the overlay.
func (n *Node) Alive() bool { return n.alive }

// Successor returns the node's current immediate successor (itself if
// the ring has a single node).
func (n *Node) Successor() *Node {
	for _, s := range n.succ {
		if s != nil && s.alive {
			return s
		}
	}
	return n
}

// Predecessor returns the node's current predecessor, or nil if unknown.
func (n *Node) Predecessor() *Node { return n.pred }

// String implements fmt.Stringer.
func (n *Node) String() string { return fmt.Sprintf("node(%s)", n.id) }

// Ring is the collection of Chord nodes forming one overlay. It owns
// membership bookkeeping; routing decisions are taken by the individual
// nodes' finger tables.
type Ring struct {
	byID  map[id.ID]*Node
	order []*Node // alive nodes sorted by id; maintained on change
	dirty bool

	// fingerStride rotates which finger indices TickStabilize repairs,
	// so incremental maintenance touches the full table every
	// ringTickRounds rounds.
	fingerStride int
}

// NewRing returns an empty overlay.
func NewRing() *Ring {
	return &Ring{byID: make(map[id.ID]*Node)}
}

// Size returns the number of alive nodes.
func (r *Ring) Size() int { return len(r.sorted()) }

// Nodes returns the alive nodes in identifier order. The returned slice
// is shared; callers must not mutate it.
func (r *Ring) Nodes() []*Node { return r.sorted() }

// Node returns the node owning identifier nid, or nil.
func (r *Ring) Node(nid id.ID) *Node {
	n := r.byID[nid]
	if n == nil || !n.alive {
		return nil
	}
	return n
}

func (r *Ring) sorted() []*Node {
	if r.dirty {
		r.order = r.order[:0]
		for _, n := range r.byID {
			if n.alive {
				r.order = append(r.order, n)
			}
		}
		sort.Slice(r.order, func(i, j int) bool { return r.order[i].id < r.order[j].id })
		r.dirty = false
	}
	return r.order
}

// successorOf returns the first alive node whose identifier is >= target
// (mod ring), i.e. ground-truth Successor(target). Used for membership
// changes and for verifying routing in tests; routing itself goes
// through finger tables.
func (r *Ring) successorOf(target id.ID) *Node {
	nodes := r.sorted()
	if len(nodes) == 0 {
		return nil
	}
	i := sort.Search(len(nodes), func(i int) bool { return nodes[i].id >= target })
	if i == len(nodes) {
		i = 0
	}
	return nodes[i]
}

// Owner returns the ground-truth successor node of the given identifier.
func (r *Ring) Owner(target id.ID) *Node { return r.successorOf(target) }

// SuccessorList returns, from ring ground truth, the up-to-k alive nodes
// that follow identifier nid in ring order. The node at nid itself —
// alive, dead or never joined — is excluded, so the answer is the same
// before and after that node fails. It is the one definition of "who
// follows n" that membership mechanics (the joining lookup, replica
// groups, handover targets) read; no protocol pointer is consulted, so
// it never lags a join or a failure. Rings with fewer than k other
// members yield all of them; a singleton ring yields none.
func (r *Ring) SuccessorList(nid id.ID, k int) []*Node {
	nodes := r.sorted()
	i := sort.Search(len(nodes), func(i int) bool { return nodes[i].id > nid })
	var out []*Node
	for j := 0; j < len(nodes) && len(out) < k; j++ {
		if n := nodes[(i+j)%len(nodes)]; n.id != nid {
			out = append(out, n)
		}
	}
	return out
}

// PredecessorList is SuccessorList counter-clockwise: the up-to-k alive
// nodes that precede identifier nid, nearest first, the node at nid
// excluded — the nodes whose successor lists a change at nid reaches.
func (r *Ring) PredecessorList(nid id.ID, k int) []*Node {
	nodes := r.sorted()
	i := sort.Search(len(nodes), func(i int) bool { return nodes[i].id >= nid })
	var out []*Node
	for j := 1; j <= len(nodes) && len(out) < k; j++ {
		if n := nodes[(i-j+len(nodes))%len(nodes)]; n.id != nid {
			out = append(out, n)
		}
	}
	return out
}

// Join adds a node with the given identifier to the overlay and fully
// stabilizes its own routing state (the node performs its joining lookup
// through an existing member; fingers are then built by the fix-fingers
// protocol). It returns an error if the identifier is taken.
func (r *Ring) Join(nid id.ID) (*Node, error) {
	if ex, ok := r.byID[nid]; ok && ex.alive {
		return nil, fmt.Errorf("chord: identifier %s already joined", nid)
	}
	n := &Node{id: nid, alive: true, ring: r}
	n.succ = make([]*Node, SuccessorListLen)
	r.byID[nid] = n
	r.dirty = true

	// First node bootstraps a singleton ring.
	if len(r.sorted()) == 1 {
		for i := range n.succ {
			n.succ[i] = n
		}
		for i := range n.finger {
			n.finger[i] = n
		}
		n.pred = n
		return n, nil
	}

	// Locate the successor via ground truth (the joining lookup in real
	// Chord; the result is identical) and splice in.
	succ := r.SuccessorList(nid, 1)[0]
	n.setSuccessor(succ)
	n.Stabilize()
	succ.Stabilize()
	if p := n.pred; p != nil {
		p.Stabilize()
	}
	n.FixAllFingers()
	return n, nil
}

// Leave removes a node voluntarily: it hands its position to its
// successor and notifies its neighbours, as in Chord's voluntary-leave
// protocol.
func (r *Ring) Leave(n *Node) {
	if !n.alive {
		return
	}
	n.alive = false
	r.dirty = true
	succ := r.successorOf(n.id)
	if succ != nil && n.pred != nil && n.pred.alive {
		n.pred.setSuccessor(succ)
		succ.pred = n.pred
	}
}

// Fail removes a node abruptly, without notification. Neighbours repair
// via Stabilize/FixAllFingers, as in the Chord failure model.
func (r *Ring) Fail(n *Node) {
	if !n.alive {
		return
	}
	n.alive = false
	r.dirty = true
}

// StabilizeAll runs one round of stabilization on every node, then one
// round of finger fixing — the steady-state maintenance the Chord papers
// prove converges to a correct ring.
func (r *Ring) StabilizeAll() {
	for _, n := range r.sorted() {
		n.Stabilize()
	}
	for _, n := range r.sorted() {
		n.FixAllFingers()
	}
}

// ringTickRounds is how many TickStabilize rounds cover a full finger
// table: each round repairs id.Bits/ringTickRounds finger indices per
// node, the incremental fix_fingers cadence of a running deployment.
const ringTickRounds = 8

// TickStabilize runs one incremental maintenance round, the unit of
// work a deployment performs per stabilization timer fire: every alive
// node stabilizes its successor/predecessor links, then repairs a
// rotating 1/8 slice of its finger table. Repeated rounds converge the
// ring after membership changes without paying FixAllFingers on every
// tick; mid-convergence lookups stay correct because routing falls
// back to the successor chain (and, pathologically, ground truth).
func (r *Ring) TickStabilize() {
	nodes := r.sorted()
	for _, n := range nodes {
		n.Stabilize()
	}
	stride := id.Bits / ringTickRounds
	lo := r.fingerStride * stride
	r.fingerStride = (r.fingerStride + 1) % ringTickRounds
	for _, n := range nodes {
		for i := lo; i < lo+stride; i++ {
			n.FixFinger(i)
		}
	}
}

// BuildPerfect sets every alive node's successor list, predecessor and
// finger table to their ground-truth values. Used by the experiment
// harness to start from a converged overlay (the paper measures a stable
// network), avoiding thousands of stabilization rounds.
func (r *Ring) BuildPerfect() {
	nodes := r.sorted()
	for idx, n := range nodes {
		n.pred = nodes[(idx-1+len(nodes))%len(nodes)]
		for k := 0; k < SuccessorListLen; k++ {
			n.succ[k] = nodes[(idx+1+k)%len(nodes)]
		}
		for i := 0; i < id.Bits; i++ {
			n.finger[i] = r.successorOf(id.FingerStart(n.id, i))
		}
	}
}

func (n *Node) setSuccessor(s *Node) {
	n.succ[0] = s
	n.finger[0] = s
}

// Stabilize runs Chord's stabilize(): ask the successor for its
// predecessor, adopt it if closer, and notify the successor of us. It
// also refreshes the successor list from the (possibly new) successor.
func (n *Node) Stabilize() {
	if !n.alive {
		return
	}
	// Skip dead successors using the successor list.
	s := n.Successor()
	if x := s.pred; x != nil && x.alive && id.Between(x.id, n.id, s.id) {
		s = x
	}
	n.setSuccessor(s)
	s.notify(n)
	// Refresh successor list: our list is successor + its list shifted.
	n.succ[0] = s
	for i := 1; i < SuccessorListLen; i++ {
		prev := n.succ[i-1]
		if prev == nil || !prev.alive {
			n.succ[i] = nil
			continue
		}
		n.succ[i] = prev.Successor()
	}
	if n.pred != nil && !n.pred.alive {
		n.pred = nil
	}
}

func (n *Node) notify(candidate *Node) {
	if n.pred == nil || !n.pred.alive || id.Between(candidate.id, n.pred.id, n.id) {
		n.pred = candidate
	}
}

// FixAllFingers recomputes the node's full finger table, the batched
// equivalent of running fix_fingers() over every index.
func (n *Node) FixAllFingers() {
	if !n.alive {
		return
	}
	for i := 0; i < id.Bits; i++ {
		n.finger[i] = n.ring.successorOf(id.FingerStart(n.id, i))
	}
}

// FixFinger repairs one finger table entry — Chord's fix_fingers()
// step, run incrementally by TickStabilize.
func (n *Node) FixFinger(i int) {
	if !n.alive || i < 0 || i >= id.Bits {
		return
	}
	n.finger[i] = n.ring.successorOf(id.FingerStart(n.id, i))
}

// closestPrecedingNode returns the alive finger (or successor-list
// entry) that most closely precedes target — Chord's routing step.
func (n *Node) closestPrecedingNode(target id.ID) *Node {
	for i := id.Bits - 1; i >= 0; i-- {
		f := n.finger[i]
		if f != nil && f.alive && id.Between(f.id, n.id, target) {
			return f
		}
	}
	for i := len(n.succ) - 1; i >= 0; i-- {
		s := n.succ[i]
		if s != nil && s.alive && id.Between(s.id, n.id, target) {
			return s
		}
	}
	return n
}

// Lookup routes from node n to Successor(target) using iterative
// closest-preceding-finger routing and returns the owner along with the
// hop path taken (excluding n itself). Hop counting is what the traffic
// metric of the experiments is built from: len(path) messages are needed
// to deliver one keyed message.
func (n *Node) Lookup(target id.ID) (owner *Node, path []*Node) {
	return n.LookupAppend(nil, target)
}

// LookupAppend is Lookup appending the hop path to buf, for callers
// that consume the path before their next lookup and can reuse one
// buffer across calls.
func (n *Node) LookupAppend(buf []*Node, target id.ID) (owner *Node, path []*Node) {
	path = buf
	// A node knows its own arc (pred, n]: keys there resolve locally.
	if p := n.pred; p != nil && p.alive && id.BetweenRightIncl(target, p.id, n.id) {
		return n, path
	}
	cur := n
	for hops := 0; hops < 2*id.Bits; hops++ {
		succ := cur.Successor()
		if id.BetweenRightIncl(target, cur.id, succ.id) {
			if succ != n {
				path = append(path, succ)
			}
			return succ, path
		}
		next := cur.closestPrecedingNode(target)
		if next == cur {
			// Routing cannot make progress through fingers (e.g. stale
			// tables mid-churn): fall through to the successor.
			next = succ
		}
		if next != n {
			path = append(path, next)
		}
		cur = next
	}
	// Pathological stale state: fall back to ground truth so the layers
	// above never dead-lock. Counted as one extra hop.
	owner = n.ring.successorOf(target)
	path = append(path, owner)
	return owner, path
}
