// Package chord implements the Chord distributed hash table protocol
// (Stoica et al., SIGCOMM'01) as an in-process overlay: every node keeps
// a real finger table and predecessor, and lookups route greedily
// through fingers in O(log N) hops.
//
// The RJoin layers above only consume the lookup API (the paper's
// DHT-agnostic design), but the routing below is genuine Chord so the
// per-message hop counts reported by the experiment harness have the
// same O(log N) structure as the paper's testbed.
//
// There is one view of the ring. Membership mechanics — who owns an
// identifier, who follows a node — read ring ground truth through
// Owner, SuccessorList and Nodes. Routing reads each node's own
// pointers, and every membership call (Join, Leave, Fail) rebuilds
// those from the same ground truth before it returns, so a lookup
// always ends at the identifier's owner. Chord's stabilization
// protocol, which repairs pointers after the fact, has nothing to do
// here and is not implemented.
package chord

import (
	"fmt"
	"sort"

	"rjoin/internal/id"
)

// Node is one Chord participant. All state is protocol-visible routing
// state; application state lives in the layers above, keyed by the
// node's identifier.
type Node struct {
	id    id.ID
	alive bool

	pred   *Node
	finger [id.Bits]*Node // finger[i] = successor(n + 2^i); finger[0] is the immediate successor
}

// ID returns the node's ring identifier.
func (n *Node) ID() id.ID { return n.id }

// Alive reports whether the node is still part of the overlay.
func (n *Node) Alive() bool { return n.alive }

// Successor returns the node's immediate successor (itself if the ring
// has a single node).
func (n *Node) Successor() *Node { return n.finger[0] }

// Predecessor returns the node's predecessor (itself if the ring has a
// single node).
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
	built bool // set by BuildPerfect: membership calls rebuild the pointers
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

// Owner returns the ground-truth successor node of the given identifier:
// the first alive node whose identifier is >= target (mod ring), or nil
// on an empty ring.
func (r *Ring) Owner(target id.ID) *Node {
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

// SuccessorList returns, from ring ground truth, the up-to-k alive nodes
// that follow identifier nid in ring order. The node at nid itself —
// alive, dead or never joined — is excluded, so the answer is the same
// before and after that node fails. It is the one definition of "who
// follows n" that membership mechanics (a joiner's arc source, replica
// groups, handover targets) read, and it is each node's Chord successor
// list: a node keeps no copy of its own. Rings with fewer than k other
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

// Join adds a node with the given identifier to the overlay. It
// returns an error if the identifier is taken. Before the ring's first
// BuildPerfect a join only records the member, so that building a ring
// of N nodes costs one rebuild, not N; from then on the join leaves
// every alive node's pointers exact before it returns.
func (r *Ring) Join(nid id.ID) (*Node, error) {
	if ex, ok := r.byID[nid]; ok && ex.alive {
		return nil, fmt.Errorf("chord: identifier %s already joined", nid)
	}
	n := &Node{id: nid, alive: true}
	r.byID[nid] = n
	r.changed()
	return n, nil
}

// Leave removes a node voluntarily. Its arc passes to its successor,
// and every alive node's pointers are exact when Leave returns.
func (r *Ring) Leave(n *Node) {
	if !n.alive {
		return
	}
	n.alive = false
	r.changed()
}

// Fail removes a node abruptly. The ring's bookkeeping is Leave's: the
// difference between a crash and a leave — whether state is handed on —
// lives in the layers above.
func (r *Ring) Fail(n *Node) { r.Leave(n) }

// changed records a membership change and, once the ring has been
// built, rebuilds the routing pointers from it.
func (r *Ring) changed() {
	r.dirty = true
	if r.built {
		r.BuildPerfect()
	}
}

// BuildPerfect sets every alive node's predecessor and finger table to
// their ground-truth values, and makes every later membership call do
// the same. Constructors join their nodes first and call it once.
func (r *Ring) BuildPerfect() {
	r.built = true
	nodes := r.sorted()
	for idx, n := range nodes {
		n.pred = nodes[(idx-1+len(nodes))%len(nodes)]
		for i := range n.finger {
			n.finger[i] = r.Owner(id.FingerStart(n.id, i))
		}
	}
}

// closestPrecedingNode returns the finger that most closely precedes
// target — Chord's routing step. It is called only when target lies
// beyond the successor, so the successor, finger[0], always qualifies.
func (n *Node) closestPrecedingNode(target id.ID) *Node {
	for i := id.Bits - 1; i > 0; i-- {
		if f := n.finger[i]; id.Between(f.id, n.id, target) {
			return f
		}
	}
	return n.finger[0]
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
	if id.BetweenRightIncl(target, n.pred.id, n.id) {
		return n, path
	}
	cur := n
	for {
		if succ := cur.finger[0]; id.BetweenRightIncl(target, cur.id, succ.id) {
			return succ, append(path, succ)
		}
		cur = cur.closestPrecedingNode(target)
		path = append(path, cur)
	}
}
