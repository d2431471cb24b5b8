package chord

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rjoin/internal/id"
)

// buildRing joins n nodes with deterministic pseudo-random identifiers
// and converges routing state.
func buildRing(t testing.TB, n int, seed int64) *Ring {
	t.Helper()
	r := NewRing()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for {
			if _, err := r.Join(id.ID(rng.Uint64())); err == nil {
				break
			}
		}
	}
	r.BuildPerfect()
	return r
}

func TestSingletonRing(t *testing.T) {
	r := NewRing()
	n, err := r.Join(42)
	if err != nil {
		t.Fatal(err)
	}
	r.BuildPerfect()
	if n.Successor() != n {
		t.Fatal("singleton node must be its own successor")
	}
	owner, path := n.Lookup(999)
	if owner != n {
		t.Fatal("singleton lookup must return self")
	}
	if len(path) != 0 {
		t.Fatalf("singleton lookup should be local, got %d hops", len(path))
	}
}

func TestJoinDuplicateID(t *testing.T) {
	r := NewRing()
	if _, err := r.Join(7); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Join(7); err == nil {
		t.Fatal("duplicate join must fail")
	}
}

func TestLookupFindsGroundTruthOwner(t *testing.T) {
	r := buildRing(t, 200, 1)
	rng := rand.New(rand.NewSource(2))
	nodes := r.Nodes()
	for i := 0; i < 500; i++ {
		from := nodes[rng.Intn(len(nodes))]
		target := id.ID(rng.Uint64())
		owner, _ := from.Lookup(target)
		if want := r.Owner(target); owner != want {
			t.Fatalf("lookup(%v) from %v = %v, want %v", target, from, owner, want)
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		r := buildRing(t, n, int64(n))
		rng := rand.New(rand.NewSource(99))
		nodes := r.Nodes()
		total := 0
		const trials = 300
		for i := 0; i < trials; i++ {
			from := nodes[rng.Intn(len(nodes))]
			_, path := from.Lookup(id.ID(rng.Uint64()))
			total += len(path)
		}
		mean := float64(total) / trials
		// Chord: mean hops ~ (1/2) log2 N. Allow generous slack.
		bound := 1.5*math.Log2(float64(n)) + 2
		if mean > bound {
			t.Errorf("N=%d: mean hops %.2f exceeds bound %.2f", n, mean, bound)
		}
	}
}

func TestOwnerIsSuccessorRule(t *testing.T) {
	r := buildRing(t, 50, 3)
	nodes := r.Nodes()
	// Every key between pred(n) exclusive and n inclusive belongs to n.
	for i, n := range nodes {
		prev := nodes[(i-1+len(nodes))%len(nodes)]
		if got := r.Owner(n.ID()); got != n {
			t.Fatalf("Owner(n.ID()) != n")
		}
		mid := prev.ID() + (n.ID()-prev.ID())/2
		if prev.ID() != n.ID() {
			if got := r.Owner(mid + 1); !id.BetweenRightIncl(mid+1, prev.ID(), n.ID()) || got != n {
				// only assert when mid+1 actually falls in the arc
				if id.BetweenRightIncl(mid+1, prev.ID(), n.ID()) {
					t.Fatalf("Owner(mid) = %v, want %v", got, n)
				}
			}
		}
	}
}

func TestVoluntaryLeave(t *testing.T) {
	r := buildRing(t, 100, 4)
	nodes := append([]*Node(nil), r.Nodes()...)
	victim := nodes[17]
	vid := victim.ID()
	r.Leave(victim)
	if r.Node(vid) != nil {
		t.Fatal("left node still resolvable")
	}
	owner := r.Owner(vid)
	if owner == victim {
		t.Fatal("keys of left node not reassigned")
	}
	// Lookups still converge from every node.
	for _, from := range r.Nodes() {
		got, _ := from.Lookup(vid)
		if got != owner {
			t.Fatalf("post-leave lookup diverged: %v vs %v", got, owner)
		}
	}
}

// TestAbruptFailureRepairedByStabilization: ten nodes fail without
// notice. Each Fail makes the repair a stabilization round would make
// before it returns, so every pointer is exact and lookups from every
// node reach the owner with no round run.
func TestAbruptFailureRepairedByStabilization(t *testing.T) {
	r := buildRing(t, 100, 5)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10; i++ {
		nodes := r.Nodes()
		r.Fail(nodes[rng.Intn(len(nodes))])
		mustBeExact(t, r, rng)
	}
	verifyLookups(t, r, 6, 200)
}

// TestIncrementalJoinConverges: a built ring grows one Join at a time,
// with no BuildPerfect after the first, and lookups stay exact after
// every join.
func TestIncrementalJoinConverges(t *testing.T) {
	r := NewRing()
	rng := rand.New(rand.NewSource(7))
	r.BuildPerfect()
	for i := 0; i < 60; i++ {
		if _, err := r.Join(id.ID(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
		mustBeExact(t, r, rng)
	}
	verifyLookups(t, r, 7, 200)
}

// Property: ownership partitions the key space — for random keys the
// owner is the unique alive node whose arc covers the key.
func TestOwnershipPartitionProperty(t *testing.T) {
	r := buildRing(t, 128, 8)
	nodes := r.Nodes()
	f := func(key uint64) bool {
		owner := r.Owner(id.ID(key))
		count := 0
		for i, n := range nodes {
			prev := nodes[(i-1+len(nodes))%len(nodes)]
			if id.BetweenRightIncl(id.ID(key), prev.ID(), n.ID()) {
				count++
				if n != owner {
					return false
				}
			}
		}
		return count == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerTablesPointAtSuccessors(t *testing.T) {
	r := buildRing(t, 64, 9)
	for _, n := range r.Nodes() {
		for i := 0; i < id.Bits; i += 7 { // sample fingers
			start := id.FingerStart(n.ID(), i)
			if n.finger[i] != r.Owner(start) {
				t.Fatalf("finger[%d] of %v stale", i, n)
			}
		}
	}
}

func TestLookupPathExcludesOrigin(t *testing.T) {
	r := buildRing(t, 128, 10)
	nodes := r.Nodes()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		from := nodes[rng.Intn(len(nodes))]
		_, path := from.Lookup(id.ID(rng.Uint64()))
		for _, p := range path {
			if p == from {
				t.Fatal("origin appears in its own hop path")
			}
		}
	}
}

// TestLookupAppendReusesBuffer: the appending form walks the same route
// as Lookup, keeps what the buffer already held, and once the buffer
// has grown to the longest path it allocates nothing.
func TestLookupAppendReusesBuffer(t *testing.T) {
	r := buildRing(t, 128, 10)
	nodes := r.Nodes()
	rng := rand.New(rand.NewSource(12))
	prefix := []*Node{nodes[0], nodes[1]}
	buf := make([]*Node, 0, 2*id.Bits+1)
	for i := 0; i < 200; i++ {
		from, target := nodes[rng.Intn(len(nodes))], id.ID(rng.Uint64())
		owner, path := from.Lookup(target)
		gotOwner, got := from.LookupAppend(prefix, target)
		if gotOwner != owner || !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], path) {
			t.Fatalf("LookupAppend(%v) = %v, %v; Lookup gives %v, %v", prefix, gotOwner, got, owner, path)
		}
		if _, got = from.LookupAppend(buf[:0], target); !slices.Equal(got, path) || (len(got) > 0 && &got[0] != &buf[:1][0]) {
			t.Fatalf("LookupAppend into a large enough buffer returned %v (want %v) or moved off the buffer", got, path)
		}
	}
	from, target := nodes[3], id.ID(rng.Uint64())
	if n := testing.AllocsPerRun(100, func() { from.LookupAppend(buf[:0], target) }); n != 0 {
		t.Fatalf("LookupAppend into a large enough buffer allocates %v times", n)
	}
}

// verifyLookups asserts that lookups from every node agree with ground
// truth for a batch of random targets.
func verifyLookups(t *testing.T, r *Ring, seed int64, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < trials; i++ {
		nodes := r.Nodes()
		from := nodes[rng.Intn(len(nodes))]
		target := id.ID(rng.Uint64())
		owner, _ := from.Lookup(target)
		if want := r.Owner(target); owner != want {
			t.Fatalf("lookup(%v) from %v = %v, want %v", target, from, owner, want)
		}
	}
}

func TestOneNodeRingLeaveAndRejoin(t *testing.T) {
	r := NewRing()
	n, err := r.Join(11)
	if err != nil {
		t.Fatal(err)
	}
	r.BuildPerfect()
	r.Leave(n)
	if r.Size() != 0 {
		t.Fatalf("size after sole node left = %d, want 0", r.Size())
	}
	if r.Owner(123) != nil {
		t.Fatal("empty ring must own nothing")
	}
	// The identifier is free again and the rejoined node bootstraps a
	// fresh singleton ring.
	n2, err := r.Join(11)
	if err != nil {
		t.Fatalf("rejoin after leave: %v", err)
	}
	if n2.Successor() != n2 || n2.Predecessor() != n2 {
		t.Fatal("rejoined singleton must point at itself")
	}
	if owner, _ := n2.Lookup(999); owner != n2 {
		t.Fatal("singleton lookup must resolve locally")
	}
}

func TestTwoNodeRing(t *testing.T) {
	r := NewRing()
	a, _ := r.Join(100)
	b, err := r.Join(200)
	if err != nil {
		t.Fatal(err)
	}
	r.BuildPerfect()
	if a.Successor() != b || b.Successor() != a {
		t.Fatal("two-node ring successors must point at each other")
	}
	if r.Owner(150) != b || r.Owner(250) != a {
		t.Fatal("two-node ownership arcs wrong")
	}
	verifyLookups(t, r, 21, 50)

	// Leaving one node collapses back to a correct singleton.
	r.Leave(b)
	if a.Successor() != a {
		t.Fatal("survivor must become its own successor")
	}
	if p := a.Predecessor(); p != nil && p != a {
		t.Fatalf("survivor predecessor = %v, want self or nil", p)
	}
	if r.Owner(150) != a {
		t.Fatal("survivor must own the whole ring")
	}
}

func TestTwoNodeRingFailure(t *testing.T) {
	r := NewRing()
	a, _ := r.Join(100)
	b, _ := r.Join(200)
	r.BuildPerfect()
	r.Fail(b)
	if a.Successor() != a {
		t.Fatal("survivor of a 2-node failure must self-succeed")
	}
	if owner, _ := a.Lookup(150); owner != a {
		t.Fatal("survivor must resolve all keys locally")
	}
}

// Leave of a node's own successor: the predecessor must splice past it
// and keep routing correct, including when the two are adjacent in a
// larger ring.
func TestLeaveOfOwnSuccessor(t *testing.T) {
	r := buildRing(t, 64, 31)
	nodes := r.Nodes()
	n := nodes[10]
	victim := n.Successor()
	if victim == n {
		t.Fatal("fixture broken: node is its own successor in a 64-ring")
	}
	r.Leave(victim)
	if got := n.Successor(); got != r.Owner(victim.ID()) {
		t.Fatalf("successor after leave = %v, want %v", got, r.Owner(victim.ID()))
	}
	verifyLookups(t, r, 32, 200)
}

// TestFailThenStabilizeConvergence: a contiguous run of five nodes
// fails, so the survivor before the run loses its first five successors
// at once; its successor and the run's new owner's predecessor are
// exact as soon as the calls return.
func TestFailThenStabilizeConvergence(t *testing.T) {
	r := buildRing(t, 96, 33)
	nodes := append([]*Node(nil), r.Nodes()...)
	for k := 1; k <= 5; k++ {
		r.Fail(nodes[(20+k)%len(nodes)])
	}
	for _, n := range r.Nodes() {
		if want := r.Owner(n.ID() + 1); n.Successor() != want {
			t.Fatalf("successor of %v = %v, want %v", n, n.Successor(), want)
		}
		if p := n.Predecessor(); p == nil || !p.Alive() {
			t.Fatalf("predecessor of %v not repaired: %v", n, p)
		}
	}
	if p := nodes[26].Predecessor(); p != nodes[20] {
		t.Fatalf("predecessor across the run = %v, want %v", p, nodes[20])
	}
	verifyLookups(t, r, 34, 300)
}

// TestTickStabilizeConverges: fails and joins mixed, every finger of
// every node checked against the owner of its start once the calls
// return — the state a full finger rotation used to reach.
func TestTickStabilizeConverges(t *testing.T) {
	r := buildRing(t, 80, 35)
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 6; i++ {
		nodes := r.Nodes()
		r.Fail(nodes[rng.Intn(len(nodes))])
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Join(id.ID(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range r.Nodes() {
		for i := 0; i < id.Bits; i++ {
			if want := r.Owner(id.FingerStart(n.ID(), i)); n.finger[i] != want {
				t.Fatalf("finger[%d] of %v = %v, want %v", i, n, n.finger[i], want)
			}
		}
	}
	verifyLookups(t, r, 37, 300)
}

// mustBeExact fails the test at the first routing pointer or lookup of r
// that differs from ground truth (see pointersExact).
func mustBeExact(t *testing.T, r *Ring, rng *rand.Rand) {
	t.Helper()
	if err := pointersExact(r, rng); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup1024(b *testing.B) {
	r := buildRing(b, 1024, 12)
	nodes := r.Nodes()
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := nodes[rng.Intn(len(nodes))]
		from.Lookup(id.ID(rng.Uint64()))
	}
}

func ExampleRing_Owner() {
	r := NewRing()
	r.Join(100)
	r.Join(200)
	r.Join(300)
	r.BuildPerfect()
	fmt.Println(r.Owner(150).ID() == 200)
	fmt.Println(r.Owner(301).ID() == 100) // wraps around
	// Output:
	// true
	// true
}

// TestSuccessorListBasic: in a converged ring, SuccessorList(n, k)
// returns the k next alive nodes in identifier order, n excluded.
func TestSuccessorListBasic(t *testing.T) {
	r := buildRing(t, 16, 5)
	nodes := r.Nodes()
	for i, n := range nodes {
		got := r.SuccessorList(n.ID(), 3)
		if len(got) != 3 {
			t.Fatalf("node %d: successor list length %d, want 3", i, len(got))
		}
		for j, s := range got {
			want := nodes[(i+1+j)%len(nodes)]
			if s != want {
				t.Fatalf("node %d: successor %d is %s, want %s", i, j, s, want)
			}
		}
	}
}

// TestSuccessorListSmallRings: a singleton yields an empty list, a
// two-node ring yields exactly the other node, and both are stable when
// k exceeds the ring size.
func TestSuccessorListSmallRings(t *testing.T) {
	r := NewRing()
	a, _ := r.Join(100)
	if got := r.SuccessorList(a.ID(), 4); len(got) != 0 {
		t.Fatalf("singleton successor list %v, want empty", got)
	}
	b, _ := r.Join(200)
	if got := r.SuccessorList(a.ID(), 4); len(got) != 1 || got[0] != b {
		t.Fatalf("two-node list of a: %v, want [b]", got)
	}
	if got := r.SuccessorList(b.ID(), 4); len(got) != 1 || got[0] != a {
		t.Fatalf("two-node list of b: %v, want [a]", got)
	}
	if got := r.SuccessorList(a.ID(), 0); got != nil {
		t.Fatalf("k=0 list %v, want nil", got)
	}
}

// TestSuccessorListLargerThanRing: k larger than the ring returns every
// other member exactly once, in ring order.
func TestSuccessorListLargerThanRing(t *testing.T) {
	r := buildRing(t, 5, 9)
	nodes := r.Nodes()
	for i, n := range nodes {
		got := r.SuccessorList(n.ID(), 64)
		if len(got) != len(nodes)-1 {
			t.Fatalf("node %d: list length %d, want %d", i, len(got), len(nodes)-1)
		}
		seen := map[*Node]bool{n: true}
		for j, s := range got {
			if seen[s] {
				t.Fatalf("node %d: duplicate entry %s at position %d", i, s, j)
			}
			seen[s] = true
			if want := nodes[(i+1+j)%len(nodes)]; s != want {
				t.Fatalf("node %d: position %d is %s, want %s", i, j, s, want)
			}
		}
	}
}

// TestSuccessorListIsGroundTruth: the list never lags a membership
// change — a joiner appears in its predecessors' lists, and is its
// predecessor's successor pointer, when Join returns — and it answers
// for identifiers no alive node holds.
func TestSuccessorListIsGroundTruth(t *testing.T) {
	r := buildRing(t, 8, 21)
	nodes := append([]*Node(nil), r.Nodes()...)
	pred, next := nodes[2], nodes[3]
	mid := pred.ID() + (next.ID()-pred.ID())/2
	j, err := r.Join(mid)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.SuccessorList(pred.ID(), 2); len(got) != 2 || got[0] != j || got[1] != next {
		t.Fatalf("list of the joiner's predecessor: %v, want [%s %s]", got, j, next)
	}
	if got := r.SuccessorList(nodes[1].ID(), 3); len(got) != 3 || got[1] != j {
		t.Fatalf("list two positions before the joiner: %v, want %s second", got, j)
	}
	if pred.Successor() != j || j.Predecessor() != pred || next.Predecessor() != j {
		t.Fatalf("pointers around the joiner: %s→%s, %s←%s, %s←%s", pred, pred.Successor(), j.Predecessor(), j, next.Predecessor(), next)
	}
	r.Fail(pred)
	if got := r.SuccessorList(pred.ID(), 1); len(got) != 1 || got[0] != j {
		t.Fatalf("list of a dead node's identifier: %v, want [%s]", got, j)
	}
	if got := r.SuccessorList(mid+1, 1); len(got) != 1 || got[0] != next {
		t.Fatalf("list of an identifier nobody holds: %v, want [%s]", got, next)
	}
}

// TestSuccessorListRepairsAfterFail: once a node fails, it is in no
// survivor's successor list, and every survivor's list is the next
// alive nodes in identifier order, its Successor pointer the head.
func TestSuccessorListRepairsAfterFail(t *testing.T) {
	r := buildRing(t, 12, 13)
	nodes := append([]*Node(nil), r.Nodes()...)
	victim := nodes[4]
	r.Fail(victim)
	alive := r.Nodes()
	for i, n := range alive {
		got := r.SuccessorList(n.ID(), 3)
		if len(got) != 3 {
			t.Fatalf("node %s: repaired list length %d, want 3", n, len(got))
		}
		for j, s := range got {
			if s == victim {
				t.Fatalf("dead node %s still in successor list of %s", victim, n)
			}
			if want := alive[(i+1+j)%len(alive)]; s != want {
				t.Fatalf("node %s: repaired position %d is %s, want %s", n, j, s, want)
			}
		}
		if n.Successor() != got[0] {
			t.Fatalf("node %s: successor %s, successor list head %s", n, n.Successor(), got[0])
		}
	}
}

// TestPredecessorListInvertsSuccessorList: on rings smaller and larger
// than k, the k predecessors of a node are, nearest first, exactly the
// nodes whose k successors include it; a departed node's identifier
// keeps them until it is gone from their successor lists.
func TestPredecessorListInvertsSuccessorList(t *testing.T) {
	for _, size := range []int{1, 2, 3, 9} {
		r := buildRing(t, size, int64(size))
		nodes := r.Nodes()
		for k := 1; k <= 4; k++ {
			for i, n := range nodes {
				got := r.PredecessorList(n.ID(), k)
				if len(got) != min(k, size-1) {
					t.Fatalf("size %d k %d: %d predecessors, want %d", size, k, len(got), min(k, size-1))
				}
				for j, m := range got {
					if want := nodes[(i-1-j+2*size)%size]; m != want {
						t.Fatalf("size %d k %d: predecessor %d is %s, want %s", size, k, j, m, want)
					}
					if !slices.Contains(r.SuccessorList(m.ID(), k), n) {
						t.Fatalf("size %d k %d: %s precedes %s, which is not among its successors", size, k, m, n)
					}
				}
			}
		}
	}
	r := buildRing(t, 9, 9)
	gone := r.Nodes()[4]
	before := r.PredecessorList(gone.ID(), 3)
	r.Fail(gone)
	if after := r.PredecessorList(gone.ID(), 3); !slices.Equal(after, before) {
		t.Fatalf("a departed node's predecessors: %v, before the departure %v", after, before)
	}
}

// ownerByScan is Owner computed without the sorted index: the alive
// node at the least clockwise distance from x, x itself at distance 0.
func ownerByScan(nodes []*Node, x id.ID) *Node {
	var best *Node
	for _, n := range nodes {
		if best == nil || id.Dist(x, n.ID()) < id.Dist(x, best.ID()) {
			best = n
		}
	}
	return best
}

// pointersExact reports the first routing pointer of an alive node that
// differs from ring ground truth, and the first lookup, from any alive
// node to a node's identifier, the point just past it or a random
// target, that does not end at the target's owner.
func pointersExact(r *Ring, rng *rand.Rand) error {
	nodes := r.Nodes()
	targets := []id.ID{id.ID(rng.Uint64()), id.ID(rng.Uint64())}
	for i, n := range nodes {
		if !n.Alive() || r.Node(n.ID()) != n {
			return fmt.Errorf("%s is listed but not the alive node at its identifier", n)
		}
		if want := nodes[(i+len(nodes)-1)%len(nodes)]; n.Predecessor() != want {
			return fmt.Errorf("predecessor of %s is %s, want %s", n, n.Predecessor(), want)
		}
		want := n
		if succ := r.SuccessorList(n.ID(), 1); len(succ) == 1 {
			want = succ[0]
		}
		if n.Successor() != want || want != nodes[(i+1)%len(nodes)] {
			return fmt.Errorf("successor of %s is %s, successor list head %s", n, n.Successor(), want)
		}
		for f := range n.finger {
			if want := ownerByScan(nodes, id.FingerStart(n.ID(), f)); n.finger[f] != want {
				return fmt.Errorf("finger[%d] of %s is %s, want %s", f, n, n.finger[f], want)
			}
		}
		targets = append(targets, n.ID(), n.ID()+1)
	}
	for _, from := range nodes {
		for _, x := range targets {
			owner, path := from.Lookup(x)
			if want := ownerByScan(nodes, x); owner != want {
				return fmt.Errorf("lookup(%s) from %s ends at %s, want %s", x, from, owner, want)
			}
			if len(path) > 0 && path[len(path)-1] != owner || len(path) == 0 && owner != from {
				return fmt.Errorf("lookup(%s) from %s: path %v does not end at the owner %s", x, from, path, owner)
			}
		}
	}
	return nil
}

// TestPointersExactAfterEveryCall is the ring's one routing property:
// after every Join, Leave and Fail of a built ring, every alive node's
// predecessor, successor and finger table equal ring ground truth, the
// successor is the head of the node's successor list, and a lookup from
// every node ends at the target's owner. Each seed's script starts with
// N joins and one BuildPerfect (N from 0 to 33), passes through one- and
// two-node rings, and mixes single calls with the shapes of a
// partition: a contiguous arc of nodes failing and rejoining under
// their identifiers, and every third node doing the same.
func TestPointersExactAfterEveryCall(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRing()
		step := 0
		check := func(what string) {
			t.Helper()
			step++
			if err := pointersExact(r, rng); err != nil {
				t.Fatalf("seed %d, step %d (%s, %d nodes): %v", seed, step, what, r.Size(), err)
			}
		}
		join := func(nid id.ID) {
			t.Helper()
			if _, err := r.Join(nid); err != nil {
				t.Fatalf("seed %d: join %s: %v", seed, nid, err)
			}
		}
		for i := int64(0); i < seed%4*seed; i++ {
			join(id.ID(rng.Uint64()))
		}
		r.BuildPerfect()
		check("build")
		// Grow from whatever the build left through the small rings.
		for r.Size() < 3 {
			join(id.ID(rng.Uint64()))
			check("join")
		}
		for op := 0; op < 120; op++ {
			nodes := r.Nodes()
			switch k := rng.Intn(10); {
			case len(nodes) < 2 || k < 4 && len(nodes) < 40:
				join(id.ID(rng.Uint64()))
				check("join")
			case k < 6:
				r.Leave(nodes[rng.Intn(len(nodes))])
				check("leave")
			case k < 8:
				r.Fail(nodes[rng.Intn(len(nodes))])
				check("fail")
			default:
				// A partition: a side fails call by call, then rejoins
				// under the same identifiers. The side is a contiguous
				// arc (every node but one, at most) or every third node.
				var side []*Node
				if k == 8 {
					start, width := rng.Intn(len(nodes)), 1+rng.Intn(len(nodes)-1)
					for j := 0; j < width; j++ {
						side = append(side, nodes[(start+j)%len(nodes)])
					}
				} else {
					for j := rng.Intn(3); j < len(nodes)-1; j += 3 {
						side = append(side, nodes[j])
					}
				}
				for _, n := range side {
					r.Fail(n)
					check("partition fail")
				}
				for _, n := range side {
					join(n.ID())
					check("partition rejoin")
				}
			}
		}
	}
}
