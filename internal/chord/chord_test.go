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
	r.StabilizeAll()
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

func TestAbruptFailureRepairedByStabilization(t *testing.T) {
	r := buildRing(t, 100, 5)
	rng := rand.New(rand.NewSource(6))
	// Fail 10 random nodes without notice.
	for i := 0; i < 10; i++ {
		nodes := r.Nodes()
		r.Fail(nodes[rng.Intn(len(nodes))])
	}
	// A few stabilization rounds must repair the ring.
	for i := 0; i < 3; i++ {
		r.StabilizeAll()
	}
	for i := 0; i < 200; i++ {
		nodes := r.Nodes()
		from := nodes[rng.Intn(len(nodes))]
		target := id.ID(rng.Uint64())
		owner, _ := from.Lookup(target)
		if want := r.Owner(target); owner != want {
			t.Fatalf("post-failure lookup(%v) = %v, want %v", target, owner, want)
		}
	}
}

func TestIncrementalJoinConverges(t *testing.T) {
	// Join nodes one at a time with stabilization only (no BuildPerfect)
	// and check lookups stay correct throughout.
	r := NewRing()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		if _, err := r.Join(id.ID(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
		r.StabilizeAll()
	}
	for i := 0; i < 200; i++ {
		nodes := r.Nodes()
		from := nodes[rng.Intn(len(nodes))]
		target := id.ID(rng.Uint64())
		owner, _ := from.Lookup(target)
		if want := r.Owner(target); owner != want {
			t.Fatalf("incremental ring lookup(%v) = %v, want %v", target, owner, want)
		}
	}
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
	if a.Successor() != b || b.Successor() != a {
		t.Fatal("two-node ring successors must point at each other")
	}
	if r.Owner(150) != b || r.Owner(250) != a {
		t.Fatal("two-node ownership arcs wrong")
	}
	verifyLookups(t, r, 21, 50)

	// Leaving one node collapses back to a correct singleton.
	r.Leave(b)
	r.StabilizeAll()
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
	r.Fail(b)
	for i := 0; i < 3; i++ {
		r.StabilizeAll()
	}
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
	if n.Successor() == victim {
		t.Fatal("leave did not splice the predecessor past the victim")
	}
	r.StabilizeAll()
	if got := n.Successor(); got != r.Owner(victim.ID()) {
		t.Fatalf("successor after leave = %v, want %v", got, r.Owner(victim.ID()))
	}
	verifyLookups(t, r, 32, 200)
}

// Fail followed by StabilizeAll rounds must reconverge successor lists,
// predecessors and fingers to ground truth, even when a node's whole
// nearby neighbourhood fails at once.
func TestFailThenStabilizeConvergence(t *testing.T) {
	r := buildRing(t, 96, 33)
	nodes := append([]*Node(nil), r.Nodes()...)
	// Fail a contiguous run of successors (harder than scattered
	// failures: the survivor's first few successor-list entries all die).
	for k := 1; k <= 5; k++ {
		r.Fail(nodes[(20+k)%len(nodes)])
	}
	for i := 0; i < 4; i++ {
		r.StabilizeAll()
	}
	for _, n := range r.Nodes() {
		if want := r.Owner(n.ID() + 1); n.Successor() != want {
			t.Fatalf("successor of %v = %v, want %v", n, n.Successor(), want)
		}
		if p := n.Predecessor(); p == nil || !p.Alive() {
			t.Fatalf("predecessor of %v not repaired: %v", n, p)
		}
	}
	verifyLookups(t, r, 34, 300)
}

// TickStabilize is the incremental maintenance cadence: after churn,
// enough rounds must converge the ring exactly like StabilizeAll.
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
	// One full finger rotation plus slack.
	for i := 0; i < 2*ringTickRounds; i++ {
		r.TickStabilize()
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
	r.StabilizeAll()
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

// TestSuccessorListRepairsAfterFail: failing a node leaves it out of
// every successor list at once — the list is ring ground truth — and
// stabilization leaves it unchanged: the node that followed the victim
// has moved up one position.
func TestSuccessorListRepairsAfterFail(t *testing.T) {
	r := buildRing(t, 12, 13)
	nodes := append([]*Node(nil), r.Nodes()...)
	victim := nodes[4]
	r.Fail(victim)
	// Immediately after the failure, before any stabilization round.
	for _, n := range r.Nodes() {
		for _, s := range r.SuccessorList(n.ID(), 4) {
			if s == victim {
				t.Fatalf("dead node %s still in successor list of %s before stabilize", victim, n)
			}
		}
	}
	r.StabilizeAll()
	alive := r.Nodes()
	for i, n := range alive {
		got := r.SuccessorList(n.ID(), 3)
		if len(got) != 3 {
			t.Fatalf("node %s: repaired list length %d, want 3", n, len(got))
		}
		for j, s := range got {
			if want := alive[(i+1+j)%len(alive)]; s != want {
				t.Fatalf("node %s: repaired position %d is %s, want %s", n, j, s, want)
			}
		}
	}
}

// TestSuccessorListIsGroundTruth: the list never lags a membership
// change — a joiner appears in its predecessors' lists before any
// stabilization round, while their own successor pointers still skip
// it — and it answers for identifiers no alive node holds.
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
	if nodes[1].succ[1] == j {
		t.Fatal("the second predecessor's protocol list already holds the joiner; the test no longer separates the two readers")
	}
	r.Fail(pred)
	if got := r.SuccessorList(pred.ID(), 1); len(got) != 1 || got[0] != j {
		t.Fatalf("list of a dead node's identifier: %v, want [%s]", got, j)
	}
	if got := r.SuccessorList(mid+1, 1); len(got) != 1 || got[0] != next {
		t.Fatalf("list of an identifier nobody holds: %v, want [%s]", got, next)
	}
}
