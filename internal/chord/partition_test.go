package chord

import (
	"math/rand"
	"slices"
	"testing"

	"rjoin/internal/id"
)

// The partition tests model a network partition at the membership
// layer, which is how the overlay's fault plan presents one to Chord:
// while the window is open, each side sees the other as failed (no
// heartbeats cross the cut), and when it heals the severed nodes come
// back under their original identifiers. The ring protocol itself has
// no partition primitive — exactly as in the paper's deployment model —
// so the sequence is one Fail per severed node, then one Join per
// identifier, each call leaving every pointer exact before it returns.

// severSide fails every node on one side of the cut, checking the
// survivors' pointers after each call.
func severSide(t *testing.T, r *Ring, side []*Node) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(side))))
	for _, n := range side {
		r.Fail(n)
		mustBeExact(t, r, rng)
	}
}

// healSide rejoins the severed identifiers, checking every pointer
// after each call.
func healSide(t *testing.T, r *Ring, ids []id.ID) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(ids))))
	for _, nid := range ids {
		if _, err := r.Join(nid); err != nil {
			t.Fatalf("heal rejoin of %v: %v", nid, err)
		}
		mustBeExact(t, r, rng)
	}
}

// verifyConverged checks every alive node against ground truth:
// successor, predecessor and the full finger table.
func verifyConverged(t *testing.T, r *Ring) {
	t.Helper()
	for _, n := range r.Nodes() {
		if want := r.Owner(n.ID() + 1); n.Successor() != want {
			t.Fatalf("successor of %v = %v, want %v", n, n.Successor(), want)
		}
		if p := n.Predecessor(); p == nil || !p.Alive() {
			t.Fatalf("predecessor of %v not repaired: %v", n, p)
		}
		for i := 0; i < id.Bits; i++ {
			if want := r.Owner(id.FingerStart(n.ID(), i)); n.finger[i] != want {
				t.Fatalf("finger[%d] of %v = %v, want %v", i, n, n.finger[i], want)
			}
		}
	}
}

// TestPartitionHealContiguous: a partition that severs a contiguous arc
// of the identifier space — the hardest shape, because the survivor
// bordering the cut loses its next 15 successors at once. The majority
// must be exact among themselves during the outage, and the healed ring
// must return to ground truth.
func TestPartitionHealContiguous(t *testing.T) {
	r := buildRing(t, 64, 41)
	side := slices.Clone(r.Nodes()[24 : 24+15])
	ids := make([]id.ID, len(side))
	for i, n := range side {
		ids[i] = n.ID()
	}

	severSide(t, r, side)
	if got, want := r.Size(), 64-len(side); got != want {
		t.Fatalf("majority size during partition = %d, want %d", got, want)
	}
	verifyConverged(t, r)
	verifyLookups(t, r, 42, 200)

	healSide(t, r, ids)
	if got := r.Size(); got != 64 {
		t.Fatalf("healed ring size = %d, want 64", got)
	}
	verifyConverged(t, r)
	verifyLookups(t, r, 43, 300)
}

// TestPartitionHealScattered: a cut along arbitrary lines — every third
// node severed — so repairs interleave all around the ring rather than
// concentrating at two borders.
func TestPartitionHealScattered(t *testing.T) {
	r := buildRing(t, 60, 44)
	var side []*Node
	var ids []id.ID
	for i, n := range r.Nodes() {
		if i%3 == 0 {
			side = append(side, n)
			ids = append(ids, n.ID())
		}
	}
	severSide(t, r, side)
	verifyConverged(t, r)
	healSide(t, r, ids)
	verifyConverged(t, r)
	verifyLookups(t, r, 45, 300)
}

// TestPartitionHealRepeated: two back-to-back partition/heal cycles on
// different cuts — state left over from the first (finger entries that
// pointed at first-generation node objects) must not corrupt the
// second.
func TestPartitionHealRepeated(t *testing.T) {
	r := buildRing(t, 48, 46)
	rng := rand.New(rand.NewSource(47))
	for cycle := 0; cycle < 2; cycle++ {
		nodes := r.Nodes()
		var side []*Node
		var ids []id.ID
		for _, n := range nodes {
			if rng.Intn(3) == 0 {
				side = append(side, n)
				ids = append(ids, n.ID())
			}
		}
		severSide(t, r, side)
		healSide(t, r, ids)
		verifyConverged(t, r)
	}
	verifyLookups(t, r, 48, 300)
}

// TestTwoNodeRingPartitionHeals: the two-node edge ring. The cut leaves
// each side a singleton; the survivor must collapse to self-succession,
// own the entire identifier space for the duration, and re-form the
// two-node ring on heal.
func TestTwoNodeRingPartitionHeals(t *testing.T) {
	r := NewRing()
	a, _ := r.Join(100)
	b, _ := r.Join(200)
	r.BuildPerfect()

	severSide(t, r, []*Node{b})
	if a.Successor() != a {
		t.Fatal("partitioned survivor must self-succeed")
	}
	if owner, _ := a.Lookup(150); owner != a {
		t.Fatal("survivor must own the whole space during the outage")
	}

	healSide(t, r, []id.ID{200})
	b2 := r.Node(200)
	if b2 == nil || !b2.Alive() || b2 == b {
		t.Fatal("healed node missing")
	}
	if a.Successor() != b2 || b2.Successor() != a {
		t.Fatalf("healed two-node ring not mutual: a→%v, b→%v", a.Successor(), b2.Successor())
	}
	if r.Owner(150) != b2 || r.Owner(250) != a {
		t.Fatal("healed two-node ownership arcs wrong")
	}
	verifyConverged(t, r)
	verifyLookups(t, r, 49, 50)
}

// TestOneNodeRingPartitionHeals: a partition that severs everyone else
// shrinks the ring to a single alive node — the degenerate edge ring —
// which must keep resolving every key locally and then absorb the whole
// membership back on heal.
func TestOneNodeRingPartitionHeals(t *testing.T) {
	r := NewRing()
	survivor, _ := r.Join(500)
	others := []id.ID{100, 200, 300, 400, 600, 700}
	for _, nid := range others {
		if _, err := r.Join(nid); err != nil {
			t.Fatal(err)
		}
	}
	r.BuildPerfect()

	var side []*Node
	for _, n := range r.Nodes() {
		if n != survivor {
			side = append(side, n)
		}
	}
	severSide(t, r, side)
	if r.Size() != 1 {
		t.Fatalf("ring size during total partition = %d, want 1", r.Size())
	}
	if survivor.Successor() != survivor {
		t.Fatal("sole survivor must self-succeed")
	}
	if owner, _ := survivor.Lookup(123); owner != survivor {
		t.Fatal("sole survivor must resolve all keys locally")
	}

	healSide(t, r, others)
	if r.Size() != 7 {
		t.Fatalf("healed ring size = %d, want 7", r.Size())
	}
	verifyConverged(t, r)
	verifyLookups(t, r, 50, 100)
}
