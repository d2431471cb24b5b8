package id

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHashKeyDeterministic(t *testing.T) {
	a := HashKey("R+A")
	b := HashKey("R+A")
	if a != b {
		t.Fatalf("HashKey not deterministic: %v != %v", a, b)
	}
	if HashKey("R+A") == HashKey("R+B") {
		t.Fatalf("distinct keys unexpectedly collide")
	}
}

func TestBetweenSimple(t *testing.T) {
	cases := []struct {
		z, x, y ID
		want    bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, false},
		{10, 1, 10, false},
		{0, 10, 1, true},  // wrapped interval (10, 1)
		{11, 10, 1, true}, // wrapped interval
		{5, 10, 1, false}, // outside wrapped interval
		{7, 7, 7, false},  // full ring minus {x}
		{8, 7, 7, true},   // full ring minus {x}
	}
	for _, c := range cases {
		if got := Between(c.z, c.x, c.y); got != c.want {
			t.Errorf("Between(%d,%d,%d) = %v, want %v", c.z, c.x, c.y, got, c.want)
		}
	}
}

func TestBetweenRightInclSimple(t *testing.T) {
	cases := []struct {
		z, x, y ID
		want    bool
	}{
		{10, 1, 10, true},
		{1, 1, 10, false},
		{5, 1, 10, true},
		{1, 10, 1, true}, // wrapped, right endpoint included
		{10, 10, 1, false},
		{3, 7, 7, true}, // full ring
	}
	for _, c := range cases {
		if got := BetweenRightIncl(c.z, c.x, c.y); got != c.want {
			t.Errorf("BetweenRightIncl(%d,%d,%d) = %v, want %v", c.z, c.x, c.y, got, c.want)
		}
	}
}

// Property: for any x != y, every z is either in (x,y) or in [y,x) —
// the two arcs partition the ring.
func TestBetweenPartitionsRing(t *testing.T) {
	f := func(z, x, y uint64) bool {
		if x == y {
			return true
		}
		in1 := Between(ID(z), ID(x), ID(y))
		in2 := BetweenRightIncl(ID(z), ID(y), ID(x)) // (y, x]
		if ID(z) == ID(x) {
			return !in1 && in2
		}
		return in1 != in2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: BetweenRightIncl(z, x, y) == Between(z, x, y) || z == y  (x != y).
func TestBetweenRightInclRelation(t *testing.T) {
	f := func(z, x, y uint64) bool {
		if x == y {
			return true
		}
		want := Between(ID(z), ID(x), ID(y)) || ID(z) == ID(y)
		return BetweenRightIncl(ID(z), ID(x), ID(y)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dist obeys the triangle identity on the ring:
// Dist(x,y) + Dist(y,z) ≡ Dist(x,z) (mod 2^64).
func TestDistAdditive(t *testing.T) {
	f := func(x, y, z uint64) bool {
		return Dist(ID(x), ID(y))+Dist(ID(y), ID(z)) == Dist(ID(x), ID(z))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerStartWraps(t *testing.T) {
	n := ID(^uint64(0) - 2) // near the top of the ring
	got := FingerStart(n, 2)
	want := n + 4
	if got != want {
		t.Fatalf("FingerStart wrap: got %v want %v", got, want)
	}
	if FingerStart(0, 0) != 1 {
		t.Fatalf("FingerStart(0,0) = %v, want 1", FingerStart(0, 0))
	}
}

func TestFingerStartCoversRingHalves(t *testing.T) {
	// The highest finger of any node starts half a ring away.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		n := ID(rng.Uint64())
		if Dist(n, FingerStart(n, Bits-1)) != uint64(1)<<63 {
			t.Fatalf("finger %d of %v does not start half-ring away", Bits-1, n)
		}
	}
}

func TestStringFixedWidth(t *testing.T) {
	if s := ID(0xff).String(); s != "00000000000000ff" {
		t.Fatalf("String() = %q", s)
	}
}

// TestSortByDistMatchesStableSort: the allocation-free ring-order sort
// is the order sort.SliceStable gives, ties (one key asked twice, which
// a walk never does but the sort must not care about) included, and it
// allocates nothing with a distance that captures its origin.
func TestSortByDistMatchesStableSort(t *testing.T) {
	type elem struct {
		at  ID
		pos int
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2000; round++ {
		from := ID(rng.Uint64())
		xs := make([]elem, rng.Intn(17))
		for i := range xs {
			xs[i] = elem{HashKey(string(rune('a' + rng.Intn(12)))), i}
		}
		want := append([]elem(nil), xs...)
		sort.SliceStable(want, func(i, j int) bool { return Dist(from, want[i].at) < Dist(from, want[j].at) })
		SortByDist(xs, func(x *elem) uint64 { return Dist(from, x.at) })
		for i := range want {
			if xs[i] != want[i] {
				t.Fatalf("round %d: position %d holds %v, the stable sort puts %v there", round, i, xs[i], want[i])
			}
		}
	}
	keys := []ID{HashKey("R+A"), HashKey("S+B"), HashKey("J+C"), HashKey("M+A")}
	from := ID(7)
	if allocs := testing.AllocsPerRun(100, func() {
		SortByDist(keys, func(k *ID) uint64 { return Dist(from, *k) })
	}); allocs != 0 {
		t.Fatalf("ordering a walk's keys allocates %v times", allocs)
	}
}
