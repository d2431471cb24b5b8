package loadbalance

import (
	"math/rand"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/core"
	"rjoin/internal/id"
	"rjoin/internal/overlay"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/workload"
)

func buildEngine(t testing.TB, n int, seed int64) (*core.Engine, []*chord.Node) {
	t.Helper()
	ring := chord.NewRing()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for {
			if _, err := ring.Join(id.ID(rng.Uint64())); err == nil {
				break
			}
		}
	}
	ring.BuildPerfect()
	se := sim.NewEngine(seed)
	netCfg := overlay.DefaultConfig()
	netCfg.Bounce = true
	nw := overlay.MustNetwork(ring, se, netCfg)
	eng := core.NewEngine(ring, se, nw, core.Config{})
	return eng, ring.Nodes()
}

// loadedEngine drives a skewed workload so occupancy concentrates.
func loadedEngine(t testing.TB, seed int64, nQ, nT int) (*core.Engine, *workload.Generator, []*chord.Node) {
	t.Helper()
	eng, nodes := buildEngine(t, 64, seed)
	wcfg := workload.Config{Relations: 6, Attributes: 4, Values: 10, Theta: 0.9, JoinArity: 3}
	gen := workload.MustGenerator(wcfg, seed)
	rng := rand.New(rand.NewSource(seed + 3))
	for i := 0; i < nQ; i++ {
		if _, err := eng.SubmitQuery(nodes[rng.Intn(len(nodes))], gen.Query()); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for i := 0; i < nT; i++ {
		eng.PublishTuple(nodes[rng.Intn(len(nodes))], gen.Tuple())
		eng.Run()
	}
	return eng, gen, nodes
}

func maxOccupancy(eng *core.Engine) int {
	m := 0
	for _, n := range eng.Ring().Nodes() {
		if o := eng.StoredOccupancy(n); o > m {
			m = o
		}
	}
	return m
}

// TestRebalanceReducesMaxOccupancy also holds the rounds to moving
// state, not losing it: a round moves four of its 64 nodes back to
// back, putting handover chunks in flight to nodes that move next, and
// the totals must come out equal.
func TestRebalanceReducesMaxOccupancy(t *testing.T) {
	eng, _, _ := loadedEngine(t, 1, 200, 60)
	before := maxOccupancy(eng)
	q, tu, altt := eng.StoredState()
	moved := 0
	for i := 0; i < 4; i++ {
		moved += Rebalance(eng)
		eng.Run() // the next round reads occupancies: let the handovers land
	}
	if moved == 0 {
		t.Fatal("no id movements performed on a skewed workload")
	}
	after := maxOccupancy(eng)
	if after >= before {
		t.Fatalf("max occupancy did not drop: before=%d after=%d", before, after)
	}
	if q2, tu2, altt2 := eng.StoredState(); q2 != q || tu2 != tu || altt2 != altt {
		t.Fatalf("%d moves changed the stored totals: %d/%d/%d -> %d/%d/%d", moved, q, tu, altt, q2, tu2, altt2)
	}
}

// TestRebalancePreservesCorrectness: answers after rebalancing match
// the reference — state handoff loses nothing.
func TestRebalancePreservesCorrectness(t *testing.T) {
	eng, nodes := buildEngine(t, 64, 7)
	wcfg := workload.Config{Relations: 3, Attributes: 3, Values: 3, Theta: 0.9, JoinArity: 2}
	gen := workload.MustGenerator(wcfg, 7)
	rng := rand.New(rand.NewSource(8))
	q := gen.Query()
	// Owner must keep its position so answers stay addressable; submit
	// from a node and never move it (the balancer may move others).
	owner := nodes[0]
	qid, err := eng.SubmitQuery(owner, q)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	q.InsertTime = 0
	var tuples []*relation.Tuple
	for i := 0; i < 50; i++ {
		tu := gen.Tuple()
		eng.PublishTuple(nodes[rng.Intn(len(nodes))], tu)
		eng.Run()
		tuples = append(tuples, tu)
		if i%10 == 9 {
			// The balancer moves light nodes and may pick the owner;
			// answers then go astray, which voids the scenario.
			Rebalance(eng)
			if eng.Ring().Node(owner.ID()) == nil {
				t.Skip("owner moved; scenario void for this seed")
			}
		}
	}
	want := refeval.Evaluate(q, tuples)
	got := make([]refeval.Row, 0)
	for _, a := range eng.Answers(qid) {
		got = append(got, refeval.Row(a.Row))
	}
	if !refeval.EqualBags(got, want) {
		t.Fatalf("rebalancing changed answers: got %d want %d", len(got), len(want))
	}
}

func TestRebalanceNoOpOnTinyRing(t *testing.T) {
	eng, _ := buildEngine(t, 3, 9)
	if Rebalance(eng) != 0 {
		t.Fatal("rebalanced a 3-node ring")
	}
}

func TestRebalanceSkipsBalancedNetwork(t *testing.T) {
	eng, _ := buildEngine(t, 32, 10)
	// No load at all: nothing to move.
	if n := Rebalance(eng); n != 0 {
		t.Fatalf("moved %d nodes in an idle network", n)
	}
}
