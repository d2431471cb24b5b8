package core

import (
	"math/rand"
	"slices"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/overlay"
	"rjoin/internal/sqlparse"
)

// loadQueries are the load tests' RIC-placed continuous queries.
var loadQueries = []string{
	"select R.B, S.B, J.C from R,S,J where R.A=S.A and S.B=J.B",
	"select R.C, S.C from R,S where R.B=S.B",
	"select S.B, J.C from S,J where S.A=J.A",
}

// loadNet builds a 32-node engine on unit hop delays with bouncing on
// (identifier moves need it) and submits loadQueries from one node,
// which it returns with the engine.
func loadNet(t *testing.T, workers int) (*Engine, *chord.Node) {
	t.Helper()
	netCfg := overlay.DefaultConfig()
	netCfg.Bounce = true
	eng, nodes := lossyNet(t, 32, 17, workers, Config{}, netCfg)
	for _, sql := range loadQueries {
		if _, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(sql, testCat)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	return eng, nodes[0]
}

// loadStream publishes n tuples over small domains from random live
// nodes, drained burst at a time.
func loadStream(eng *Engine, rng *rand.Rand, n, burst int) {
	for i := 1; i <= n; i++ {
		alive := eng.Ring().Nodes()
		rel := []string{"R", "S", "J"}[rng.Intn(3)]
		eng.PublishTuple(alive[rng.Intn(len(alive))], mkTuple(rel, rng.Int63n(4), rng.Int63n(4), rng.Int63n(4)))
		if i%burst == 0 || i == n {
			eng.Run()
		}
	}
}

// checkOwnSL holds every live node's SL to what it stores itself: on a
// ring no node has left, with nothing expiring, the tuples plus the
// rewritten queries it holds.
func checkOwnSL(t *testing.T, eng *Engine) {
	t.Helper()
	for _, n := range eng.Ring().Nodes() {
		var stored int64
		st := eng.Proc(n).st
		for _, l := range st.tuples {
			stored += int64(len(l))
		}
		for _, l := range st.queries {
			for _, sq := range l {
				if sq.q.Depth > 0 {
					stored++
				}
			}
		}
		if sl := loadOf(eng, n.ID()).sl; sl != stored {
			t.Fatalf("node %s: SL %d, but it stores %d tuples and rewrites", n.ID(), sl, stored)
		}
	}
}

// loadOf is an identifier's load record, zero if it has none.
func loadOf(eng *Engine, nid id.ID) load {
	if l := eng.loads[nid]; l != nil {
		return *l
	}
	return load{}
}

// loaded returns a live node that carries both kinds of load, other
// than the ones skipped (the subscriber keeps its handle).
func loaded(t *testing.T, eng *Engine, skip ...*chord.Node) *chord.Node {
	t.Helper()
	for _, n := range eng.Ring().Nodes() {
		if l := loadOf(eng, n.ID()); l.qpl > 0 && l.sl > 0 && !slices.Contains(skip, n) {
			return n
		}
	}
	t.Fatal("no node carries load; the workload has no teeth")
	return nil
}

// freeID is an identifier no node has held: the gap after n's.
func freeID(eng *Engine, n *chord.Node) id.ID {
	nid := n.ID() + 1<<40
	for eng.loads[nid] != nil || eng.Ring().Node(nid) != nil {
		nid++
	}
	return nid
}

// loadView is everything Engine's read side reports about load.
type loadView struct {
	qpl, sl       int64
	rankQ, rankSL []int64
}

func viewOf(eng *Engine) loadView {
	v := loadView{}
	v.qpl, v.sl = eng.Load()
	v.rankQ, v.rankSL = eng.RankedLoad()
	return v
}

func (v loadView) equal(o loadView) bool {
	return v.qpl == o.qpl && v.sl == o.sl && slices.Equal(v.rankQ, o.rankQ) && slices.Equal(v.rankSL, o.rankSL)
}

// TestLoadFollowsIdentifier pins the load record's rules — one {QPL,
// SL} record per ring identifier, created at join, outliving its
// processor — against Engine's read side (Load, RankedLoad):
// departures keep the network's load, a join at a departed identifier
// adds to its record, MoveNode moves the load to the new identifier,
// ResetMetrics zeroes every record in place, and the ranked lists do
// not depend on the worker count. The last runs bursts of tuples at
// Workers 2 and 4, so under -race a handler that charges another
// node's record is reported, and without it checkOwnSL catches the
// misplaced charge.
func TestLoadFollowsIdentifier(t *testing.T) {
	t.Run("departures keep load", func(t *testing.T) {
		eng, owner := loadNet(t, 0)
		loadStream(eng, rand.New(rand.NewSource(1)), 60, 1)
		before := viewOf(eng)
		n := loaded(t, eng, owner)
		if err := eng.LeaveNode(n); err != nil {
			t.Fatal(err)
		}
		if got := viewOf(eng); !got.equal(before) {
			t.Fatalf("LeaveNode changed the load: %+v, want %+v", got, before)
		}
		c := loaded(t, eng, owner)
		if err := eng.CrashNode(c); err != nil {
			t.Fatal(err)
		}
		if got := viewOf(eng); !got.equal(before) {
			t.Fatalf("CrashNode changed the load: %+v, want %+v", got, before)
		}
		if l := loadOf(eng, c.ID()); l.qpl == 0 {
			t.Fatalf("the crashed node's record was dropped")
		}
	})

	t.Run("rejoin adds", func(t *testing.T) {
		eng, owner := loadNet(t, 0)
		rng := rand.New(rand.NewSource(2))
		loadStream(eng, rng, 60, 1)
		n := loaded(t, eng, owner)
		held := loadOf(eng, n.ID())
		if err := eng.LeaveNode(n); err != nil {
			t.Fatal(err)
		}
		before := viewOf(eng)
		nn, err := eng.JoinNode(n.ID())
		if err != nil {
			t.Fatal(err)
		}
		if got := loadOf(eng, nn.ID()); got != held {
			t.Fatalf("rejoined identifier holds %+v, want its departed holder's %+v", got, held)
		}
		if got := viewOf(eng); !got.equal(before) {
			t.Fatalf("JoinNode changed the load: %+v, want %+v", got, before)
		}
		if eng.Proc(nn).ld != eng.loads[nn.ID()] {
			t.Fatal("the joiner does not charge its identifier's record")
		}
		// The joiner's own charges land on top of what it inherited.
		for i := 0; loadOf(eng, nn.ID()) == held; i++ {
			if i == 400 {
				t.Fatal("400 tuples never reached the rejoined node")
			}
			loadStream(eng, rng, 1, 1)
		}
		if got := loadOf(eng, nn.ID()); got.qpl < held.qpl || got.sl < held.sl {
			t.Fatalf("rejoined identifier fell from %+v to %+v", held, got)
		}
	})

	t.Run("MoveNode moves load", func(t *testing.T) {
		eng, owner := loadNet(t, 0)
		loadStream(eng, rand.New(rand.NewSource(3)), 60, 1)
		before := viewOf(eng)
		n := loaded(t, eng, owner)
		held := loadOf(eng, n.ID())
		nn, err := eng.MoveNode(n, freeID(eng, n))
		if err != nil {
			t.Fatal(err)
		}
		if got := loadOf(eng, nn.ID()); got != held {
			t.Fatalf("moved node's new identifier holds %+v, want %+v", got, held)
		}
		if got := loadOf(eng, n.ID()); got != (load{}) {
			t.Fatalf("old identifier still holds %+v after the move", got)
		}
		if got := viewOf(eng); !got.equal(before) {
			t.Fatalf("MoveNode changed the load: %+v, want %+v", got, before)
		}
		// Onto an identifier a departed node left load on, the two add.
		a := loaded(t, eng, owner, nn)
		b := loaded(t, eng, owner, nn, a)
		la, lb := loadOf(eng, a.ID()), loadOf(eng, b.ID())
		if err := eng.LeaveNode(a); err != nil {
			t.Fatal(err)
		}
		moved, err := eng.MoveNode(b, a.ID())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := loadOf(eng, moved.ID()), (load{la.qpl + lb.qpl, la.sl + lb.sl}); got != want {
			t.Fatalf("move onto a departed identifier: %+v, want %+v", got, want)
		}
		after := viewOf(eng)
		if after.qpl != before.qpl || after.sl != before.sl || len(after.rankQ) != len(before.rankQ)-1 {
			t.Fatalf("merging two records: %+v, want %+v's totals with one participant fewer", after, before)
		}
	})

	t.Run("ResetMetrics zeroes in place", func(t *testing.T) {
		eng, owner := loadNet(t, 0)
		rng := rand.New(rand.NewSource(4))
		loadStream(eng, rng, 60, 1)
		gone := loaded(t, eng, owner)
		if err := eng.LeaveNode(gone); err != nil {
			t.Fatal(err)
		}
		eng.ResetMetrics()
		if got := viewOf(eng); got.qpl != 0 || got.sl != 0 || len(got.rankQ) != 0 || len(got.rankSL) != 0 {
			t.Fatalf("load survives ResetMetrics: %+v", got)
		}
		for nid, l := range eng.loads {
			if *l != (load{}) {
				t.Fatalf("record of %s survives ResetMetrics: %+v", nid, *l)
			}
		}
		loadStream(eng, rng, 30, 1)
		if got := viewOf(eng); got.qpl == 0 || got.sl == 0 {
			t.Fatalf("charges after ResetMetrics are lost: %+v", got)
		}
		for _, n := range eng.Ring().Nodes() {
			if eng.Proc(n).ld != eng.loads[n.ID()] {
				t.Fatalf("node %s charges a record the engine does not read", n.ID())
			}
		}
	})

	t.Run("worker invariant", func(t *testing.T) {
		var want loadView
		for _, workers := range []int{0, 2, 4} {
			eng, owner := loadNet(t, workers)
			rng := rand.New(rand.NewSource(5))
			loadStream(eng, rng, 40, 8)
			checkOwnSL(t, eng)
			n := loaded(t, eng, owner)
			if _, err := eng.MoveNode(n, freeID(eng, n)); err != nil {
				t.Fatal(err)
			}
			loadStream(eng, rng, 40, 8)
			got := viewOf(eng)
			if got.qpl == 0 || len(got.rankQ) < 2 {
				t.Fatalf("workers %d: the workload has no teeth: %+v", workers, got)
			}
			var sumQ, sumSL int64
			for _, v := range got.rankQ {
				sumQ += v
			}
			for _, v := range got.rankSL {
				sumSL += v
			}
			if sumQ != got.qpl || sumSL != got.sl {
				t.Fatalf("workers %d: ranked lists sum to %d and %d, totals are %d and %d", workers, sumQ, sumSL, got.qpl, got.sl)
			}
			if workers == 0 {
				want = got
			} else if !got.equal(want) {
				t.Fatalf("workers %d: load %+v, workers 0 %+v", workers, got, want)
			}
		}
	})
}
