package churn

import (
	"math/rand"
	"sort"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/core"
	"rjoin/internal/id"
	"rjoin/internal/overlay"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
	"rjoin/internal/workload"
)

var testCat = func() *relation.Catalog {
	cat, _ := relation.NewCatalog(
		relation.MustSchema("R", "A", "B"),
		relation.MustSchema("S", "A", "B"),
	)
	return cat
}()

func testEngine(t testing.TB, nodes int, seed int64) *core.Engine {
	t.Helper()
	ring := chord.NewRing()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nodes; i++ {
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
	return core.NewEngine(ring, se, nw, core.Config{})
}

func mkTuple(rel string, a, b int64) *relation.Tuple {
	s, _ := testCat.Schema(rel)
	return relation.MustTuple(s, relation.Int64(a), relation.Int64(b))
}

// driveWorkload publishes a fixed stream with clock advancement between
// publications (so background churn can fire) and returns the
// published tuples.
func driveWorkload(eng *core.Engine, rounds int) []*relation.Tuple {
	var published []*relation.Tuple
	for i := 0; i < rounds; i++ {
		r := mkTuple("R", int64(i%4), int64(i))
		s := mkTuple("S", int64(i%4), int64(100+i))
		published = append(published, r, s)
		alive := eng.Ring().Nodes()
		eng.PublishTuple(alive[i%len(alive)], r)
		eng.PublishTuple(alive[(i+1)%len(alive)], s)
		eng.RunUntil(eng.Sim().Now() + 24)
		eng.Run()
	}
	eng.Run()
	return published
}

func TestRateModeProducesChurn(t *testing.T) {
	eng := testEngine(t, 64, 5)
	m := New(eng, Config{
		Rates:    workload.ChurnConfig{JoinRate: 40, LeaveRate: 30, CrashRate: 15},
		Interval: 8,
		Seed:     9,
	})
	m.Start()
	driveWorkload(eng, 30)
	if m.Stats.Joins == 0 || m.Stats.Leaves == 0 || m.Stats.Crashes == 0 {
		t.Fatalf("rate mode produced no churn: %+v", m.Stats)
	}
}

// Two runs with equal seeds must produce the identical churn history
// and identical engine counters.
func TestChurnDeterministic(t *testing.T) {
	run := func() (Stats, core.Counters, int) {
		eng := testEngine(t, 48, 6)
		m := New(eng, Config{
			Rates:    workload.ChurnConfig{JoinRate: 30, LeaveRate: 30, CrashRate: 10},
			Interval: 8,
			Seed:     13,
		})
		m.Start()
		if _, err := eng.SubmitQuery(eng.Ring().Nodes()[3],
			sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat)); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		driveWorkload(eng, 25)
		return m.Stats, eng.Counters, eng.Ring().Size()
	}
	s1, c1, n1 := run()
	s2, c2, n2 := run()
	if s1 != s2 || c1 != c2 || n1 != n2 {
		t.Fatalf("same seed diverged:\nrun1 %+v %+v size %d\nrun2 %+v %+v size %d", s1, c1, n1, s2, c2, n2)
	}
	if s1.Joins+s1.Leaves+s1.Crashes == 0 {
		t.Fatal("no churn happened; the determinism check is vacuous")
	}
}

// Graceful-leave-only churn must preserve exactly-once delivery: the
// answer bag under churn equals the reference evaluator's bag.
func TestLeaveOnlyChurnStaysExact(t *testing.T) {
	eng := testEngine(t, 48, 7)
	m := New(eng, Config{
		Rates:    workload.ChurnConfig{LeaveRate: 40},
		Interval: 8,
		MinNodes: 16,
		Seed:     21,
	})
	m.Start()
	q := "select R.B, S.B from R,S where R.A=S.A"
	parsed := sqlparse.MustParse(q, testCat)
	qid, err := eng.SubmitQuery(eng.Ring().Nodes()[1], parsed)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	published := driveWorkload(eng, 25)
	if m.Stats.Leaves == 0 {
		t.Fatal("no leaves happened; the completeness check is vacuous")
	}

	var want []string
	for _, r := range refeval.Evaluate(parsed, published) {
		want = append(want, r.Key())
	}
	var got []string
	for _, a := range eng.Answers(qid) {
		got = append(got, refeval.Row(a.Row).Key())
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) == 0 {
		t.Fatal("reference produced no answers")
	}
	if len(got) != len(want) {
		t.Fatalf("answer bag under leave churn: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d diverged: %q vs %q", i, got[i], want[i])
		}
	}
}

func TestMinNodesFloor(t *testing.T) {
	eng := testEngine(t, 8, 8)
	m := New(eng, Config{MinNodes: 8, Seed: 3})
	if v := m.victim(); v != nil {
		t.Fatal("victim selected at the MinNodes floor")
	}
	if m.Stats.Skipped == 0 {
		t.Fatal("suppressed draw not counted")
	}
}
