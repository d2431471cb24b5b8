package core

import (
	"sort"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/overlay"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
)

// lossyNetCfg is the overlay configuration the exactness-under-loss
// suite runs on: default delays, bouncing (faults require it), and the
// given fault plan.
func lossyNetCfg(f *overlay.Faults) overlay.Config {
	cfg := overlay.DefaultConfig()
	cfg.Bounce = true
	cfg.Faults = f
	return cfg
}

// lossyPlan is the acceptance-criterion fault plan: ten percent drops,
// five percent duplication, occasional delay spikes.
func lossyPlan() *overlay.Faults {
	return &overlay.Faults{DropProb: 0.10, DupProb: 0.05, SpikeProb: 0.05, SpikeMax: 4}
}

// lossyNet builds an engine on a faulty overlay, optionally parallel.
func lossyNet(t testing.TB, n int, seed int64, workers int, cfg Config, netCfg overlay.Config) (*Engine, []*chord.Node) {
	t.Helper()
	ring := chord.NewRing()
	rng := sim.NewRNG(seed, 0, 0)
	for i := 0; i < n; i++ {
		for {
			if _, err := ring.Join(id.ID(rng.Uint64())); err == nil {
				break
			}
		}
	}
	ring.BuildPerfect()
	se := sim.NewEngine(seed)
	if workers > 1 {
		se.SetWorkers(workers)
	}
	nw := overlay.MustNetwork(ring, se, netCfg)
	eng := NewEngine(ring, se, nw, cfg)
	return eng, ring.Nodes()
}

// splitPartition bisects the current membership into a partition window
// [start, end): the identifier-ordered first half against the rest.
func splitPartition(t *testing.T, eng *Engine, start, end sim.Time) {
	t.Helper()
	nodes := eng.Ring().Nodes()
	side := make(map[id.ID]bool, len(nodes)/2)
	for _, n := range nodes[:len(nodes)/2] {
		side[n.ID()] = true
	}
	if err := eng.Net().AddPartition(overlay.Partition{Start: start, End: end, Side: side}); err != nil {
		t.Fatal(err)
	}
}

// faultCounters asserts the fault machinery both fired and fully
// masked: transmissions were dropped and duplicated, retransmissions
// recovered them, and nothing was abandoned.
func faultCounters(t *testing.T, eng *Engine, label string) {
	t.Helper()
	nw := eng.Net()
	if nw.Dropped == 0 || nw.Retransmits == 0 {
		t.Fatalf("%s: fault machinery idle (dropped %d, retransmits %d); plan too weak", label, nw.Dropped, nw.Retransmits)
	}
	if nw.Abandoned != 0 {
		t.Fatalf("%s: %d messages abandoned — reliable delivery gave up", label, nw.Abandoned)
	}
}

// TestLossyExactlyOnce is the tentpole's acceptance criterion: a
// replicated network at a ten percent transmission drop rate, with
// duplication, delay spikes and one partition/heal cycle mid-stream,
// still delivers the refeval-exact answer bag — recall 1.0, zero
// duplicate answers — for plain, three-way and racing queries.
func TestLossyExactlyOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplicationFactor = 2
	eng, nodes := lossyNet(t, 48, 11, 0, cfg, lossyNetCfg(lossyPlan()))
	queries := []string{
		"select R.B, S.B from R,S where R.A=S.A",
		"select R.B, J.B from R,S,J where R.A=S.A and S.B=J.B",
	}
	var qids []string
	for i, q := range queries {
		qid, err := eng.SubmitQuery(nodes[i], sqlparse.MustParse(q, testCat))
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
	}
	eng.Run()

	var published []*relation.Tuple
	pub := func(i int, tu *relation.Tuple) {
		published = append(published, tu)
		eng.PublishTuple(nodes[i%len(nodes)], tu)
	}
	for i := 0; i < 10; i++ {
		pub(i, mkTuple("R", int64(i%4), int64(i), 0))
		pub(i+1, mkTuple("S", int64(i%4), int64(i%5), 0))
		eng.Run()
	}
	// One partition/heal cycle with tuples crossing it in flight: the
	// first half of the ring against the rest, while both sides keep
	// publishing. Run() is withheld until after the heal, so deliveries
	// race the window.
	start := eng.Sim().Now() + 2
	splitPartition(t, eng, start, start+60)
	for i := 0; i < 12; i++ {
		pub(i, mkTuple("R", int64(i%4), int64(100+i), 0))
		pub(i+3, mkTuple("S", int64(i%4), int64(i%5), 0))
		pub(i+5, mkTuple("J", 0, int64(i%5), 0))
		eng.RunUntil(eng.Sim().Now() + 4)
	}
	eng.Run()
	for i := 0; i < 8; i++ {
		pub(i, mkTuple("R", int64(i%4), int64(200+i), 0))
		pub(i+1, mkTuple("J", 0, int64(i%5), 0))
	}
	eng.Run()

	for i, q := range queries {
		want := expectedBag(t, q, published)
		got := answerBag(eng, qids[i])
		if len(want) == 0 {
			t.Fatalf("reference for %q produced no answers; workload too weak", q)
		}
		if !bagsEqual(got, want) {
			t.Fatalf("answers for %q diverged under loss: got %d rows, want %d (loss or duplication)",
				q, len(got), len(want))
		}
	}
	faultCounters(t, eng, "exactly-once")
	if eng.Net().Duplicated == 0 {
		t.Fatal("duplication draw never fired; plan too weak")
	}
}

// TestLossyDistinctNoDuplicates: DISTINCT's consumed-projection memory
// must hold up under retransmission — a duplicate delivery that leaked
// past dedup would re-trigger a consumed projection and surface as an
// extra row.
func TestLossyDistinctNoDuplicates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplicationFactor = 2
	eng, nodes := lossyNet(t, 48, 13, 0, cfg, lossyNetCfg(&overlay.Faults{DropProb: 0.15, DupProb: 0.25}))
	q := "select distinct S.B from R,S where R.A=S.A"
	qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(q, testCat))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	var published []*relation.Tuple
	// A small value domain so the same projections recur across waves.
	for i := 0; i < 24; i++ {
		r := mkTuple("R", int64(i%3), int64(i), 0)
		s := mkTuple("S", int64(i%3), int64(i%4), 0)
		published = append(published, r, s)
		eng.PublishTuple(nodes[i%len(nodes)], r)
		eng.PublishTuple(nodes[(i+7)%len(nodes)], s)
		if i%4 == 3 {
			eng.Run()
		} else {
			eng.RunUntil(eng.Sim().Now() + 3)
		}
	}
	eng.Run()

	parsed := sqlparse.MustParse(q, testCat)
	var want []string
	for _, r := range refeval.Distinct(refeval.Evaluate(parsed, published)) {
		want = append(want, r.Key())
	}
	sort.Strings(want)
	got := answerBag(eng, qid)
	if len(want) == 0 {
		t.Fatal("reference produced no answers")
	}
	if !bagsEqual(got, want) {
		t.Fatalf("DISTINCT under duplication: got %d rows, want %d", len(got), len(want))
	}
	faultCounters(t, eng, "distinct")
}

// TestLossyAggViews: in-network aggregation views stay exact under
// drops and a partition — every partial reaches its aggregator exactly
// once, and the finalized views equal the centralized reference fold.
// Only unwindowed aggregates run here: a window's content is defined by
// arrival order, which faults legitimately reorder.
func TestLossyAggViews(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplicationFactor = 2
	eng, nodes := lossyNet(t, 48, 17, 0, cfg, lossyNetCfg(lossyPlan()))
	queries := []string{
		"select R.A, count(*), sum(S.B), min(S.B), max(S.B), avg(S.B), count(distinct S.B) from R,S where R.A=S.A group by R.A",
		"select count(*), max(R.B) from R,S where R.A=S.A",
		"select S.A, sum(R.B), avg(R.B) from R,S where R.A=S.A group by S.A",
	}
	var qids []string
	for i, sql := range queries {
		qid, err := eng.SubmitQuery(nodes[i%len(nodes)], sqlparse.MustParse(sql, testCat))
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
	}
	eng.Run()

	var published []*relation.Tuple
	start := eng.Sim().Now() + 30
	splitPartition(t, eng, start, start+50)
	for round := 0; round < 30; round++ {
		r := mkTuple("R", int64(round%4), int64(round%7), 0)
		s := mkTuple("S", int64(round%4), int64(round%5), 0)
		published = append(published, r, s)
		eng.PublishTuple(nodes[round%len(nodes)], r)
		eng.PublishTuple(nodes[(round+11)%len(nodes)], s)
		if round%5 == 4 {
			eng.Run()
		} else {
			eng.RunUntil(eng.Sim().Now() + 2)
		}
	}
	eng.Run()

	for i, qid := range qids {
		aggViewsMatch(t, "lossy", queries[i], eng, qid, published)
	}
	if eng.Counters.AggStateLost != 0 {
		t.Fatalf("faults lost %d aggregation partials", eng.Counters.AggStateLost)
	}
	faultCounters(t, eng, "agg")
}

// TestLossyExactlyOnceParallel runs the drop-and-partition exactness
// check on the parallel engine: the barrier schedule, per-node fault
// streams and background retransmit timers must compose, and the final
// bag must be exact for every worker count.
func TestLossyExactlyOnceParallel(t *testing.T) {
	for _, workers := range []int{2, 4} {
		cfg := DefaultConfig()
		cfg.ReplicationFactor = 2
		eng, nodes := lossyNet(t, 48, 19, workers, cfg, lossyNetCfg(lossyPlan()))
		q := "select R.B, S.B from R,S where R.A=S.A"
		qid, err := eng.SubmitQuery(nodes[2], sqlparse.MustParse(q, testCat))
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		var published []*relation.Tuple
		start := eng.Sim().Now() + 10
		splitPartition(t, eng, start, start+40)
		for i := 0; i < 20; i++ {
			r := mkTuple("R", int64(i%4), int64(i), 0)
			s := mkTuple("S", int64(i%4), int64(i%5), 0)
			published = append(published, r, s)
			eng.PublishTuple(nodes[i%len(nodes)], r)
			eng.PublishTuple(nodes[(i+9)%len(nodes)], s)
			eng.RunUntil(eng.Sim().Now() + 3)
		}
		eng.Run()
		eng.Sync()

		want := expectedBag(t, q, published)
		got := answerBag(eng, qid)
		if len(want) == 0 {
			t.Fatal("reference produced no answers")
		}
		if !bagsEqual(got, want) {
			t.Fatalf("workers %d: answers diverged under loss: got %d rows, want %d",
				workers, len(got), len(want))
		}
		faultCounters(t, eng, "parallel")
	}
}

// TestLossyMoveNodeExact: identifier movement on a network with Faults.
// The mover leaves and a fresh node joins, so reliable-channel state —
// sequence numbers and dedup filters, keyed by ring identifier on both
// ends — never has to follow anybody: what is in flight to the vacated
// identifier escalates to the key's new owner, what it had already
// received is settled when it detaches, and the new identifier starts
// fresh channels. Where the old teleport went through, even a zero-rate
// plan ran full retransmit ladders, abandoned messages and lost answers;
// the moves leave the run exact with nothing abandoned, serial and on
// four workers.
func TestLossyMoveNodeExact(t *testing.T) {
	const q = "select R.B, S.B from R,S where R.A=S.A"
	for _, workers := range []int{0, 4} {
		for seed := int64(1); seed <= 8; seed++ {
			eng, nodes := lossyNet(t, 16, seed, workers, DefaultConfig(), lossyNetCfg(&overlay.Faults{}))
			qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(q, testCat))
			if err != nil {
				t.Fatal(err)
			}
			eng.Run()
			var published []*relation.Tuple
			publish := func(rounds int) {
				for ; rounds > 0; rounds-- {
					i := len(published)
					r := mkTuple("R", int64(i%5), int64(i), 0)
					s := mkTuple("S", int64(i%5), int64(i%7), 0)
					published = append(published, r, s)
					alive := eng.Ring().Nodes()
					eng.PublishTuple(alive[i%len(alive)], r)
					eng.PublishTuple(alive[(i+3)%len(alive)], s)
					eng.Run()
				}
			}
			publish(40)
			// Ten moves back to back, no drain in between: handovers are in
			// flight to nodes that move next, and movers owe acknowledgments.
			for _, n := range nodes[1:11] {
				nn, err := eng.MoveNode(n, n.ID()+1<<58)
				if err != nil {
					t.Fatalf("workers %d seed %d: MoveNode on a lossy network: %v", workers, seed, err)
				}
				if n.Alive() || !nn.Alive() || eng.Proc(nn) == nil {
					t.Fatalf("workers %d seed %d: the move left %s alive or %s without a processor", workers, seed, n.ID(), nn.ID())
				}
			}
			publish(80)
			if want, got := expectedBag(t, q, published), answerBag(eng, qid); len(want) == 0 || !bagsEqual(got, want) {
				t.Fatalf("workers %d seed %d: got %d answers, want %d", workers, seed, len(got), len(want))
			}
			if nw := eng.Net(); nw.Abandoned != 0 {
				t.Fatalf("workers %d seed %d: a zero-rate plan abandoned %d messages (%d retransmits)", workers, seed, nw.Abandoned, nw.Retransmits)
			}
		}
	}
}
