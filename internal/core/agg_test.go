package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"rjoin/internal/agg"
	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/overlay"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
)

// aggTestQueries spans the aggregation matrix: grouped and global,
// every aggregate function, unwindowed, tumbling and sliding windows,
// and a 3-way join feeding a grouped count. The windowed entries are
// 2-way joins, where RJoin's operational window rules coincide with
// refeval's span semantics, so the reference is exact.
func aggTestQueries() []string {
	return []string{
		"select R.A, count(*), sum(S.B), min(S.B), max(S.B), avg(S.B), count(distinct S.B) from R,S where R.A=S.A group by R.A",
		"select count(*), max(R.B) from R,S where R.A=S.A",
		"select R.A, count(*), sum(S.B) from R,S where R.A=S.A group by R.A within 16 tuples tumbling",
		"select R.A, count(*), max(S.B) from R,S where R.A=S.A group by R.A within 16 tuples",
		"select R.A, count(*) from R,S,J where R.A=S.A and S.B=J.B group by R.A",
		// No COUNT(*): every aggregate item is a substitutable column, so
		// this guards the Rewrite path that must preserve Agg markers.
		"select S.A, sum(R.B), avg(R.B) from R,S where R.A=S.A group by S.A",
	}
}

// aggHolder returns the node holding the most aggregator groups, ties
// broken by identifier.
func aggHolder(eng *Engine) *chord.Node {
	var best *chord.Node
	bestCount := 0
	for _, p := range eng.procs {
		c := len(p.st.aggs)
		if c > bestCount || (c == bestCount && c > 0 && best != nil && p.node.ID() < best.ID()) {
			best, bestCount = p.node, c
		}
	}
	return best
}

// runAggWorkload submits the aggregation test queries and drives a
// mixed R/S/J stream; with churn enabled it gracefully removes first
// the heaviest aggregator mid-stream (forcing an aggregation-state
// handover) and then the heaviest rewritten-query holder. It returns
// the published tuples and the query IDs in aggTestQueries order.
func runAggWorkload(t *testing.T, eng *Engine, nodes []*chord.Node, churn bool) ([]*relation.Tuple, []string) {
	t.Helper()
	var qids []string
	for i, sql := range aggTestQueries() {
		qid, err := eng.SubmitQuery(nodes[i%len(nodes)], sqlparse.MustParse(sql, testCat))
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
	}
	eng.Run()

	var published []*relation.Tuple
	pub := func(i int, tu *relation.Tuple) {
		published = append(published, tu)
		alive := eng.Ring().Nodes()
		eng.PublishTuple(alive[i%len(alive)], tu)
	}
	for round := 0; round < 30; round++ {
		pub(round, mkTuple("R", int64(round%4), int64(round%7), 0))
		pub(round+1, mkTuple("S", int64(round%4), int64(round%5), 0))
		if round%3 == 0 {
			pub(round+2, mkTuple("J", 0, int64(round%5), 0))
		}
		if round%4 == 3 {
			eng.Run()
		} else {
			eng.RunUntil(eng.Sim().Now() + 2) // leave deliveries in flight
		}
		if churn && (round == 11 || round == 21) {
			victim := aggHolder(eng)
			if round == 21 {
				victim = rewriteHolder(eng)
			}
			if victim == nil {
				t.Fatal("no churn victim with state; workload too weak")
			}
			if err := eng.LeaveNode(victim); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Run()
	return published, qids
}

// aggViewsMatch compares an engine's aggregate view for one query
// against the reference fold of the full answer multiset.
func aggViewsMatch(t *testing.T, label, sql string, eng *Engine, qid string, published []*relation.Tuple) {
	t.Helper()
	parsed := sqlparse.MustParse(sql, testCat)
	refRows, clocks := refeval.EvaluateSpanClocked(parsed, published)
	rows := make([][]relation.Value, len(refRows))
	for i, r := range refRows {
		rows[i] = r
	}
	want := agg.Reference(parsed, rows, clocks)
	got := eng.AggRows(qid)
	if len(want) == 0 {
		t.Fatalf("%s: reference view for %q is empty; workload too weak", label, sql)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: view size diverged for %q: got %d rows, want %d", label, sql, len(got), len(want))
	}
	for i := range want {
		if got[i].Group != want[i].Group || got[i].Epoch != want[i].Epoch {
			t.Fatalf("%s: view row %d of %q addresses (%x, %d), want (%x, %d)",
				label, i, sql, got[i].Group, got[i].Epoch, want[i].Group, want[i].Epoch)
		}
		for j := range want[i].Row {
			if !got[i].Row[j].Equal(want[i].Row[j]) {
				t.Fatalf("%s: view row %d of %q diverged at position %d: got %s, want %s",
					label, i, sql, j, got[i].Row[j], want[i].Row[j])
			}
		}
	}
}

// TestAggExactness is the aggregation subsystem's completeness
// criterion: for every query shape the in-network aggregate view —
// built from partials routed to per-group aggregator keys, folded
// incrementally, and flushed as coalesced group updates — must equal
// the reference aggregates computed centrally from the full answer
// multiset (internal/refeval), on a static overlay and under
// graceful-leave churn that forces aggregator-state handover
// mid-stream.
func TestAggExactness(t *testing.T) {
	for _, churn := range []bool{false, true} {
		label := "static"
		if churn {
			label = "graceful-leave"
		}
		eng, nodes := testNet(t, 48, 5, Config{}, churnNetCfg())
		published, qids := runAggWorkload(t, eng, nodes, churn)
		queries := aggTestQueries()
		for i, qid := range qids {
			aggViewsMatch(t, label, queries[i], eng, qid, published)
		}
		if eng.Counters.AggPartials == 0 || eng.Counters.AggUpdates == 0 {
			t.Fatalf("%s: aggregation pipeline unused (partials %d, updates %d)",
				label, eng.Counters.AggPartials, eng.Counters.AggUpdates)
		}
		if churn {
			if eng.Counters.HandoverMessages == 0 {
				t.Fatal("churn run performed no handover")
			}
			if eng.Counters.AggStateLost != 0 {
				t.Fatalf("graceful leaves lost %d aggregation partials", eng.Counters.AggStateLost)
			}
		}
	}
}

// A crash that takes aggregator state down counts it as loss instead of
// silently shrinking the view.
func TestCrashCountsLostAggState(t *testing.T) {
	eng, nodes := testNet(t, 48, 5, Config{}, churnNetCfg())
	_, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(
		"select R.A, count(*) from R,S where R.A=S.A group by R.A", testCat))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i := 0; i < 12; i++ {
		eng.PublishTuple(nodes[i%len(nodes)], mkTuple("R", int64(i%3), int64(i), 0))
		eng.PublishTuple(nodes[(i+5)%len(nodes)], mkTuple("S", int64(i%3), int64(i%4), 0))
	}
	eng.Run()
	// Each of the three groups joins 4 R with 4 S tuples, and one flush
	// coalesces a group's rows: the subscriber gets fewer updates than
	// the aggregators folded rows.
	if c := eng.Counters; c.AggUpdates >= c.AggPartials {
		t.Fatalf("%d group updates for %d rows folded; in-network aggregation compressed nothing", c.AggUpdates, c.AggPartials)
	}
	victim := aggHolder(eng)
	if victim == nil || len(eng.procs[victim.ID()].st.aggs) == 0 {
		t.Fatal("no aggregator state accumulated")
	}
	if err := eng.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	if eng.Counters.AggStateLost == 0 {
		t.Fatal("crash dropped aggregator state without counting it")
	}
}

// Regression: rewriting substitutes aggregate-argument columns into
// constants; the substituted item must keep its Agg marker, or a query
// with no COUNT(*) (whose constant item is never substituted) loses
// IsAggregate mid-rewrite and leaks raw rows to the subscriber instead
// of feeding the aggregation pipeline. Both trigger orders are covered:
// the aggregate-argument relation arriving first and last.
func TestAggWithoutCountStarStaysAggregate(t *testing.T) {
	const sql = "select S.A, sum(R.B) from R,S where R.A=S.A group by S.A"
	for _, rFirst := range []bool{true, false} {
		eng, nodes := testNet(t, 32, 9, Config{}, churnNetCfg())
		qid, err := eng.SubmitQuery(nodes[0], sqlparse.MustParse(sql, testCat))
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		r := mkTuple("R", 1, 5, 0)
		s := mkTuple("S", 1, 2, 0)
		first, second := r, s
		if !rFirst {
			first, second = s, r
		}
		eng.PublishTuple(nodes[1], first)
		eng.Run()
		eng.PublishTuple(nodes[2], second)
		eng.Run()

		if raw := eng.Answers(qid); len(raw) != 0 {
			t.Fatalf("rFirst=%v: %d raw rows leaked to the subscriber", rFirst, len(raw))
		}
		view := eng.AggRows(qid)
		if len(view) != 1 {
			t.Fatalf("rFirst=%v: aggregate view has %d rows, want 1", rFirst, len(view))
		}
		row := view[0].Row
		if !row[0].Equal(relation.Int64(1)) || !row[1].Equal(relation.Int64(5)) {
			t.Fatalf("rFirst=%v: view row %v, want [1 5]", rFirst, row)
		}
	}
}

// Aggregate queries reject the combinations Validate rules out.
func TestAggValidateRejections(t *testing.T) {
	bad := []string{
		"select R.A, count(*) from R,S where R.A=S.A",                       // bare column not grouped
		"select count(*) from R,S where R.A=S.A group by R.A",               // group col missing from select
		"select R.A from R,S where R.A=S.A group by R.A",                    // GROUP BY without aggregate
		"select distinct R.A, count(*) from R,S where R.A=S.A group by R.A", // DISTINCT + aggregate
		"select R.A, count(*) from R,S where R.A=S.A group by R.A once",     // one-time + aggregate
		"select sum(*) from R,S where R.A=S.A",                              // * outside COUNT
		"select sum(distinct R.A) from R,S where R.A=S.A",                   // DISTINCT outside COUNT
	}
	for _, sql := range bad {
		if _, err := sqlparse.Parse(sql, testCat); err == nil {
			t.Fatalf("%q parsed and validated; want rejection", sql)
		}
	}
}

// TestMoveNodeRehomesAggState is the Figure 9 path with an aggregate
// subscription: the heaviest aggregator changes identifier mid-stream,
// the leave and join handovers must carry its groups (and rate
// statistics) to their keys' new owners along with the queries and
// tuples, nothing is created or dropped by the move, and the final view
// equals the reference fold. With replication on, the replica groups are
// re-formed around the moved node and nothing is counted lost.
func TestMoveNodeRehomesAggState(t *testing.T) {
	for _, k := range []int{1, 2} {
		eng, nodes := testNet(t, 32, 31, replCfg(k), churnNetCfg())
		sql := "select R.A, count(*), sum(S.B) from R,S where R.A=S.A group by R.A"
		qid, err := eng.SubmitQuery(nodes[1], sqlparse.MustParse(sql, testCat))
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		var published []*relation.Tuple
		pub := func(i int) {
			r := mkTuple("R", int64(i%5), int64(i), 0)
			s := mkTuple("S", int64(i%5), int64(i%7), 0)
			published = append(published, r, s)
			eng.PublishTuple(nodes[2], r)
			eng.PublishTuple(nodes[3], s)
			eng.Run()
		}
		for i := 0; i < 20; i++ {
			pub(i)
		}
		total := func() (c stateCounts) {
			for _, p := range eng.procs {
				pc := p.st.counts()
				c.queries += pc.queries
				c.tuples += pc.tuples
				c.altt += pc.altt
				c.pending += pc.pending
				c.aggEpochs += pc.aggEpochs
			}
			return c
		}
		victim := aggHolder(eng)
		if victim == nil || victim == nodes[1] || victim == nodes[2] || victim == nodes[3] {
			t.Fatal("no usable aggregator to move; workload too weak")
		}
		before := total()
		if _, err := eng.MoveNode(victim, victim.ID()+1<<60); err != nil {
			t.Fatal(err)
		}
		eng.Run() // a handover lands as a zero-delay event
		if eng.Counters.HandoverEntries == 0 {
			t.Fatalf("k=%d: the move put no state on the wire", k)
		}
		if after := total(); after != before {
			t.Fatalf("k=%d: the move changed the stored entries: before %+v, after %+v", k, before, after)
		}
		for _, p := range eng.procs {
			for _, op := range p.st.ops(classKeyed, nil) {
				if o := eng.Ring().Owner(op.key.ID()); o.ID() != p.node.ID() {
					t.Fatalf("k=%d: entry kind %d under key %s left at %s, owner is %s", k, op.kind, op.key, p.node.ID(), o.ID())
				}
			}
		}
		for i := 20; i < 40; i++ {
			pub(i)
		}
		aggViewsMatch(t, "moved-aggregator", sql, eng, qid, published)
		if k >= 2 {
			replicasTrackRing(t, eng)
		}
	}
}

// flushRef names one group update a flush sends.
type flushRef struct {
	node  id.ID // the aggregator sending it
	qid   string
	group string
	epoch int64
	local bool // the aggregator is the subscriber: delivered without a hop
}

// scanFlushOrder is flushAggregates' send sequence by definition: every
// group of every node scanned, nodes by identifier, keys by string,
// epochs ascending, rows whose epoch holds data. The dirty-key sets
// replaced the scan; this stays as the test oracle.
func scanFlushOrder(e *Engine) []flushRef {
	var out []flushRef
	for _, nid := range slices.Sorted(maps.Keys(e.procs)) {
		p := e.procs[nid]
		for _, key := range sortedStateKeys(p.st.aggs) {
			g := p.st.aggs[key]
			for _, ep := range g.dirty {
				if _, ok := g.viewRow(e.aggSpec(g.qid), ep); ok {
					out = append(out, flushRef{nid, g.qid, g.gkey, ep, g.owner == nid})
				}
			}
		}
	}
	return out
}

// TestFlushOrderMatchesFullScan: through a join, a leave, a crash at
// rf=2, an identifier move and an unsubscribe — each while
// groups hold un-flushed epochs, over sliding, tumbling and unwindowed
// aggregates — every flush sends exactly the (node, key, epoch) sequence
// the scan over all groups computes, and leaves nothing dirty behind.
// Updates are observed where they are delivered: one flush's sends all
// take the same single hop, so they arrive in the order sent, the
// subscriber's own groups (no hop) first.
func TestFlushOrderMatchesFullScan(t *testing.T) {
	eng, nodes := testNet(t, 32, 41, replCfg(2), churnNetCfg())
	sub := nodes[0] // subscribes and publishes; never churns
	var qids []string
	for _, sql := range []string{
		"select R.A, count(*), max(S.B) from R,S where R.A=S.A group by R.A within 16 tuples",
		"select R.A, count(*), sum(S.B) from R,S where R.A=S.A group by R.A within 16 tuples tumbling",
		"select R.A, count(*), sum(S.B), min(S.B) from R,S where R.A=S.A group by R.A",
		"select S.B, sum(R.B), avg(R.B) from R,S where R.A=S.A group by S.B",
	} {
		qid, err := eng.SubmitQuery(sub, sqlparse.MustParse(sql, testCat))
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
	}

	var delivered []aggUpdateMsg
	record := func() { // membership changes attach bare processors
		for _, p := range eng.procs {
			eng.net.Attach(p.node, overlay.HandlerFunc(func(now sim.Time, msg overlay.Message) {
				if m, ok := msg.(*aggUpdateMsg); ok {
					delivered = append(delivered, *m)
				}
				p.HandleMessage(now, msg)
			}))
		}
	}
	record()

	// run is Engine.Run with each flush checked against the scan; it
	// returns the nodes that sent updates.
	flushes, sent := 0, 0
	run := func(label string) map[id.ID]bool {
		t.Helper()
		senders := make(map[id.ID]bool)
		for {
			eng.sim.Run()
			eng.Sync()
			want := scanFlushOrder(eng)
			delivered = delivered[:0]
			if !eng.flushAggregates() {
				if len(want) != 0 {
					t.Fatalf("%s: flush sent nothing, the scan finds %d dirty rows", label, len(want))
				}
				return senders
			}
			for _, p := range eng.procs {
				if len(p.st.dirtyAggs) != 0 {
					t.Fatalf("%s: node %s left %d keys dirty after a flush", label, p.node.ID(), len(p.st.dirtyAggs))
				}
				for key, g := range p.st.aggs {
					if len(g.dirty) != 0 {
						t.Fatalf("%s: group %s at %s still dirty after a flush", label, key, p.node.ID())
					}
				}
			}
			eng.sim.Run()
			want = append(pick(want, true), pick(want, false)...) // no hop arrives before one hop
			if len(delivered) != len(want) {
				t.Fatalf("%s: flush sent %d updates, the scan finds %d", label, len(delivered), len(want))
			}
			for i, w := range want {
				senders[w.node] = true
				if m := delivered[i]; m.QueryID != w.qid || m.Group != w.group || m.Epoch != w.epoch {
					t.Fatalf("%s: update %d is (%s, %x, %d), the scan's is (%s, %x, %d) from node %s",
						label, i, m.QueryID, m.Group, m.Epoch, w.qid, w.group, w.epoch, w.node)
				}
			}
			flushes++
			sent += len(want)
		}
	}
	run("submit")

	round := 0
	publish := func(n int) { // leaves deliveries in flight and groups dirty
		for ; n > 0; n-- {
			eng.PublishTuple(sub, mkTuple("R", int64(round%4), int64(round%7), 0))
			eng.PublishTuple(sub, mkTuple("S", int64(round%4), int64(round%5), 0))
			eng.RunUntil(eng.Sim().Now() + 4)
			round++
		}
	}
	// dirtyHolder returns the node other than the subscriber with the
	// most un-flushed groups (ties to the smaller identifier) and the
	// first of those groups' keys.
	dirtyHolder := func(label string) (*chord.Node, relation.Key) {
		t.Helper()
		var best *Proc
		for _, nid := range slices.Sorted(maps.Keys(eng.procs)) {
			if p := eng.procs[nid]; p.node != sub && len(p.st.dirtyAggs) > 0 &&
				(best == nil || len(p.st.dirtyAggs) > len(best.st.dirtyAggs)) {
				best = p
			}
		}
		if best == nil {
			t.Fatalf("%s: no node holds un-flushed groups; workload too weak", label)
		}
		return best.node, sortedStateKeys(best.st.dirtyAggs)[0]
	}

	publish(6)
	run("stream")

	publish(5)
	_, key := dirtyHolder("join")
	if _, err := eng.JoinNode(key.ID()); err != nil { // the joiner takes over the dirty group at key
		t.Fatal(err)
	}
	record()
	if !run("join")[key.ID()] {
		t.Fatal("join: the joiner flushed nothing; the handed-over group did not arrive dirty")
	}

	publish(5)
	victim, _ := dirtyHolder("leave")
	if err := eng.LeaveNode(victim); err != nil {
		t.Fatal(err)
	}
	run("leave")

	publish(5)
	victim, _ = dirtyHolder("crash")
	if err := eng.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	run("crash")
	if eng.Counters.ReplPromotions == 0 || eng.Counters.AggStateLost != 0 {
		t.Fatalf("crash: %d promotions, %d aggregation partials lost", eng.Counters.ReplPromotions, eng.Counters.AggStateLost)
	}

	publish(5)
	victim, _ = dirtyHolder("move")
	if _, err := eng.MoveNode(victim, victim.ID()+1<<59); err != nil {
		t.Fatal(err)
	}
	record()
	run("move")

	publish(5)
	dirtyHolder("unsubscribe")
	if err := eng.Unsubscribe(qids[0]); err != nil {
		t.Fatal(err)
	}
	run("unsubscribe")

	publish(8)
	run("tail")
	if flushes < 7 || sent < 100 {
		t.Fatalf("only %d flushes with %d updates were checked; workload too weak", flushes, sent)
	}
}

// pick returns the refs sent with (local) or without a hop, in order.
func pick(refs []flushRef, local bool) []flushRef {
	var out []flushRef
	for _, r := range refs {
		if r.local == local {
			out = append(out, r)
		}
	}
	return out
}

// TestAggEpochDeathsExact: a windowed aggregate epoch dies once the
// horizon passes the end of the last view that merges its partial — a
// tumbling epoch at its own end, a sliding one at the next epoch's —
// and no subscriber sees a difference. Tumbling and sliding windows on
// the tuple and the tick clock run with publications racing across
// RunUntil, the heaviest aggregator leaves gracefully and, at rf 2, the
// heaviest one later crashes, both with tuples in flight. After every
// Run each view equals agg.Reference over everything published so far
// and no node holds a dead epoch (checkNothingDead); by the end, most
// epochs have died. A node also joins just before the heaviest
// aggregator at tuple 100, taking nearly its whole arc while partials
// are in flight to it.
func TestAggEpochDeathsExact(t *testing.T) {
	for _, rf := range []int{1, 2} {
		aggEpochDeaths(t, rf, 100)
	}
}

// TestAggViewsExactAcrossJoins sweeps the join of TestAggEpochDeathsExact
// over stops in [60, 140] at which the loop leaves tuples in flight. At
// each point, at rf 1 and 2, an aggregate row was lost while the
// joiner's predecessor still routed the joiner's keys to the joiner's
// successor: the successor forwarded the partials through the same
// stale pointer until a hop budget ran out, then folded them itself,
// and the key had two aggregator groups.
func TestAggViewsExactAcrossJoins(t *testing.T) {
	for _, joinAt := range []int{64, 73, 81, 90, 111, 120, 129, 139} {
		t.Run(fmt.Sprintf("join at %d", joinAt), func(t *testing.T) {
			t.Parallel()
			for _, rf := range []int{1, 2} {
				aggEpochDeaths(t, rf, joinAt)
			}
		})
	}
}

// aggEpochDeaths runs TestAggEpochDeathsExact's script at replication
// factor rf, with a node joining just before the heaviest aggregator
// after tuple joinAt's publication. Joins happen only at RunUntil stops
// (i%3 != 2 and i%7 != 0), so that tuples are in flight across them.
func aggEpochDeaths(t *testing.T, rf, joinAt int) {
	t.Helper()
	queries := []string{
		"select R.A, count(*), sum(S.B) from R,S where R.A=S.A group by R.A within 8 tuples tumbling",
		"select R.A, count(*), max(S.B) from R,S where R.A=S.A group by R.A within 8 tuples",
		"select R.A, count(*), min(S.B) from R,S where R.A=S.A group by R.A within 24 ticks tumbling",
		"select R.A, count(*), sum(S.B) from R,S where R.A=S.A group by R.A within 24 ticks",
	}
	eng, nodes := testNet(t, 32, 17, replCfg(rf), churnNetCfg())
	owner := nodes[0] // subscribes; never churns
	var qids []string
	for _, sql := range queries {
		qid, err := eng.SubmitQuery(owner, sqlparse.MustParse(sql, testCat))
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, qid)
	}
	eng.Run()
	// heaviest is the node other than the owner holding the most
	// aggregator groups.
	heaviest := func() *chord.Node {
		var best *chord.Node
		most := 0
		for _, n := range eng.Ring().Nodes() {
			if c := len(eng.procs[n.ID()].st.aggs); n != owner && c > most {
				best, most = n, c
			}
		}
		if best == nil {
			t.Fatalf("rf %d: no node aggregates", rf)
		}
		return best
	}
	var published []*relation.Tuple
	raced := 0 // RunUntil stops that left tuples in flight
	check := func(label string) {
		t.Helper()
		checkNothingDead(t, eng)
		if len(published) < 8 {
			return // not every view has a row yet
		}
		for i, qid := range qids {
			aggViewsMatch(t, label, queries[i], eng, qid, published)
		}
	}
	// One tuple at a time, so the horizon's sequence takes every value
	// and a drain may stop one clock short of an epoch's end; tuples
	// race across most stops.
	for i := 0; i < 160; i++ {
		tu := mkTuple("R", int64(i/2%3), int64(i%7), 0)
		if i%2 == 1 {
			tu = mkTuple("S", int64(i/2%3), int64(i%5), 0)
		}
		published = append(published, tu)
		alive := eng.Ring().Nodes()
		eng.PublishTuple(alive[i*7%len(alive)], tu)
		if i%3 == 2 || i%7 == 0 {
			eng.Run()
			check(fmt.Sprintf("rf %d, tuple %d", rf, i))
			continue
		}
		eng.RunUntil(eng.Sim().Now() + 6) // deliveries in flight across the next publications
		if eng.Sim().PendingForeground() > 0 {
			raced++
		}
		switch {
		case i == 61:
			if err := eng.LeaveNode(heaviest()); err != nil {
				t.Fatal(err)
			}
		case i == 109 && rf == 2:
			if err := eng.CrashNode(heaviest()); err != nil {
				t.Fatal(err)
			}
		}
		if i == joinAt { // after the switch, so it never shadows the leave or the crash
			if _, err := eng.JoinNode(heaviest().ID() - 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Run()
	check(fmt.Sprintf("rf %d, the end", rf))
	if c := eng.Counters; raced < 30 || c.AggStateLost != 0 || c.HandoverMessages == 0 || rf == 2 && c.ReplPromotions == 0 {
		t.Fatalf("rf %d: %d stops left tuples in flight; %d epochs lost, %d handover messages, %d promotions",
			rf, raced, c.AggStateLost, c.HandoverMessages, c.ReplPromotions)
	}
	var live int64
	for _, p := range eng.procs {
		live += p.st.counts().aggEpochs
	}
	rows := 0
	for _, qid := range qids {
		rows += len(eng.AggRows(qid))
	}
	if 4*live > int64(rows) {
		t.Fatalf("rf %d: %d epochs are stored for %d view rows; too few died", rf, live, rows)
	}
}
