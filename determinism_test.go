package rjoin

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
)

// goldenWorkload drives a fixed-seed mixed workload — plain, 3-way,
// DISTINCT, sliding- and tumbling-windowed continuous queries plus a
// one-time snapshot query, with tuples racing queries part of the time —
// and returns the final Stats together with an order-sensitive digest of
// every answer stream. Any change to replay behaviour shows up in one of
// the two.
func goldenWorkload(t testing.TB, opts Options) (Stats, uint64) {
	net := MustNetwork(opts)
	rec := &recorder{net: net}
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	net.MustDefineRelation("T", "A", "B")

	subs := []*Subscription{
		rec.subscribe("select R.B, S.B from R,S where R.A=S.A"),
		rec.subscribe("select R.B, T.B from R,S,T where R.A=S.A and S.B=T.B"),
		rec.subscribe("select distinct S.B from R,S where R.A=S.A"),
		rec.subscribe("select R.B, S.B from R,S where R.A=S.A within 40 tuples"),
		rec.subscribe("select R.B, S.B from R,S where R.A=S.A within 64 ticks tumbling"),
		rec.subscribe("select S.B from S where 3=S.A"),
	}
	// Warm stream, fully drained between publications.
	skew := []int{0, 0, 0, 1, 1, 2, 3, 4}
	for i := 0; i < 40; i++ {
		rec.publish("R", skew[i%8], i)
		rec.publish("S", skew[(i+1)%8], i%6)
		if i%3 == 0 {
			rec.publish("T", skew[i%8], (i+2)%6)
		}
		net.Run()
		checkNothingDead(t, net)
	}
	// Racing phase: tuples and a late batch of queries in flight together.
	for i := 0; i < 30; i++ {
		rec.publish("R", i%5, i)
		rec.publish("S", i%5, i%4)
	}
	subs = append(subs, rec.subscribe("select R.A, S.B from R,S where R.B=S.B"))
	net.RunFor(10)
	for i := 0; i < 20; i++ {
		rec.publish("T", i%5, i%4)
	}
	net.Run()
	checkNothingDead(t, net)
	// One-time snapshot over everything published so far.
	subs = append(subs, rec.subscribe("select S.B from R,S where R.A=S.A once"))
	net.Run()
	checkNothingDead(t, net)

	// Certified before it is digested: a configuration that loses state
	// by design (crashes without replication) delivers a sub-bag.
	lost := net.Stats()
	rec.certify(t, "golden workload", lost.QueriesLost+lost.RewritesLost+lost.TuplesLost+lost.AggStateLost > 0)

	h := fnv.New64a()
	for _, s := range subs {
		fmt.Fprintf(h, "[%s]", s.SQL)
		for _, a := range s.Answers() {
			fmt.Fprintf(h, "%d:", a.At)
			for _, v := range a.Row {
				fmt.Fprintf(h, "%s,", v.String())
			}
			fmt.Fprint(h, ";")
		}
	}
	return net.Stats(), h.Sum64()
}

// goldenConfigs are the configurations the golden test pins down: the
// paper-default engine; random hop delays in [0, 3], the only golden
// whose schedule delivers zero-delay hops, and in [1, 3]; and a
// churn-enabled run whose joins, graceful leaves and crashes must replay
// bit-identically — handover ordering, bounce paths, ownership re-routes
// and crash recovery included.
func goldenConfigs() []Options {
	return []Options{
		{Nodes: 96, Seed: 42},
		{Nodes: 96, Seed: 42, MaxHopDelay: 3},
		{Nodes: 96, Seed: 42, MinHopDelay: 1, MaxHopDelay: 3},
		{Nodes: 96, Seed: 42, Churn: ChurnOptions{
			JoinRate: 25, LeaveRate: 25, CrashRate: 10, Interval: 8, MinNodes: 48,
		}},
	}
}

// goldenWorkers are the worker counts a golden is pinned across: the
// engine has one schedule, so one value holds for all of them, zero-delay
// hops included.
var goldenWorkers = []int{0, 1, 2, 4, 8}

// goldenValues are the pinned Stats and answer-stream digest of each
// goldenConfigs entry. Each value was re-pinned once, after certify
// passed, when the engine's serial heap was replaced by the one sub-round
// schedule.
var goldenValues = []struct {
	stats  Stats
	digest uint64
}{
	{Stats{Messages: 12573, QueryProcessingLoad: 1862, StorageLoad: 1484, Answers: 8733, RewritesCreated: 9920, MaxNodeQPL: 220, ParticipatingNodes: 53,
		TrafficByTag: TagTraffic{RIC: 298, App: 12275}}, 0x24a34293edd07748},
	// Random hop delays in [0, 3]: zero-delay hops land in the next
	// sub-round of their tick.
	{Stats{Messages: 12593, QueryProcessingLoad: 1864, StorageLoad: 1484, Answers: 8751, RewritesCreated: 9940, MaxNodeQPL: 252, ParticipatingNodes: 53,
		TrafficByTag: TagTraffic{RIC: 298, App: 12295}}, 0x60f25fdd971711d1},
	{Stats{Messages: 12544, QueryProcessingLoad: 1841, StorageLoad: 1462, Answers: 8733, RewritesCreated: 9899, MaxNodeQPL: 216, ParticipatingNodes: 53,
		TrafficByTag: TagTraffic{RIC: 285, App: 12259}}, 0x4bb680868647ed02},
	// Churn-enabled: 19 joins, 22 graceful leaves and 10 crashes
	// interleave the mixed workload; the digest pins the handover
	// ordering, bounce paths, ownership re-routes and crash
	// recovery to an exact replay.
	{Stats{Messages: 12341, QueryProcessingLoad: 1573, StorageLoad: 1195, Answers: 8218, RewritesCreated: 9116, MaxNodeQPL: 156, ParticipatingNodes: 64, Joins: 19, Leaves: 22, Crashes: 10, HandoverMessages: 22, HandoverEntries: 252, MessagesBounced: 805, RewritesLost: 6, TuplesLost: 17,
		TrafficByTag: TagTraffic{RIC: 390, Churn: 22, App: 11929}}, 0xf02a0fe0aa31a266},
}

// checkGoldenWorkload runs every golden configuration at each of its
// worker counts for which keep is true, one subtest "configI/workersW"
// each, and fails every run that drifts from goldenValues.
func checkGoldenWorkload(t *testing.T, keep func(workers int) bool) {
	for i, opts := range goldenConfigs() {
		for _, w := range goldenWorkers {
			if !keep(w) {
				continue
			}
			opts.Workers = w
			t.Run(fmt.Sprintf("config%d/workers%d", i, w), func(t *testing.T) {
				st, d := goldenWorkload(t, opts)
				if st != goldenValues[i].stats || d != goldenValues[i].digest {
					t.Fatalf("replay drifted from golden baseline:\ngot  %+v digest %#x\nwant %+v digest %#x",
						st, d, goldenValues[i].stats, goldenValues[i].digest)
				}
			})
		}
	}
}

// TestGoldenDeterminism asserts the replay guarantee: every run of a
// configuration is bit-identical to the golden values, so hot-path work
// cannot silently change behaviour. The mixed workload is pinned here at
// Workers 0 and 1; TestGoldenDeterminismParallel pins it at the larger
// worker counts. The aggregation and sharing goldens are pinned at every
// worker count.
func TestGoldenDeterminism(t *testing.T) {
	checkGoldenWorkload(t, func(w int) bool { return w <= 1 })

	// Aggregation-enabled config: the digest over every subscription's
	// final aggregate view (and a plain subscription's answer multiset)
	// must match the pinned baseline at every worker count — the
	// distributed fold, partial routing and quiescence flushing may not
	// depend on scheduling interleave in any way that reaches final state.
	const goldenAgg = uint64(0xdeb53ae175c3b7e3)
	for _, w := range goldenWorkers {
		if d := goldenAggWorkload(t, Options{Nodes: 96, Seed: 42, Workers: w}); d != goldenAgg {
			t.Fatalf("aggregation config, workers %d: digest %x diverged from golden %x", w, d, goldenAgg)
		}
	}

	// Sharing-enabled config: a duplicate-heavy submission stream (exact
	// duplicates, clause-permuted variants and a residual-filter variant)
	// under churn with ReplicationFactor 2, plus a mid-run Unsubscribe.
	// The order-insensitive digest over every surviving subscriber's
	// answer multiset — and the sharing counters — and the full Stats
	// must be bit-identical at every worker count and match the pinned
	// baseline: opening and joining classes, the fan-out and teardown
	// may not depend on scheduling interleave.
	const goldenSharing = uint64(0x0c1d1548774f5b77)
	var sharedPinned Stats
	for wi, w := range goldenWorkers {
		st, d := goldenSharingWorkload(t, Options{
			Nodes: 96, Seed: 42, Sharing: true, ReplicationFactor: 2, Workers: w,
			Churn: ChurnOptions{JoinRate: 10, CrashRate: 30, Interval: 8, MinNodes: 48},
		})
		if st.QueriesShared != 5 || st.QueriesUnsubscribed != 1 || st.SharedFanoutRows == 0 ||
			st.Crashes == 0 || st.RewritesLost != 0 || st.TuplesLost != 0 {
			t.Fatalf("sharing config, workers %d: machinery drifted (shared %d, unsubscribed %d, fan-out %d, crashes %d, lost %d/%d)",
				w, st.QueriesShared, st.QueriesUnsubscribed, st.SharedFanoutRows,
				st.Crashes, st.RewritesLost, st.TuplesLost)
		}
		if d != goldenSharing {
			t.Fatalf("sharing config, workers %d: digest %#x diverged from golden %#x (stats %+v)", w, d, goldenSharing, st)
		}
		if wi == 0 {
			sharedPinned = st
		} else if st != sharedPinned {
			t.Fatalf("sharing config, workers %d: stats depend on worker count:\ngot  %+v\nwant %+v", w, st, sharedPinned)
		}
	}
}

// TestGoldenDeterminismParallel proves worker-count invariance of the
// mixed workload: at Workers 2, 4 and 8 every configuration, zero-delay
// hops included, replays to the same golden values as the single-worker
// run, because the sub-round schedule is keyed by the fixed logical-shard
// space, never by the worker count.
func TestGoldenDeterminismParallel(t *testing.T) {
	checkGoldenWorkload(t, func(w int) bool { return w > 1 })
}

// goldenSharingWorkload drives the sharing golden: seven subscriptions
// spanning one shared 2-way class (exact duplicate, permuted variant,
// residual-filter variant), one shared 3-way class on its own
// pipeline, and a windowed loner; one duplicate is torn down mid-run
// and a late permuted duplicate attaches while tuples are in flight.
// The digest is order-insensitive (per subscriber, the sorted multiset
// of timestamped answer rows) plus the sharing and loss counters, which
// is what lets one pinned value hold across every worker count.
func goldenSharingWorkload(t testing.TB, opts Options) (Stats, uint64) {
	net := MustNetwork(opts)
	rec := &recorder{net: net}
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	net.MustDefineRelation("T", "A", "B")

	subs := []*Subscription{
		rec.subscribe("select R.B, S.B from R,S where R.A=S.A"),
		rec.subscribe("select S.B, R.B from S,R where S.A=R.A"),
		rec.subscribe("select S.B from S,R where R.A=S.A and 3=R.A"),
		rec.subscribe("select R.B, T.B from R,S,T where R.A=S.A and S.B=T.B"),
		rec.subscribe("select T.A, R.B from T,S,R where T.B=S.B and S.A=R.A"),
		rec.subscribe("select R.B, S.B from R,S where R.A=S.A within 40 tuples"),
	}
	victim := net.MustSubscribe("select R.A, S.A from R,S where R.A=S.A")
	skew := []int{0, 0, 0, 1, 1, 2, 3, 4}
	for i := 0; i < 40; i++ {
		rec.publish("R", skew[i%8], i)
		rec.publish("S", skew[(i+1)%8], i%6)
		if i%3 == 0 {
			rec.publish("T", skew[i%8], (i+2)%6)
		}
		net.Run()
		checkNothingDead(t, net)
	}
	if err := victim.Unsubscribe(); err != nil {
		panic(err)
	}
	// Racing phase: tuples in flight while a late duplicate attaches.
	for i := 0; i < 30; i++ {
		rec.publish("R", i%5, i)
		rec.publish("S", i%5, i%4)
	}
	subs = append(subs, rec.subscribe("select S.B, R.B from R,S where S.A=R.A"))
	net.RunFor(10)
	for i := 0; i < 20; i++ {
		rec.publish("T", i%5, i%4)
	}
	net.Run()
	checkNothingDead(t, net)

	st := net.Stats()
	rec.certify(t, "sharing golden", false)

	h := fnv.New64a()
	for _, s := range subs {
		fmt.Fprintf(h, "[%s]", s.SQL)
		var rows []string
		for _, a := range s.Answers() {
			row := fmt.Sprintf("%d:", a.At)
			for _, v := range a.Row {
				row += v.String() + ","
			}
			rows = append(rows, row)
		}
		sort.Strings(rows)
		for _, r := range rows {
			fmt.Fprintf(h, "%s;", r)
		}
	}
	fmt.Fprintf(h, "|shared=%d unsub=%d fanout=%d lost=%d/%d",
		st.QueriesShared, st.QueriesUnsubscribed, st.SharedFanoutRows,
		st.RewritesLost, st.TuplesLost)
	return st, h.Sum64()
}

// goldenAggWorkload drives a fixed-seed aggregation workload — grouped,
// global, tumbling- and sliding-windowed aggregate queries over every
// function, plus a plain query riding along — and digests the final
// aggregate views together with the plain query's answer multiset. The
// digest is deliberately order-insensitive (views are canonical sorted
// state, the answer stream is sorted before hashing): aggregation
// exactness is a property of final state, not of delivery interleaving,
// which is what lets one pinned value hold across every worker count.
func goldenAggWorkload(t testing.TB, opts Options) uint64 {
	net := MustNetwork(opts)
	rec := &recorder{net: net}
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")

	subs := []*Subscription{
		rec.subscribe("select R.A, count(*), sum(S.B), min(S.B), max(S.B), avg(S.B), count(distinct S.B) from R,S where R.A=S.A group by R.A"),
		rec.subscribe("select count(*), max(R.B) from R,S where R.A=S.A"),
		rec.subscribe("select R.A, count(*), sum(S.B) from R,S where R.A=S.A group by R.A within 32 tuples tumbling"),
		rec.subscribe("select R.A, count(*), max(S.B) from R,S where R.A=S.A group by R.A within 32 tuples"),
		rec.subscribe("select R.B, S.B from R,S where R.A=S.A"),
	}
	skew := []int{0, 0, 0, 1, 1, 2, 3, 4}
	for i := 0; i < 48; i++ {
		rec.publish("R", skew[i%8], i)
		rec.publish("S", skew[(i+1)%8], i%6)
		if i%5 == 4 {
			net.Run()
			checkNothingDead(t, net)
		} else {
			net.RunFor(2) // keep deliveries racing across barriers
		}
	}
	net.Run()
	checkNothingDead(t, net)

	rec.certify(t, "aggregation golden", false)

	h := fnv.New64a()
	for _, s := range subs {
		fmt.Fprintf(h, "[%s]", s.SQL)
		for _, a := range s.AggregateRows() {
			fmt.Fprintf(h, "e%d:", a.Epoch)
			for _, v := range a.Row {
				fmt.Fprintf(h, "%s,", v.String())
			}
			fmt.Fprint(h, ";")
		}
		var rows []string
		for _, a := range s.Answers() {
			row := ""
			for _, v := range a.Row {
				row += v.String() + ","
			}
			rows = append(rows, row)
		}
		sort.Strings(rows)
		for _, r := range rows {
			fmt.Fprintf(h, "%s;", r)
		}
	}
	return h.Sum64()
}

// replicatedGoldenOpts is the crash-heavy replicated configuration the
// golden suite pins: unit hop delays, spontaneous churn tilted towards
// crashes, and
// ReplicationFactor 2 so every crash promotes instead of losing state.
func replicatedGoldenOpts(workers int) Options {
	return Options{
		Nodes: 96, Seed: 42, ReplicationFactor: 2, Workers: workers,
		Churn: ChurnOptions{
			JoinRate: 10, CrashRate: 30, Interval: 8, MinNodes: 48,
		},
	}
}

// goldenReplWorkload drives the mixed golden workload under the
// crash-heavy replicated configuration and digests the final state
// order-insensitively: per subscription, the sorted multiset of
// (time, row) answer strings, plus the stats fields replication
// guarantees — the loss counters (which must stay zero) and the
// replication machinery's own counts.
func goldenReplWorkload(t testing.TB, opts Options) (Stats, uint64) {
	net := MustNetwork(opts)
	rec := &recorder{net: net}
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	net.MustDefineRelation("T", "A", "B")

	subs := []*Subscription{
		rec.subscribe("select R.B, S.B from R,S where R.A=S.A"),
		rec.subscribe("select R.B, T.B from R,S,T where R.A=S.A and S.B=T.B"),
		rec.subscribe("select distinct S.B from R,S where R.A=S.A"),
		rec.subscribe("select R.B, S.B from R,S where R.A=S.A within 40 tuples"),
		rec.subscribe("select R.B, S.B from R,S where R.A=S.A within 64 ticks tumbling"),
		rec.subscribe("select R.A, count(*), sum(S.B) from R,S where R.A=S.A group by R.A"),
	}
	skew := []int{0, 0, 0, 1, 1, 2, 3, 4}
	for i := 0; i < 40; i++ {
		rec.publish("R", skew[i%8], i)
		rec.publish("S", skew[(i+1)%8], i%6)
		if i%3 == 0 {
			rec.publish("T", skew[i%8], (i+2)%6)
		}
		net.Run()
		checkNothingDead(t, net)
	}
	for i := 0; i < 30; i++ {
		rec.publish("R", i%5, i)
		rec.publish("S", i%5, i%4)
	}
	subs = append(subs, rec.subscribe("select R.A, S.B from R,S where R.B=S.B"))
	net.RunFor(10)
	for i := 0; i < 20; i++ {
		rec.publish("T", i%5, i%4)
	}
	net.Run()
	checkNothingDead(t, net)

	st := net.Stats()
	rec.certify(t, "replicated golden", false)

	h := fnv.New64a()
	for _, s := range subs {
		fmt.Fprintf(h, "[%s]", s.SQL)
		var rows []string
		for _, a := range s.Answers() {
			row := fmt.Sprintf("%d:", a.At)
			for _, v := range a.Row {
				row += v.String() + ","
			}
			rows = append(rows, row)
		}
		sort.Strings(rows)
		for _, r := range rows {
			fmt.Fprintf(h, "%s;", r)
		}
		for _, a := range s.AggregateRows() {
			fmt.Fprintf(h, "e%d:", a.Epoch)
			for _, v := range a.Row {
				fmt.Fprintf(h, "%s,", v.String())
			}
			fmt.Fprint(h, ";")
		}
	}
	fmt.Fprintf(h, "|crashes=%d lost=%d/%d/%d/%d repl=%d/%d/%d/%d",
		st.Crashes, st.QueriesLost, st.RewritesLost, st.TuplesLost, st.AggStateLost,
		st.ReplUpdates, st.ReplOps, st.ReplSyncs, st.ReplPromotions)
	return st, h.Sum64()
}

// TestGoldenDeterminismReplicated pins the crash-heavy replicated
// configuration: the digest and stats must be bit-identical at every
// worker count, and every crash must promote rather than lose state (the
// durability acceptance criterion: RewritesLost == TuplesLost ==
// AggStateLost == 0 with crashes > 0).
//
// The schedule has a tick, t=448, on which a tuple is stored at a node
// whose replica target crashes: the update batch goes to the new target
// because a tick's global events — the churn draws — fire before its
// deliveries (TestGlobalEventsFireBeforeEntityEvents).
func TestGoldenDeterminismReplicated(t *testing.T) {
	// Golden value captured when durable replication was introduced
	// (and recaptured when pending placement walks joined the mirrored
	// state, when submission-time walks gained their own
	// coordinator-context flush, when walks became single-flight, and
	// when dead windowed rewrites started to leave at the drain instead
	// of by a charged trigger — ReplOps 4911 → 4819, every answer and
	// view row unchanged — and, after certify passed, when the ring's
	// routing pointers became exact after every membership call).
	const goldenDigest = uint64(0x4fd85e03eb1384c6)
	var pinned Stats
	for wi, w := range goldenWorkers {
		st, d := goldenReplWorkload(t, replicatedGoldenOpts(w))
		if st.Crashes == 0 {
			t.Fatal("replicated golden drove no crashes; churn config too weak")
		}
		if st.RewritesLost != 0 || st.TuplesLost != 0 || st.AggStateLost != 0 {
			t.Fatalf("workers %d: replicated crashes lost state: rewrites %d, tuples %d, agg %d",
				w, st.RewritesLost, st.TuplesLost, st.AggStateLost)
		}
		if st.ReplPromotions == 0 || st.TrafficByTag.Repl == 0 {
			t.Fatalf("workers %d: replication machinery unused (promotions %d, messages %d)",
				w, st.ReplPromotions, st.TrafficByTag.Repl)
		}
		if wi == 0 {
			pinned = st
			if d != goldenDigest {
				t.Fatalf("replicated golden drifted: digest %#x, want %#x (stats %+v)", d, goldenDigest, st)
			}
			continue
		}
		if st != pinned || d != goldenDigest {
			t.Fatalf("workers %d: replicated golden depends on worker count:\ngot  %+v digest %#x\nwant %+v digest %#x",
				w, st, d, pinned, goldenDigest)
		}
	}
}
