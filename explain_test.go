package rjoin

import (
	"hash/fnv"
	"strings"
	"testing"

	"rjoin/internal/agg"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sqlparse"
)

// pubRec remembers one published tuple so tests can reconstruct it from
// a lineage step: the engine's publish sequence is global, 1-based, and
// assigned in call order, so pubs[seq-1] is the tuple with PubSeq seq.
type pubRec struct {
	rel  string
	vals []int
	at   int64 // virtual publish time (the network is drained, so Now() is it)
	seq  int64
}

// recorder wraps a network so every publication is remembered alongside
// its engine-assigned sequence number.
type recorder struct {
	net  *Network
	pubs []pubRec
	subs []subRec // what subscribe submitted (see oracle_test.go)
}

func (r *recorder) publish(rel string, vals ...int) {
	args := make([]interface{}, len(vals))
	for i, v := range vals {
		args[i] = v
	}
	r.net.MustPublish(rel, args...)
	r.pubs = append(r.pubs, pubRec{rel: rel, vals: vals, at: r.net.Now(), seq: int64(len(r.pubs) + 1)})
}

// tupleOf reconstructs the published tuple a lineage step names,
// including the publication time and sequence the window and epoch
// rules key on.
func (r *recorder) tupleOf(t testing.TB, seq int64) *relation.Tuple {
	t.Helper()
	if seq < 1 || seq > int64(len(r.pubs)) {
		t.Fatalf("lineage names publish seq %d outside [1, %d]", seq, len(r.pubs))
	}
	rec := r.pubs[seq-1]
	s, ok := r.net.cat.Schema(rec.rel)
	if !ok {
		t.Fatalf("unknown relation %s", rec.rel)
	}
	vals := make([]relation.Value, len(rec.vals))
	for i, v := range rec.vals {
		vals[i] = Int(int64(v))
	}
	tp, err := relation.NewTuple(s, vals...)
	if err != nil {
		t.Fatal(err)
	}
	tp.PubTime = rec.at
	tp.PubSeq = rec.seq
	return tp
}

// lineageTuples dedups a row's lineage into the base tuples it names
// (consumption order can visit a tuple once per rewrite hop chain; the
// base multiset is what the reference evaluator wants).
func (r *recorder) lineageTuples(t *testing.T, lin []LineageStep) []*relation.Tuple {
	t.Helper()
	seen := make(map[int64]bool)
	var tuples []*relation.Tuple
	for _, st := range lin {
		if seen[st.Seq] {
			continue
		}
		seen[st.Seq] = true
		tuples = append(tuples, r.tupleOf(t, st.Seq))
	}
	return tuples
}

// certifyAnswers replays every answer row's lineage through the
// centralized reference evaluator: feeding exactly the base tuples the
// lineage names back into the subscriber's own query must reproduce the
// delivered row, and the lineage must name exactly one base tuple per
// FROM relation and replay to exactly one row — the plain-join shape,
// which a shared pipeline's fan-out keeps too.
func certifyAnswers(t *testing.T, rec *recorder, sub *Subscription) {
	t.Helper()
	q, err := sqlparse.Parse(sub.SQL, rec.net.cat)
	if err != nil {
		t.Fatal(err)
	}
	answers := sub.Answers()
	if len(answers) == 0 {
		t.Fatalf("%s: no answers to certify", sub.SQL)
	}
	for i, a := range answers {
		if len(a.Lineage) == 0 {
			t.Fatalf("%s: answer %d has no lineage", sub.SQL, i)
		}
		tuples := rec.lineageTuples(t, a.Lineage)
		rows := refeval.Evaluate(q, tuples)
		if len(tuples) != len(q.Relations) {
			t.Fatalf("%s: answer %d lineage names %d base tuples, want one per relation (%d)",
				sub.SQL, i, len(tuples), len(q.Relations))
		}
		if len(rows) != 1 {
			t.Fatalf("%s: answer %d lineage replay produced %d rows, want exactly 1", sub.SQL, i, len(rows))
		}
		if rows[0].Key() != refeval.Row(a.Row).Key() {
			t.Fatalf("%s: answer %d %v not reproduced by replaying its lineage %v (replay gave %v)",
				sub.SQL, i, a.Row, a.Lineage, rows[0])
		}
	}
}

// explainWorkload drives a fixed-seed fully-drained mixed workload —
// plain, 3-way, DISTINCT, value-selection and grouped-aggregate
// queries — with the profiler and provenance on, and digests every
// subscription's EXPLAIN ANALYZE text. Full drains after every publish
// keep the event timeline schedule-independent, so the digest is a
// worker-count invariant.
func explainWorkload(t testing.TB, opts Options) (uint64, []*ExplainReport) {
	opts.Profile = &ProfileOptions{SampleInterval: 32}
	opts.Provenance = true
	net := MustNetwork(opts)
	rec := &recorder{net: net}
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	net.MustDefineRelation("T", "A", "B")

	subs := []*Subscription{
		rec.subscribe("select R.B, S.B from R,S where R.A=S.A"),
		rec.subscribe("select R.B, T.B from R,S,T where R.A=S.A and S.B=T.B"),
		rec.subscribe("select distinct S.B from R,S where R.A=S.A"),
		rec.subscribe("select S.B from S where 3=S.A"),
		rec.subscribe("select R.A, count(*), sum(S.B) from R,S where R.A=S.A group by R.A"),
		rec.subscribe("select R.B, S.B from R,S where R.A=S.A within 64 ticks tumbling"),
	}
	net.Run()
	skew := []int{0, 0, 0, 1, 1, 2, 3, 4}
	for i := 0; i < 32; i++ {
		rec.publish("R", skew[i%8], i)
		rec.publish("S", skew[(i+1)%8], i%6)
		if i%3 == 0 {
			rec.publish("T", skew[i%8], (i+2)%6)
		}
		net.Run()
	}

	rec.certify(t, "explain workload", false)

	h := fnv.New64a()
	reports := make([]*ExplainReport, len(subs))
	for i, s := range subs {
		rep, err := s.Explain()
		if err != nil {
			panic(err)
		}
		reports[i] = rep
		h.Write([]byte(rep.Text()))
	}
	return h.Sum64(), reports
}

// TestExplainDigestWorkerInvariant pins the introspection layer's
// determinism contract: on a fully-drained golden workload the digest
// over every subscription's EXPLAIN ANALYZE text — placements, observed
// counters, selectivities, state series, delivery totals — is
// bit-identical at every worker count and matches the pinned
// baseline. Profiler attribution runs on per-shard cells merged at
// barriers; any scheduling dependence would move this digest.
func TestExplainDigestWorkerInvariant(t *testing.T) {
	// Re-pinned when windowed rewrites started to leave at the first
	// quiescent Run past their window: only the tumbling query's state
	// figures moved.
	const goldenExplain = uint64(0x8af051f6fb0e9b64)
	var pinned uint64
	for wi, w := range goldenWorkers {
		d, reports := explainWorkload(t, Options{Nodes: 96, Seed: 42, Workers: w})
		for _, rep := range reports {
			if !rep.Profiled || !rep.Provenance {
				t.Fatalf("workers %d: report %s does not reflect enabled introspection", w, rep.Query)
			}
		}
		if wi == 0 {
			pinned = d
			if d != goldenExplain {
				t.Fatalf("explain digest %#016x drifted from golden %#016x", d, goldenExplain)
			}
			continue
		}
		if d != pinned {
			t.Fatalf("workers %d: explain digest %#016x != workers 0 digest %#016x", w, d, pinned)
		}
	}
}

// TestExplainReportShape sanity-checks the structured report on the
// golden workload: static placements cover every candidate in clause
// order, the profiled counters join up with delivery totals, and the
// state series is a running (non-negative at the tail) footprint.
func TestExplainReportShape(t *testing.T) {
	_, reports := explainWorkload(t, Options{Nodes: 96, Seed: 42})
	plain := reports[0] // select R.B, S.B from R,S where R.A=S.A
	if plain.Answers == 0 {
		t.Fatal("plain query delivered no answers")
	}
	if len(plain.Placements) < 2 {
		t.Fatalf("plain 2-way join should occupy at least its two attribute keys: %+v", plain.Placements)
	}
	wantClause := 0
	var arrivals, completions int64
	for _, pl := range plain.Placements {
		if pl.Clause >= 0 {
			if pl.Clause != wantClause {
				t.Fatalf("static placements out of clause order: %+v", plain.Placements)
			}
			wantClause++
			if pl.Level != "attribute" && pl.Level != "value" {
				t.Fatalf("static placement level %q", pl.Level)
			}
		}
		arrivals += pl.Arrivals
		completions += pl.Completions
	}
	if arrivals == 0 || completions == 0 {
		t.Fatalf("profiled counters empty: arrivals=%d completions=%d", arrivals, completions)
	}
	if len(plain.Series) == 0 {
		t.Fatal("no state-footprint series for an active pipeline")
	}
	if tail := plain.Series[len(plain.Series)-1].Bytes; tail < 0 {
		t.Fatalf("state footprint went negative: %d", tail)
	}
	if !strings.Contains(plain.Text(), "EXPLAIN ANALYZE") {
		t.Fatalf("Text() lost its header:\n%s", plain.Text())
	}
	agg := reports[4] // grouped aggregate
	var partials int64
	for _, pl := range agg.Placements {
		if pl.Level == "aggregate" && pl.Clause != -1 {
			t.Fatalf("aggregator key %s not marked runtime", pl.Key)
		}
		partials += pl.AggPartials
	}
	if partials == 0 || agg.AggUpdates == 0 {
		t.Fatalf("aggregate introspection empty: partials=%d updates=%d", partials, agg.AggUpdates)
	}
}

// TestExplainWithoutProfiler: Explain must still work with profiling
// off — static plan and delivery totals only, flagged as unprofiled —
// and unknown query IDs must error.
func TestExplainWithoutProfiler(t *testing.T) {
	net := MustNetwork(Options{Nodes: 32, Seed: 7})
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	sub := net.MustSubscribe("select R.B, S.B from R,S where R.A=S.A")
	net.MustPublish("R", 1, 2)
	net.MustPublish("S", 1, 3)
	net.Run()
	rep, err := sub.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profiled || rep.Provenance {
		t.Fatalf("report claims introspection that is off: %+v", rep)
	}
	if len(rep.Placements) == 0 || rep.Answers != 1 {
		t.Fatalf("static plan or delivery totals missing: %+v", rep)
	}
	for _, pl := range rep.Placements {
		if pl.Arrivals != 0 || pl.Rewrites != 0 {
			t.Fatalf("unprofiled report carries observed counters: %+v", pl)
		}
	}
	if _, err := net.Explain("no-such-query"); err == nil {
		t.Fatal("Explain of unknown query must error")
	}
	if a := sub.Answers(); len(a) != 1 || a[0].Lineage != nil {
		t.Fatalf("provenance off must leave lineage nil: %+v", a)
	}
}

// TestProvenanceCertified replays every delivered row's lineage through
// the centralized reference evaluator: for plain, 3-way, DISTINCT and
// value-selection continuous queries, the base tuples a row's lineage
// names must — fed back into the subscriber's own query — reproduce
// exactly that row.
func TestProvenanceCertified(t *testing.T) {
	net := MustNetwork(Options{Nodes: 64, Seed: 11, Provenance: true})
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	net.MustDefineRelation("T", "A", "B")
	rec := &recorder{net: net}

	subs := []*Subscription{
		net.MustSubscribe("select R.B, S.B from R,S where R.A=S.A"),
		net.MustSubscribe("select R.B, T.B from R,S,T where R.A=S.A and S.B=T.B"),
		net.MustSubscribe("select S.B from S where 3=S.A"),
	}
	distinct := net.MustSubscribe("select distinct S.B from R,S where R.A=S.A")
	net.Run()
	skew := []int{0, 0, 3, 1, 1, 2, 3, 4}
	for i := 0; i < 24; i++ {
		rec.publish("R", skew[i%8], i)
		rec.publish("S", skew[(i+1)%8], i%5)
		if i%3 == 0 {
			rec.publish("T", skew[i%8], (i+2)%5)
		}
		net.Run()
	}
	for _, sub := range subs {
		certifyAnswers(t, rec, sub)
	}
	// DISTINCT suppresses duplicate rows but each survivor still carries
	// the lineage of the combination that produced it.
	certifyAnswers(t, rec, distinct)
}

// TestProvenanceSharingCertified certifies lineage through the
// multi-query sharing machinery under churn with replication: exact
// duplicates, a clause-permuted variant and a residual-filter variant
// riding one shared pipeline, beside a 3-way join whose graph contains
// it and which places its own — every subscriber's every row must
// replay through its own query to exactly that row, one base tuple per
// relation, crashes included (ReplicationFactor 2 keeps the answer
// stream and its lineage lossless).
func TestProvenanceSharingCertified(t *testing.T) {
	net := MustNetwork(Options{
		Nodes: 96, Seed: 42, Provenance: true, Sharing: true, ReplicationFactor: 2,
		Churn: ChurnOptions{CrashRate: 20, Interval: 8, MinNodes: 64},
	})
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	net.MustDefineRelation("T", "A", "B")
	rec := &recorder{net: net}

	subs := []*Subscription{
		net.MustSubscribe("select R.B, S.B from R,S where R.A=S.A"),
		net.MustSubscribe("select S.B, R.B from S,R where S.A=R.A"),               // permuted duplicate
		net.MustSubscribe("select S.B from S,R where R.A=S.A and 3=R.A"),          // residual filter
		net.MustSubscribe("select R.B, T.B from R,S,T where R.A=S.A and S.B=T.B"), // contains the 2-way graph
	}
	net.Run()
	skew := []int{0, 0, 3, 1, 1, 2, 3, 4}
	for i := 0; i < 24; i++ {
		rec.publish("R", skew[i%8], i)
		rec.publish("S", skew[(i+1)%8], i%5)
		if i%3 == 0 {
			rec.publish("T", skew[i%8], (i+2)%5)
		}
		net.Run()
	}
	st := net.Stats()
	if st.QueriesShared == 0 || st.SharedFanoutRows == 0 {
		t.Fatalf("sharing machinery idle: %+v", st)
	}
	if st.Crashes == 0 {
		t.Fatal("churn configuration produced no crashes; the replication path went unexercised")
	}
	if st.RewritesLost != 0 || st.TuplesLost != 0 {
		t.Fatalf("replication failed to mask crashes: %d rewrites / %d tuples lost", st.RewritesLost, st.TuplesLost)
	}
	for _, sub := range subs {
		certifyAnswers(t, rec, sub)
	}
}

// TestProvenanceAggCertified certifies aggregate-view lineage: each view
// row's lineage (the union over its contributing answer rows) replayed
// through the reference evaluator and refolded by the centralized
// aggregation reference must reproduce the view row's aggregates for
// its (group, epoch) — for an unwindowed and a tumbling-windowed
// grouped aggregate.
func TestProvenanceAggCertified(t *testing.T) {
	net := MustNetwork(Options{Nodes: 64, Seed: 11, Provenance: true})
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	rec := &recorder{net: net}

	subs := []*Subscription{
		net.MustSubscribe("select R.A, count(*), sum(S.B), max(S.B) from R,S where R.A=S.A group by R.A"),
		net.MustSubscribe("select R.A, count(*), sum(S.B) from R,S where R.A=S.A group by R.A within 64 ticks tumbling"),
	}
	net.Run()
	skew := []int{0, 0, 0, 1, 1, 2, 3, 4}
	for i := 0; i < 24; i++ {
		rec.publish("R", skew[i%8], i)
		rec.publish("S", skew[(i+1)%8], i%5)
		net.Run()
	}
	for _, sub := range subs {
		q, err := sqlparse.Parse(sub.SQL, net.cat)
		if err != nil {
			t.Fatal(err)
		}
		spec := agg.SpecOf(q)
		if spec == nil {
			t.Fatalf("%s parsed as non-aggregate", sub.SQL)
		}
		view := sub.AggregateRows()
		if len(view) == 0 {
			t.Fatalf("%s: empty aggregate view", sub.SQL)
		}
		for _, vr := range view {
			if len(vr.Lineage) == 0 {
				t.Fatalf("%s: view row %v has no lineage", sub.SQL, vr.Row)
			}
			for i := 1; i < len(vr.Lineage); i++ {
				a, b := vr.Lineage[i-1], vr.Lineage[i]
				if a.Pub > b.Pub || (a.Pub == b.Pub && a.Seq > b.Seq) {
					t.Fatalf("%s: view lineage not in canonical order: %v", sub.SQL, vr.Lineage)
				}
			}
			tuples := rec.lineageTuples(t, vr.Lineage)
			rows, clocks := refeval.EvaluateSpanClocked(q, tuples)
			vals := make([][]relation.Value, len(rows))
			for i, r := range rows {
				vals[i] = r
			}
			ref := agg.Reference(q, vals, clocks)
			found := false
			for _, rr := range ref {
				if rr.Epoch != vr.Epoch || len(rr.Row) != len(vr.Row) {
					continue
				}
				same := true
				for i := range rr.Row {
					if rr.Row[i] != vr.Row[i] {
						same = false
						break
					}
				}
				if same {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: view row epoch %d %v not reproduced by refolding its lineage (reference gave %+v)",
					sub.SQL, vr.Epoch, vr.Row, ref)
			}
		}
	}
}

// TestWriteProfileJSON smoke-checks the live-inspection surface the
// demo binary serves over expvar: valid JSON keyed by query ID, sorted,
// errors with no live subscriptions.
func TestWriteProfileJSON(t *testing.T) {
	net := MustNetwork(Options{Nodes: 32, Seed: 3, Profile: &ProfileOptions{}})
	if err := net.WriteProfileJSON(&strings.Builder{}); err == nil {
		t.Fatal("no-subscription profile dump must error")
	}
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	sub := net.MustSubscribe("select R.B, S.B from R,S where R.A=S.A")
	net.MustPublish("R", 1, 2)
	net.MustPublish("S", 1, 3)
	net.Run()
	var b strings.Builder
	if err := net.WriteProfileJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, sub.ID) || !strings.Contains(out, `"placements"`) {
		t.Fatalf("profile JSON missing query or placements:\n%s", out)
	}
}
