package rjoin

import (
	"testing"

	"rjoin/internal/agg"
	"rjoin/internal/core"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
	"rjoin/internal/sqlparse"
)

// subscribe submits a query through the recorder, which remembers it
// with the virtual time it was inserted at, so certify can evaluate it
// from scratch.
func (r *recorder) subscribe(sql string) *Subscription {
	sub := r.net.MustSubscribe(sql)
	r.subs = append(r.subs, subRec{sub: sub, at: r.net.Now()})
	return sub
}

// checkNothingDead is the death wheels' quiescence invariant, which every
// golden workload checks after each Run: no node still stores a windowed
// rewrite past its window, a tuple past its reach, an ALTT entry past Δ,
// a candidate-table entry past its validity or an aggregate epoch whose
// views all closed.
func checkNothingDead(t testing.TB, net *Network) {
	t.Helper()
	if d := net.Engine().DeadState(); d != (core.DeadCounts{}) {
		t.Fatalf("after a Run, dead entries are still stored: %+v", d)
	}
}

// subRec is one recorded subscription.
type subRec struct {
	sub *Subscription
	at  int64 // insertion time
}

// certify is the oracle the pinned workloads carry: every recorded
// subscription is re-evaluated centrally over everything the
// recorder published — each tuple with the publication time and
// sequence the engine actually stamped on it, so a tick-windowed query
// is judged on the epochs the run really had — and must hold exactly
// the reference bag (the reference set for DISTINCT, the span-semantics
// bag for tumbling windows, the agg.Reference view for aggregates). A
// pinned digest says "the same as last time"; this says "right", which
// is what lets a digest be re-pinned by the oracle rather than by eye.
// Three kinds of bag are held to inclusion in the reference instead of
// equality: a sliding window's, whose content Section 5 defines by
// arrival order — the workloads publish bursts that race each other, and
// a rewrite deleted by a later tuple arriving first is not a defect; a
// one-time query's, whose snapshot reaches back only the Δ ticks the
// attribute-level tables retain; and, when lossy is set, every bag of a
// configuration that loses state by design (crashes without
// replication). An aggregate view in one of those three positions is
// not checked: a view has no inclusion order.
func (r *recorder) certify(t testing.TB, label string, lossy bool) {
	t.Helper()
	published := make([]*relation.Tuple, len(r.pubs))
	for i := range r.pubs {
		published[i] = r.tupleOf(t, int64(i+1))
	}
	for _, s := range r.subs {
		q, err := sqlparse.Parse(s.sub.SQL, r.net.cat)
		if err != nil {
			t.Fatal(err)
		}
		q.InsertTime = s.at
		contained := lossy || q.OneTime || (q.Window.Enabled() && !q.Window.Tumbling)
		if q.IsAggregate() {
			if contained {
				continue
			}
			rows, clocks := refeval.EvaluateSpanClocked(q, published)
			vals := make([][]relation.Value, len(rows))
			for i, row := range rows {
				vals[i] = row
			}
			want, got := agg.Reference(q, vals, clocks), s.sub.AggregateRows()
			if len(got) != len(want) {
				t.Fatalf("%s: %s: view has %d rows, reference %d", label, s.sub.SQL, len(got), len(want))
			}
			for i := range want {
				if got[i].Epoch != want[i].Epoch || refeval.Row(got[i].Row).Key() != refeval.Row(want[i].Row).Key() {
					t.Fatalf("%s: %s: view row %d is epoch %d %v, reference epoch %d %v",
						label, s.sub.SQL, i, got[i].Epoch, got[i].Row, want[i].Epoch, want[i].Row)
				}
			}
			continue
		}
		want := refeval.EvaluateSpan(q, published)
		if q.Distinct {
			want = refeval.Distinct(want)
		}
		var got []refeval.Row
		for _, a := range s.sub.Answers() {
			got = append(got, refeval.Row(a.Row))
		}
		if contained {
			if !refeval.SubBag(got, want) {
				t.Fatalf("%s: %s: delivered rows (%d) outside the reference bag (%d)", label, s.sub.SQL, len(got), len(want))
			}
		} else if !refeval.EqualBags(got, want) {
			t.Fatalf("%s: %s: delivered %d rows, reference %d", label, s.sub.SQL, len(got), len(want))
		}
	}
}
