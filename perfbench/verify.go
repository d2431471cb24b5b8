package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"rjoin/internal/agg"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
)

const (
	// verifySamples standing queries are checked against the reference
	// evaluators, over the answers delivered by the time verifyTuples
	// tuples have followed the queries into the network. refeval brute
	// forces every combination, so the prefix is kept short.
	verifySamples = 16
	verifyTuples  = 1000
)

// sampleCheck is what one sample query had received at the checkpoint.
type sampleCheck struct {
	ls   *liveSub
	rows []refeval.Row // plain queries: delivered answer rows
	view []agg.ViewRow // aggregate queries: the view
}

// checkpoint freezes the sample queries' deliveries. It runs inside
// warm-up; the comparison itself waits until after the timed prefix.
func (h *harness) checkpoint() {
	rng := rand.New(rand.NewSource(h.seed + 2))
	for _, i := range rng.Perm(len(h.subs)) {
		if len(h.checks) == verifySamples {
			break
		}
		ls := h.subs[i]
		c := sampleCheck{ls: ls}
		if ls.q.IsAggregate() {
			for _, r := range h.eng.AggRows(ls.sub.ID) {
				r.Row = append([]relation.Value(nil), r.Row...)
				c.view = append(c.view, r)
			}
		} else {
			for _, a := range ls.sub.Answers() {
				c.rows = append(c.rows, refeval.Row(a.Row))
			}
		}
		h.checks = append(h.checks, c)
	}
}

// verifySamples compares every checkpointed sample with the reference
// evaluation of its query over the checkpointed publish log. Every
// mismatch counts as one failed op.
func (h *harness) verifySamples() (notes []string) {
	for _, c := range h.checks {
		h.attempted++
		q := c.ls.q
		ok := true
		switch {
		case q.IsAggregate():
			rows, clocks := refeval.EvaluateSpanClocked(q, h.log)
			vals := make([][]relation.Value, len(rows))
			for i, r := range rows {
				vals[i] = r
			}
			ok = viewsEqual(c.view, agg.Reference(q, vals, clocks))
		case h.w.exactBags:
			ok = refeval.EqualBags(c.rows, refeval.EvaluateSpan(q, h.log))
		default:
			ok = refeval.SubBag(refeval.EvaluateSpan(q, h.log), c.rows) &&
				refeval.SubBag(c.rows, refeval.EvaluateAnchor(q, h.log))
		}
		if !ok {
			h.failed++
			notes = append(notes, fmt.Sprintf("answers of %q differ from the reference", q))
		}
	}
	return notes
}

// checkInvariants checks the engine's loss counters and its traffic and
// answer accounting, at the end of the run. Every lost entry and every
// broken equation counts as a failed op.
func (h *harness) checkInvariants() (notes []string) {
	st := h.net.Stats()
	lost := st.Abandoned + st.QueriesLost + st.RewritesLost + st.TuplesLost + st.AggStateLost
	if lost > 0 {
		h.failed += lost
		notes = append(notes, fmt.Sprintf("lost state: %d abandoned, %d queries, %d rewrites, %d tuples, %d agg",
			st.Abandoned, st.QueriesLost, st.RewritesLost, st.TuplesLost, st.AggStateLost))
	}
	h.attempted++
	if t := st.TrafficByTag; t.App < 0 || t.RIC+t.Agg+t.Churn+t.Repl+t.App != st.Messages {
		h.failed++
		notes = append(notes, "TrafficByTag does not sum to Messages")
	}
	if h.w.resubEvery == 0 {
		// Unsubscribing discards a subscription's rows, so the two
		// counts only agree when every subscription is still alive.
		h.attempted++
		var recorded int64
		for _, ls := range h.subs {
			recorded += int64(ls.sub.Count())
		}
		if recorded != st.Answers {
			h.failed++
			notes = append(notes, fmt.Sprintf("delivered %d answers but subscriptions hold %d", st.Answers, recorded))
		}
	}
	return notes
}

func viewsEqual(a, b []agg.ViewRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Group != b[i].Group || a[i].Epoch != b[i].Epoch || len(a[i].Row) != len(b[i].Row) {
			return false
		}
		for j := range a[i].Row {
			if !a[i].Row[j].Equal(b[i].Row[j]) {
				return false
			}
		}
	}
	return true
}

// digest folds every live subscription's deliveries into one value that
// does not depend on delivery order: per subscription the sorted answer
// rows, then the (already canonically sorted) aggregate view.
func (h *harness) digest() string {
	d := fnv.New64a()
	for _, ls := range h.subs {
		fmt.Fprintf(d, "[%s]", ls.sub.SQL)
		answers := ls.sub.Answers()
		rows := make([]string, len(answers))
		for i, a := range answers {
			rows[i] = refeval.Row(a.Row).Key()
		}
		sort.Strings(rows)
		for _, r := range rows {
			fmt.Fprintf(d, "%s;", r)
		}
		for _, v := range ls.sub.AggregateRows() {
			fmt.Fprintf(d, "e%d:%s;", v.Epoch, refeval.Row(v.Row).Key())
		}
	}
	return fmt.Sprintf("%016x", d.Sum64())
}
