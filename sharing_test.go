package rjoin

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// answerBag renders a subscription's answers as a sorted multiset, so
// runs that deliver the same rows in different orders compare equal.
func answerBag(sub *Subscription) []string {
	var out []string
	for _, a := range sub.Answers() {
		out = append(out, fmt.Sprint(a.Row))
	}
	sort.Strings(out)
	return out
}

func bagsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// defineShareRels declares the two-relation schema the sharing tests
// use and publishes a small deterministic workload.
func defineShareRels(net *Network) {
	net.MustDefineRelation("Trades", "Sym", "Px")
	net.MustDefineRelation("Quotes", "Sym", "Bid")
	net.MustDefineRelation("News", "Sym", "Score")
}

func publishShareWorkload(net *Network) {
	for i := 0; i < 12; i++ {
		net.MustPublish("Trades", i%4, 100+i)
		net.MustPublish("Quotes", i%4, 90+i)
		if i%2 == 0 {
			net.MustPublish("News", i%4, i)
		}
	}
	net.Run()
}

// TestDuplicateSubmitShares is the regression test for the silent
// duplicate-submit hole: a byte-identical resubmission must attach to
// the existing pipeline — stored-query state stays flat — while both
// subscriptions keep receiving the full answer stream.
func TestDuplicateSubmitShares(t *testing.T) {
	net := quickNet(t, Options{Seed: 11})
	defineShareRels(net)
	const sql = "select Trades.Px, Quotes.Bid from Trades,Quotes where Trades.Sym=Quotes.Sym"
	s1 := net.MustSubscribe(sql)
	net.Run()
	q0, _, _ := net.Engine().StoredState()
	s2 := net.MustSubscribe(sql)
	net.Run()
	q1, _, _ := net.Engine().StoredState()
	if q1 != q0 {
		t.Fatalf("duplicate submit grew stored queries: %d -> %d", q0, q1)
	}
	if got := net.Stats().QueriesShared; got != 1 {
		t.Fatalf("QueriesShared = %d, want 1", got)
	}
	if s1.ID == s2.ID {
		t.Fatal("duplicate subscriptions share an ID")
	}
	publishShareWorkload(net)
	b1, b2 := answerBag(s1), answerBag(s2)
	if len(b1) == 0 || !bagsEqual(b1, b2) {
		t.Fatalf("duplicate subscribers diverge: %d vs %d answers", len(b1), len(b2))
	}
}

// TestSharingEquivalentForms: with Sharing on, clause-order permutations
// and projection/selection variants of one join graph collapse onto one
// pipeline, and every subscriber's answer bag matches what the same
// query receives on an unshared network — for less stored state and
// fewer rewrites than the unshared network spends on them.
func TestSharingEquivalentForms(t *testing.T) {
	queries := []string{
		"select Trades.Px, Quotes.Bid from Trades,Quotes where Trades.Sym=Quotes.Sym",
		"select Quotes.Bid from Quotes,Trades where Quotes.Sym=Trades.Sym",
		"select Trades.Px from Trades,Quotes where Trades.Sym=Quotes.Sym and Trades.Sym=2",
	}
	run := func(sharing bool) ([][]string, Stats, int) {
		net := quickNet(t, Options{Seed: 12, Sharing: sharing})
		defineShareRels(net)
		var subs []*Subscription
		for _, sql := range queries {
			subs = append(subs, net.MustSubscribe(sql))
		}
		net.Run()
		publishShareWorkload(net)
		bags := make([][]string, len(subs))
		for i, s := range subs {
			bags[i] = answerBag(s)
		}
		stored, _, _ := net.Engine().StoredState()
		return bags, net.Stats(), stored
	}
	shared, sst, sq := run(true)
	plain, pst, pq := run(false)
	if sq >= pq || sst.RewritesCreated >= pst.RewritesCreated {
		t.Fatalf("sharing stored %d queries and created %d rewrites, the unshared network %d and %d",
			sq, sst.RewritesCreated, pq, pst.RewritesCreated)
	}
	for i := range queries {
		if len(shared[i]) == 0 {
			t.Fatalf("query %d delivered nothing under sharing", i)
		}
		if !bagsEqual(shared[i], plain[i]) {
			t.Fatalf("query %d: shared bag (%d rows) != unshared bag (%d rows)",
				i, len(shared[i]), len(plain[i]))
		}
	}
	if sst.QueriesShared != 2 {
		t.Fatalf("QueriesShared = %d, want 2", sst.QueriesShared)
	}
	if sst.SharedFanoutRows == 0 {
		t.Fatal("no rows went through the shared fan-out")
	}
}

// TestContainmentSharing: a three-way join whose graph strictly
// contains a live two-way class attaches to its completions instead of
// placing a pipeline, and still receives exactly the unshared bag.
func TestContainmentSharing(t *testing.T) {
	const parent = "select Trades.Px, Quotes.Bid from Trades,Quotes where Trades.Sym=Quotes.Sym"
	const child = "select Trades.Px, News.Score from Trades,Quotes,News where Trades.Sym=Quotes.Sym and Quotes.Sym=News.Sym"
	run := func(sharing bool) ([]string, []string, Stats, int) {
		net := quickNet(t, Options{Seed: 13, Sharing: sharing})
		defineShareRels(net)
		ps := net.MustSubscribe(parent)
		net.Run()
		cs := net.MustSubscribe(child)
		net.Run()
		q, _, _ := net.Engine().StoredState()
		publishShareWorkload(net)
		return answerBag(ps), answerBag(cs), net.Stats(), q
	}
	sp, sc, sst, sq := run(true)
	pp, pc, _, pq := run(false)
	if len(sc) == 0 {
		t.Fatal("containment child delivered nothing")
	}
	if !bagsEqual(sp, pp) {
		t.Fatalf("parent bags diverge: %d vs %d rows", len(sp), len(pp))
	}
	if !bagsEqual(sc, pc) {
		t.Fatalf("child bags diverge: %d vs %d rows", len(sc), len(pc))
	}
	if sst.ContainmentRewrites == 0 {
		t.Fatal("containment child never used the parent's completions")
	}
	if sq >= pq {
		t.Fatalf("containment stored %d queries, unshared %d — no saving", sq, pq)
	}
}

// TestUnsubscribe: dropping subscribers releases their share of the
// in-network state — the stored-query footprint returns exactly to its
// pre-subscribe level once the last subscriber of each pipeline leaves.
func TestUnsubscribe(t *testing.T) {
	net := quickNet(t, Options{Seed: 14, Sharing: true})
	defineShareRels(net)
	warm := net.MustSubscribe("select News.Score from News where News.Sym=1")
	net.Run()
	base, _, _ := net.Engine().StoredState()

	s1 := net.MustSubscribe("select Trades.Px, Quotes.Bid from Trades,Quotes where Trades.Sym=Quotes.Sym")
	s2 := net.MustSubscribe("select Quotes.Bid from Quotes,Trades where Quotes.Sym=Trades.Sym")
	net.Run()
	publishShareWorkload(net)
	grown, _, _ := net.Engine().StoredState()
	if grown <= base {
		t.Fatalf("subscriptions stored nothing: %d -> %d", base, grown)
	}

	if err := s1.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	net.Run()
	mid, _, _ := net.Engine().StoredState()
	if mid != grown {
		t.Fatalf("first unsubscribe of a shared pipeline changed stored queries: %d -> %d", grown, mid)
	}
	got := len(s2.Answers())
	net.MustPublish("Trades", 1, 500)
	net.MustPublish("Quotes", 1, 400)
	net.Run()
	if len(s2.Answers()) <= got {
		t.Fatal("remaining subscriber stopped receiving answers")
	}

	if err := s2.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	net.Run()
	final, _, _ := net.Engine().StoredState()
	if final != base {
		t.Fatalf("stored queries after teardown: %d, want pre-subscribe %d", final, base)
	}
	if err := s2.Unsubscribe(); err == nil {
		t.Fatal("double unsubscribe succeeded")
	}
	if got := net.Stats().QueriesUnsubscribed; got != 2 {
		t.Fatalf("QueriesUnsubscribed = %d, want 2", got)
	}
	_ = warm // keeps its own pipeline live through the teardown above
}

// TestUnsubscribedReadsAgree: every read of an unsubscribed subscription
// says the same thing — no rows, no view, and an EXPLAIN that reports a
// departed query instead of a live singleton pipeline — for a plain and
// an aggregate query, with and without Sharing.
func TestUnsubscribedReadsAgree(t *testing.T) {
	for _, sharing := range []bool{false, true} {
		net := quickNet(t, Options{Seed: 15, Sharing: sharing})
		defineShareRels(net)
		plain := net.MustSubscribe("select Trades.Px, Quotes.Bid from Trades,Quotes where Trades.Sym=Quotes.Sym")
		grouped := net.MustSubscribe("select Trades.Sym, count(*) from Trades,Quotes where Trades.Sym=Quotes.Sym group by Trades.Sym")
		net.Run()
		publishShareWorkload(net)
		if len(plain.Answers()) == 0 || len(grouped.AggregateRows()) == 0 {
			t.Fatalf("sharing %v: nothing delivered before unsubscribe", sharing)
		}
		for _, sub := range []*Subscription{plain, grouped} {
			if r, err := sub.Explain(); err != nil || r.Subscribers == 0 {
				t.Fatalf("sharing %v: live %s explains %d subscribers (%v)", sharing, sub.SQL, r.Subscribers, err)
			}
			if err := sub.Unsubscribe(); err != nil {
				t.Fatal(err)
			}
			if a, s, c, v := len(sub.Answers()), len(sub.AnswersSince(0)), sub.Count(), len(sub.AggregateRows()); a+s+c+v != 0 {
				t.Fatalf("sharing %v: unsubscribed %s reads Answers %d, AnswersSince(0) %d, Count %d, AggregateRows %d; want all empty",
					sharing, sub.SQL, a, s, c, v)
			}
			r, err := sub.Explain()
			if err != nil {
				t.Fatal(err)
			}
			if r.Subscribers != 0 || r.Answers != 0 || r.AggUpdates != 0 || !strings.Contains(r.Text(), "unsubscribed") {
				t.Fatalf("sharing %v: unsubscribed %s explains as live:\n%s", sharing, sub.SQL, r.Text())
			}
		}
	}
}
