package rjoin

import (
	"strings"
	"testing"
)

// TestDistinctNULValuesNotCollapsed is the end-to-end regression test
// for the DISTINCT row-key bug: with the old NUL-separator encoding,
// the rows ("a\x00", "b") and ("a", "\x00b") canonicalized identically
// and the owner-side filter dropped the second real answer. The
// length-prefixed encoding must deliver both.
func TestDistinctNULValuesNotCollapsed(t *testing.T) {
	net := MustNetwork(Options{Nodes: 32, Seed: 6})
	net.MustDefineRelation("R", "A", "B", "C")
	net.MustDefineRelation("S", "C", "D")
	sub := net.MustSubscribe("select distinct R.A, R.B from R,S where R.C=S.C")
	net.Run()
	net.MustPublish("R", "a\x00", "b", 1)
	net.MustPublish("R", "a", "\x00b", 1)
	net.MustPublish("S", 1, 99)
	net.Run()
	ans := sub.Answers()
	if len(ans) != 2 {
		t.Fatalf("got %d answers, want 2 (adversarial NUL rows must stay distinct): %v", len(ans), ans)
	}
	seen := map[[2]string]bool{}
	for _, a := range ans {
		seen[[2]string{a.Row[0].String(), a.Row[1].String()}] = true
	}
	if !seen[[2]string{"a\x00", "b"}] || !seen[[2]string{"a", "\x00b"}] {
		t.Fatalf("wrong answer rows: %v", ans)
	}
	// Equal rows are still deduplicated: republishing the same values
	// adds nothing.
	net.MustPublish("R", "a\x00", "b", 1)
	net.Run()
	if n := sub.Count(); n != 2 {
		t.Fatalf("true duplicate not filtered: %d answers", n)
	}
}

// TestDistinctTriggerProjectionsDoNotCollide is the end-to-end
// regression test for the in-network DISTINCT memory: a stored query
// remembers each trigger by the projection of the tuple over the
// attributes it names. Rendered as "attr=value|" text, R("1|B=2","3",7)
// and R("1","2|B=3",7) projected alike, and so did R(12,5,7) and
// R("12",5,7), so the second tuple's trigger was suppressed and its
// answer row lost. Both rows are distinct answers.
func TestDistinctTriggerProjectionsDoNotCollide(t *testing.T) {
	for _, pair := range [][2][]interface{}{
		{{"1|B=2", "3", 7}, {"1", "2|B=3", 7}},
		{{12, 5, 7}, {"12", 5, 7}},
	} {
		net := MustNetwork(Options{Nodes: 32, Seed: 6})
		net.MustDefineRelation("R", "A", "B", "C")
		net.MustDefineRelation("S", "C", "D")
		sub := net.MustSubscribe("select distinct R.A, R.B, S.D from R, S where R.C = S.C")
		net.Run()
		net.MustPublish("R", pair[0]...)
		net.MustPublish("R", pair[1]...)
		net.MustPublish("S", 7, 1)
		net.Run()
		if ans := sub.Answers(); len(ans) != 2 {
			t.Fatalf("R%v and R%v: got %d answers, want both rows: %v", pair[0], pair[1], len(ans), ans)
		}
	}
}

// TestAnswersSinceWithDistinct: the cursor contract must hold under
// DISTINCT filtering — filtered duplicates never surface, never
// advance the stream, and a consumer polling cursor += len(batch) sees
// every retained answer exactly once.
func TestAnswersSinceWithDistinct(t *testing.T) {
	net := MustNetwork(Options{Nodes: 32, Seed: 8})
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	sub := net.MustSubscribe("select distinct S.B from R,S where R.A=S.A")
	net.Run()

	cursor := 0
	var collected []string
	poll := func() {
		batch := sub.AnswersSince(cursor)
		cursor += len(batch)
		for _, a := range batch {
			collected = append(collected, a.Row[0].String())
		}
	}

	net.MustPublish("R", 1, 10)
	net.MustPublish("S", 1, 7)
	net.Run()
	poll()
	if len(collected) != 1 {
		t.Fatalf("after first pair: collected %v, want one answer", collected)
	}
	// A second R tuple re-triggers the same S.B=7 projection: DISTINCT
	// filters it, so the poll sees nothing new and the cursor is stable.
	net.MustPublish("R", 1, 11)
	net.Run()
	poll()
	if len(collected) != 1 {
		t.Fatalf("duplicate leaked through AnswersSince: %v", collected)
	}
	// A genuinely new projection arrives exactly once.
	net.MustPublish("S", 1, 8)
	net.Run()
	poll()
	poll() // an extra poll at the tip must return nothing
	if len(collected) != 2 || collected[0] != "7" || collected[1] != "8" {
		t.Fatalf("collected %v, want [7 8]", collected)
	}
	if cursor != sub.Count() {
		t.Fatalf("cursor %d out of step with Count %d", cursor, sub.Count())
	}
	// Out-of-range cursors clamp instead of panicking.
	if got := sub.AnswersSince(-3); len(got) != 2 {
		t.Fatalf("negative cursor returned %d answers, want all 2", len(got))
	}
	if got := sub.AnswersSince(99); len(got) != 0 {
		t.Fatalf("past-the-end cursor returned %d answers, want 0", len(got))
	}
}

// TestRunForZeroAndNegativeDurations: RunFor must never move the clock
// backwards or fire future work early; a zero duration only completes
// work already due at the current instant.
func TestRunForZeroAndNegativeDurations(t *testing.T) {
	net := MustNetwork(Options{Nodes: 16, Seed: 4})
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	sub := net.MustSubscribe("select R.B, S.B from R,S where R.A=S.A")
	net.Run()
	before := net.Now()

	net.MustPublish("R", 1, 1)
	net.MustPublish("S", 1, 2)
	// Deliveries take at least one hop delay (>= 1 tick), so neither a
	// zero nor a negative advance may process them.
	net.RunFor(0)
	if net.Now() != before {
		t.Fatalf("RunFor(0) moved the clock %d -> %d", before, net.Now())
	}
	net.RunFor(-25)
	if net.Now() != before {
		t.Fatalf("RunFor(-25) moved the clock %d -> %d", before, net.Now())
	}
	if n := sub.Count(); n != 0 {
		t.Fatalf("non-positive RunFor processed future deliveries: %d answers", n)
	}
	// The work is still queued and completes normally.
	net.Run()
	if n := sub.Count(); n != 1 {
		t.Fatalf("got %d answers after Run, want 1", n)
	}
}

// TestLastNodeMembershipErrors: Crash on the last node must say it
// cannot *crash* it — the shared helper used to report "remove" for
// both operations — and RemoveNode keeps its own verb.
func TestLastNodeMembershipErrors(t *testing.T) {
	net := MustNetwork(Options{Nodes: 1, Seed: 1})
	if err := net.Crash(0); err == nil {
		t.Fatal("crashing the last node succeeded")
	} else if !strings.Contains(err.Error(), "cannot crash the last node") {
		t.Fatalf("crash error has wrong verb: %v", err)
	}
	if err := net.RemoveNode(0); err == nil {
		t.Fatal("removing the last node succeeded")
	} else if !strings.Contains(err.Error(), "cannot remove the last node") {
		t.Fatalf("remove error has wrong verb: %v", err)
	}
	// Index validation is unchanged.
	if err := net.Crash(5); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range crash index: %v", err)
	}
}

// TestWorkersOptionValidation pins the Workers contract at the public
// API: negative counts are rejected, any hop delays run on several
// workers (a zero-delay send lands in the next sub-round at every worker
// count), and the cross-shard oracle strategy, a row of
// TestOptionPairsRejectedByName, runs on one.
func TestWorkersOptionValidation(t *testing.T) {
	if _, err := NewNetwork(Options{Nodes: 8, Workers: -1}); err == nil {
		t.Fatal("negative Workers accepted")
	}
	if _, err := NewNetwork(Options{Nodes: 8, Workers: 2}); err != nil {
		t.Fatalf("defaulted hop delays (1,1) on two workers rejected: %v", err)
	}
	if _, err := NewNetwork(Options{Nodes: 8, Workers: 2, MaxHopDelay: 3}); err != nil {
		t.Fatalf("zero-delay hops on two workers rejected: %v", err)
	}
	if _, err := NewNetwork(Options{Nodes: 8, Workers: 1, MaxHopDelay: 3, Strategy: StrategyWorst}); err != nil {
		t.Fatalf("zero-delay hops and StrategyWorst must run on one worker: %v", err)
	}
}

// TestAggregateRowsSnapshot: AggregateRows returns a snapshot. Rows
// published into a (group, epoch) the view already holds rewrite the
// engine's entry in place, and must not reach a result returned
// before them.
func TestAggregateRowsSnapshot(t *testing.T) {
	net := MustNetwork(Options{Nodes: 32, Seed: 3})
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "C")
	sub := net.MustSubscribe("select R.A, count(*), sum(S.C), max(S.C) from R,S where R.A=S.A group by R.A")
	net.Run()
	net.MustPublish("R", 1, 0)
	net.MustPublish("S", 1, 4)
	net.Run()
	first := sub.AggregateRows()
	want := "1 1 4 4"
	if len(first) != 1 || rowText(first[0].Row) != want {
		t.Fatalf("first view %v, want one row %q", first, want)
	}
	net.MustPublish("S", 1, 9)
	net.Run()
	if later := sub.AggregateRows(); len(later) != 1 || rowText(later[0].Row) != "1 2 13 9" {
		t.Fatalf("later view %v, want one row \"1 2 13 9\"", later)
	}
	if got := rowText(first[0].Row); got != want {
		t.Fatalf("the first result changed to %q after a later update, want %q", got, want)
	}
}

func rowText(row []Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, " ")
}
