package rjoin

import (
	"slices"
	"sort"
	"testing"
)

// churnWorkload drives a fixed pub/sub stream, invoking disturb(round)
// between waves, and returns the sorted answer bag of its subscription.
func churnWorkload(t *testing.T, opts Options, disturb func(net *Network, round int)) ([]string, Stats) {
	t.Helper()
	opts.Nodes = 48
	opts.Seed = 99
	net := MustNetwork(opts)
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	sub := net.MustSubscribe("select R.B, S.B from R,S where R.A=S.A")
	net.Run()
	for i := 0; i < 20; i++ {
		net.MustPublish("R", i%4, i)
		net.MustPublish("S", i%4, 100+i)
		net.RunFor(2) // leave deliveries in flight across the disturbance
		if disturb != nil {
			disturb(net, i)
		}
		net.Run()
	}
	net.Run()
	var rows []string
	for _, a := range sub.Answers() {
		key := ""
		for _, v := range a.Row {
			key += v.String() + "|"
		}
		rows = append(rows, key)
	}
	sort.Strings(rows)
	return rows, net.Stats()
}

// Gracefully removing nodes mid-stream — including while tuples are in
// flight — must leave the answer bag exactly equal to the static run's.
func TestRemoveNodePreservesAnswers(t *testing.T) {
	want, _ := churnWorkload(t, Options{}, nil)
	if len(want) == 0 {
		t.Fatal("static run produced no answers; workload too weak")
	}
	got, st := churnWorkload(t, Options{}, func(net *Network, round int) {
		if round%3 == 0 && net.Nodes() > 24 {
			if err := net.RemoveNode((round * 7) % net.Nodes()); err != nil {
				t.Fatal(err)
			}
		}
	})
	if st.Leaves == 0 {
		t.Fatal("no nodes were removed; the comparison is vacuous")
	}
	if st.HandoverMessages == 0 {
		t.Fatal("removals moved no handover state")
	}
	if len(got) != len(want) {
		t.Fatalf("answers under removal: %d rows, want %d (loss or duplication)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d diverged: %q vs %q", i, got[i], want[i])
		}
	}
}

// AddNode grows the ring mid-stream without disturbing the answer bag.
func TestAddNodePreservesAnswers(t *testing.T) {
	want, _ := churnWorkload(t, Options{}, nil)
	got, st := churnWorkload(t, Options{}, func(net *Network, round int) {
		if round%4 == 0 {
			if err := net.AddNode(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if st.Joins == 0 {
		t.Fatal("no nodes joined")
	}
	if len(got) != len(want) {
		t.Fatalf("answers under joins: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d diverged: %q vs %q", i, got[i], want[i])
		}
	}
}

// Crash drops state but is repaired well enough that the stream keeps
// flowing, and the damage is visible in Stats rather than silent.
func TestCrashIsCountedAndSurvivable(t *testing.T) {
	got, st := churnWorkload(t, Options{}, func(net *Network, round int) {
		if round == 10 {
			if err := net.Crash(5); err != nil {
				t.Fatal(err)
			}
		}
	})
	if st.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", st.Crashes)
	}
	if len(got) == 0 {
		t.Fatal("network produced nothing after a single crash")
	}
	if st.RewritesLost+st.TuplesLost+st.QueriesRecovered == 0 {
		t.Fatal("crash of a loaded node left no trace in Stats")
	}
}

// Spontaneous churn via Options.Churn: events happen, the network
// keeps answering, and equal seeds replay identically.
func TestOptionsChurnRates(t *testing.T) {
	run := func() (int, Stats) {
		net := MustNetwork(Options{
			Nodes: 64,
			Seed:  7,
			Churn: ChurnOptions{JoinRate: 40, LeaveRate: 40, Interval: 8, MinNodes: 24},
		})
		net.MustDefineRelation("R", "A", "B")
		net.MustDefineRelation("S", "A", "B")
		sub := net.MustSubscribe("select R.B, S.B from R,S where R.A=S.A")
		net.Run()
		for i := 0; i < 25; i++ {
			net.MustPublish("R", i%4, i)
			net.MustPublish("S", i%4, 100+i)
			net.RunFor(24)
			net.Run()
		}
		return sub.Count(), net.Stats()
	}
	count1, st1 := run()
	count2, st2 := run()
	if st1.Joins+st1.Leaves == 0 {
		t.Fatalf("no spontaneous churn happened: %+v", st1)
	}
	if count1 == 0 {
		t.Fatal("no answers under churn")
	}
	if count1 != count2 || st1 != st2 {
		t.Fatalf("same seed diverged under churn:\n%+v (%d answers)\n%+v (%d answers)", st1, count1, st2, count2)
	}
}

// tick advances the clock between churnWorkload's waves, so
// Options.Churn's background trials get to fire.
func tick(net *Network, _ int) { net.RunFor(24) }

// Rate mode draws every event class.
func TestRateModeProducesChurn(t *testing.T) {
	_, st := churnWorkload(t, Options{Churn: ChurnOptions{JoinRate: 40, LeaveRate: 30, CrashRate: 15, Interval: 8}}, tick)
	if st.Joins == 0 || st.Leaves == 0 || st.Crashes == 0 {
		t.Fatalf("rate mode left an event class undrawn: %d joins, %d leaves, %d crashes", st.Joins, st.Leaves, st.Crashes)
	}
}

// Graceful-leave-only churn must preserve exactly-once delivery: the
// answer bag under churn equals the static run's.
func TestLeaveOnlyChurnStaysExact(t *testing.T) {
	want, _ := churnWorkload(t, Options{}, tick)
	got, st := churnWorkload(t, Options{Churn: ChurnOptions{LeaveRate: 40, Interval: 8, MinNodes: 16}}, tick)
	if st.Leaves == 0 {
		t.Fatal("no leaves happened; the completeness check is vacuous")
	}
	if len(want) == 0 {
		t.Fatal("static run produced no answers; workload too weak")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("answer bag under leave churn: %d rows, want %d (loss, duplication or divergence)", len(got), len(want))
	}
}

// Leaves and crashes are drawn only above the MinNodes floor: with both
// certain on every trial and the floor at the ring's size, nobody goes.
func TestMinNodesFloor(t *testing.T) {
	net := MustNetwork(Options{Nodes: 8, Seed: 3, Churn: ChurnOptions{LeaveRate: 1000, CrashRate: 1000, Interval: 8, MinNodes: 8}})
	net.RunFor(800)
	if st := net.Stats(); st.Leaves != 0 || st.Crashes != 0 || net.Nodes() != 8 {
		t.Fatalf("%d leaves and %d crashes at the MinNodes floor; %d nodes remain", st.Leaves, st.Crashes, net.Nodes())
	}
}

func TestRemoveNodeValidation(t *testing.T) {
	net := MustNetwork(Options{Nodes: 4, Seed: 1})
	if err := net.RemoveNode(99); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := net.RemoveNode(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	for net.Nodes() > 1 {
		if err := net.RemoveNode(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.RemoveNode(0); err == nil {
		t.Fatal("removing the last node accepted")
	}
	if err := net.Crash(0); err == nil {
		t.Fatal("crashing the last node accepted")
	}
}

// AnswersSince is an incremental cursor over the delivery order: each
// batch is seen exactly once, and Answers() remains the full history.
func TestAnswersSinceCursor(t *testing.T) {
	net := MustNetwork(Options{Nodes: 32, Seed: 3})
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	sub := net.MustSubscribe("select R.B, S.B from R,S where R.A=S.A")
	net.Run()

	cursor := 0
	var streamed int
	for i := 0; i < 6; i++ {
		net.MustPublish("R", 1, i)
		net.MustPublish("S", 1, 100+i)
		net.Run()
		batch := sub.AnswersSince(cursor)
		cursor += len(batch)
		streamed += len(batch)
	}
	if streamed != sub.Count() {
		t.Fatalf("cursor streamed %d answers, Count says %d", streamed, sub.Count())
	}
	if len(sub.Answers()) != sub.Count() {
		t.Fatalf("Answers length %d != Count %d", len(sub.Answers()), sub.Count())
	}
	if got := sub.AnswersSince(cursor); len(got) != 0 {
		t.Fatalf("exhausted cursor returned %d rows", len(got))
	}
	if got := sub.AnswersSince(-5); len(got) != sub.Count() {
		t.Fatal("negative cursor must clamp to the full history")
	}
	if got := sub.AnswersSince(1 << 20); len(got) != 0 {
		t.Fatal("past-the-end cursor must clamp to empty")
	}
}
