package rjoin

import (
	"strings"
	"testing"
)

// TestInvertedDelayBoundsRejected: NewNetwork must refuse inverted or
// negative hop-delay bounds with a descriptive error instead of
// silently clamping.
func TestInvertedDelayBoundsRejected(t *testing.T) {
	if _, err := NewNetwork(Options{Nodes: 8, MinHopDelay: 5, MaxHopDelay: 2}); err == nil {
		t.Fatal("MinHopDelay > MaxHopDelay accepted")
	} else if !strings.Contains(err.Error(), "MinHopDelay 5 exceeds MaxHopDelay 2") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := NewNetwork(Options{Nodes: 8, MinHopDelay: 3}); err == nil {
		// Max defaults to zero: still inverted, still an error.
		t.Fatal("MinHopDelay above defaulted MaxHopDelay accepted")
	}
	if _, err := NewNetwork(Options{Nodes: 8, MinHopDelay: -1, MaxHopDelay: 4}); err == nil {
		t.Fatal("negative MinHopDelay accepted")
	}
	if _, err := NewNetwork(Options{Nodes: 8, MaxHopDelay: -2}); err == nil {
		t.Fatal("negative MaxHopDelay accepted")
	}
	// Valid shapes still construct.
	for _, opts := range []Options{
		{Nodes: 8},
		{Nodes: 8, MaxHopDelay: 4},
		{Nodes: 8, MinHopDelay: 2, MaxHopDelay: 2},
		{Nodes: 8, MinHopDelay: 1, MaxHopDelay: 9},
	} {
		if _, err := NewNetwork(opts); err != nil {
			t.Fatalf("valid bounds %+v rejected: %v", opts, err)
		}
	}
}

// TestOptionPairsRejectedByName is the rejected half of the option
// compatibility table: each pair NewNetwork refuses, it refuses with an
// error that names both knobs, so the caller learns which two settings
// collide rather than that "something" is invalid.
func TestOptionPairsRejectedByName(t *testing.T) {
	for _, row := range []struct {
		opts  Options
		names [2]string
	}{
		{Options{Nodes: 8, Sharing: true, MaxHopDelay: 3}, [2]string{"Sharing", "MinHopDelay"}},
		{Options{Nodes: 8, Workers: 2, MaxHopDelay: 3}, [2]string{"Workers", "MinHopDelay"}},
		{Options{Nodes: 8, Workers: 2, Strategy: StrategyWorst}, [2]string{"Workers", "StrategyWorst"}},
	} {
		_, err := NewNetwork(row.opts)
		if err == nil {
			t.Errorf("%s with %s accepted", row.names[0], row.names[1])
		} else if !strings.Contains(err.Error(), row.names[0]) || !strings.Contains(err.Error(), row.names[1]) {
			t.Errorf("rejection of %s with %s does not name both: %v", row.names[0], row.names[1], err)
		}
	}
}

// TestChurnOptionsValidated: negative churn rates and tuning knobs are
// rejected.
func TestChurnOptionsValidated(t *testing.T) {
	if _, err := NewNetwork(Options{Nodes: 8, Churn: ChurnOptions{LeaveRate: -3}}); err == nil {
		t.Fatal("negative churn rate accepted")
	}
	if _, err := NewNetwork(Options{Nodes: 8, Churn: ChurnOptions{Interval: -4}}); err == nil {
		t.Fatal("negative churn interval accepted")
	}
	if _, err := NewNetwork(Options{Nodes: 8, Churn: ChurnOptions{MinNodes: -2}}); err == nil {
		t.Fatal("negative MinNodes accepted")
	}
}

// TestFaultOptionsValidated: NewNetwork rejects fault plans with
// out-of-range probabilities, inverted partition windows, or partition
// side indices outside the initial node list — each error naming the
// offending knob — as well as negative metrics or profile sample
// intervals, while valid plans (including the empty zero-rate plan)
// still construct.
func TestFaultOptionsValidated(t *testing.T) {
	bad := []struct {
		opts Options
		want string
	}{
		{Options{Nodes: 8, Faults: &FaultOptions{DropProb: -0.5}}, "Faults.DropProb"},
		{Options{Nodes: 8, Faults: &FaultOptions{DropProb: 1.01}}, "Faults.DropProb"},
		{Options{Nodes: 8, Faults: &FaultOptions{DupProb: 7}}, "Faults.DupProb"},
		{Options{Nodes: 8, Faults: &FaultOptions{SpikeProb: -1}}, "Faults.SpikeProb"},
		{Options{Nodes: 8, Faults: &FaultOptions{Partitions: []FaultPartition{{Start: 9, End: 3}}}}, "Faults.Partitions[0]"},
		{Options{Nodes: 8, Faults: &FaultOptions{Partitions: []FaultPartition{{Start: 0, End: 9, Side: []int{8}}}}}, "node index 8"},
		{Options{Nodes: 8, Faults: &FaultOptions{Partitions: []FaultPartition{{Start: 0, End: 9, Side: []int{-1}}}}}, "node index -1"},
		{Options{Nodes: 8, Metrics: &MetricsOptions{SampleInterval: -1}}, "Metrics.SampleInterval"},
		{Options{Nodes: 8, Profile: &ProfileOptions{SampleInterval: -64}}, "Profile.SampleInterval"},
	}
	for _, tc := range bad {
		if _, err := NewNetwork(tc.opts); err == nil {
			t.Errorf("%+v accepted, want error naming %q", tc.opts, tc.want)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %q does not name %q", err, tc.want)
		}
	}
	for _, opts := range []Options{
		{Nodes: 8, Faults: &FaultOptions{}},
		{Nodes: 8, Faults: &FaultOptions{DropProb: 1, DupProb: 1, SpikeProb: 1, SpikeMax: 3}},
		{Nodes: 8, Faults: &FaultOptions{Partitions: []FaultPartition{{Start: 2, End: 10, Side: []int{0, 7}}}}},
		{Nodes: 8, Metrics: &MetricsOptions{}, Profile: &ProfileOptions{SampleInterval: 8}},
	} {
		if _, err := NewNetwork(opts); err != nil {
			t.Errorf("valid fault plan %+v rejected: %v", opts, err)
		}
	}
}

// runFixedWorkload drives one deterministic workload under the given
// options and returns the subscription's answer count plus stats.
func runFixedWorkload(t *testing.T, opts Options) (int, Stats) {
	t.Helper()
	opts.Nodes = 64
	opts.Seed = 77
	net := MustNetwork(opts)
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	net.MustDefineRelation("T", "A", "B")
	// Warm the stream so every placement strategy has rate signal.
	pub := func(n int) {
		for i := 0; i < n; i++ {
			net.MustPublish("R", i%5, i)
			net.MustPublish("S", i%5, i)
			net.MustPublish("T", i%5, i)
			net.Run()
		}
	}
	pub(10)
	sub := net.MustSubscribe("select R.B, T.B from R,S,T where R.A=S.A and S.B=T.B")
	net.Run()
	pub(20)
	return sub.Count(), net.Stats()
}

// TestOptionsPreserveAnswers: every answer-neutral knob — the placement
// strategy, sharing, replication, parallel execution, provenance and a
// lossy network — leaves the answer count untouched, alone and all
// together; only the cost profile may change.
func TestOptionsPreserveAnswers(t *testing.T) {
	base, _ := runFixedWorkload(t, Options{})
	if base == 0 {
		t.Fatal("baseline produced no answers; workload too weak to compare")
	}
	variants := map[string]Options{
		"random":            {Strategy: StrategyRandom},
		"sharing":           {Sharing: true},
		"replicationFactor": {ReplicationFactor: 2},
		"workers":           {Workers: 2},
		"provenance":        {Provenance: true},
		"faults":            {Faults: &FaultOptions{DropProb: 0.05}},
		"everything": {
			Strategy: StrategyRandom, Sharing: true, ReplicationFactor: 2, Workers: 2, Provenance: true,
			Faults: &FaultOptions{DropProb: 0.05},
		},
	}
	for name, opts := range variants {
		got, _ := runFixedWorkload(t, opts)
		if got != base {
			t.Errorf("%s: %d answers, baseline %d", name, got, base)
		}
	}
}

// TestOneTimeQueryPublicAPI: the ONCE keyword works end to end.
func TestOneTimeQueryPublicAPI(t *testing.T) {
	net := MustNetwork(Options{Nodes: 48, Seed: 78, Delta: 1 << 40})
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	net.MustPublish("R", 1, 10)
	net.MustPublish("S", 1, 20)
	net.Run()
	sub := net.MustSubscribe("select R.B, S.B from R,S where R.A=S.A once")
	net.Run()
	if sub.Count() != 1 {
		t.Fatalf("snapshot answers = %d, want 1", sub.Count())
	}
	// Later tuples are ignored by the one-time query.
	net.MustPublish("R", 1, 11)
	net.MustPublish("S", 1, 21)
	net.Run()
	if sub.Count() != 1 {
		t.Fatalf("one-time query answered future tuples: %d", sub.Count())
	}
}

// TestReplicationFactorValidated: NewNetwork rejects a negative factor
// and a factor above the node count (a key cannot have more replicas
// than there are nodes); valid factors — including the degenerate 0/1
// that disable replication — still construct.
func TestReplicationFactorValidated(t *testing.T) {
	if _, err := NewNetwork(Options{Nodes: 8, ReplicationFactor: -1}); err == nil {
		t.Fatal("negative ReplicationFactor accepted")
	} else if !strings.Contains(err.Error(), "negative ReplicationFactor") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := NewNetwork(Options{Nodes: 8, ReplicationFactor: 9}); err == nil {
		t.Fatal("ReplicationFactor above node count accepted")
	} else if !strings.Contains(err.Error(), "exceeds node count") {
		t.Fatalf("unhelpful error: %v", err)
	}
	for _, k := range []int{0, 1, 2, 8} {
		if _, err := NewNetwork(Options{Nodes: 8, ReplicationFactor: k}); err != nil {
			t.Fatalf("valid ReplicationFactor %d rejected: %v", k, err)
		}
	}
}

// TestStrategyValidated: a Strategy outside the three the package
// defines is refused by name rather than run as RIC.
func TestStrategyValidated(t *testing.T) {
	for _, s := range []Strategy{3, 255} {
		if _, err := NewNetwork(Options{Nodes: 8, Strategy: s}); err == nil {
			t.Fatalf("Strategy %d accepted", s)
		} else if !strings.Contains(err.Error(), "Strategy") {
			t.Fatalf("unhelpful error: %v", err)
		}
	}
	for _, s := range []Strategy{StrategyRIC, StrategyRandom, StrategyWorst} {
		if _, err := NewNetwork(Options{Nodes: 8, Strategy: s}); err != nil {
			t.Fatalf("valid Strategy %v rejected: %v", s, err)
		}
	}
}

// TestReplicatedCrashKeepsStream: the public-API shape of the
// durability guarantee — with ReplicationFactor 2, crashing nodes
// mid-stream loses no rewritten state, tuples or aggregation partials,
// and the loss counters prove it.
func TestReplicatedCrashKeepsStream(t *testing.T) {
	run := func(k int) Stats {
		net := MustNetwork(Options{Nodes: 48, Seed: 9, ReplicationFactor: k})
		net.MustDefineRelation("R", "A", "B")
		net.MustDefineRelation("S", "A", "B")
		net.MustSubscribe("select R.B, S.B from R,S where R.A=S.A")
		for i := 0; i < 20; i++ {
			net.MustPublish("R", i%5, i)
			net.MustPublish("S", i%5, i%4)
			net.RunFor(2)
			if i%6 == 5 {
				if err := net.Crash(i % net.Nodes()); err != nil {
					t.Fatal(err)
				}
			}
			net.Run()
		}
		net.Run()
		return net.Stats()
	}
	plain := run(0)
	if plain.RewritesLost+plain.TuplesLost == 0 {
		t.Fatal("unreplicated crashes lost nothing; workload too weak to prove the contrast")
	}
	repl := run(2)
	if repl.RewritesLost != 0 || repl.TuplesLost != 0 || repl.AggStateLost != 0 {
		t.Fatalf("replicated crashes lost state: %d rewrites, %d tuples, %d agg partials",
			repl.RewritesLost, repl.TuplesLost, repl.AggStateLost)
	}
	if repl.ReplPromotions == 0 || repl.ReplicationMessages == 0 {
		t.Fatalf("replication machinery unused: promotions %d, messages %d",
			repl.ReplPromotions, repl.ReplicationMessages)
	}
	if repl.Answers < plain.Answers {
		t.Fatalf("replicated run delivered fewer answers (%d) than the lossy one (%d)",
			repl.Answers, plain.Answers)
	}
}
