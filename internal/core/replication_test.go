package core

import (
	"strings"
	"testing"

	"rjoin/internal/overlay"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
)

// TestReplicationPreservesAnswers: with attribute-level replication the
// answer bag is exactly the reference — each (query, tuple) pair meets
// exactly once even though queries are stored r times.
func TestReplicationPreservesAnswers(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		cfg := DefaultConfig()
		cfg.AttrReplicas = replicas
		for seed := int64(120); seed < 123; seed++ {
			eng, qids, queries, tuples := randomRun(t, cfg, overlay.DefaultConfig(), seed, 5, 35, 2)
			for i, qid := range qids {
				want := refeval.Evaluate(queries[i], tuples)
				got := answersToRows(eng.Answers(qid))
				if !refeval.EqualBags(got, want) {
					t.Fatalf("replicas=%d seed=%d query %d: got %d answers, want %d",
						replicas, seed, i, len(got), len(want))
				}
			}
		}
	}
}

// TestReplicationUnderRaces: replication composes with the ALTT
// machinery — racing tuples still never lose answers.
func TestReplicationUnderRaces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AttrReplicas = 3
	for seed := int64(124); seed < 126; seed++ {
		eng, qids, queries, tuples := racedRun(t, cfg, seed)
		for i, qid := range qids {
			want := refeval.Evaluate(queries[i], tuples)
			got := answersToRows(eng.Answers(qid))
			if !refeval.EqualBags(got, want) {
				t.Fatalf("seed=%d query %d: got %d answers, want %d", seed, i, len(got), len(want))
			}
		}
	}
}

// TestReplicationSpreadsAttrLoad: the hottest attribute-level node
// receives fewer tuples when the key is split across replicas.
func TestReplicationSpreadsAttrLoad(t *testing.T) {
	maxAttrTuples := func(replicas int) int64 {
		cfg := DefaultConfig()
		cfg.AttrReplicas = replicas
		eng, nodes := testNet(t, 96, 127, cfg, overlay.DefaultConfig())
		// Hammer one relation so its attribute keys concentrate load.
		for i := 0; i < 300; i++ {
			eng.PublishTuple(nodes[i%len(nodes)], mkTuple("R", int64(i%5), int64(i%7), int64(i%3)))
			eng.Run()
		}
		// The node owning R+A receives every R tuple without
		// replication; with replication roughly 1/r of them.
		var max int64
		for _, base := range []string{"R+A", "R+B", "R+C"} {
			for i := 0; i < maxInt(replicas, 1); i++ {
				key := replicaKey(relation.KeyOf(base), i)
				owner := eng.Ring().Owner(key.ID())
				p := eng.Proc(owner)
				if st, ok := p.st.stats[key]; ok {
					total := st.countCur + st.countPrev
					if total > max {
						max = total
					}
				}
			}
		}
		return max
	}
	single := maxAttrTuples(1)
	replicated := maxAttrTuples(3)
	if replicated*2 > single {
		t.Fatalf("replication did not spread attribute load: single=%d replicated=%d", single, replicated)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestReplicaKeyStability(t *testing.T) {
	base := relation.KeyOf("R+A")
	if replicaKey(base, 0) != base {
		t.Fatal("replica 0 must keep the base key")
	}
	if replicaKey(base, 2).String() != "R+A#r2" {
		t.Fatalf("replica key %q", replicaKey(base, 2))
	}
	if !strings.HasPrefix(replicaKey(base, 1).String(), "R+A") {
		t.Fatal("replica keys must extend the base key")
	}
}

// TestReplicationTupleFanout: each tuple is still delivered 2k times (k
// value keys, k attribute replicas — one per attribute).
func TestReplicationTupleFanout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AttrReplicas = 4
	eng, nodes := testNet(t, 32, 128, cfg, overlay.DefaultConfig())
	eng.PublishTuple(nodes[0], mkTuple("R", 1, 2, 3))
	eng.Run()
	if eng.Counters.TuplesReceived != 6 { // 3 attrs: 3 value + 3 attr-replica deliveries
		t.Fatalf("tuple deliveries %d, want 6", eng.Counters.TuplesReceived)
	}
}
