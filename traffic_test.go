package rjoin

import "testing"

// TestTrafficByTagSumsToMessages: every message is counted under
// exactly one traffic tag, so the five TrafficByTag fields add up to
// Messages. One run charges every tag — RIC placement, an aggregate query,
// rf 2, a crash and a leave — serially and at Workers 2.
func TestTrafficByTagSumsToMessages(t *testing.T) {
	for _, workers := range []int{0, 2} {
		net := MustNetwork(Options{Nodes: 40, Seed: 23, ReplicationFactor: 2, Workers: workers})
		net.MustDefineRelation("R", "A", "B")
		net.MustDefineRelation("S", "A", "B")
		net.MustSubscribe("select R.B, S.B from R,S where R.A=S.A")
		net.MustSubscribe("select R.A, count(*) from R,S where R.A=S.A group by R.A")
		net.Run()
		for i := 0; i < 30; i++ {
			net.MustPublish("R", i%4, i)
			net.MustPublish("S", i%4, 100+i)
			switch i {
			case 10:
				if err := net.Crash(7); err != nil {
					t.Fatal(err)
				}
			case 20:
				if err := net.RemoveNode(11); err != nil {
					t.Fatal(err)
				}
			}
			net.Run()
		}
		st := net.Stats()
		tags := st.TrafficByTag
		if sum := tags.App + tags.RIC + tags.Agg + tags.Churn + tags.Repl; sum != st.Messages {
			t.Fatalf("workers %d: TrafficByTag %+v sums to %d, Messages = %d", workers, tags, sum, st.Messages)
		}
		if tags.App == 0 || tags.RIC == 0 || tags.Agg == 0 || tags.Churn == 0 || tags.Repl == 0 {
			t.Fatalf("workers %d: a tag went uncharged: %+v", workers, tags)
		}
	}
}
