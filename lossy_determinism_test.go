package rjoin

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
)

// maskTransport zeroes the transport-accounting fields of a Stats
// snapshot. The all-zero fault plan still charges acks — real work,
// but work deliberately charged to its own counter precisely so the
// paper's workload metrics stay comparable. Masking the transport
// counters is what makes "faults-rate-0.0 equals faults-off" a
// meaningful equation over the rest of the struct.
func maskTransport(st Stats) Stats {
	st.Dropped, st.Duplicated, st.Retransmits, st.AckMessages, st.Abandoned = 0, 0, 0, 0, 0
	return st
}

// TestFaultStreamIsolation is the RNG-isolation regression test: a
// fault plan with every rate zero and no partitions must reproduce the
// faults-off golden run byte-for-byte — same order-sensitive answer
// digest (delivery times included), same workload stats — on every
// golden config, churn included. Fault randomness comes only from
// dedicated per-node streams, and a message nothing loses is the same
// one delivery event with faults on as off: a receiver that died in
// flight is found dead on arrival and bounced either way.
func TestFaultStreamIsolation(t *testing.T) {
	configs := append(goldenConfigs(),
		Options{Nodes: 96, Seed: 42, Workers: 4},
		Options{Nodes: 96, Seed: 42, ReplicationFactor: 2},
	)
	for i, base := range configs {
		off, offDigest := goldenWorkload(t, base)
		lossy := base
		lossy.Faults = &FaultOptions{}
		zero, zeroDigest := goldenWorkload(t, lossy)
		if zeroDigest != offDigest {
			t.Fatalf("config %d: zero-rate fault plan changed the answer schedule: digest %x, want %x",
				i, zeroDigest, offDigest)
		}
		if maskTransport(zero) != off {
			t.Fatalf("config %d: zero-rate fault plan changed workload stats:\ngot  %+v\nwant %+v",
				i, maskTransport(zero), off)
		}
		if zero.Dropped != 0 || zero.Duplicated != 0 || zero.Abandoned != 0 {
			t.Fatalf("config %d: zero-rate plan injected faults: %+v", i, zero)
		}
	}
}

// lossyGoldenOpts is the faulty golden configuration: a static
// replicated ring under the acceptance-criterion fault plan — ten
// percent drops, duplication, delay spikes and one scheduled
// partition/heal cycle splitting off the first third of the ring.
func lossyGoldenOpts(workers int) Options {
	side := make([]int, 32)
	for i := range side {
		side[i] = i
	}
	return Options{
		Nodes: 96, Seed: 42, ReplicationFactor: 2, Workers: workers,
		Faults: &FaultOptions{
			DropProb: 0.10, DupProb: 0.05, SpikeProb: 0.05, SpikeMax: 4,
			Partitions: []FaultPartition{{Start: 40, End: 160, Side: side}},
		},
	}
}

// goldenLossyWorkload drives an unwindowed mixed workload — plain,
// three-way, DISTINCT and grouped-aggregate queries — across the fault
// plan and digests final state order-insensitively: per subscription
// the sorted multiset of answer rows (values only; faults legitimately
// move delivery times) plus the sorted aggregate views. Exactly-once
// delivery makes that digest a pure function of the published tuples,
// which is what keeps the pinned value across fault schedules. Windowed queries are deliberately absent: a window's content
// is defined by arrival order, which faults reorder.
func goldenLossyWorkload(t testing.TB, opts Options) (Stats, uint64) {
	net := MustNetwork(opts)
	rec := &recorder{net: net}
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	net.MustDefineRelation("T", "A", "B")

	subs := []*Subscription{
		rec.subscribe("select R.B, S.B from R,S where R.A=S.A"),
		rec.subscribe("select R.B, T.B from R,S,T where R.A=S.A and S.B=T.B"),
		rec.subscribe("select distinct S.B from R,S where R.A=S.A"),
		rec.subscribe("select R.A, count(*), sum(S.B) from R,S where R.A=S.A group by R.A"),
	}
	skew := []int{0, 0, 0, 1, 1, 2, 3, 4}
	for i := 0; i < 40; i++ {
		rec.publish("R", skew[i%8], i)
		rec.publish("S", skew[(i+1)%8], i%6)
		if i%3 == 0 {
			rec.publish("T", skew[i%8], (i+2)%6)
		}
		// Short slices keep tuples in flight across the partition
		// window; the occasional full Run drains retransmit ladders.
		if i%8 == 7 {
			net.Run()
			checkNothingDead(t, net)
		} else {
			net.RunFor(4)
		}
	}
	net.Run()
	checkNothingDead(t, net)

	rec.certify(t, "lossy golden", false)

	h := fnv.New64a()
	for _, s := range subs {
		fmt.Fprintf(h, "[%s]", s.SQL)
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
		for _, a := range s.AggregateRows() {
			fmt.Fprintf(h, "e%d:", a.Epoch)
			for _, v := range a.Row {
				fmt.Fprintf(h, "%s,", v.String())
			}
			fmt.Fprint(h, ";")
		}
	}
	return net.Stats(), h.Sum64()
}

// TestGoldenDeterminismLossy pins the faulty golden: the
// order-insensitive digest and the full stats must be bit-identical at
// every worker count, every run must replay identically, faults must
// actually fire, and nothing may be lost or abandoned.
func TestGoldenDeterminismLossy(t *testing.T) {
	// Golden value captured when unreliable-network mode was introduced.
	const goldenDigest = uint64(0xec96ed785f6fb3a8)
	var pinned Stats
	for wi, w := range goldenWorkers {
		st, d := goldenLossyWorkload(t, lossyGoldenOpts(w))
		if d != goldenDigest {
			t.Fatalf("workers %d: lossy golden digest %#x, want %#x (stats %+v)", w, d, goldenDigest, st)
		}
		if st.Dropped == 0 || st.Duplicated == 0 || st.Retransmits == 0 || st.AckMessages == 0 {
			t.Fatalf("workers %d: fault machinery idle: %+v", w, st)
		}
		if st.Abandoned != 0 {
			t.Fatalf("workers %d: %d messages abandoned", w, st.Abandoned)
		}
		if st.AggStateLost != 0 {
			t.Fatalf("workers %d: %d aggregation partials lost", w, st.AggStateLost)
		}
		if wi == 0 {
			pinned = st
		} else if st != pinned {
			t.Fatalf("workers %d: faulty stats depend on worker count:\ngot  %+v\nwant %+v", w, st, pinned)
		}
	}
}
