// Placement compares the three query-placement strategies of the
// paper's Figure 2 on one skewed workload: Worst (adversarial oracle),
// Random, and RJoin's RIC-informed placement. It prints total traffic,
// query-processing load and storage load per strategy — the RIC
// strategy wins on every measure once the stream is flowing, at the
// price of a modest RIC-request overhead.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"

	"rjoin"
)

func main() {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tmessages\tric-share\tQPL\tSL\tanswers")
	for _, strat := range []rjoin.Strategy{rjoin.StrategyWorst, rjoin.StrategyRandom, rjoin.StrategyRIC} {
		st := runWorkload(strat)
		fmt.Fprintf(w, "%v\t%d\t%d\t%d\t%d\t%d\n",
			strat, st.Messages, st.TrafficByTag.RIC,
			st.QueryProcessingLoad, st.StorageLoad, st.Answers)
	}
	w.Flush()
	fmt.Println("\n(RIC pays an up-front polling cost per query; Worst pays forever per tuple.)")
}

func runWorkload(strat rjoin.Strategy) rjoin.Stats {
	net := rjoin.MustNetwork(rjoin.Options{Nodes: 200, Seed: 3, Strategy: strat})
	rng := rand.New(rand.NewSource(3))

	// A skewed schema: relation Hot receives most tuples.
	net.MustDefineRelation("Hot", "A", "B")
	net.MustDefineRelation("Warm", "A", "B")
	net.MustDefineRelation("Cold", "A", "B")

	// Warm up the stream so arrival rates are observable before
	// queries are placed (the RIC predictor works on the last window).
	publish := func(n int) {
		for i := 0; i < n; i++ {
			v := rng.Intn(8)
			switch {
			case rng.Intn(10) < 7:
				net.MustPublish("Hot", v, rng.Intn(8))
			case rng.Intn(10) < 7:
				net.MustPublish("Warm", v, rng.Intn(8))
			default:
				net.MustPublish("Cold", v, rng.Intn(8))
			}
			net.Run()
		}
	}
	publish(150)

	// 200 standing 3-way joins over the three streams.
	for i := 0; i < 200; i++ {
		net.MustSubscribe(
			"select Hot.B, Cold.B from Hot,Warm,Cold where Hot.A=Warm.A and Warm.B=Cold.B")
	}
	net.Run()
	publish(150)
	return net.Stats()
}
