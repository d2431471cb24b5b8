// Command rjoin-demo runs the paper's Figure 1 scenario step by step on
// a simulated overlay, narrating each event: the 4-way join query is
// submitted, four tuples arrive, the query is recursively rewritten and
// re-indexed across nodes, and the answer (S.B=6, M.A=9) reaches the
// submitting node.
//
// With -fig lossy it instead runs the unreliable-network figure (the
// same experiment rjoin-experiments -fig lossy regenerates, at demo
// scale): recall, duplication and retransmit overhead swept over
// per-transmission drop rates, with a partition/heal cycle riding
// along. -fig sharing runs the multi-query sharing figure the same
// way: stored state and rewriting work per query as the duplicate
// ratio sweeps 0-90%, with every subscriber certified exact.
// With -lossy, the Figure 1 walkthrough itself runs on an
// unreliable overlay — a 20% drop rate masked by retransmission
// — and reports the fault counters next to the usual stats.
//
// Observability: -trace FILE writes the walkthrough's causal trace as a
// Chrome trace-event file (one lane per node; load it at
// https://ui.perfetto.dev), -metrics-csv FILE the windowed rate series.
// -pprof ADDR serves net/http/pprof and expvar (live network stats
// under /debug/vars, per-query placement profiles under
// rjoin.profile) on ADDR and keeps the process alive after the
// walkthrough so the endpoints can be scraped. -explain turns on the
// placement profiler and answer provenance, prints each step's EXPLAIN
// ANALYZE report after the final event, and annotates every delivered
// answer with the base tuples it joined.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"rjoin"
	"rjoin/internal/experiments"
	"rjoin/internal/metrics"
)

func main() {
	nodes := flag.Int("nodes", 64, "overlay size")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "event-engine worker threads (0/1 serial, >=2 deterministic parallel)")
	lossy := flag.Bool("lossy", false, "run the Figure 1 scenario on an unreliable overlay (20% drop, duplication, spikes)")
	fig := flag.String("fig", "", `figure to run instead of the demo ("lossy" or "sharing")`)
	traceFile := flag.String("trace", "", "write the walkthrough's Chrome/Perfetto trace to FILE")
	metricsFile := flag.String("metrics-csv", "", "write the walkthrough's rate-series CSV to FILE")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on ADDR (e.g. localhost:6060) and stay alive")
	explain := flag.Bool("explain", false, "profile placements and provenance; print EXPLAIN ANALYZE and per-answer lineage")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "rjoin-demo: pprof: %v\n", err)
			}
		}()
	}

	if *fig != "" {
		figRunners := map[string]func(experiments.Params) []*metrics.Table{
			"lossy":   experiments.FigLossy,
			"sharing": experiments.FigSharing,
		}
		runner, ok := figRunners[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "rjoin-demo: unknown figure %q (\"lossy\" or \"sharing\"; use rjoin-experiments for the rest)\n", *fig)
			os.Exit(2)
		}
		p := experiments.Default(0.15)
		p.Nodes = *nodes * 2 // demo-sized overlay, but big enough for a meaningful split
		p.Queries = 200
		p.Seed = *seed
		p.Workers = *workers
		for _, t := range runner(p) {
			t.WriteTo(os.Stdout)
			fmt.Println()
		}
		return
	}

	opts := rjoin.Options{Nodes: *nodes, Seed: *seed, Workers: *workers}
	if *lossy {
		opts.ReplicationFactor = 2
		opts.Faults = &rjoin.FaultOptions{DropProb: 0.20, DupProb: 0.05, SpikeProb: 0.05, SpikeMax: 4}
	}
	if *traceFile != "" {
		opts.Trace = &rjoin.TraceOptions{}
	}
	if *metricsFile != "" {
		opts.Metrics = &rjoin.MetricsOptions{SampleInterval: 16}
	}
	if *explain {
		opts.Profile = &rjoin.ProfileOptions{SampleInterval: 16}
		opts.Provenance = true
	}
	net := rjoin.MustNetwork(opts)
	expvar.Publish("rjoin.stats", expvar.Func(func() any { return net.Stats() }))
	expvar.Publish("rjoin.profile", expvar.Func(func() any {
		var b strings.Builder
		if err := net.WriteProfileJSON(&b); err != nil {
			return map[string]string{"error": err.Error()}
		}
		return json.RawMessage(b.String())
	}))
	for _, rel := range []string{"R", "S", "J", "M"} {
		net.MustDefineRelation(rel, "A", "B", "C")
	}

	fmt.Printf("Event 1: node submits the continuous query\n")
	sql := "select S.B, M.A from R,S,J,M where R.A=S.A and S.B=J.B and J.C=M.C"
	fmt.Printf("  %s\n", sql)
	sub := net.MustSubscribe(sql)
	net.Run()
	report(net, sub)

	steps := []struct {
		desc string
		rel  string
		vals [3]int
	}{
		{"Event 2: tuple t1=(2,5,8) of R arrives; the query is rewritten to wait at S+A+'2'", "R", [3]int{2, 5, 8}},
		{"Event 3: tuple t2=(2,6,3) of S arrives; rewritten again, now waiting at J+B+'6'", "S", [3]int{2, 6, 3}},
		{"Event 4: tuple t3=(9,1,2) of M arrives early; stored at value level under M+C+'2'", "M", [3]int{9, 1, 2}},
		{"Event 5: tuple t4=(7,6,2) of J arrives; the final rewrite meets the stored t3", "J", [3]int{7, 6, 2}},
	}
	for _, s := range steps {
		fmt.Println(s.desc)
		net.MustPublish(s.rel, s.vals[0], s.vals[1], s.vals[2])
		net.Run()
		report(net, sub)
	}

	fmt.Println("Final answers:")
	for _, a := range sub.Answers() {
		fmt.Printf("  S.B=%s, M.A=%s (delivered at tick %d)\n", a.Row[0], a.Row[1], a.At)
		if *explain {
			for _, l := range a.Lineage {
				fmt.Printf("    <- tuple #%d from publisher %016x, joined at node %016x\n",
					l.Seq, l.Pub, l.Node)
			}
		}
	}
	if *explain {
		rep, err := sub.Explain()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rjoin-demo: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(rep.Text())
		fmt.Printf("explain digest: %#016x\n", rep.Digest())
	}
	st := net.Stats()
	fmt.Printf("\nNetwork stats: %d messages (%d for RIC), %d rewrites, QPL=%d, SL=%d over %d nodes\n",
		st.Messages, st.RICMessages, st.RewritesCreated,
		st.QueryProcessingLoad, st.StorageLoad, net.Nodes())
	if *lossy {
		fmt.Printf("Unreliable network: %d dropped, %d duplicated, masked by %d retransmits and %d acks (%d abandoned)\n",
			st.Dropped, st.Duplicated, st.Retransmits, st.AckMessages, st.Abandoned)
	}
	if *traceFile != "" {
		if err := writeTo(*traceFile, net.WriteTrace); err != nil {
			fmt.Fprintf(os.Stderr, "rjoin-demo: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (open at https://ui.perfetto.dev)\n", *traceFile)
	}
	if *metricsFile != "" {
		if err := writeTo(*metricsFile, net.WriteMetricsCSV); err != nil {
			fmt.Fprintf(os.Stderr, "rjoin-demo: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *metricsFile)
	}
	if *pprofAddr != "" {
		fmt.Printf("pprof and expvar serving on http://%s/debug/ (Ctrl-C to exit)\n", *pprofAddr)
		select {}
	}
}

// writeTo streams one export into a freshly created file.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func report(net *rjoin.Network, sub *rjoin.Subscription) {
	st := net.Stats()
	fmt.Printf("  [tick %4d] messages=%d rewrites=%d answers=%d\n",
		net.Now(), st.Messages, st.RewritesCreated, sub.Count())
}
