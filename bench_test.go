// Benchmarks regenerating every figure of the paper's evaluation
// (Section 8), plus ablations for the system's main design choices
// (candidate-table caching, the ALTT completeness mechanism, placement
// strategies, message grouping). Each figure benchmark runs the
// corresponding experiment at a reduced scale per iteration and reports
// the domain metrics the paper plots (messages per node, QPL, SL) via
// b.ReportMetric; the full paper-scale series are produced by
// cmd/rjoin-experiments.
package rjoin

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/core"
	"rjoin/internal/experiments"
	"rjoin/internal/id"
	"rjoin/internal/metrics"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
)

// benchParams is a reduced workload: 100 nodes, 4000 queries, tuple
// counts at 15% of the paper's. Shapes (orderings, growth directions)
// are preserved; see experiments_test.go for the assertions.
func benchParams() experiments.Params {
	return experiments.Params{Nodes: 100, Queries: 4000, Seed: 1, Scale: 0.15}
}

// lastCell parses the numeric cell at (last row, col) of a table.
func lastCell(t *metrics.Table, col int) float64 {
	row := t.Rows[len(t.Rows)-1]
	v, _ := strconv.ParseFloat(row[col], 64)
	return v
}

// BenchmarkFig2RICStrategies regenerates Figure 2: Worst vs Random vs
// RJoin placement. Reported metrics are total messages per node at the
// final checkpoint.
func BenchmarkFig2RICStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := experiments.Fig2(benchParams())
		b.ReportMetric(lastCell(tabs[0], 1), "worst-msgs/node")
		b.ReportMetric(lastCell(tabs[0], 2), "random-msgs/node")
		b.ReportMetric(lastCell(tabs[0], 3), "rjoin-msgs/node")
		b.ReportMetric(lastCell(tabs[0], 4), "ric-msgs/node")
	}
}

// BenchmarkFig3TupleScaling regenerates Figure 3: cost growth with the
// number of incoming tuples.
func BenchmarkFig3TupleScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := experiments.Fig3(benchParams())
		b.ReportMetric(lastCell(tabs[0], 1), "hops/node/tuple")
		b.ReportMetric(lastCell(tabs[0], 2), "ric/node/tuple")
	}
}

// BenchmarkFig4QueryScaling regenerates Figure 4: cost growth with the
// number of indexed queries.
func BenchmarkFig4QueryScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := experiments.Fig4(benchParams())
		b.ReportMetric(lastCell(tabs[0], 1), "hops/node/tuple@32k")
	}
}

// BenchmarkFig5Skew regenerates Figure 5: the effect of Zipf theta.
func BenchmarkFig5Skew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := experiments.Fig5(benchParams())
		b.ReportMetric(lastCell(tabs[0], 1), "hops/node/tuple@0.9")
	}
}

// BenchmarkFig6JoinArity regenerates Figure 6: 4/6/8-way joins.
func BenchmarkFig6JoinArity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := experiments.Fig6(benchParams())
		b.ReportMetric(lastCell(tabs[0], 1), "hops/node/tuple@8way")
	}
}

// BenchmarkFig7WindowSize regenerates Figure 7: sliding-window sizes.
func BenchmarkFig7WindowSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := experiments.Fig7(benchParams())
		b.ReportMetric(lastCell(tabs[0], 1), "hops/node/tuple@Wmax")
	}
}

// BenchmarkFig8CumulativeLoad regenerates Figure 8: cumulative QPL/SL
// per window size.
func BenchmarkFig8CumulativeLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := experiments.Fig8(benchParams())
		row := tabs[0].Rows[len(tabs[0].Rows)-1]
		small, _ := strconv.ParseFloat(row[1], 64)
		large, _ := strconv.ParseFloat(row[len(row)-1], 64)
		b.ReportMetric(small, "cumQPL@Wmin")
		b.ReportMetric(large, "cumQPL@Wmax")
	}
}

// BenchmarkFig9IDMovement regenerates Figure 9: identifier-movement
// load balancing on/off.
func BenchmarkFig9IDMovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := experiments.Fig9(benchParams())
		without, _ := strconv.ParseFloat(tabs[0].Rows[0][1], 64)
		with, _ := strconv.ParseFloat(tabs[0].Rows[1][1], 64)
		b.ReportMetric(without, "maxQPL-without")
		b.ReportMetric(with, "maxQPL-with")
	}
}

// ablationNetwork runs one fixed workload under the given options and
// returns its stats.
func ablationNetwork(opts Options) Stats {
	opts.Nodes = 100
	opts.Seed = 5
	net := MustNetwork(opts)
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	net.MustDefineRelation("T", "A", "B")
	// Warm the stream so placement has rate signal. Values are skewed
	// (half the mass on value 0) so placement choices actually differ.
	skew := []int{0, 0, 0, 0, 1, 1, 2, 3}
	pub := func(n int) {
		for i := 0; i < n; i++ {
			net.MustPublish("R", skew[i%8], skew[(i+1)%8])
			net.MustPublish("S", skew[i%8], skew[(i+2)%8])
			if i%3 == 0 { // T arrives at a third of the rate
				net.MustPublish("T", skew[i%8], skew[(i+3)%8])
			}
			net.Run()
		}
	}
	pub(30)
	for i := 0; i < 150; i++ {
		net.MustSubscribe("select R.B, T.B from R,S,T where R.A=S.A and S.B=T.B")
	}
	net.Run()
	pub(50)
	return net.Stats()
}

// BenchmarkAblationCandidateTable measures the Section 7 CT cache: RIC
// traffic with and without it.
func BenchmarkAblationCandidateTable(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "ct-on"
		if disabled {
			name = "ct-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := ablationNetwork(Options{DisableCT: disabled, DisablePiggyback: disabled})
				b.ReportMetric(float64(st.RICMessages), "ric-msgs")
				b.ReportMetric(float64(st.Messages), "msgs")
			}
		})
	}
}

// BenchmarkAblationALTT measures the completeness machinery's cost:
// answers delivered with the ALTT enabled vs disabled under message
// racing.
func BenchmarkAblationALTT(b *testing.B) {
	run := func(delta int64) Stats {
		net := MustNetwork(Options{Nodes: 100, Seed: 9, Delta: delta, MinHopDelay: 1, MaxHopDelay: 20})
		net.MustDefineRelation("R", "A", "B")
		net.MustDefineRelation("S", "A", "B")
		for i := 0; i < 50; i++ {
			net.MustSubscribe("select R.B, S.B from R,S where R.A=S.A")
		}
		// No Run between subscribe and publish: tuples race queries.
		for i := 0; i < 50; i++ {
			net.MustPublish("R", i%5, i)
			net.MustPublish("S", i%5, i)
		}
		net.Run()
		return net.Stats()
	}
	for _, delta := range []int64{0, -1} {
		name := "altt-on"
		if delta < 0 {
			name = "altt-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := run(delta)
				b.ReportMetric(float64(st.Answers), "answers")
			}
		})
	}
}

// BenchmarkAblationStrategy measures per-strategy totals on one fixed
// workload (the Figure 2 comparison as a micro harness).
func BenchmarkAblationStrategy(b *testing.B) {
	for _, s := range []Strategy{StrategyWorst, StrategyRandom, StrategyRIC} {
		b.Run(fmt.Sprint(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := ablationNetwork(Options{Strategy: s})
				b.ReportMetric(float64(st.Messages), "msgs")
				b.ReportMetric(float64(st.QueryProcessingLoad), "qpl")
			}
		})
	}
}

// --- microbenchmarks on the hot paths ---

var benchCat = func() *relation.Catalog {
	cat, _ := relation.NewCatalog(
		relation.MustSchema("R", "A", "B", "C"),
		relation.MustSchema("S", "A", "B", "C"),
		relation.MustSchema("J", "A", "B", "C"),
		relation.MustSchema("M", "A", "B", "C"),
	)
	return cat
}()

// BenchmarkQueryRewrite measures one rewriting step, the operation
// performed for every (stored query, arriving tuple) match.
func BenchmarkQueryRewrite(b *testing.B) {
	q := sqlparse.MustParse(
		"select S.B, M.A from R,S,J,M where R.A=S.A and S.B=J.B and J.C=M.C", benchCat)
	s, _ := benchCat.Schema("R")
	tup := relation.MustTuple(s, relation.Int64(2), relation.Int64(5), relation.Int64(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q2, ok := query.Rewrite(q, tup)
		if !ok {
			b.Fatal("rewrite failed")
		}
		query.Release(q2)
	}
}

// BenchmarkKeyHash measures index-key construction: the interned path
// (cache hit: no concatenation, no SHA-1) that every hot-path key
// derivation now takes, against the raw consistent hash it memoizes.
func BenchmarkKeyHash(b *testing.B) {
	b.Run("interned-value", func(b *testing.B) {
		v := relation.Int64(7)
		relation.ValueKeyOf("R", "A", v) // warm the intern table
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if relation.ValueKeyOf("R", "A", v).ID() == 0 {
				b.Fatal("unexpected zero ring id")
			}
		}
	})
	b.Run("interned-string", func(b *testing.B) {
		relation.KeyOf("R+A+7")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if relation.KeyOf("R+A+7").ID() == 0 {
				b.Fatal("unexpected zero ring id")
			}
		}
	})
	b.Run("sha1", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if id.HashKey("R+A+7") == 0 {
				b.Fatal("unexpected zero ring id")
			}
		}
	})
}

// BenchmarkCandidates measures index-candidate enumeration (including
// the implied-selection closure of Section 6).
func BenchmarkCandidates(b *testing.B) {
	q := sqlparse.MustParse(
		"select S.B, M.A from R,S,J,M where R.A=S.A and S.B=J.B and J.C=M.C", benchCat)
	s, _ := benchCat.Schema("R")
	tup := relation.MustTuple(s, relation.Int64(2), relation.Int64(5), relation.Int64(8))
	q1, _ := query.Rewrite(q, tup)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(q1.Candidates()) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkSQLParse measures front-end parsing.
func BenchmarkSQLParse(b *testing.B) {
	src := "select S.B, M.A from R,S,J,M where R.A=S.A and S.B=J.B and J.C=M.C within 100 tuples"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(src, benchCat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGrouping compares grouped vs independent multiSend
// (Section 2's message-grouping optimization) on the tuple-publication
// path: the 2k index messages of Procedure 1 either chain along the
// ring (sharing route prefixes) or each pay a full lookup.
func BenchmarkAblationGrouping(b *testing.B) {
	run := func(grouped bool) float64 {
		ring := chord.NewRing()
		idRng := rand.New(rand.NewSource(17))
		for i := 0; i < 128; i++ {
			for {
				if _, err := ring.Join(id.ID(idRng.Uint64())); err == nil {
					break
				}
			}
		}
		ring.BuildPerfect()
		se := sim.NewEngine(17)
		nw := overlay.MustNetwork(ring, se, overlay.Config{
			MinHopDelay: 1, MaxHopDelay: 1, GroupMultiSend: grouped,
		})
		eng := core.NewEngine(ring, se, nw, core.DefaultConfig())
		nodes := ring.Nodes()
		s := relation.MustSchema("R", "A", "B", "C", "D", "E")
		rng := rand.New(rand.NewSource(18))
		const tuples = 200
		for i := 0; i < tuples; i++ {
			vals := make([]relation.Value, s.Arity())
			for j := range vals {
				vals[j] = relation.Int64(int64(rng.Intn(50)))
			}
			eng.PublishTuple(nodes[rng.Intn(len(nodes))], relation.MustTuple(s, vals...))
			eng.Run()
		}
		return float64(nw.Traffic.Total()) / tuples
	}
	for _, grouped := range []bool{true, false} {
		name := "independent"
		if grouped {
			name = "grouped"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(run(grouped), "msgs/tuple")
			}
		})
	}
}
