// Ablation benchmarks for the system's main design choices
// (candidate-table caching, the ALTT completeness mechanism, placement
// strategies, message grouping), reporting the domain metrics the paper
// plots via b.ReportMetric — and the test that keeps perfbench/, the
// repository's one performance benchmark, compiling. The paper's figures
// are produced by cmd/rjoin-experiments (shape assertions in
// internal/experiments); per-layer timings by perfbench.
package rjoin

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/core"
	"rjoin/internal/id"
	"rjoin/internal/overlay"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// TestPerfbenchVets is the tier-1 gate on the benchmark: perfbench/ is
// a module of its own that imports rjoin/internal/*, so `go build ./...`
// and `go test ./...` here never compile it, and a rename it depends on
// would otherwise surface only when the benchmark is next run.
func TestPerfbenchVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "perfbench"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=-buildvcs=false")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in perfbench/: %v\n%s", err, out)
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
