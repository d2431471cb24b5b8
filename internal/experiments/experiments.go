// Package experiments regenerates every figure of the paper's
// experimental analysis (Section 8). Each FigN function runs the
// corresponding experiment on the simulated overlay and returns tables
// holding the same rows/series the paper plots. The Params.Scale knob
// shrinks the workload proportionally (node count is kept, so load
// distributions remain comparable); shapes — who wins, by what rough
// factor, where curves bend — are preserved across scales.
//
// Default setup, as in the paper: N = 1000 Chord nodes, a schema of 10
// relations × 10 attributes with value domain 100, Zipf θ = 0.9, 4-way
// chain joins, 2·10⁴ continuous queries.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"rjoin/internal/chord"
	"rjoin/internal/core"
	"rjoin/internal/id"
	"rjoin/internal/loadbalance"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/sim"
	"rjoin/internal/workload"
)

// Params sizes an experiment.
type Params struct {
	// Nodes is the overlay size (paper: 1000).
	Nodes int
	// Queries is the number of continuous queries inserted before the
	// tuple stream starts (paper: 20000), before scaling.
	Queries int
	// Seed drives all randomness.
	Seed int64
	// Scale in (0, 1] multiplies query and tuple counts.
	Scale float64
	// Workers is how many goroutines run each sub-round of the event
	// engine; the figures are the same for every value. Runs of
	// StrategyWorst, whose oracle reads other shards' rate tables, run
	// it on one.
	Workers int
}

// Default returns the paper's experimental setup at the given scale.
func Default(scale float64) Params {
	return Params{Nodes: 1000, Queries: 20000, Seed: 1, Scale: scale}
}

// Validate rejects what no figure can run: a scale outside (0, 1], or
// fewer than one node or query. The error names the field in lower
// case, which is also the name of the harness flag that sets it.
func (p Params) Validate() error {
	switch {
	case !(p.Scale > 0 && p.Scale <= 1): // NaN included
		return fmt.Errorf("scale %v is outside (0, 1]", p.Scale)
	case p.Nodes < 1:
		return fmt.Errorf("nodes %d is below 1", p.Nodes)
	case p.Queries < 1:
		return fmt.Errorf("queries %d is below 1", p.Queries)
	}
	return nil
}

func (p Params) scaled(n int) int {
	v := int(float64(n) * p.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// run is one configured network with its workload generator.
type run struct {
	eng *core.Engine
	gen *workload.Generator
	rng *rand.Rand
}

func newRun(p Params, cfg core.Config, wcfg workload.Config) *run {
	return newRunNet(p, cfg, wcfg, overlay.DefaultConfig())
}

// newRunNet is newRun with an explicit overlay configuration (Figure
// 9's identifier movement enables message bouncing).
func newRunNet(p Params, cfg core.Config, wcfg workload.Config, netCfg overlay.Config) *run {
	ring := chord.NewRing()
	idRng := rand.New(rand.NewSource(p.Seed))
	for i := 0; i < p.Nodes; i++ {
		for {
			if _, err := ring.Join(id.ID(idRng.Uint64())); err == nil {
				break
			}
		}
	}
	ring.BuildPerfect()
	se := sim.NewEngine(p.Seed)
	if cfg.Strategy != core.StrategyWorst {
		se.SetWorkers(p.Workers)
	}
	nw := overlay.MustNetwork(ring, se, netCfg)
	eng := core.NewEngine(ring, se, nw, cfg)
	return &run{
		eng: eng,
		gen: workload.MustGenerator(wcfg, p.Seed),
		rng: rand.New(rand.NewSource(p.Seed + 1)),
	}
}

// node picks a pseudo-random node from the live membership (a snapshot
// would go stale under identifier movement).
func (r *run) node() *chord.Node {
	nodes := r.eng.Ring().Nodes()
	return nodes[r.rng.Intn(len(nodes))]
}

// warmup publishes n tuples before the measured experiment begins and
// then resets all metrics. The continuous stream is assumed to be
// already flowing when queries arrive — the RIC machinery of Section 6
// explicitly predicts from "the last time window", which requires one
// to exist. Warmup tuples predate every query's insertion time, so they
// never contribute answers.
func (r *run) warmup(n int) {
	r.publish(n)
	r.eng.ResetMetrics()
}

func (r *run) submitQueries(n int, window query.WindowSpec) {
	for i := 0; i < n; i++ {
		q := r.gen.Query()
		q.Window = window
		if _, err := r.eng.SubmitQuery(r.node(), q); err != nil {
			panic(err) // generator output is valid by construction
		}
	}
	r.eng.Run()
}

func (r *run) publish(n int) {
	for i := 0; i < n; i++ {
		r.eng.PublishTuple(r.node(), r.gen.Tuple())
		r.eng.Run()
	}
}

// rankedSummary renders a ranked load distribution at fixed rank
// positions, the textual equivalent of the paper's log-log ranked
// plots.
var rankedFracs = []float64{0, 0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 1}

func rankedHeader() []string {
	h := []string{"series"}
	for _, f := range rankedFracs {
		h = append(h, fmt.Sprintf("rank %d%%", int(f*100)))
	}
	return append(h, "participants")
}

// rankedRow renders one ranked distribution (Engine.RankedLoad's form):
// the loads at the fixed rank positions, then how many took part.
func rankedRow(name string, ranked []int64) []string {
	row := []string{name}
	for _, f := range rankedFracs {
		if len(ranked) == 0 {
			row = append(row, "0")
			continue
		}
		i := int(f * float64(len(ranked)-1))
		row = append(row, fmt.Sprintf("%d", ranked[i]))
	}
	return append(row, fmt.Sprintf("%d", len(ranked)))
}

// loadFigure is the three tables Figures 3–7 share, one row per point
// of the figure's x-axis: (a) the traffic per node per tuple with its
// RIC-request share, (b) and (c) the ranked QPL and SL distributions.
type loadFigure struct {
	nodes                 int
	traffic, qpl, storage *Table
}

// newLoadFigure titles figure fig's tables; traffic completes the title
// of table (a) and x heads its first column.
func newLoadFigure(p Params, fig, traffic, x string) loadFigure {
	return loadFigure{
		nodes: p.Nodes,
		traffic: &Table{
			Title:   "Fig " + fig + "(a) " + traffic,
			Headers: []string{x, "total hops/node/tuple", "request RIC/node/tuple"},
		},
		qpl:     &Table{Title: "Fig " + fig + "(b) Query processing load distribution", Headers: rankedHeader()},
		storage: &Table{Title: "Fig " + fig + "(c) Storage load distribution", Headers: rankedHeader()},
	}
}

// trafficMark is a run's total and RIC traffic at one instant.
type trafficMark struct{ total, ric int64 }

func (r *run) mark() trafficMark {
	nw := r.eng.Net()
	return trafficMark{nw.MessagesSent, nw.ByTag[overlay.TagRIC]}
}

// add appends the point x: the traffic r sent since from, per node and
// per tuple over tuples tuples, and r's ranked loads as series.
func (f loadFigure) add(r *run, x, series string, from trafficMark, tuples int) {
	n := float64(f.nodes) * float64(tuples)
	to := r.mark()
	f.traffic.AddRow(x,
		fmt.Sprintf("%.3f", float64(to.total-from.total)/n),
		fmt.Sprintf("%.3f", float64(to.ric-from.ric)/n),
	)
	qpl, sl := r.eng.RankedLoad()
	f.qpl.AddRow(rankedRow(series, qpl)...)
	f.storage.AddRow(rankedRow(series, sl)...)
}

// point is one x-axis point of Figures 4–6: a fresh network under wcfg
// indexes nq queries, then tuples tuples are measured. Query-indexing
// traffic is not counted.
func (f loadFigure) point(p Params, wcfg workload.Config, nq, tuples int, x, series string) {
	r := newRun(p, core.Config{}, wcfg)
	r.warmup(p.scaled(400))
	r.submitQueries(nq, query.WindowSpec{})
	from := r.mark()
	r.publish(tuples)
	f.add(r, x, series, from, tuples)
}

func (f loadFigure) tables() []*Table {
	return []*Table{f.traffic, f.qpl, f.storage}
}

// Fig2 — Effect of taking into account RIC information. Three placement
// strategies (Worst, Random, RJoin) over the same workload; per-node
// totals of traffic, QPL and SL after 50/100/200/400 tuples, with
// RJoin's RIC-request traffic reported separately.
func Fig2(p Params) []*Table {
	checkpoints := []int{
		p.scaled(50), p.scaled(100), p.scaled(200), p.scaled(400),
	}
	type snapshot struct{ traffic, ric, qpl, sl float64 }
	series := map[core.Strategy][]snapshot{}
	for _, strat := range []core.Strategy{core.StrategyWorst, core.StrategyRandom, core.StrategyRIC} {
		r := newRun(p, core.Config{Strategy: strat}, workload.PaperConfig())
		r.warmup(p.scaled(400))
		r.submitQueries(p.scaled(p.Queries), query.WindowSpec{})
		published := 0
		for _, cp := range checkpoints {
			r.publish(cp - published)
			published = cp
			t, nodes := r.mark(), float64(p.Nodes)
			qpl, sl := r.eng.Load()
			series[strat] = append(series[strat], snapshot{
				traffic: float64(t.total) / nodes,
				ric:     float64(t.ric) / nodes,
				qpl:     float64(qpl) / nodes,
				sl:      float64(sl) / nodes,
			})
		}
	}
	mk := func(title string, pick func(snapshot) float64, withRIC bool) *Table {
		t := &Table{
			Title:   title,
			Headers: []string{"# tuples", "Worst", "Random", "RJoin"},
		}
		if withRIC {
			t.Headers = append(t.Headers, "Request RIC")
		}
		for i, cp := range checkpoints {
			row := []string{
				fmt.Sprintf("%d", cp),
				fmt.Sprintf("%.2f", pick(series[core.StrategyWorst][i])),
				fmt.Sprintf("%.2f", pick(series[core.StrategyRandom][i])),
				fmt.Sprintf("%.2f", pick(series[core.StrategyRIC][i])),
			}
			if withRIC {
				row = append(row, fmt.Sprintf("%.2f", series[core.StrategyRIC][i].ric))
			}
			t.AddRow(row...)
		}
		return t
	}
	return []*Table{
		mk("Fig 2(a) Traffic cost: total messages per node", func(s snapshot) float64 { return s.traffic }, true),
		mk("Fig 2(b) Query processing load per node", func(s snapshot) float64 { return s.qpl }, false),
		mk("Fig 2(c) Storage load per node", func(s snapshot) float64 { return s.sl }, false),
	}
}

// Fig3 — Effect of increasing the number of incoming tuples: traffic
// per tuple (total and RIC share) plus ranked QPL/SL distributions at
// 40..2560 tuples.
func Fig3(p Params) []*Table {
	checkpoints := []int{
		p.scaled(40), p.scaled(80), p.scaled(160), p.scaled(320),
		p.scaled(640), p.scaled(1280), p.scaled(2560),
	}
	r := newRun(p, core.Config{}, workload.PaperConfig())
	r.warmup(p.scaled(400))
	r.submitQueries(p.scaled(p.Queries), query.WindowSpec{})

	f := newLoadFigure(p, "3", "Traffic cost per tuple", "# tuples")
	from := r.mark()
	published := 0
	for _, cp := range checkpoints {
		r.publish(cp - published)
		published = cp
		f.add(r, fmt.Sprintf("%d", cp), fmt.Sprintf("%d tuples", cp), from, cp)
	}
	return f.tables()
}

// Fig4 — Effect of increasing the number of indexed queries:
// 2k..32k queries, 1000 tuples each.
func Fig4(p Params) []*Table {
	counts := []int{
		p.scaled(2000), p.scaled(4000), p.scaled(8000),
		p.scaled(16000), p.scaled(32000),
	}
	f := newLoadFigure(p, "4", "Traffic cost per tuple", "# queries")
	for _, nq := range counts {
		f.point(p, workload.PaperConfig(), nq, p.scaled(1000),
			fmt.Sprintf("%d", nq), fmt.Sprintf("%d queries", nq))
	}
	return f.tables()
}

// Fig5 — Varying the skew of the data distribution: θ in
// {0.3, 0.5, 0.7, 0.9}, 1000 tuples.
func Fig5(p Params) []*Table {
	f := newLoadFigure(p, "5", "Traffic cost per tuple", "theta")
	for _, theta := range []float64{0.3, 0.5, 0.7, 0.9} {
		wcfg := workload.PaperConfig()
		wcfg.Theta = theta
		f.point(p, wcfg, p.scaled(p.Queries), p.scaled(1000),
			fmt.Sprintf("%.1f", theta), fmt.Sprintf("theta=%.1f", theta))
	}
	return f.tables()
}

// Fig6 — Effect of query complexity: 4-, 6- and 8-way joins, 1000
// tuples.
func Fig6(p Params) []*Table {
	f := newLoadFigure(p, "6", "Traffic cost per tuple", "joins")
	for _, k := range []int{4, 6, 8} {
		wcfg := workload.PaperConfig()
		wcfg.JoinArity = k
		f.point(p, wcfg, p.scaled(p.Queries), p.scaled(1000),
			fmt.Sprintf("%d-way", k), fmt.Sprintf("%d-way joins", k))
	}
	return f.tables()
}

// windowSizes are the Figure 7/8 sliding-window sizes in tuples.
func windowSizes(p Params) []int {
	return []int{p.scaled(50), p.scaled(100), p.scaled(200), p.scaled(400), p.scaled(1000)}
}

// Fig7And8 runs the sliding-window experiment once and produces both
// figures: Fig 7's per-window traffic and ranked load distributions,
// and Fig 8's cumulative QPL/SL series over tuple arrivals.
func Fig7And8(p Params) (fig7, fig8 []*Table) {
	tuples := p.scaled(1000)
	steps := 10
	stepSize := tuples / steps
	if stepSize == 0 {
		stepSize = 1
	}

	f := newLoadFigure(p, "7", "Traffic cost per tuple vs window size", "window (tuples)")

	sizes := windowSizes(p)
	cumQPL := &Table{Title: "Fig 8(a) Cumulative query processing load vs tuples"}
	cumSL := &Table{Title: "Fig 8(b) Cumulative storage load vs tuples"}
	cumQPL.Headers = []string{"# tuples"}
	cumSL.Headers = []string{"# tuples"}
	for _, w := range sizes {
		cumQPL.Headers = append(cumQPL.Headers, fmt.Sprintf("W=%d", w))
		cumSL.Headers = append(cumSL.Headers, fmt.Sprintf("W=%d", w))
	}
	qplSeries := make([][]int64, steps)
	slSeries := make([][]int64, steps)

	for wi, w := range sizes {
		cfg := core.Config{TupleGC: true, MaxWindowHint: int64(sizes[len(sizes)-1])}
		r := newRun(p, cfg, workload.PaperConfig())
		r.warmup(p.scaled(400))
		r.submitQueries(p.scaled(p.Queries),
			query.WindowSpec{Kind: query.WindowTuples, Size: int64(w)})
		from := r.mark()
		for s := 0; s < steps; s++ {
			r.publish(stepSize)
			if qplSeries[s] == nil {
				qplSeries[s] = make([]int64, len(sizes))
				slSeries[s] = make([]int64, len(sizes))
			}
			qplSeries[s][wi], slSeries[s][wi] = r.eng.Load()
		}
		f.add(r, fmt.Sprintf("%d", w), fmt.Sprintf("W=%d tuples", w), from, stepSize*steps)
	}
	for s := 0; s < steps; s++ {
		rowQ := []string{fmt.Sprintf("%d", (s+1)*stepSize)}
		rowS := []string{fmt.Sprintf("%d", (s+1)*stepSize)}
		for wi := range sizes {
			rowQ = append(rowQ, fmt.Sprintf("%d", qplSeries[s][wi]))
			rowS = append(rowS, fmt.Sprintf("%d", slSeries[s][wi]))
		}
		cumQPL.AddRow(rowQ...)
		cumSL.AddRow(rowS...)
	}
	return f.tables(), []*Table{cumQPL, cumSL}
}

// Fig7 returns only the Figure 7 tables.
func Fig7(p Params) []*Table {
	t, _ := Fig7And8(p)
	return t
}

// Fig8 returns only the Figure 8 tables.
func Fig8(p Params) []*Table {
	_, t := Fig7And8(p)
	return t
}

// Fig9 — Effect of identifier movement: ranked QPL and SL distributions
// with and without the lower-level load balancer.
func Fig9(p Params) []*Table {
	tuples := p.scaled(1000)
	qpl := &Table{Title: "Fig 9(a) QPL distribution (id movement)", Headers: rankedHeader()}
	sl := &Table{Title: "Fig 9(b) SL distribution (id movement)", Headers: rankedHeader()}
	// An identifier move is a leave and a join, and one balancing round
	// makes several back to back: a message in flight to a node that
	// moves next needs the bounce path, like under any churn. On the
	// static ring of the "Without" series it never fires.
	netCfg := overlay.DefaultConfig()
	netCfg.Bounce = true
	for _, withBalance := range []bool{false, true} {
		r := newRunNet(p, core.Config{}, workload.PaperConfig(), netCfg)
		r.warmup(p.scaled(400))
		r.submitQueries(p.scaled(p.Queries), query.WindowSpec{})
		if withBalance {
			loadbalance.Rebalance(r.eng) // balance the indexed queries first
		}
		step := tuples / 10
		if step == 0 {
			step = 1
		}
		published := 0
		for published < tuples {
			n := step
			if published+n > tuples {
				n = tuples - published
			}
			r.publish(n)
			published += n
			if withBalance {
				loadbalance.Rebalance(r.eng)
			}
		}
		name := "Without"
		if withBalance {
			name = "With"
		}
		rq, rs := r.eng.RankedLoad()
		qpl.AddRow(rankedRow(name, rq)...)
		sl.AddRow(rankedRow(name, rs)...)
	}
	return []*Table{qpl, sl}
}

// Figure is one entry of the figure table.
type Figure struct {
	// ID is the name -fig selects the figure by.
	ID string
	// Run regenerates it.
	Run func(Params) []*Table
	// Part marks a figure the full run leaves out because an earlier
	// entry computes it together with its sibling: Figures 7 and 8 share
	// one experiment, "7+8".
	Part bool
}

// Figures is every figure of the paper's Section 8, in paper order —
// the one table behind the harness's dispatch and its help and error
// texts.
var Figures = []Figure{
	{ID: "2", Run: Fig2},
	{ID: "3", Run: Fig3},
	{ID: "4", Run: Fig4},
	{ID: "5", Run: Fig5},
	{ID: "6", Run: Fig6},
	{ID: "7+8", Run: func(p Params) []*Table {
		f7, f8 := Fig7And8(p)
		return append(f7, f8...)
	}},
	{ID: "7", Run: Fig7, Part: true},
	{ID: "8", Run: Fig8, Part: true},
	{ID: "9", Run: Fig9},
}

// FigureIDs lists the table's identifiers for help and error texts.
func FigureIDs() string {
	ids := make([]string, len(Figures))
	for i, f := range Figures {
		ids[i] = f.ID
	}
	return strings.Join(ids, ", ")
}
