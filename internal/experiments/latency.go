package experiments

import (
	"fmt"
	"sort"

	"rjoin/internal/core"
	"rjoin/internal/metrics"
	"rjoin/internal/obs"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/workload"
)

// FigLatency is this reproduction's observability figure: the same
// continuous-query machinery the traffic figures measure, seen through
// the virtual-time metrics registry instead of the load counters. One
// instrumented run reports (a) the end-to-end answer latency
// distribution — delivery tick minus the triggering publication's tick,
// threaded through every rewrite hop — (b) summary quantiles for the
// latency, rewrite-depth and routing-path histograms, and (c)/(d) the
// windowed per-tag and per-node message rate series the sampler emits.
// The workload uses 2-way joins over a small value domain (as the
// aggregation figure does) so the answer stream is thick enough for the
// latency histogram to have a real tail at test scales.
func FigLatency(p Params) []*metrics.Table {
	tabs, _ := FigLatencyObs(p)
	return tabs
}

// FigLatencyObs is FigLatency returning the live recorder too, so the
// harness can export the raw artifacts behind the tables — the
// Chrome/Perfetto trace and the full rate-series CSV.
func FigLatencyObs(p Params) ([]*metrics.Table, *obs.Recorder) {
	om := obs.NewMetrics(0)
	rec := obs.NewRecorder(obs.Views{Trace: obs.NewTracer(1 << 22), Metrics: om})
	cfg := core.DefaultConfig()
	cfg.Obs = rec
	netCfg := overlay.DefaultConfig()
	netCfg.Obs = rec

	wcfg := workload.PaperConfig()
	wcfg.JoinArity = 2
	wcfg.Values = 20

	r := newRunNet(p, cfg, wcfg, netCfg)
	r.warmup(p.scaled(400))
	r.submitQueries(p.scaled(p.Queries), query.WindowSpec{})
	r.publish(p.scaled(1000))

	lat := om.AnswerLatency.Summary()
	hist := &metrics.Table{
		Title:   "Fig L(a) Answer latency distribution (virtual ticks)",
		Headers: []string{"latency <=", "answers", "cum %"},
	}
	var cum int64
	for i, c := range lat.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		bound := fmt.Sprintf("%d", obs.BucketBound(i))
		if i == obs.HistBuckets-1 {
			bound = "inf"
		}
		hist.AddRow(bound, fmt.Sprintf("%d", c),
			fmt.Sprintf("%.1f", 100*float64(cum)/float64(lat.Count)))
	}

	sum := &metrics.Table{
		Title:   "Fig L(b) Virtual-time histogram summaries",
		Headers: []string{"measure", "observations", "min", "p50", "p99", "max"},
	}
	for _, h := range []struct {
		name string
		s    obs.LatencySummary
	}{
		{"answer latency (ticks)", lat},
		{"rewrite depth (hops)", om.RewriteDepth.Summary()},
		{"routing path length", om.HopCount.Summary()},
	} {
		sum.AddInts(h.name, h.s.Count, h.s.Min, h.s.P50, h.s.P99, h.s.Max)
	}

	samples := om.Samples()
	return []*metrics.Table{
		hist, sum,
		tagRateTable(samples, om.Interval()),
		nodeRateTable(samples, om.Interval()),
	}, rec
}

// tagRateTable pivots the tag-scope rate samples into one row per
// window with one column per message tag.
func tagRateTable(samples []obs.Sample, interval int64) *metrics.Table {
	type wk struct {
		win int64
		tag string
	}
	counts := map[wk]int64{}
	tagSet := map[string]bool{}
	winSet := map[int64]bool{}
	for _, s := range samples {
		if s.Scope != "tag" {
			continue
		}
		counts[wk{s.Win, s.Name}] += s.Count
		tagSet[s.Name] = true
		winSet[s.Win] = true
	}
	var tags []string
	for tg := range tagSet {
		tags = append(tags, tg)
	}
	sort.Strings(tags)
	wins := sortedWins(winSet)

	t := &metrics.Table{
		Title:   fmt.Sprintf("Fig L(c) Message rate by tag (per %d-tick window)", interval),
		Headers: append([]string{"window"}, tags...),
	}
	for _, w := range wins {
		vals := make([]int64, len(tags))
		for i, tg := range tags {
			vals[i] = counts[wk{w, tg}]
		}
		t.AddInts(fmt.Sprintf("%d", w), vals...)
	}
	return t
}

// nodeRateTable summarizes the node-scope rate samples per window: how
// many nodes took deliveries, how skewed the window was (busiest vs
// median node), and the window's total.
func nodeRateTable(samples []obs.Sample, interval int64) *metrics.Table {
	perWin := map[int64][]int64{}
	winSet := map[int64]bool{}
	for _, s := range samples {
		if s.Scope != "node" {
			continue
		}
		perWin[s.Win] = append(perWin[s.Win], s.Count)
		winSet[s.Win] = true
	}
	t := &metrics.Table{
		Title:   fmt.Sprintf("Fig L(d) Per-node delivery rate (per %d-tick window)", interval),
		Headers: []string{"window", "active nodes", "busiest", "median", "deliveries"},
	}
	for _, w := range sortedWins(winSet) {
		cs := perWin[w]
		sort.Slice(cs, func(i, j int) bool { return cs[i] > cs[j] })
		var total int64
		for _, c := range cs {
			total += c
		}
		t.AddInts(fmt.Sprintf("%d", w),
			int64(len(cs)), cs[0], cs[len(cs)/2], total)
	}
	return t
}

func sortedWins(set map[int64]bool) []int64 {
	wins := make([]int64, 0, len(set))
	for w := range set {
		wins = append(wins, w)
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i] < wins[j] })
	return wins
}
