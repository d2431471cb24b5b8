// Package profile is the per-query, per-placement profiler behind
// Explain(): it attributes rewrites, evals, candidate-table hits and
// misses, stored-state bytes, sharing fan-out rows and aggregation
// partials to the (query, relation-placement) that caused them, all on
// the virtual clock.
//
// Determinism: every counter is a sum attributed to a stable identity
// — a query ID and a placement key string, never a goroutine, worker or
// wall-clock value. The profiler has no hook sites of its own: handlers
// emit records into obs.Recorder, whose Flush folds them in here from
// coordinator context at sync barriers, so reports built after a Sync
// are pure functions of (seed, workload, options) and invariant across
// worker counts on workloads whose event timeline is itself
// schedule-independent. The state-footprint series buckets by the
// record's timestamp (the virtual time of the mutation), not by fold
// time, for the same reason.
//
// A nil *Profiler is a valid no-op receiver.
package profile

import (
	"cmp"
	"slices"
)

// Metric enumerates the per-(query, placement) counters.
type Metric uint8

const (
	// Arrivals counts tuples delivered to a placement key. It is
	// attributed per key (query ID ""): the arrival stream at an index
	// key is shared by every query placed there.
	Arrivals Metric = iota
	// Evals counts query placements (eval messages) processed at a key.
	Evals
	// StoredQueries counts query copies stored at a key (both levels).
	StoredQueries
	// Rewrites counts rewrite steps a trigger at this placement
	// produced that did not complete the query.
	Rewrites
	// Completions counts rewrite steps at this placement that completed
	// the query into an answer row.
	Completions
	// CTHits / CTMisses count candidate-table outcomes for this
	// placement key while placing the query's rewrites.
	CTHits
	CTMisses
	// StateBytes accumulates the estimated bytes of rewrite state
	// retained at this placement (cumulative; see the window series for
	// the net footprint over time).
	StateBytes
	// FanoutRows counts per-subscriber rows produced for this query at
	// shared-pipeline completion fan-outs (attributed per query,
	// placement key "").
	FanoutRows
	// AggPartials counts answer rows folded into aggregation partials
	// at this placement (the aggregator key).
	AggPartials

	metricCount
)

var metricNames = [metricCount]string{
	"arrivals", "evals", "stored", "rewrites", "completions",
	"ct_hits", "ct_misses", "state_bytes", "fanout_rows", "agg_partials",
}

func (m Metric) String() string {
	if int(m) < len(metricNames) {
		return metricNames[m]
	}
	return "unknown"
}

// ckey identifies one counter: a query, a placement key and a metric.
// The query ID is "" for per-key attribution shared across queries
// (arrivals); the placement key is "" for query-level attribution with
// no single placement (fan-out rows).
type ckey struct {
	qid, key string
	m        Metric
}

// skey identifies one window of a query's state-footprint series.
type skey struct {
	qid string
	win int64
}

// Profiler accumulates per-(query, placement) attribution. Method
// receivers are nil-safe: a nil Profiler ignores every call. Add, State
// and Reset are coordinator-context only; obs.Recorder is their caller.
type Profiler struct {
	interval int64
	counts   map[ckey]int64
	series   map[skey]int64
}

// New returns an empty profiler. interval is the window width of the
// state-footprint series in virtual ticks; 0 or negative means 64.
func New(interval int64) *Profiler {
	if interval <= 0 {
		interval = 64
	}
	return &Profiler{
		interval: interval,
		counts:   make(map[ckey]int64),
		series:   make(map[skey]int64),
	}
}

// Add bumps one counter.
func (p *Profiler) Add(qid, key string, m Metric, d int64) {
	if p == nil || d == 0 {
		return
	}
	p.counts[ckey{qid: qid, key: key, m: m}] += d
}

// State records a net change of d bytes in the query's retained
// rewrite state at virtual time at, bucketed into the series window
// the event falls in.
func (p *Profiler) State(at int64, qid string, d int64) {
	if p == nil || d == 0 {
		return
	}
	p.series[skey{qid: qid, win: at - at%p.interval}] += d
}

// Reset discards all attribution.
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	clear(p.counts)
	clear(p.series)
}

// Count returns one counter, as of the last fold.
func (p *Profiler) Count(qid, key string, m Metric) int64 {
	if p == nil {
		return 0
	}
	return p.counts[ckey{qid: qid, key: key, m: m}]
}

// Keys returns, sorted, every placement key with attribution under the
// given query ID.
func (p *Profiler) Keys(qid string) []string {
	if p == nil {
		return nil
	}
	var keys []string
	for k := range p.counts {
		if k.qid == qid && k.key != "" {
			keys = append(keys, k.key)
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// SeriesFor returns the query's state-footprint series: one point per
// window that saw a net change, sorted by window start, with Bytes the
// running footprint at the end of that window.
func (p *Profiler) SeriesFor(qid string) []StatePoint {
	if p == nil {
		return nil
	}
	var pts []StatePoint
	for k, d := range p.series {
		if k.qid == qid {
			pts = append(pts, StatePoint{Win: k.win, Bytes: d})
		}
	}
	slices.SortFunc(pts, func(a, b StatePoint) int { return cmp.Compare(a.Win, b.Win) })
	for i := 1; i < len(pts); i++ {
		pts[i].Bytes += pts[i-1].Bytes
	}
	return pts
}
