// Virtual-time metrics: allocation-free fixed-bucket histograms over
// virtual-tick measurements and windowed per-node / per-message-tag /
// per-query rate series.
//
// Determinism: both are sums over the records Recorder.Flush folds —
// a histogram depends only on the multiset of observed values, and a
// rate-series count is attributed to its window by the RECORD's virtual
// timestamp, not by when the fold happens to run — so a snapshot taken
// at a sync barrier is identical across worker counts whenever the
// workload's event multiset is.
package obs

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strings"
)

// HistBuckets is the fixed bucket count of every Histogram: bucket i
// holds values in (2^(i-1), 2^i] (bucket 0 holds v <= 1), with the last
// bucket catching everything larger.
const HistBuckets = 20

// Histogram is a fixed-bucket power-of-two histogram. Observe is
// allocation-free and takes no atomics, so it is NOT safe for concurrent
// use: the registry's histograms are observed only by Recorder.Flush, in
// coordinator context, and a subscription's own only under the
// subscription's mutex. The zero value is ready to use; a nil
// *Histogram discards observations.
type Histogram struct {
	count   int64
	sum     int64
	min     int64 // valid iff count > 0
	max     int64
	buckets [HistBuckets]int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // ceil(log2 v)
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) int64 {
	if i >= HistBuckets-1 {
		return int64(1) << 62 // effectively +inf
	}
	return int64(1) << uint(i)
}

// Observe records one value. Negative values clamp to zero (latency
// and depth measurements are non-negative by construction; the clamp
// keeps a miswired hook from corrupting bucket math). Safe on a nil
// receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	h.max = max(h.max, v)
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// LatencySummary is a point-in-time digest of a histogram. Quantiles
// are bucket upper bounds (the histogram stores counts, not samples),
// so they are exact to within one power of two.
type LatencySummary struct {
	Count    int64
	Sum      int64
	Min, Max int64
	Mean     float64
	P50, P99 int64
	Buckets  [HistBuckets]int64
}

// Summary snapshots the histogram. Call from driver context (between
// Runs); a zero summary comes back from a nil receiver.
func (h *Histogram) Summary() LatencySummary {
	var s LatencySummary
	if h == nil {
		return s
	}
	s.Count, s.Sum, s.Buckets = h.count, h.sum, h.buckets
	if s.Count > 0 {
		s.Min, s.Max = h.min, h.max
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	s.P50 = s.quantile(0.50)
	s.P99 = s.quantile(0.99)
	return s
}

// quantile returns the upper bound of the bucket containing the q-th
// quantile observation.
func (s *LatencySummary) quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target >= s.Count {
		target = s.Count - 1
	}
	var seen int64
	for i, c := range s.Buckets {
		seen += c
		if seen > target {
			return BucketBound(i)
		}
	}
	return BucketBound(HistBuckets - 1)
}

// Sample is one windowed rate measurement: Count events of one Name
// within one Scope whose virtual timestamps fall in
// [Win, Win+interval).
type Sample struct {
	// Win is the window's start tick.
	Win int64
	// Scope is "node", "tag" or "query".
	Scope string
	// Name identifies the series within the scope: a node's ring
	// identifier in hex, a message tag, or a query ID.
	Name string
	// Count is the number of events attributed to the window.
	Count int64
}

// seriesKey addresses one rate-series count: a window start, a scope
// ("node", "tag" or "query") and the series within it — a node by
// identifier (rendered to hex at export), a tag or a query by name.
type seriesKey struct {
	win   int64
	scope string
	node  uint64
	name  string
}

// Metrics is the virtual-time metrics registry: the fixed histogram
// set and the windowed rate series (a query's own latency histogram
// lives on the engine's subscription record). Recorder.Flush is its
// only writer. A nil *Metrics is a valid disabled registry.
type Metrics struct {
	// interval is the rate-series window width in ticks.
	interval int64

	// AnswerLatency observes answer-delivery vtime minus triggering
	// publish vtime, for plain answers and aggregate updates alike,
	// across all queries.
	AnswerLatency *Histogram
	// RewriteDepth observes the rewrite chain depth of every completed
	// query.
	RewriteDepth *Histogram
	// HopCount observes the DHT routing path length of every keyed
	// send.
	HopCount *Histogram
	// RetransmitRounds observes the retry number of every reliable-
	// channel retransmission.
	RetransmitRounds *Histogram

	// series counts the windows a record can still fall in; settle moves
	// a window out to settled once virtual time has left it, so the map
	// the fold hits for every send and delivery stays one window small.
	series   map[seriesKey]int64
	settled  []Sample
	openFrom int64 // start of the newest window seen
}

// NewMetrics returns an enabled registry with the given rate-series
// window width in ticks (<= 0 selects 64).
func NewMetrics(interval int64) *Metrics {
	if interval <= 0 {
		interval = 64
	}
	return &Metrics{
		interval:         interval,
		AnswerLatency:    &Histogram{},
		RewriteDepth:     &Histogram{},
		HopCount:         &Histogram{},
		RetransmitRounds: &Histogram{},
		series:           make(map[seriesKey]int64),
	}
}

// Interval returns the rate-series window width (0 on nil).
func (m *Metrics) Interval() int64 {
	if m == nil {
		return 0
	}
	return m.interval
}

// add counts n events of one series into the window the virtual time at
// falls in. A tag series with no name is the application's own traffic.
// Safe on a nil receiver.
func (m *Metrics) add(at int64, scope string, node uint64, name string, n int64) {
	if m == nil || n == 0 {
		return
	}
	if scope == "tag" && name == "" {
		name = "app"
	}
	m.series[seriesKey{at - at%m.interval, scope, node, name}] += n
}

// settle retires the windows that ended before the virtual time now.
// Time only moves forward — a record is never older than the barrier
// before it — so no later record can fall in them. Safe on a nil
// receiver.
func (m *Metrics) settle(now int64) {
	if m == nil || now-now%m.interval <= m.openFrom {
		return
	}
	m.openFrom = now - now%m.interval
	for k, n := range m.series {
		if k.win < m.openFrom {
			// Map order reaches settled; Samples sorts it at export.
			m.settled = append(m.settled, k.sample(n))
			delete(m.series, k)
		}
	}
}

// sample renders one count in its exported form.
func (k seriesKey) sample(n int64) Sample {
	if k.scope == "node" {
		k.name = fmt.Sprintf("%016x", k.node)
	}
	return Sample{k.win, k.scope, k.name, n}
}

// Reset zeroes every histogram and the rate series (Recorder.Reset
// calls this after a final fold). Safe on a nil receiver.
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	*m.AnswerLatency = Histogram{}
	*m.RewriteDepth = Histogram{}
	*m.HopCount = Histogram{}
	*m.RetransmitRounds = Histogram{}
	clear(m.series)
	m.settled = m.settled[:0]
}

// Samples returns the full rate series as of the last Recorder.Flush,
// ordered by window, scope and name. Nil-safe.
func (m *Metrics) Samples() []Sample {
	if m == nil {
		return nil
	}
	out := slices.Clone(m.settled)
	for k, n := range m.series {
		out = append(out, k.sample(n))
	}
	slices.SortFunc(out, func(a, b Sample) int {
		return cmp.Or(cmp.Compare(a.Win, b.Win), strings.Compare(a.Scope, b.Scope), strings.Compare(a.Name, b.Name))
	})
	return out
}

// WriteCSV writes the rate series as CSV:
// window_start,interval,scope,name,count.
func (m *Metrics) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "window_start,interval,scope,name,count"); err != nil {
		return err
	}
	for _, s := range m.Samples() {
		if _, err := fmt.Fprintf(bw, "%d,%d,%s,%s,%d\n", s.Win, m.Interval(), s.Scope, s.Name, s.Count); err != nil {
			return err
		}
	}
	return bw.Flush()
}
