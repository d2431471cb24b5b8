// Virtual-time metrics: allocation-free fixed-bucket histograms over
// virtual-tick measurements and a windowed rate sampler emitting
// per-node / per-message-tag / per-query time series.
//
// Determinism: histogram updates are commutative atomic adds, so a
// snapshot taken at a sync barrier depends only on the multiset of
// observed values — identical across worker counts whenever the
// workload's event multiset is. Rate-series samples are attributed to
// windows by the EVENT's virtual timestamp, not by when the sampler
// happens to run, so the series too is schedule-independent; the
// background sim.EveryBg sampler merely drains completed windows out
// of the per-shard cells into the ordered series.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync/atomic"

	"rjoin/internal/sim"
)

// HistBuckets is the fixed bucket count of every Histogram: bucket i
// holds values in (2^(i-1), 2^i] (bucket 0 holds v <= 1), with the last
// bucket catching everything larger.
const HistBuckets = 20

// Histogram is a fixed-bucket power-of-two histogram. Observe is
// allocation-free and safe for concurrent use (atomic adds, which are
// commutative — worker scheduling cannot change a barrier snapshot).
// The zero value is ready to use; a nil *Histogram discards
// observations.
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
	atomic.AddInt64(&h.count, 1)
	atomic.AddInt64(&h.sum, v)
	atomic.AddInt64(&h.buckets[bucketOf(v)], 1)
	for {
		cur := atomic.LoadInt64(&h.min)
		if atomic.LoadInt64(&h.count) > 1 && cur <= v {
			break
		}
		if atomic.CompareAndSwapInt64(&h.min, cur, v) {
			break
		}
	}
	for {
		cur := atomic.LoadInt64(&h.max)
		if cur >= v {
			break
		}
		if atomic.CompareAndSwapInt64(&h.max, cur, v) {
			break
		}
	}
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
	s.Count = atomic.LoadInt64(&h.count)
	s.Sum = atomic.LoadInt64(&h.sum)
	if s.Count > 0 {
		s.Min = atomic.LoadInt64(&h.min)
		s.Max = atomic.LoadInt64(&h.max)
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for i := range s.Buckets {
		s.Buckets[i] = atomic.LoadInt64(&h.buckets[i])
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

// winKey addresses one counter cell: a window start plus a series name
// (node identifiers are rendered to hex lazily, at drain).
type winKey struct {
	win  int64
	name string
}

type nodeWinKey struct {
	win  int64
	node uint64
}

// cell is one execution context's private window counters. Only its
// own shard's handlers write it; the drain reads all cells from
// driver/global context while no handlers run.
type cell struct {
	node  map[nodeWinKey]int64
	tag   map[winKey]int64
	query map[winKey]int64
}

// Metrics is the virtual-time metrics registry: the fixed histogram
// set and the windowed rate series (a query's own latency histogram
// lives on the engine's subscription record). A
// nil *Metrics is a valid disabled registry — every method is a no-op
// — and hook sites additionally nil-guard so the disabled path makes
// no calls at all.
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

	cells  [sim.ShardSlots]cell
	series []Sample
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
	}
}

// Interval returns the rate-series window width (0 on nil).
func (m *Metrics) Interval() int64 {
	if m == nil {
		return 0
	}
	return m.interval
}

// Start schedules the background window drain on the engine. Virtual
// background events never keep Run alive, and window attribution is by
// event timestamp, so the sampler's own scheduling cannot perturb the
// series (or the workload).
func (m *Metrics) Start(se *sim.Engine) {
	if m == nil {
		return
	}
	se.EveryBg(sim.Duration(m.interval), func(now sim.Time) bool {
		m.Drain(int64(now))
		return true
	})
}

func (m *Metrics) win(at int64) int64 { return at - at%m.interval }

// IncNode counts one delivery at a node. shard is the executing
// handler's shard (sim.NoShard from driver/global context); at is the
// event's virtual time. Safe on a nil receiver.
func (m *Metrics) IncNode(shard int, at int64, node uint64) {
	if m == nil {
		return
	}
	c := &m.cells[sim.ShardSlot(shard)]
	if c.node == nil {
		c.node = make(map[nodeWinKey]int64)
	}
	c.node[nodeWinKey{m.win(at), node}]++
}

// IncTag counts n sends under a message tag ("" is recorded as "app").
func (m *Metrics) IncTag(shard int, at int64, tag string, n int64) {
	if m == nil || n == 0 {
		return
	}
	if tag == "" {
		tag = "app"
	}
	c := &m.cells[sim.ShardSlot(shard)]
	if c.tag == nil {
		c.tag = make(map[winKey]int64)
	}
	c.tag[winKey{m.win(at), tag}] += n
}

// IncQuery counts one answer (or aggregate update) delivered for a
// query.
func (m *Metrics) IncQuery(shard int, at int64, qid string) {
	if m == nil {
		return
	}
	c := &m.cells[sim.ShardSlot(shard)]
	if c.query == nil {
		c.query = make(map[winKey]int64)
	}
	c.query[winKey{m.win(at), qid}]++
}

// Drain folds every window that closed strictly before `now` out of
// the per-shard cells into the ordered series. Must run from
// driver/global context (no handlers executing): the engine schedules
// it as a global background event, which the parallel engine executes
// serially between shard rounds.
func (m *Metrics) Drain(now int64) {
	if m == nil {
		return
	}
	m.drainBefore(m.win(now))
}

// drainAll folds everything, including the still-open window; used at
// export time.
func (m *Metrics) drainAll() {
	if m == nil {
		return
	}
	m.drainBefore(int64(1) << 62)
}

func (m *Metrics) drainBefore(cutoff int64) {
	start := len(m.series)
	for i := range m.cells {
		c := &m.cells[i]
		for k, v := range c.node {
			if k.win < cutoff {
				m.series = append(m.series, Sample{k.win, "node", fmt.Sprintf("%016x", k.node), v})
				delete(c.node, k)
			}
		}
		for k, v := range c.tag {
			if k.win < cutoff {
				m.series = append(m.series, Sample{k.win, "tag", k.name, v})
				delete(c.tag, k)
			}
		}
		for k, v := range c.query {
			if k.win < cutoff {
				m.series = append(m.series, Sample{k.win, "query", k.name, v})
				delete(c.query, k)
			}
		}
	}
	chunk := m.series[start:]
	// Merge duplicate (win, scope, name) rows from different shards,
	// then order canonically: map iteration order must not leak into
	// the output.
	sort.Slice(chunk, func(i, j int) bool { return sampleLess(chunk[i], chunk[j]) })
	out := m.series[:start]
	for _, s := range chunk {
		if n := len(out); n > start && out[n-1].Win == s.Win && out[n-1].Scope == s.Scope && out[n-1].Name == s.Name {
			out[n-1].Count += s.Count
		} else {
			out = append(out, s)
		}
	}
	m.series = out
}

func sampleLess(a, b Sample) bool {
	if a.Win != b.Win {
		return a.Win < b.Win
	}
	if a.Scope != b.Scope {
		return a.Scope < b.Scope
	}
	return a.Name < b.Name
}

// Reset zeroes every histogram, window cell and the drained series, so
// measurements can exclude a warmup phase (the engine's ResetMetrics
// calls this). Driver context only. Safe on a nil receiver.
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	*m.AnswerLatency = Histogram{}
	*m.RewriteDepth = Histogram{}
	*m.HopCount = Histogram{}
	*m.RetransmitRounds = Histogram{}
	for i := range m.cells {
		m.cells[i] = cell{}
	}
	m.series = m.series[:0]
}

// Samples returns the full rate series (draining open windows first).
// Call from driver context. Nil-safe.
func (m *Metrics) Samples() []Sample {
	if m == nil {
		return nil
	}
	m.drainAll()
	return m.series
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
