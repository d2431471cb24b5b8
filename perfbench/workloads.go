package main

import (
	"fmt"
	"strings"

	"rjoin"
	"rjoin/internal/workload"
)

// wl is one benchmark workload: the network it runs on, the standing
// queries, and the shape of one closed-loop op (burst tuples published,
// then one drain to quiescence). Counts are nominal; -scale shrinks
// them, never the workload list.
type wl struct {
	name string
	why  string

	nodes   int
	schema  workload.Config
	options func(o *rjoin.Options)

	preTuples int // tuples published before any query exists (RIC placement reads the last epoch's rates)
	queries   int
	warmup    int // nominal warm-up tuples; the stationarity guard may extend it to 3x
	prefix    int // timed tuples every run publishes; model metrics are read over exactly these
	burst     int // tuples per drain
	window    int64
	// query returns the i-th standing query's SQL.
	query func(h *harness, i int) string
	// resubEvery > 0 makes every resubEvery-th tuple's op also
	// unsubscribe one random subscription and subscribe a fresh one,
	// each followed by a drain.
	resubEvery int
	// churnEvery > 0 makes every churnEvery-th tuple's op end with one
	// membership change followed by a drain, cycling join, join, leave,
	// crash, which keeps the overlay's size level. See membershipChange
	// for why the schedule is the harness's and not Options.Churn's.
	churnEvery int
	// exactBags: sample-query answers must equal refeval's span bag
	// (2-way joins); otherwise span ⊆ got ⊆ anchor (windowed 3-way).
	exactBags bool
	// slopeNote, when set, replaces the stationarity failure by a note:
	// the workload has a documented unbounded component.
	slopeNote string
}

// chainRels returns the relations of the i-th standing query: the
// ordered k-subsets of the schema's relations, shuffled once per seed
// and then walked in turn. Drawing them independently would let the
// seed decide how many queries sit on the relations Zipf favours, which
// moved every count by several percent from seed to seed; walking them
// loads the relations alike on every seed and leaves only the
// attributes to the draw.
func (h *harness) chainRels(i, k int) []int {
	if h.relSets == nil {
		var walk func(prefix []int)
		walk = func(prefix []int) {
			if len(prefix) == k {
				h.relSets = append(h.relSets, append([]int(nil), prefix...))
				return
			}
		next:
			for r := 0; r < h.w.schema.Relations; r++ {
				for _, p := range prefix {
					if p == r {
						continue next
					}
				}
				walk(append(prefix, r))
			}
		}
		walk(nil)
		h.rng.Shuffle(len(h.relSets), func(a, b int) { h.relSets[a], h.relSets[b] = h.relSets[b], h.relSets[a] })
	}
	return h.relSets[i%len(h.relSets)]
}

// chainQuery is the generator's k-way chain join (workload.Generator.Query)
// over chainRels' relations: adjacent relations joined on drawn
// attributes, one drawn attribute of the first and of the last relation
// selected, within a sliding window of size tuples.
func chainQuery(h *harness, i, k int, size int64) string {
	rels := h.chainRels(i, k)
	col := func(r int) string { return fmt.Sprintf("R%d.A%d", r, h.rng.Intn(h.w.schema.Attributes)) }
	var b strings.Builder
	fmt.Fprintf(&b, "select %s, %s from ", col(rels[0]), col(rels[k-1]))
	for j, r := range rels {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "R%d", r)
	}
	for j := 0; j+1 < k; j++ {
		if j == 0 {
			b.WriteString(" where ")
		} else {
			b.WriteString(" and ")
		}
		fmt.Fprintf(&b, "%s=%s", col(rels[j]), col(rels[j+1]))
	}
	fmt.Fprintf(&b, " within %d tuples", size)
	return b.String()
}

var workloads = []*wl{
	{
		name:      "zipf3way",
		why:       "Section-8 Zipf chain joins: core handlers, query.Rewrite/Candidates and RIC placement do the work",
		nodes:     256,
		schema:    workload.Config{Relations: 6, Attributes: 4, Values: 100, Theta: 0.5, JoinArity: 3},
		preTuples: 4096, queries: 1000, warmup: 9600, prefix: 6400, burst: 1, window: 64,
		query: func(h *harness, i int) string { return chainQuery(h, i, 3, 64) },
	},
	{
		name:      "index_route",
		why:       "80% of tuples trigger nothing: overlay.MultiSend, chord.Lookup, sim scheduling and tuple GC dominate; the only wide-tick workload",
		nodes:     1024,
		schema:    workload.Config{Relations: 10, Attributes: 10, Values: 16, Theta: 0, JoinArity: 2},
		preTuples: 4096, queries: 40, warmup: 8192, prefix: 98304, burst: 16, window: 32,
		query: func(h *harness, _ int) string {
			attr := func() string { return fmt.Sprintf("A%d", h.rng.Intn(10)) }
			return fmt.Sprintf("select R0.%s, R1.%s from R0,R1 where R0.%s=R1.%s within 32 tuples",
				attr(), attr(), attr(), attr())
		},
		exactBags: true,
	},
	{
		name:      "agg_share_resub",
		why:       "GROUP BY subscriptions at 90% duplicates with subscribe/unsubscribe beside the stream: agg fold/flush, share fan-out, sqlparse+Canonicalize+teardown",
		nodes:     256,
		schema:    workload.Config{Relations: 4, Attributes: 3, Values: 32, Theta: 0.5, JoinArity: 2},
		options:   func(o *rjoin.Options) { o.Sharing = true },
		preTuples: 4096, queries: 400, warmup: 800, prefix: 2000, burst: 1, window: 64,
		query:      aggShareQuery,
		resubEvery: 20,
		exactBags:  true,
		slopeNote:  "aggregate epochs are never freed while a subscription lives, and stored tuples are collected only once a key holds 32",
	},
	{
		name:   "durable_lossy",
		why:    "rf=2, 5% drops, 2.5% dups and join/leave/crash churn: replication op stream, reliable channels, retransmit scan, handover and promotion",
		nodes:  256,
		schema: workload.Config{Relations: 6, Attributes: 4, Values: 20, Theta: 0.5, JoinArity: 2},
		options: func(o *rjoin.Options) {
			o.ReplicationFactor = 2
			o.Faults = &rjoin.FaultOptions{DropProb: 0.05, DupProb: 0.025}
		},
		churnEvery: 20,
		preTuples:  4096, queries: 300, warmup: 800, prefix: 1200, burst: 1, window: 71,
		// Windows 64..71 keep the joins in distinct pipelines: exact-duplicate
		// dedup would otherwise collapse equal SQL into one.
		query:     func(h *harness, i int) string { return chainQuery(h, i, 2, 64+int64(i%8)) },
		exactBags: true,
		slopeNote: "stored tuples are collected only once a key holds 32, and the channel table grows with every pair that ever spoke",
	},
}

// aggProto is one prototype of agg_share_resub: a 2-way join of
// relations a and b on a.on = b.on2, selecting a.sel and b.arg.
type aggProto struct {
	a, b                int
	sel, arg, on, onOf2 int
	plain               bool
}

// aggShareQuery draws from queries/10 distinct prototypes, so 90% of
// the standing subscriptions duplicate another one. One prototype in ten is a
// plain join, which gives the workload answer rows whose latency can be
// measured (aggregate views carry no delivery time); duplicates come in
// two clause orders, so they go through Canonicalize and not only the
// byte-identical fast path.
func aggShareQuery(h *harness, _ int) string {
	attrs := h.w.schema.Attributes
	for len(h.protos) < max(1, h.w.queries/10) {
		i := len(h.protos)
		pair := h.chainRels(i, 2)
		h.protos = append(h.protos, aggProto{
			a: pair[0], b: pair[1], plain: i%10 == 0,
			sel: h.rng.Intn(attrs), arg: h.rng.Intn(attrs), on: h.rng.Intn(attrs), onOf2: h.rng.Intn(attrs),
		})
	}
	p := h.protos[h.rng.Intn(len(h.protos))]
	sel := fmt.Sprintf("R%d.A%d", p.a, p.sel)
	arg := fmt.Sprintf("R%d.A%d", p.b, p.arg)
	from := fmt.Sprintf("R%d,R%d where R%d.A%d=R%d.A%d", p.a, p.b, p.a, p.on, p.b, p.onOf2)
	if h.rng.Intn(2) == 1 {
		from = fmt.Sprintf("R%d,R%d where R%d.A%d=R%d.A%d", p.b, p.a, p.b, p.onOf2, p.a, p.on)
	}
	if p.plain {
		return fmt.Sprintf("select %s, %s from %s within 64 tuples tumbling", sel, arg, from)
	}
	return fmt.Sprintf("select %s, count(*), sum(%s), max(%s) from %s group by %s within 64 tuples tumbling",
		sel, arg, arg, from, sel)
}

func workloadByName(name string) *wl {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled returns a copy with op counts multiplied by f. A scaled
// workload is for smoke runs and tax slices: its state is too small to
// hold the stationarity guard to, so the guard only leaves a note.
func (w *wl) scaled(f float64) *wl {
	if f == 1 {
		return w
	}
	c := *w
	for _, n := range []*int{&c.preTuples, &c.queries, &c.warmup, &c.prefix} {
		*n = max(int(float64(*n)*f), prefixBlocks*c.burst)
	}
	c.slopeNote = "scaled run"
	return &c
}
