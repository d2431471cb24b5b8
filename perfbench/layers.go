package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"rjoin"
	"rjoin/internal/agg"
	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/reliable"
	"rjoin/internal/share"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
)

// minTimed is how long each timed-call loop measures.
var minTimed = 20 * time.Millisecond

// timeCalls reports the mean nanoseconds of one fn call, running
// doubling batches until minTimed has been measured.
func timeCalls(fn func()) float64 {
	calls := 0
	var spent time.Duration
	for batch := 64; spent < minTimed; batch *= 2 {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		spent += time.Since(t0)
		calls += batch
	}
	return float64(spent.Nanoseconds()) / float64(calls)
}

// layerMetrics fills the per-layer catalogue from what the traced run
// measured. Every layer is measured from outside: counters the engine
// already exports, harness spans, and timed calls into each layer's
// public functions over this workload's own ring, keys and queries.
func (h *harness) layerMetrics(defs []metricDef, t *timed, drains []float64, rec *recorder, taxes []float64) ([]metric, error) {
	b, a := t.before, t.after
	dt := float64(a.tuples - b.tuples)
	per := func(after, before int64) float64 { return float64(after-before) / dt }
	set := newMetricSet(defs)
	add := set.add

	// Counts over the fixed prefix: these repeat exactly for a seed.
	eventsPerTuple := float64(a.fired-b.fired) / dt
	deliveriesPerTuple := per(a.delivered, b.delivered)
	rewritesPerTuple := per(a.ctr.RewritesCreated, b.ctr.RewritesCreated)
	partialsPerTuple := per(a.ctr.AggPartials, b.ctr.AggPartials)
	updatesPerTuple := per(a.ctr.AggUpdates, b.ctr.AggUpdates)
	add("sim.events_per_tuple", eventsPerTuple)
	add("overlay.deliveries_per_tuple", deliveriesPerTuple)
	add("overlay.app_msgs_per_tuple", per(a.stats.TrafficByTag.App, b.stats.TrafficByTag.App))
	add("overlay.ric_msgs_per_tuple", per(a.stats.TrafficByTag.RIC, b.stats.TrafficByTag.RIC))
	add("overlay.agg_msgs_per_tuple", per(a.stats.TrafficByTag.Agg, b.stats.TrafficByTag.Agg))
	add("overlay.repl_msgs_per_tuple", per(a.stats.TrafficByTag.Repl, b.stats.TrafficByTag.Repl))
	add("overlay.churn_msgs_per_tuple", per(a.stats.TrafficByTag.Churn, b.stats.TrafficByTag.Churn))
	add("overlay.bounced_per_tuple", per(a.stats.MessagesBounced, b.stats.MessagesBounced))
	add("reliable.retransmits_per_tuple", per(a.stats.Retransmits, b.stats.Retransmits))
	add("reliable.acks_per_tuple", per(a.stats.AckMessages, b.stats.AckMessages))
	add("reliable.dropped_per_tuple", per(a.stats.Dropped, b.stats.Dropped))
	add("share.shared_ratio", ratio(a.ctr.QueriesShared, a.ctr.QueriesSubmitted))
	add("share.fanout_rows_per_tuple", per(a.ctr.SharedFanoutRows, b.ctr.SharedFanoutRows))
	add("agg.partials_per_tuple", partialsPerTuple)
	add("agg.updates_per_tuple", updatesPerTuple)
	add("core.answers_per_tuple", per(a.stats.Answers, b.stats.Answers))
	add("core.rewrites_per_tuple", rewritesPerTuple)
	add("core.deep_rewrites_per_tuple", per(a.ctr.DeepRewrites, b.ctr.DeepRewrites))
	add("core.ric_requests_per_tuple", per(a.ctr.RICRequests, b.ctr.RICRequests))
	add("core.qpl_per_tuple", per(a.stats.QueryProcessingLoad, b.stats.QueryProcessingLoad))
	add("core.sl_per_tuple", per(a.stats.StorageLoad, b.stats.StorageLoad))
	add("core.max_node_qpl_share", ratio(a.stats.MaxNodeQPL, a.stats.QueryProcessingLoad))
	add("core.queries_expired_per_tuple", per(a.ctr.QueriesExpired, b.ctr.QueriesExpired))
	add("core.tuples_collected_per_tuple", per(a.ctr.TuplesCollected, b.ctr.TuplesCollected))
	add("core.altt_expired_per_tuple", per(a.ctr.ALTTExpired, b.ctr.ALTTExpired))
	add("core.state_slope", t.slope)
	add("core.repl_ops_per_tuple", per(a.ctr.ReplOps, b.ctr.ReplOps))
	add("core.repl_updates_per_tuple", per(a.ctr.ReplUpdates, b.ctr.ReplUpdates))
	add("core.repl_syncs", float64(a.ctr.ReplSyncs-b.ctr.ReplSyncs))
	add("core.repl_promotions", float64(a.ctr.ReplPromotions-b.ctr.ReplPromotions))
	add("core.handover_entries", float64(a.ctr.HandoverEntries-b.ctr.HandoverEntries))
	add("churn.events", float64(a.stats.Joins+a.stats.Leaves+a.stats.Crashes-
		b.stats.Joins-b.stats.Leaves-b.stats.Crashes))
	add("core.answer_latency_p50_ticks", quantile(t.latencies, 0.50))
	add("core.answer_latency_p99_ticks", quantile(t.latencies, 0.99))

	// Host time over prefix and time box.
	var drainNs, opNs time.Duration
	for _, s := range t.ops {
		drainNs += s.drain
		opNs += s.wall
	}
	drainPerTuple := float64(drainNs.Nanoseconds()) / float64(t.final.tuples-b.tuples)
	add("core.drain_p50_us", quantile(drains, 0.50))
	add("core.drain_p90_us", quantile(drains, 0.90))
	add("core.drain_p99_us", quantile(drains, 0.99))
	add("core.cpu_us_per_tuple", 1e6*(a.cpu-b.cpu)/dt)
	add("core.drain_ns_per_tuple", drainPerTuple)
	add("sim.ns_per_event", float64(opNs.Nanoseconds())/float64(t.final.fired-b.fired))

	// Spans the timed phase does not produce on every workload are
	// probed once it is over.
	h.probeSubscriptions()
	holeLost, err := h.joinHoleLost()
	if err != nil {
		return nil, err
	}
	add("core.join_hole_lost", holeLost)
	add("core.run_idle_ns", timeCalls(h.net.Run))
	add("core.stored_state_ns", timeCalls(func() { h.eng.StoredState() }))
	tot := rec.totals()
	selfNs := func(n spanName) float64 {
		if tot[n].calls == 0 {
			return 0
		}
		return float64(tot[n].self.Nanoseconds()) / float64(tot[n].calls)
	}
	add("core.publish_ns", selfNs(spanPublish)/float64(h.w.burst))
	add("core.drain_ns", selfNs(spanDrain))
	add("core.sweep_altt_ns", selfNs(spanSweep))
	add("core.submit_ns", selfNs(spanSubscribe))
	add("core.unsubscribe_ns", selfNs(spanUnsubscribe))
	add("core.membership_ns", selfNs(spanMembership))
	add("bench.op_self_ns", selfNs(spanOp))
	var on, off []float64
	for b, r := range t.blockRates() {
		if t.traced[b] {
			on = append(on, r)
		} else {
			off = append(off, r)
		}
	}
	add("bench.trace_overhead", median(off)/median(on)-1)

	// Timed calls into each layer, after one forced collection and with
	// the collector off: a 20ms loop that happens to share the machine
	// with a mark phase reads several times too slow.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	rng := rand.New(rand.NewSource(h.seed + 3))
	tuples := make([]*relation.Tuple, 512)
	var keys []id.ID
	for i := range tuples {
		tuples[i] = h.gen.Tuple()
		_, vk := tuples[i].Keys()
		for _, k := range vk {
			keys = append(keys, k.ID())
		}
	}
	depth := int(eventsPerTuple * float64(h.w.burst))
	schedNs := simSchedNs(depth)
	add("sim.sched_ns", schedNs)

	nodes := h.eng.Ring().Nodes()
	var hops, lookups int
	lookupNs := timeCalls(func() {
		_, path := nodes[rng.Intn(len(nodes))].Lookup(keys[rng.Intn(len(keys))])
		hops += len(path)
		lookups++
	})
	add("chord.lookup_ns", lookupNs)
	add("chord.lookup_hops", float64(hops)/float64(lookups))

	ring := freshRing(h.w.nodes, h.seed)
	sendNs := overlaySendNs(ring, h.seed, keys, false, 1)
	add("overlay.send_ns", sendNs)
	add("overlay.multisend_ns", overlaySendNs(ring, h.seed, keys, false, 2*h.w.schema.Attributes))
	add("overlay.send_reliable_ns", overlaySendNs(ring, h.seed, keys, true, 1))

	var dd reliable.Dedup
	var seq uint64
	add("reliable.dedup_mark_ns", timeCalls(func() { seq++; dd.Mark(seq) }))
	inbox := reliable.NewInbox()
	inbox.Offer(1, true, 1, 1, nil)
	first := int64(1)
	add("reliable.inbox_offer_ns", timeCalls(func() { first++; inbox.Offer(1, false, first, 1, nil) }))

	add("relation.valuekey_ns", timeCalls(func() {
		t := tuples[rng.Intn(len(tuples))]
		relation.ValueKeyOf(t.Relation(), t.Schema.Attrs[0], t.Values[0])
	}))
	add("relation.tuple_keys_ns", timeCalls(func() { tuples[rng.Intn(len(tuples))].Keys() }))

	pairs := rewritePairs(h, tuples)
	var matchesNs, rewriteNs, candNs, rewriteAllocs float64
	if len(pairs) > 0 {
		i := 0
		next := func() rewritePair { i++; return pairs[i%len(pairs)] }
		matchesNs = timeCalls(func() { p := next(); p.q.Matches(p.t) })
		m0 := mallocs()
		calls := 0
		rewriteNs = timeCalls(func() {
			p := next()
			if q2, ok := query.Rewrite(p.q, p.t); ok {
				query.Release(q2)
			}
			calls++
		})
		rewriteAllocs = float64(mallocs()-m0) / float64(calls)
		candNs = timeCalls(func() { pairs[i%len(pairs)].child.Candidates(); i++ })
	}
	add("query.matches_ns", matchesNs)
	add("query.rewrite_ns", rewriteNs)
	add("query.rewrite_allocs", rewriteAllocs)
	add("query.candidates_ns", candNs)

	sqls := make([]string, 0, 64)
	parsed := make([]*query.Query, 0, 64)
	for _, ls := range h.subs {
		if len(sqls) == cap(sqls) {
			break
		}
		sqls = append(sqls, ls.sub.SQL)
		parsed = append(parsed, ls.q)
	}
	si := 0
	add("sqlparse.parse_ns", timeCalls(func() { si++; sqlparse.Parse(sqls[si%len(sqls)], h.cat) }))
	add("share.canonicalize_ns", timeCalls(func() { si++; share.Canonicalize(parsed[si%len(parsed)], h.cat) }))

	addNs, mergeNs, finalizeNs := aggNs(h, tuples)
	add("agg.add_ns", addNs)
	add("agg.merge_ns", mergeNs)
	add("agg.finalize_ns", finalizeNs)

	// Attribution: per-call cost times calls per tuple, as a share of
	// the drain time one tuple costs. What the five rows leave is the
	// core remainder (handlers, state maps, allocation, GC).
	shares := []struct {
		name string
		ns   float64
	}{
		{"sim", eventsPerTuple * schedNs},
		{"chord", deliveriesPerTuple * lookupNs},
		{"overlay", deliveriesPerTuple * max(0, sendNs-lookupNs)},
		{"query", rewritesPerTuple * (matchesNs + rewriteNs + candNs)},
		{"agg", partialsPerTuple*addNs + updatesPerTuple*finalizeNs},
	}
	rest := 1.0
	for _, s := range shares {
		add("share_of_drain."+s.name, s.ns/drainPerTuple)
		rest -= s.ns / drainPerTuple
	}
	add("share_of_drain.core_rest", rest)

	debug.SetGCPercent(gcPercent)
	for i, f := range taxFeatures {
		add("tax."+f.name, taxes[i])
	}
	return set.list()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probeSubscriptions records subscribe and unsubscribe spans on
// workloads whose timed ops contain none.
func (h *harness) probeSubscriptions() {
	for i := 0; i < 16; i++ {
		h.opID++
		root := h.rec.begin(spanOp, h.opID)
		h.subscribe(h.w.query(h, i))
		h.drain()
		h.unsubscribeAt(len(h.subs) - 1)
		h.drain()
		h.rec.end(root)
	}
}

// joinHoleLost adds a node, crashes the node before it on the ring and
// returns how many stored entries the engine counts as lost, on a
// network that replicates (0 elsewhere). No crash of a single node may
// lose anything at ReplicationFactor 2, but today this one does:
// JoinNode repairs the replica groups while the predecessor's successor
// list still lacks the new node, and CrashNode then looks for the
// predecessor's mirror on the new node. The workload's own membership
// schedule stays clear of that sequence, because a benchmark run must
// not fail on one seed in forty for a defect known beforehand; this
// probe, after everything else has been measured and checked, is what
// keeps the defect in every traced run's report until it reads 0.
func (h *harness) joinHoleLost() (float64, error) {
	if h.eng.Cfg.ReplicationFactor < 2 {
		return 0, nil
	}
	lost := func() int64 {
		st := h.net.Stats()
		return st.QueriesLost + st.RewritesLost + st.TuplesLost + st.AggStateLost
	}
	old := make(map[id.ID]bool)
	for _, n := range h.eng.Ring().Nodes() {
		old[n.ID()] = true
	}
	before := lost()
	if err := h.net.AddNode(); err != nil {
		return 0, err
	}
	h.drain()
	nodes := h.eng.Ring().Nodes()
	for i, n := range nodes {
		if !old[n.ID()] {
			if err := h.net.Crash((i + len(nodes) - 1) % len(nodes)); err != nil {
				return 0, err
			}
			break
		}
	}
	h.drain()
	return float64(lost() - before), nil
}

func noopEvent(sim.Time, sim.Ctx) {}

// simSchedNs times one schedule-and-fire pair on a heap holding depth
// no-op events, the depth one op of this workload reaches.
func simSchedNs(depth int) float64 {
	depth = min(max(depth, 1), 1<<16)
	se := sim.NewEngine(1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < depth; i++ {
		se.AtCtx(se.Now()+sim.Time(1+rng.Intn(16)), noopEvent, sim.Ctx{})
	}
	return timeCalls(func() {
		se.AtCtx(se.Now()+sim.Time(1+rng.Intn(16)), noopEvent, sim.Ctx{})
		se.Step()
	})
}

// freshRing builds a converged ring the way rjoin.NewNetwork does.
func freshRing(nodes int, seed int64) *chord.Ring {
	ring := chord.NewRing()
	idRng := rand.New(rand.NewSource(seed))
	for i := 0; i < nodes; i++ {
		for {
			if _, err := ring.Join(id.ID(idRng.Uint64())); err == nil {
				break
			}
		}
	}
	ring.BuildPerfect()
	return ring
}

// overlaySendNs times Send (fanout 1) or MultiSend (fanout messages per
// call) into no-op handlers on a fresh overlay over ring, and
// returns nanoseconds per message. Deliveries drain outside the timed
// region. The reliable variant runs a zero-rate fault plan, which puts
// every send through the ARQ channel without injecting anything.
func overlaySendNs(ring *chord.Ring, seed int64, keys []id.ID, lossy bool, fanout int) float64 {
	se := sim.NewEngine(seed)
	cfg := overlay.DefaultConfig()
	if lossy {
		cfg.Bounce = true
		cfg.Faults = &overlay.Faults{}
	}
	nw := overlay.MustNetwork(ring, se, cfg)
	nodes := ring.Nodes()
	for _, n := range nodes {
		nw.Attach(n, overlay.HandlerFunc(func(sim.Time, overlay.Message) {}))
	}
	rng := rand.New(rand.NewSource(seed + 4))
	msgs := make([]overlay.Message, fanout)
	ids := make([]id.ID, fanout)
	var msg overlay.Message = &struct{}{}
	var spent time.Duration
	sent := 0
	for spent < minTimed {
		t0 := time.Now()
		for i := 0; i < 256; i++ {
			from := nodes[rng.Intn(len(nodes))]
			if fanout == 1 {
				nw.Send(from, keys[rng.Intn(len(keys))], msg)
				continue
			}
			for j := range msgs {
				msgs[j], ids[j] = msg, keys[rng.Intn(len(keys))]
			}
			nw.MultiSend(from, msgs, ids)
		}
		spent += time.Since(t0)
		sent += 256 * fanout
		se.Run()
		if t, ok := nw.NextRetransmit(); ok {
			se.RunUntil(t)
		}
	}
	return float64(spent.Nanoseconds()) / float64(sent)
}

// rewritePair is a standing query of the workload, a generated tuple
// that triggers it, and the rewrite that results.
type rewritePair struct {
	q     *query.Query
	t     *relation.Tuple
	child *query.Query
}

func rewritePairs(h *harness, tuples []*relation.Tuple) []rewritePair {
	var out []rewritePair
	for _, ls := range h.subs {
		if len(out) == 64 {
			break
		}
		for _, t := range tuples {
			if q2, ok := query.Rewrite(ls.q, t); ok {
				out = append(out, rewritePair{ls.q, t, q2.Clone()})
				query.Release(q2)
				break
			}
		}
	}
	return out
}

// aggNs times Partial.Add, Partial.Merge and Spec.FinalizeRow on the
// workload's first aggregate query, or — where the workload has none —
// on the generator's GROUP BY shape over the same schema.
func aggNs(h *harness, tuples []*relation.Tuple) (addNs, mergeNs, finalizeNs float64) {
	var q *query.Query
	for _, ls := range h.subs {
		if ls.q.IsAggregate() {
			q = ls.q
			break
		}
	}
	if q == nil {
		q = h.gen.GroupQuery()
	}
	spec := agg.SpecOf(q)
	rows := make([][]relation.Value, len(tuples))
	for i, t := range tuples {
		row := make([]relation.Value, spec.Width)
		for j := range row {
			row[j] = t.Values[j%len(t.Values)]
		}
		rows[i] = row
	}
	i := 0
	p := agg.NewPartial(spec)
	addNs = timeCalls(func() { i++; p.Add(spec, rows[i%len(rows)]) })
	small := agg.NewPartial(spec)
	for _, r := range rows[:8] {
		small.Add(spec, r)
	}
	mergeNs = timeCalls(func() { p.Merge(small) })
	group := spec.GroupValues(rows[0])
	finalizeNs = timeCalls(func() { spec.FinalizeRow(group, small) })
	return
}

// taxFeatures are the optional mechanisms whose cost ROADMAP aim 1 asks
// to publish. Each tax is the op time per tuple with the feature on over
// the op time with every one of them off, on this workload's own shape.
var taxFeatures = []struct {
	name string
	on   func(o *rjoin.Options)
}{
	{"rf2", func(o *rjoin.Options) { o.ReplicationFactor = 2 }},
	{"faults0", func(o *rjoin.Options) { o.Faults = &rjoin.FaultOptions{} }},
	{"sharing", func(o *rjoin.Options) { o.Sharing = true }},
	{"workers2", func(o *rjoin.Options) { o.Workers = 2 }},
	{"trace", func(o *rjoin.Options) { o.Trace = &rjoin.TraceOptions{} }},
	{"metrics", func(o *rjoin.Options) { o.Metrics = &rjoin.MetricsOptions{} }},
	{"profile", func(o *rjoin.Options) { o.Profile = &rjoin.ProfileOptions{} }},
	{"provenance", func(o *rjoin.Options) { o.Provenance = true }},
}

const (
	// taxScale shrinks the workload's set-up for the nine tax networks.
	taxScale = 0.25
	// taxRounds is how many paired blocks each tax is the median of.
	taxRounds = 5
)

// taxBlockSeconds is the op time one block takes on the network with
// every feature off; it fixes the block's length in tuples.
var taxBlockSeconds = 0.1

// featureTaxes builds nine quarter-size networks of w's shape from one
// seed, one with every optional mechanism off and one per feature with
// that feature alone on, and drives them through the same ops in
// lockstep: in every round each network runs one block of the same
// tuples (and the same resubscriptions), the baseline first; round zero
// sets the block's length on the baseline and is discarded. A tax is
// the median over the rounds of the feature's op time per tuple over
// the baseline's in the same round, so slow drift of the host cancels
// and one disturbed block cannot set the reading. The collector runs
// between rounds and is off inside them, as for the timed calls of
// layerMetrics: a cycle over nine networks' heap costs as much as a
// block and would land on whichever network is running. It returns the
// taxes in taxFeatures' order.
func featureTaxes(w *wl, seed int64) ([]float64, error) {
	small := w.scaled(taxScale)
	nets := make([]*harness, 1+len(taxFeatures))
	for i := range nets {
		h, err := newHarness(small, seed, func(o *rjoin.Options) {
			o.ReplicationFactor, o.Faults, o.Sharing = 0, nil, false
			if i > 0 {
				taxFeatures[i-1].on(o)
			}
		})
		if err == nil {
			err = h.warmUp()
		}
		if err != nil {
			return nil, fmt.Errorf("feature taxes: %w", err)
		}
		nets[i] = h
	}
	// block runs h until it has published upTo tuples and returns the op
	// time per tuple.
	block := func(h *harness, upTo int64) float64 {
		var wall time.Duration
		first := h.tuples
		for h.tuples < upTo {
			wall += h.op().wall
		}
		return wall.Seconds() / float64(h.tuples-first)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	base, start := nets[0], nets[0].tuples
	for wall := 0.0; wall < taxBlockSeconds; {
		wall += base.op().wall.Seconds()
	}
	length := base.tuples - start
	for _, h := range nets[1:] {
		block(h, start+length)
	}
	ratios := make([][]float64, len(taxFeatures))
	for r := int64(2); r < 2+taxRounds; r++ {
		runtime.GC()
		off := block(base, start+r*length)
		for i, h := range nets[1:] {
			ratios[i] = append(ratios[i], block(h, start+r*length)/off)
		}
	}
	out := make([]float64, len(taxFeatures))
	for i, r := range ratios {
		out[i] = median(r)
	}
	return out, nil
}
