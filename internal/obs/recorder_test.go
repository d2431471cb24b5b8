package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rjoin/internal/obs/profile"
	"rjoin/internal/sim"
)

// emitter drives records into a recorder the way an engine does. The
// serial one has the single cell of a serial engine, whose every handler
// runs in coordinator context. The parallel one is bound to a two-worker
// event engine and emits each sharded record from that shard's worker:
// the records of one step are scheduled on one tick, so shards run
// concurrently and the race detector checks that a cell has one writer.
type emitter struct {
	rec     *Recorder
	se      *sim.Engine // nil: serial layout
	pending bool
}

func newEmitter(parallel bool, tr *Tracer, m *Metrics, pf *profile.Profiler) *emitter {
	em := &emitter{rec: NewRecorder(Views{tr, m, pf})}
	if parallel {
		em.se = parallelEngine()
		em.rec.Bind(em.se)
	}
	return em
}

func emitEvent(_ sim.Time, c sim.Ctx) {
	c.A.(*Recorder).Emit(c.C.(int), *c.B.(*Rec))
}

func (em *emitter) emit(shard int, rec Rec) {
	if em.se == nil || shard == sim.NoShard {
		em.rec.Emit(sim.NoShard, rec)
		return
	}
	em.se.AtCtxShard(em.se.Now()+1, emitEvent, sim.Ctx{A: em.rec, B: &rec, C: shard}, sim.NoShard, shard)
	em.pending = true
}

// barrier runs the scheduled emissions to completion, as Engine.Sync's
// callers have when they reach it.
func (em *emitter) barrier() {
	if em.pending {
		em.se.Run()
		em.pending = false
	}
}

func (em *emitter) flush() { em.barrier(); em.rec.Flush() }
func (em *emitter) reset() { em.barrier(); em.rec.Reset() }

// TestHistogramSplitInvariant: however a multiset of observations is
// split over cells and flush points, the folded histogram summarizes
// exactly like one histogram observing the values in order. The first
// two values always land in different cells ahead of the first flush:
// two "first" observations at once are what the atomic Observe this
// fold replaced got wrong (both shards saw count > 1 and skipped the min
// update, leaving Min at zero for good).
func TestHistogramSplitInvariant(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, 2+rng.Intn(60))
		for i := range vals {
			vals[i] = 1 + rng.Int63n(1<<uint(1+rng.Intn(20)))
		}
		var want Histogram
		for _, v := range vals {
			want.Observe(v)
		}
		cells, flushes := 1+rng.Intn(8), 1+rng.Intn(4)
		m := NewMetrics(0)
		em := newEmitter(cells > 1, nil, m, nil)
		for i, v := range vals {
			shard := rng.Intn(cells) - 1 // cell 0 is NoShard
			if i < 2 && cells > 1 {
				shard = i - 1
			}
			em.emit(shard, Rec{Kind: KindComplete, Arg: v})
			if i >= 2 && rng.Intn(len(vals)) < flushes-1 {
				em.flush()
			}
		}
		em.flush()
		if got := m.RewriteDepth.Summary(); got != want.Summary() {
			t.Fatalf("seed %d (%d cells): folded summary %+v, in-order %+v", seed, cells, got, want.Summary())
		}
	}
}

// oracle is the reference for the whole record path: it keeps every
// emitted record in one slice, with the flush batch it belongs to, and
// recomputes each view from that slice — one filter and one group-by
// per view, none of the recorder's cells, switch or incremental state.
type oracle struct {
	recs    []Rec
	batch   []int // flush batch of recs[i]
	batches int
	since   int // first record after the last Reset
}

func (o *oracle) emit(rec Rec) { o.recs, o.batch = append(o.recs, rec), append(o.batch, o.batches) }
func (o *oracle) flush()       { o.batches++ }
func (o *oracle) reset()       { o.flush(); o.since = len(o.recs) }

// measured returns the records the histograms, series and profile
// cover: those emitted since the last Reset.
func (o *oracle) measured() []Rec { return o.recs[o.since:] }

func (o *oracle) trace(limit int64) (evs []Event, dropped int64) {
	for b, i := 0, 0; b < o.batches; b++ {
		start := len(evs)
		for ; i < len(o.recs) && o.batch[i] == b; i++ {
			rec := o.recs[i]
			ev := Event{At: int64(rec.At), Kind: rec.Kind, Node: rec.Node, Trace: rec.QID, Key: rec.Key, Arg: rec.Arg}
			switch {
			case rec.Kind > lastTraced:
				continue
			case rec.Kind <= KindALTTStore:
				ev.Trace = fmt.Sprintf("pub:%016x#%d", rec.Pub, rec.PubSeq)
			}
			evs = append(evs, ev)
		}
		sort.Slice(evs[start:], func(i, j int) bool { return evs[start+i].compare(evs[start+j]) < 0 })
		if over := int64(len(evs)) - limit; limit > 0 && over > 0 {
			evs, dropped = evs[:limit], dropped+over
		}
	}
	return evs, dropped
}

// hist observes pick(rec) for every measured record of the given kinds.
func (o *oracle) hist(pick func(Rec) int64, kinds ...Kind) LatencySummary {
	var h Histogram
	for _, rec := range o.measured() {
		for _, k := range kinds {
			if rec.Kind == k {
				h.Observe(pick(rec))
			}
		}
	}
	return h.Summary()
}

func (o *oracle) samples(interval int64) []Sample {
	sum := map[Sample]int64{}
	for _, rec := range o.measured() {
		s := Sample{Win: int64(rec.At) - int64(rec.At)%interval}
		var n int64 = 1
		switch rec.Kind {
		case KindDeliver:
			s.Scope, s.Name = "node", fmt.Sprintf("%016x", rec.Node)
		case KindAnswer, KindAggUpdate:
			s.Scope, s.Name = "query", rec.QID
		case KindRoute, KindHop:
			if s.Scope, s.Name = "tag", rec.Key; s.Name == "" {
				s.Name = "app"
			}
			if rec.Kind == KindRoute {
				n = rec.Arg
			}
		default:
			continue
		}
		if n != 0 {
			sum[s] += n
		}
	}
	var out []Sample
	for s, n := range sum {
		s.Count = n
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return a.Win < b.Win || a.Win == b.Win && (a.Scope < b.Scope || a.Scope == b.Scope && a.Name < b.Name)
	})
	return out
}

// profiled maps each kind the profiler reads to the metrics it feeds and
// whether the metric takes the record's N rather than a count of one.
var profiled = map[Kind][]struct {
	m     profile.Metric
	bytes bool
}{
	KindTupleArrive: {{m: profile.Arrivals}},
	KindEval:        {{m: profile.Evals}},
	KindCTHit:       {{m: profile.CTHits}},
	KindCTMiss:      {{m: profile.CTMisses}},
	KindAggPartial:  {{m: profile.AggPartials}},
	KindStateStore:  {{m: profile.StoredQueries}, {m: profile.StateBytes, bytes: true}},
	KindStateDrop:   {{m: profile.StateBytes, bytes: true}},
	KindTrigger:     {{m: profile.Rewrites}},
	KindFanoutRow:   {{m: profile.FanoutRows}},
}

func (o *oracle) count(qid, key string, m profile.Metric) (n int64) {
	for _, rec := range o.measured() {
		for _, f := range profiled[rec.Kind] {
			fm, fq, fk := f.m, rec.QID, rec.Key
			switch {
			case rec.Kind == KindTrigger && rec.Arg == 0:
				fm = profile.Completions
			case rec.Kind == KindTupleArrive:
				fq = ""
			case rec.Kind == KindFanoutRow:
				fk = ""
			}
			if fm == m && fq == qid && fk == key {
				if f.bytes {
					n += rec.N
				} else {
					n++
				}
			}
		}
	}
	return n
}

func (o *oracle) series(qid string, interval int64) []profile.StatePoint {
	net := map[int64]int64{}
	for _, rec := range o.measured() {
		if (rec.Kind == KindStateStore || rec.Kind == KindStateDrop) && rec.QID == qid && rec.N != 0 {
			net[int64(rec.At)-int64(rec.At)%interval] += rec.N
		}
	}
	var pts []profile.StatePoint
	for w := range net {
		pts = append(pts, profile.StatePoint{Win: w})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Win < pts[j].Win })
	var run int64
	for i := range pts {
		run += net[pts[i].Win]
		pts[i].Bytes = run
	}
	return pts
}

var (
	scriptQIDs = []string{"", "q1", "q2", "q3"}
	scriptKeys = []string{"", "R+A", "S+B+7", "ric"}
)

// runScript plays one seeded script of emits, flushes and resets into a
// recorder and into the oracle, and returns the first difference between
// the recorder's views and the oracle's recomputation ("" when there is
// none). mutate, when non-nil, edits a record on its way into the
// recorder only.
func runScript(seed int64, parallel bool, mutate func(rec *Rec)) string {
	rng := rand.New(rand.NewSource(seed))
	const interval = 16
	limit := int64(0)
	if seed%3 == 0 {
		limit = 40
	}
	tr, m, pf := NewTracer(limit), NewMetrics(interval), profile.New(interval)
	em, o := newEmitter(parallel, tr, m, pf), &oracle{}
	now := sim.Time(0)
	emit := func(kind Kind) {
		now += sim.Time(rng.Int63n(4))
		rec := Rec{
			At: now, Kind: kind, Node: uint64(rng.Intn(5)),
			Pub: uint64(rng.Intn(3)), PubSeq: rng.Int63n(4),
			QID: scriptQIDs[rng.Intn(len(scriptQIDs))], Key: scriptKeys[rng.Intn(len(scriptKeys))],
			Arg: rng.Int63n(3), N: rng.Int63n(600) - 100,
		}
		shard := rng.Intn(sim.ShardSlots) - 1 // NoShard, 0…63
		o.emit(rec)
		if mutate != nil {
			mutate(&rec)
		}
		em.emit(shard, rec)
	}
	// The script closes with one record of every kind, so that whatever
	// the last Reset left behind, every fold is exercised (and every
	// mutation below has something to bite on).
	steps := 100 + rng.Intn(200)
	for step := 0; step < steps+int(kindCount); step++ {
		switch r := rng.Intn(40); {
		case step >= steps:
			emit(Kind(step - steps))
		case r == 0:
			em.reset()
			o.reset()
		case r < 4:
			em.flush()
			o.flush()
		default:
			emit(Kind(rng.Intn(int(kindCount))))
		}
	}
	em.flush()
	o.flush()

	wantEvs, wantDropped := o.trace(limit)
	if got := tr.Events(); !reflect.DeepEqual(got, wantEvs) && len(got)+len(wantEvs) > 0 {
		return fmt.Sprintf("trace: %d events, oracle %d", len(got), len(wantEvs))
	}
	if tr.Dropped() != wantDropped {
		return fmt.Sprintf("trace dropped %d, oracle %d", tr.Dropped(), wantDropped)
	}
	arg, n := func(r Rec) int64 { return r.Arg }, func(r Rec) int64 { return r.N }
	for _, h := range []struct {
		name string
		got  *Histogram
		want LatencySummary
	}{
		{"answer latency", m.AnswerLatency, o.hist(n, KindAnswer, KindAggUpdate)},
		{"rewrite depth", m.RewriteDepth, o.hist(arg, KindComplete)},
		{"hop count", m.HopCount, o.hist(arg, KindRoute)},
		{"retransmit rounds", m.RetransmitRounds, o.hist(arg, KindRetransmit)},
	} {
		if got := h.got.Summary(); got != h.want {
			return fmt.Sprintf("%s: %+v, oracle %+v", h.name, got, h.want)
		}
	}
	if got, want := m.Samples(), o.samples(interval); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		return fmt.Sprintf("samples: %+v, oracle %+v", got, want)
	}
	for _, qid := range scriptQIDs {
		for _, key := range scriptKeys {
			for mt := profile.Arrivals; mt <= profile.AggPartials; mt++ {
				if got, want := pf.Count(qid, key, mt), o.count(qid, key, mt); got != want {
					return fmt.Sprintf("profile %s(%q, %q) = %d, oracle %d", mt, qid, key, got, want)
				}
			}
		}
		if got, want := pf.SeriesFor(qid), o.series(qid, interval); !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("state series of %q: %+v, oracle %+v", qid, got, want)
		}
	}
	return ""
}

// TestRecorderMatchesOracle: 40 seeded scripts of every record kind from
// every shard, interleaved with flushes and resets, on the one-cell
// layout of a serial engine and on the 65-cell layout of a parallel one
// (emitting from worker context): trace stream, histogram summaries,
// rate series and every profile counter and state series equal the
// oracle's recomputation from the flat log.
func TestRecorderMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		for _, parallel := range []bool{false, true} {
			if diff := runScript(seed, parallel, nil); diff != "" {
				t.Fatalf("seed %d, parallel %v: %s", seed, parallel, diff)
			}
		}
	}
}

// TestRecorderOracleCatchesMutation: the oracle comparison is not
// vacuous — a delivery folded one window late, an answer's latency
// inflated or an eval attributed to another placement is reported on
// every seed tried.
func TestRecorderOracleCatchesMutation(t *testing.T) {
	mutations := map[string]func(rec *Rec){
		"wrong window": func(rec *Rec) {
			if rec.Kind == KindDeliver {
				rec.At += 16
			}
		},
		"wrong latency": func(rec *Rec) {
			if rec.Kind == KindAnswer {
				rec.N += 1 << 20
			}
		},
		"wrong placement": func(rec *Rec) {
			if rec.Kind == KindEval {
				rec.Key = "T+C"
			}
		},
	}
	for name, mutate := range mutations {
		for seed := int64(0); seed < 5; seed++ {
			if diff := runScript(seed, false, mutate); diff == "" {
				t.Fatalf("mutation %q went unnoticed on seed %d", name, seed)
			}
		}
	}
}

// TestKindSetsMatchFold holds the three kind sets Emit filters by to the
// switch in Flush: with every view on, one record of a kind must change
// exactly the views whose set names it, and every kind must be in some
// set (Emit drops what nobody reads).
func TestKindSetsMatchFold(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		tr, m, pf := NewTracer(0), NewMetrics(16), profile.New(16)
		rec := NewRecorder(Views{tr, m, pf})
		rec.Emit(sim.NoShard, Rec{At: 5, Kind: k, Node: 1, Pub: 2, PubSeq: 3, QID: "q", Key: "k", Arg: 1, N: 7})
		rec.Flush()
		hists := m.AnswerLatency.Summary().Count + m.RewriteDepth.Summary().Count +
			m.HopCount.Summary().Count + m.RetransmitRounds.Summary().Count
		var profiled int64
		for mt := profile.Arrivals; mt <= profile.AggPartials; mt++ {
			profiled += pf.Count("q", "k", mt) + pf.Count("", "k", mt) + pf.Count("q", "", mt)
		}
		got := [3]bool{len(tr.Events()) > 0, hists > 0 || len(m.Samples()) > 0, profiled != 0}
		want := [3]bool{tracedKinds>>k&1 != 0, meteredKinds>>k&1 != 0, profiledKinds>>k&1 != 0}
		if got != want || got == [3]bool{} {
			t.Errorf("kind %v: the fold feeds trace/metrics/profile %v, the kind sets say %v", k, got, want)
		}
	}
}
