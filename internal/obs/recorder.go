package obs

import (
	"rjoin/internal/obs/profile"
	"rjoin/internal/sim"
)

// Rec is one observability record: the raw facts of one hook site,
// nothing formatted. Which fields a kind fills is documented on the
// Kind constants; the rest stay zero.
type Rec struct {
	// At is the virtual tick the record was taken on. It, not the time
	// of the fold, selects the rate-series and state-series window.
	At sim.Time
	// Kind says what happened, and thereby which views the record feeds.
	Kind Kind
	// Node is the ring identifier of the node it happened at, for the
	// kinds a trace or the node rate series shows.
	Node uint64
	// Pub and PubSeq identify the tuple a tuple-lifecycle record belongs
	// to (publisher node, publication sequence); QID identifies the
	// query every other causal record belongs to. Pure transport
	// annotations carry neither.
	Pub    uint64
	PubSeq int64
	QID    string
	// Key is the DHT key involved — or, for KindRoute and KindHop, the
	// traffic tag.
	Key string
	// Arg is the kind-specific small integer a trace event shows (depth,
	// epoch, latency, fan-out, retry number).
	Arg int64
	// N is a kind-specific count or delta the trace does not show: a
	// delivery's latency, a state footprint in bytes.
	N int64
}

// The kinds each view reads, as bit sets over Kind. Emit consults them
// to drop what no enabled view would read — with one view on, about half
// of what the hook sites offer. They only name the readers: what a
// reader does with a record is the switch in Flush.
const (
	tracedKinds   = 1<<(lastTraced+1) - 1
	meteredKinds  = 1<<KindComplete | 1<<KindAnswer | 1<<KindAggUpdate | 1<<KindRetransmit | 1<<KindRoute | 1<<KindHop | 1<<KindDeliver
	profiledKinds = 1<<KindTupleArrive | 1<<KindEval | 1<<KindCTHit | 1<<KindCTMiss | 1<<KindAggPartial | 1<<KindStateStore | 1<<KindStateDrop | 1<<KindTrigger | 1<<KindFanoutRow
)

// Views are the three read sides a Recorder folds its records into; nil
// is a view that is off.
type Views struct {
	Trace   *Tracer
	Metrics *Metrics
	Profile *profile.Profiler
}

// Recorder is the engine's one observability handle and the only
// per-shard state of the layer. Hook sites Emit records into the cell of
// the shard they execute on; Flush folds them into whichever of the
// three views are enabled. A nil *Recorder is the disabled layer: hook
// sites test for it once and build nothing.
type Recorder struct {
	v Views

	// want is the set of kinds an enabled view reads.
	want uint32

	// cells are the per-context append buffers: cell 0 serves
	// coordinator context and cells[s+1] the handlers of logical shard
	// s (sim.ShardSlots). A shard's handlers run single-threaded within
	// a sub-round and touch only their own cell, so no lock is needed.
	// Flush empties the cells but keeps their capacity, so what they
	// hold is bounded by the records of one drain — the work between
	// two sync barriers.
	cells [][]Rec
}

// NewRecorder returns a recorder feeding the given views, or nil — the
// disabled layer — when all of them are off.
func NewRecorder(v Views) *Recorder {
	if v == (Views{}) {
		return nil
	}
	r := &Recorder{v: v, cells: make([][]Rec, sim.ShardSlots)}
	if v.Trace != nil {
		r.want |= tracedKinds
	}
	if v.Metrics != nil {
		r.want |= meteredKinds
	}
	if v.Profile != nil {
		r.want |= profiledKinds
	}
	return r
}

// Views returns the read sides the recorder feeds; all nil on a nil
// receiver.
func (r *Recorder) Views() Views {
	if r == nil {
		return Views{}
	}
	return r.v
}

// Emit records one fact from the given execution shard (sim.NoShard for
// coordinator context). Safe on a nil
// receiver, though hook sites nil-check first so that the disabled path
// does not even build the record.
func (r *Recorder) Emit(shard int, rec Rec) {
	if r == nil || r.want>>rec.Kind&1 == 0 {
		return
	}
	r.cells[shard+1] = append(r.cells[shard+1], rec)
}

// Flush folds every buffered record into the views. It must be called
// from coordinator context at a sync barrier (no handlers running); the
// engine does this in Sync, and nowhere else, because flush boundaries
// are part of the trace: each Flush's traced records form one
// canonically sorted batch. The fold is single-threaded, so nothing in
// it needs to commute for correctness — sums keyed by the record's own
// fields make the result independent of cell order all the same, which
// is what keeps it invariant across worker counts. Safe on a nil
// receiver.
func (r *Recorder) Flush() {
	if r == nil {
		return
	}
	tr, m, pf := r.v.Trace, r.v.Metrics, r.v.Profile
	// Every fold target below is nil-safe, so a view that is off costs
	// its kinds one call that returns at once.
	var latency, depth, hops, rounds *Histogram
	if m != nil {
		latency, depth, hops, rounds = m.AnswerLatency, m.RewriteDepth, m.HopCount, m.RetransmitRounds
	}
	start, now := len(tr.Events()), int64(0)
	for i, cell := range r.cells {
		for j := range cell {
			rec, at := &cell[j], int64(cell[j].At)
			now = max(now, at)
			if tr != nil && tracedKinds>>rec.Kind&1 != 0 {
				ev := Event{At: at, Kind: rec.Kind, Node: rec.Node, Trace: rec.QID, Key: rec.Key, Arg: rec.Arg}
				if rec.Kind <= KindALTTStore {
					// The four tuple-lifecycle kinds: a tuple's trace is named
					// after its publication. Nowhere else is one formatted.
					ev.Trace = PubTrace(rec.Pub, rec.PubSeq)
				}
				tr.events = append(tr.events, ev)
			}
			switch rec.Kind {
			case KindTupleArrive:
				// Arrivals are a property of the key, not of any one query:
				// profiled under the empty query ID, joined to each query's
				// placements by key at Explain time.
				pf.Add("", rec.Key, profile.Arrivals, 1)
			case KindEval:
				pf.Add(rec.QID, rec.Key, profile.Evals, 1)
			case KindCTHit:
				pf.Add(rec.QID, rec.Key, profile.CTHits, 1)
			case KindCTMiss:
				pf.Add(rec.QID, rec.Key, profile.CTMisses, 1)
			case KindComplete:
				depth.Observe(rec.Arg)
			case KindAnswer, KindAggUpdate:
				latency.Observe(rec.N)
				m.add(at, "query", 0, rec.QID, 1)
			case KindAggPartial:
				pf.Add(rec.QID, rec.Key, profile.AggPartials, 1)
			case KindRetransmit:
				rounds.Observe(rec.Arg)
			case KindRoute:
				hops.Observe(rec.Arg)
				m.add(at, "tag", 0, rec.Key, rec.Arg)
			case KindHop:
				m.add(at, "tag", 0, rec.Key, 1)
			case KindDeliver:
				m.add(at, "node", rec.Node, "", 1)
			case KindStateStore:
				pf.Add(rec.QID, rec.Key, profile.StoredQueries, 1)
				fallthrough
			case KindStateDrop:
				pf.Add(rec.QID, rec.Key, profile.StateBytes, rec.N)
				pf.State(at, rec.QID, rec.N)
			case KindTrigger:
				outcome := profile.Rewrites
				if rec.Arg == 0 {
					outcome = profile.Completions
				}
				pf.Add(rec.QID, rec.Key, outcome, 1)
			case KindFanoutRow:
				pf.Add(rec.QID, "", profile.FanoutRows, 1)
			}
		}
		r.cells[i] = cell[:0]
	}
	if tr != nil {
		tr.seal(start)
	}
	m.settle(now)
}

// Reset zeroes the histograms, the rate series and the profile after a
// final fold, so measurements can exclude a warmup phase (the engine's
// ResetMetrics calls this). The trace is left alone: it is a log of the
// run, not a measurement of a phase. Coordinator context only. Safe on a
// nil receiver.
func (r *Recorder) Reset() {
	r.Flush()
	r.Views().Metrics.Reset()
	r.Views().Profile.Reset()
}
