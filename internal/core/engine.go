package core

import (
	"fmt"
	"math"
	"slices"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/obs"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// Counters aggregates engine-wide event counts, useful for tests,
// ablations and the experiment reports.
type Counters struct {
	TuplesPublished    int64
	TuplesReceived     int64
	TuplesStored       int64
	TuplesCollected    int64
	ALTTExpired        int64
	QueriesSubmitted   int64
	InputQueriesStored int64
	RewritesCreated    int64
	DeepRewrites       int64 // rewrites of already-rewritten queries (Depth >= 2)
	RewritesStored     int64
	QueriesExpired     int64
	AnswersDelivered   int64
	UnplaceableDropped int64
	RICRequests        int64 // RIC walks issued; a placement that joined a walk in flight asked nothing
	RICReplies         int64 // walk replies received, waited for or not

	// In-network aggregation (see agg.go). AggPartials counts answer
	// rows folded into aggregation state at aggregator nodes; AggUpdates
	// counts finalized group-update rows delivered to subscribers;
	// AggStateLost counts (group, epoch) partials dropped by crashes or
	// unrecoverable departures.
	AggPartials  int64
	AggUpdates   int64
	AggStateLost int64

	// Churn bookkeeping (see handover.go).
	Joins            int64 // nodes JoinNode added
	Leaves           int64 // nodes LeaveNode removed
	Crashes          int64 // nodes CrashNode removed
	HandoverMessages int64 // handover chunks charged between nodes
	HandoverEntries  int64 // state entries those chunks carried
	MessagesRerouted int64 // deliveries corrected by the ownership check
	QueriesRecovered int64 // input-query placements re-indexed after a crash
	QueriesLost      int64 // input-query state dropped with no recovery possible
	RewritesLost     int64 // rewritten-query state dropped by crashes
	TuplesLost       int64 // stored tuples and ALTT entries dropped by crashes

	// Multi-query sharing (see share.go). QueriesShared counts
	// submissions that attached to an existing pipeline instead of
	// placing their own; QueriesUnsubscribed counts Unsubscribe calls;
	// SharedFanoutRows counts answer rows emitted through completion
	// fan-out tables.
	QueriesShared       int64
	QueriesUnsubscribed int64
	SharedFanoutRows    int64

	// Replication bookkeeping (see replicate.go).
	ReplUpdates         int64 // replica-update messages charged (batches × group members)
	ReplOps             int64 // state operations they carry: state.replOps per group member, snapshot entries
	ReplSyncs           int64 // full-state snapshots billed to new group members
	ReplPromotions      int64 // crashed nodes whose state a replica promoted
	ReplEntriesPromoted int64 // state entries re-indexed by those promotions
}

// add accumulates every count of o into c — the barrier merge of the
// per-shard accumulators. Addition commutes, so the
// merged totals are deterministic no matter which worker ran which
// shard.
func (c *Counters) add(o *Counters) {
	c.TuplesPublished += o.TuplesPublished
	c.TuplesReceived += o.TuplesReceived
	c.TuplesStored += o.TuplesStored
	c.TuplesCollected += o.TuplesCollected
	c.ALTTExpired += o.ALTTExpired
	c.QueriesSubmitted += o.QueriesSubmitted
	c.InputQueriesStored += o.InputQueriesStored
	c.RewritesCreated += o.RewritesCreated
	c.DeepRewrites += o.DeepRewrites
	c.RewritesStored += o.RewritesStored
	c.QueriesExpired += o.QueriesExpired
	c.AnswersDelivered += o.AnswersDelivered
	c.UnplaceableDropped += o.UnplaceableDropped
	c.RICRequests += o.RICRequests
	c.RICReplies += o.RICReplies
	c.AggPartials += o.AggPartials
	c.AggUpdates += o.AggUpdates
	c.AggStateLost += o.AggStateLost
	c.QueriesShared += o.QueriesShared
	c.QueriesUnsubscribed += o.QueriesUnsubscribed
	c.SharedFanoutRows += o.SharedFanoutRows
	c.Joins += o.Joins
	c.Leaves += o.Leaves
	c.Crashes += o.Crashes
	c.HandoverMessages += o.HandoverMessages
	c.HandoverEntries += o.HandoverEntries
	c.MessagesRerouted += o.MessagesRerouted
	c.QueriesRecovered += o.QueriesRecovered
	c.QueriesLost += o.QueriesLost
	c.RewritesLost += o.RewritesLost
	c.TuplesLost += o.TuplesLost
	c.ReplUpdates += o.ReplUpdates
	c.ReplOps += o.ReplOps
	c.ReplSyncs += o.ReplSyncs
	c.ReplPromotions += o.ReplPromotions
	c.ReplEntriesPromoted += o.ReplEntriesPromoted
}

// Engine runs RJoin over an overlay: it owns one Proc per DHT node,
// assigns query identities, publishes tuples (Procedure 1) and collects
// answers.
type Engine struct {
	Cfg      Config
	Counters Counters

	// loads holds the paper's query-processing and storage load, one
	// record per ring identifier that has held a node (see load). Only
	// coordinator context touches the map.
	loads map[id.ID]*load

	ring  *chord.Ring
	sim   *sim.Engine
	net   *overlay.Network
	procs map[id.ID]*Proc

	// subs holds one record per submitted query (see subs.go), written
	// only from coordinator context; aggLive counts the live aggregate
	// ones, so flushAggregates can leave in O(1) when there are none.
	subs    map[string]*subscription
	aggLive int

	// The sharing classes' indexes (see share.go), written only from
	// coordinator context like subs: the classes by the exact-SQL and
	// canonical-form keys they claimed.
	bySQL, byForm map[string]*shareClass

	delta    int64
	pubSeq   int64
	queryCnt int64

	// pub is PublishTuple's scratch, reused across calls: publishing
	// runs in coordinator context only, and MultiSend is done with the
	// messages and identifiers when it returns.
	pub struct {
		keys []relation.Key
		msgs []overlay.Message
		ids  []id.ID
	}

	// flushIDs is flushAggregates' list of nodes with dirty groups,
	// reused across flushes (coordinator context, like pub).
	flushIDs []id.ID

	// horizon is what the last quiescent Run saw (see state.go): only
	// drainExpired advances it, since RunUntil may stop with tuples in
	// flight.
	horizon horizon

	// obs caches Cfg.Obs for direct hot-path access. Nil unless
	// observability is enabled; every hook site nil-guards before
	// building a record, so the disabled path costs one predictable
	// branch and zero allocations. prov caches Cfg.Provenance under the
	// same discipline.
	obs  *obs.Recorder
	prov bool

	// free holds dead rewrites' entries for the next rewrites to reuse
	// (freeEntries, proc.go).
	free freeEntries

	// Accounting slots, one per logical shard like the overlay's lanes.
	// Handlers count into the slot newProc resolved for their node, and
	// Sync folds the slots into the public Counters.
	slots [sim.Shards]acctSlot
}

// load is one ring identifier's share of the paper's query-processing
// load (QPL: rewritten queries and tuples received to search local
// state) and storage load (SL: rewritten queries and tuples stored).
// The identifier's processor holds a pointer to it, and only that
// node's handlers or coordinator context write it. It outlives the
// processor: a departed node's load still counts, and a node that
// joins at the same identifier adds to it.
type load struct{ qpl, sl int64 }

// acctSlot is one accounting context of the engine.
type acctSlot struct {
	ctr Counters

	// due names, per clock, the slot's nodes with a death filed, each under
	// a value no later than its earliest (state.register): written by the
	// slot's own handlers and by coordinator-context moves, drained by
	// drainExpired.
	due [numClocks]wheel[*Proc]

	scratch scratch // its processors' trigger and placement buffers
}

// NewEngine attaches an RJoin processor to every node of the ring. The
// ring must already contain its nodes; afterwards JoinNode, LeaveNode,
// CrashNode and MoveNode are the only ways a processor is attached or
// detached, and each moves the state whose keys change owner.
func NewEngine(ring *chord.Ring, se *sim.Engine, net *overlay.Network, cfg Config) *Engine {
	e := &Engine{
		Cfg:    cfg,
		loads:  make(map[id.ID]*load),
		ring:   ring,
		sim:    se,
		net:    net,
		procs:  make(map[id.ID]*Proc),
		subs:   make(map[string]*subscription),
		bySQL:  make(map[string]*shareClass),
		byForm: make(map[string]*shareClass),
	}
	e.delta = cfg.Delta
	if cfg.Delta == 0 {
		e.delta = net.MaxDelta()
	}
	e.obs = cfg.Obs
	e.prov = cfg.Provenance
	for _, n := range ring.Nodes() {
		e.nodeJoined(n)
	}
	return e
}

// Ring exposes the underlying overlay ring.
func (e *Engine) Ring() *chord.Ring { return e.ring }

// Net exposes the messaging layer (for traffic metrics).
func (e *Engine) Net() *overlay.Network { return e.net }

// Sim exposes the event engine.
func (e *Engine) Sim() *sim.Engine { return e.sim }

// Delta returns the effective ALTT retention.
func (e *Engine) Delta() int64 { return e.delta }

// nodeJoined gives a node that joined the ring a processor, with no state.
func (e *Engine) nodeJoined(n *chord.Node) *Proc {
	p := newProc(e, n)
	e.procs[n.ID()] = p
	e.net.Attach(n, p)
	return p
}

// nodeLeft takes a departed node's processor off the overlay; its state
// is still to move (depart).
func (e *Engine) nodeLeft(n *chord.Node) {
	e.net.Detach(n)
	delete(e.procs, n.ID())
}

// Proc returns the processor of a node (tests introspect node state
// through it).
func (e *Engine) Proc(n *chord.Node) *Proc { return e.procs[n.ID()] }

// oracleRate is the simulator-level ground truth used by
// StrategyWorst: the actual current rate at the node responsible for a
// key. RJoin proper never calls this. It reads another processor's
// rate table, which is why StrategyWorst is rejected with several
// workers: a worker peeking across shards mid-round would race the owner.
func (e *Engine) oracleRate(key relation.Key, now sim.Time) float64 {
	owner := e.ring.Owner(key.ID())
	if owner == nil {
		return 0
	}
	p, ok := e.procs[owner.ID()]
	if !ok {
		return 0
	}
	return p.rate(key, now)
}

// SubmitQuery registers an input query owned by the given node, stamps
// its identity and insertion time, and indexes it in the network using
// the placement strategy. It returns the query ID answers will be
// reported under. The query must already be validated.
func (e *Engine) SubmitQuery(owner *chord.Node, q *query.Query) (string, error) {
	p, ok := e.procs[owner.ID()]
	if !ok {
		return "", fmt.Errorf("core: owner node %s has no processor", owner.ID())
	}
	if len(q.Relations) == 0 {
		return "", fmt.Errorf("core: query joins no relations")
	}
	if err := e.checkTupleGC(q); err != nil {
		return "", err
	}
	e.queryCnt++
	sq := e.free.entryOf(q)
	q = sq.q
	q.ID = fmt.Sprintf("%s#%d", owner.ID(), e.queryCnt)
	q.Owner = uint64(owner.ID())
	q.InsertTime = int64(e.sim.Now())
	q.Depth = 0
	q.MinPub = math.MaxInt64
	e.Counters.QueriesSubmitted++
	qid := q.ID
	s := e.addSub(q)
	if ob := e.obs; ob != nil {
		ob.Emit(sim.NoShard, obs.Rec{
			At: e.sim.Now(), Kind: obs.KindSubmit,
			Node: uint64(owner.ID()), QID: qid, Arg: int64(len(q.Relations)),
		})
	}
	// The query's sharing class decides what actually gets indexed: the
	// query itself (no sharing possible), a canonical full-row pipeline
	// (first member of a new equivalence class), or nothing (attached to
	// an existing pipeline's fan-out).
	if pq := e.shareSubmit(s); pq != nil {
		if pq != q {
			sq = e.free.entryOf(pq) // a canonical pipeline stands in for q
		}
		sq.pipe = s
		p.place(e.sim.Now(), sq)
	}
	// Submission runs in coordinator context, outside any handler, so
	// the replica op of the placement walk it may have started is
	// charged here rather than by the submitting node's next handler.
	p.replFlush()
	return qid, nil
}

// checkTupleGC holds a query to Config.TupleGC's promise: a stored tuple
// dies tupleReach clock values after its publication, and only a
// continuous query windowed within MaxWindowHint never needs it later.
func (e *Engine) checkTupleGC(q *query.Query) error {
	cfg := e.Cfg
	switch {
	case !cfg.TupleGC:
		return nil
	case cfg.MaxWindowHint <= 0:
		return fmt.Errorf("core: TupleGC needs MaxWindowHint > 0, have %d", cfg.MaxWindowHint)
	case q.OneTime:
		return fmt.Errorf("core: a one-time query reads the stored snapshot, which TupleGC collects")
	case !q.Window.Enabled():
		return fmt.Errorf("core: under TupleGC a continuous query needs a window of at most MaxWindowHint %d", cfg.MaxWindowHint)
	case q.Window.Size > cfg.MaxWindowHint:
		return fmt.Errorf("core: window %d exceeds MaxWindowHint %d, which TupleGC's tuple deaths assume", q.Window.Size, cfg.MaxWindowHint)
	}
	return nil
}

// tupleReach is, under Config.TupleGC, how many clock values past its
// publication a stored tuple stays reachable on each clock: 0 (never
// dies) without it. After a quiescent Run every live windowed rewrite
// has Start > h−Size, and every later one inherits or raises its
// parent's Start or starts at a later tuple's clock, so no rewrite that
// can still meet a tuple starts before h−Size+1; a stored tuple at clock
// c combines only with a Start within Size−1 of c, so it is out of reach
// once h ≥ c+2·Size−1. Windows are at most MaxWindowHint (checkTupleGC).
// A later input query needs PubTime ≥ its InsertTime ≥ h, which a dead
// tuple fails too.
func (e *Engine) tupleReach() int64 {
	if !e.Cfg.TupleGC || e.Cfg.MaxWindowHint <= 0 {
		return 0
	}
	return 2*e.Cfg.MaxWindowHint - 1
}

// PublishTuple implements Procedure 1: the publisher indexes the tuple
// under the attribute-level and value-level keys of every attribute,
// delivering all 2k messages with one grouped multiSend. The engine
// stamps publication time and sequence.
func (e *Engine) PublishTuple(publisher *chord.Node, t *relation.Tuple) {
	e.pubSeq++
	t.PubSeq = e.pubSeq
	t.PubTime = int64(e.sim.Now())
	t.Publisher = uint64(publisher.ID())
	e.Counters.TuplesPublished++
	if ob := e.obs; ob != nil {
		ob.Emit(sim.NoShard, obs.Rec{
			At: e.sim.Now(), Kind: obs.KindPublish, Node: t.Publisher,
			Pub: t.Publisher, PubSeq: t.PubSeq, Arg: t.PubSeq,
		})
	}

	attrKeys, valueKeys := t.Schema.AttrKeys(), t.AppendValueKeys(e.pub.keys[:0])
	msgs, ids := e.pub.msgs[:0], e.pub.ids[:0]
	for i := range attrKeys {
		msgs = append(msgs, newTupleMsg(t, attrKeys[i], query.AttrLevel, publisher.ID()))
		ids = append(ids, attrKeys[i].ID())
		msgs = append(msgs, newTupleMsg(t, valueKeys[i], query.ValueLevel, publisher.ID()))
		ids = append(ids, valueKeys[i].ID())
	}
	e.net.MultiSend(publisher, msgs, ids)
	clear(msgs) // the scratch keeps no message: delivery recycles them
	e.pub.keys, e.pub.msgs, e.pub.ids = valueKeys, msgs[:0], ids
}

// Sync merges the per-shard accumulators — counters and the overlay's
// traffic lanes — into the public aggregates. It runs after every drain
// and before metric reads. Must be called from coordinator context
// only.
func (e *Engine) Sync() {
	// The observability fold belongs to sync barriers: Sync runs from
	// driver context only (no handlers executing), at virtual times that
	// are a pure function of the driving program — identical for every
	// worker count — so flush batches, and with them the canonicalized
	// trace order, line up bit-for-bit across worker counts,
	// and every report is a pure function of the event timeline.
	e.obs.Flush()
	for i := range e.slots {
		s := &e.slots[i]
		e.Counters.add(&s.ctr)
		s.ctr = Counters{}
	}
	e.net.Sync()
}

// Run drains all scheduled work (message deliveries and their
// cascades) to quiescence, then flushes dirty aggregator state into
// group-update emissions and drains again until the aggregate views are
// complete. On an engine with no aggregate queries the flush loop exits
// immediately and Run behaves exactly as before aggregation existed.
// In unreliable-network mode a retransmitted message is one foreground
// delivery at its surviving attempt's arrival, so it is drained like
// any other. At every quiescent point the stored entries no tuple still
// to arrive can reach are dropped (drainExpired).
func (e *Engine) Run() {
	for {
		e.sim.Run()
		e.drainExpired()
		e.Sync()
		if !e.flushAggregates() {
			break
		}
	}
}

// drainExpired is the death wheels' drain. Nothing is in flight, so it
// records the horizon — every tuple still to arrive is published later —
// and every node the slots' due wheels name under a value the horizon
// passed drops the windowed rewrites, tuples and ALTT entries that died.
// The work is the entries due, never a scan over nodes or entries.
func (e *Engine) drainExpired() {
	e.horizon = horizon{e.pubSeq + 1, int64(e.sim.Now())}
	for i := range e.slots {
		due := &e.slots[i].due
		for c := range due {
			due[c].drain(e.horizon[c], func(_ int64, p *Proc) {
				if p.node.Alive() { // a departed node stays filed
					p.expire(e.horizon)
				}
			})
		}
	}
}

// RunUntil processes work up to the given virtual time.
func (e *Engine) RunUntil(t sim.Time) {
	e.sim.RunUntil(t)
	e.Sync()
}

// ResetMetrics zeroes the engine's load measures, event counters and
// the overlay's traffic accounting, without touching stored state or
// the virtual clock. The experiment harness calls it after a warmup
// stream so that measurements cover only the experiment proper.
func (e *Engine) ResetMetrics() {
	e.Sync() // fold pending shard deltas in so they are zeroed too
	for _, l := range e.loads {
		*l = load{}
	}
	e.Counters = Counters{}
	e.net.ResetTraffic()
	e.obs.Reset()
	e.resetLatency()
}

// Load returns the network's QPL and SL totals since the last
// ResetMetrics: the sums over every identifier that has held a node,
// departed ones included.
func (e *Engine) Load() (qpl, sl int64) {
	for _, l := range e.loads {
		qpl += l.qpl
		sl += l.sl
	}
	return qpl, sl
}

// RankedLoad returns the QPL and SL charged since the last ResetMetrics
// to every identifier that has held a node, departed ones included,
// zeros left out and each list in decreasing order: the paper's
// "ranked nodes" distributions. Their lengths are how many identifiers
// took part.
func (e *Engine) RankedLoad() (qpl, sl []int64) {
	for _, l := range e.loads {
		if l.qpl > 0 {
			qpl = append(qpl, l.qpl)
		}
		if l.sl > 0 {
			sl = append(sl, l.sl)
		}
	}
	slices.Sort(qpl)
	slices.Reverse(qpl)
	slices.Sort(sl)
	slices.Reverse(sl)
	return qpl, sl
}

// SweepALTT does nothing: a lapsed ALTT entry leaves at the first
// quiescent Run past its expiry, like every entry with a death. It is
// kept for callers that still sweep, perfbench among them.
func (e *Engine) SweepALTT() {}

// StoredState reports the stored queries, value-level tuples and ALTT
// entries held across the network (instantaneous occupancy, unlike the
// cumulative SL metric). After a Run nothing counted is dead: no query
// is a windowed rewrite past its window, no ALTT entry is past Δ and,
// under Config.TupleGC, no tuple is past its reach — those leave at
// every quiescent Run (DeadState). Without TupleGC a stored tuple never
// dies, so every tuple ever stored still counts.
func (e *Engine) StoredState() (queries, tuples, altt int) {
	for _, p := range e.procs {
		c := p.st.counts()
		queries += c.queries
		tuples += c.tuples
		altt += c.altt
	}
	return
}

// DeadState counts the stored entries nothing still to come can reach,
// by the horizon of the last quiescent Run: windowed rewrites past their
// window, tuples past their reach, ALTT entries past Δ, candidate-table
// entries past ctValidity and aggregate epochs whose views all closed and
// were flushed — each node's state.dead, which is what its drain drops.
// Every quiescent Run drops them, so it reads zero after one. A full
// scan, for tests and censuses.
func (e *Engine) DeadState() (d DeadCounts) {
	for _, p := range e.procs {
		n := p.st.dead(e.horizon)
		d = DeadCounts{d.Rewrites + n.Rewrites, d.Tuples + n.Tuples, d.ALTT + n.ALTT, d.CT + n.CT, d.Epochs + n.Epochs}
	}
	return d
}
