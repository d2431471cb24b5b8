package core

import (
	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/obs"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// storedQuery is one query waiting at a node, input (Depth 0) or
// rewritten, together with the key it is indexed under and — for
// DISTINCT queries — the projection memory of Section 4's duplicate
// elimination rule. It travels with its query from the moment the query
// is made: placement carries it, onEval fills in key and level. pipe is
// the subscription record of the QID naming the query's pipeline, set
// when the entry is made and shared by its rewrites; nil for a QID with
// no record.
type storedQuery struct {
	q     *query.Query
	key   relation.Key
	level query.Level
	seen  map[string]bool // trigger projections already used (DISTINCT)
	pipe  *subscription
}

// entry is a query allocated together with the storedQuery that will
// hold it, and with room for the query's select list and selections, so
// a rewrite and its stored entry are one allocation. The arrays fit the
// paper workload's rewrites (two select items, at most two selections);
// query.RewriteInto allocates a list that does not fit.
//
// Ownership rule: a rewrite's Select and Selections lie in its own entry
// or are shared with its depth-0 input query, never in another
// rewrite's entry, where a live child would pin a dead parent's whole
// entry. RewriteInto keeps it by copying into the entry's arrays even a
// list the substitution leaves untouched.
type entry struct {
	storedQuery
	body query.Query
	sel  [2]query.SelectItem
	sels [2]query.SelCond
}

// newEntry returns the storedQuery of a fresh entry, its q pointing at
// the entry's empty query, whose select list and selections are empty
// slices over the entry's arrays: the one constructor of what gets
// placed — rewrites fill the query with query.RewriteInto, everything
// else with entryOf.
func newEntry() *storedQuery {
	e := new(entry)
	e.q = &e.body
	e.body.Select, e.body.Selections = e.sel[:0], e.sels[:0]
	return &e.storedQuery
}

// entryOf returns a fresh entry holding a deep copy of q: input queries,
// canonical pipelines and crash-recovered placements enter the placement
// path through it.
func entryOf(q *query.Query) *storedQuery {
	sq := newEntry()
	q.CloneInto(sq.q)
	return sq
}

// pubQualifies implements the publication-time predicate of Definition
// 1: continuous queries combine tuples published at or after their
// insertion; one-time queries combine the snapshot published at or
// before it.
func pubQualifies(q *query.Query, t *relation.Tuple) bool {
	if q.OneTime {
		return t.PubTime <= q.InsertTime
	}
	return t.PubTime >= q.InsertTime
}

// alttEntry is one attribute-level tuple retained for Δ ticks (the
// attribute level tuple table of Section 4).
type alttEntry struct {
	t        *relation.Tuple
	expireAt sim.Time
}

// slot is one candidate of a placement and what is known of it: the
// candidate's key (in ricInfo.Key) and level, and — once have is set —
// the RIC report for the key.
type slot struct {
	ricInfo
	level query.Level
	have  bool
}

// pendingPlacement is a query waiting for RIC reports: one slot per
// candidate (candidate keys are distinct), missing of them still without
// a report, being fetched by walks in flight from this node — its own or
// ones it joined — and the decision completes when the last of them is
// reported. It is pooled under the messages' ownership rule
// (messages.go): it owns its inline slot array and nothing else, and
// slots lies in that array when the candidates fit, so a waiting
// placement allocates nothing once the pool is warm. onRICReply recycles
// it once its Eval is sent, a teardown sweep once it removes it; one
// that handover, promotion or crash recovery re-places falls to the
// garbage collector, as an undeliverable message does.
type pendingPlacement struct {
	sq      *storedQuery
	slots   []slot
	missing int
	inline  [3]slot
}

// newPending returns a pooled placement of sq waiting on missing of
// slots, which it copies: they are the processor's scratch.
func newPending(sq *storedQuery, slots []slot, missing int) *pendingPlacement {
	pp := pendingPool.Get().(*pendingPlacement)
	pp.sq, pp.missing = sq, missing
	pp.slots = append(pp.inline[:0], slots...)
	return pp
}

// recycle returns the placement to the pool with every field zero but
// its slots, emptied onto the inline array, so the pool keeps no query
// or key alive.
func (pp *pendingPlacement) recycle() {
	*pp = pendingPlacement{}
	pp.slots = pp.inline[:0]
	pendingPool.Put(pp)
}

// misses reports whether the placement still has no report for a
// candidate key.
func (pp *pendingPlacement) misses(key relation.Key) bool {
	for i := range pp.slots {
		if pp.slots[i].Key == key {
			return !pp.slots[i].have
		}
	}
	return true
}

// fill records the report for one of the placement's missing keys and
// reports whether it was the last one missing.
func (pp *pendingPlacement) fill(info ricInfo) bool {
	for i := range pp.slots {
		if s := &pp.slots[i]; s.Key == info.Key && !s.have {
			s.ricInfo, s.have = info, true
			pp.missing--
		}
	}
	return pp.missing == 0
}

// Proc is the RJoin processor running at one DHT node: the local query
// store, tuple store, ALTT, rate statistics and candidate table, plus
// the message handlers of Procedures 2 and 3.
//
// shard, ctr, ld and sc are where the processor's handlers run, count
// and build, all derived from the node's identifier by newProc. ctr
// points at the node's shard accumulator, which only the worker
// currently executing that shard touches, and which Engine.Sync merges
// at the next barrier. ld is the identifier's own load record,
// which nothing but this node's handlers and coordinator context writes.
type Proc struct {
	eng  *Engine
	node *chord.Node

	shard int       // logical shard
	ctr   *Counters // event-count slot
	ld    *load     // the identifier's QPL and SL
	rng   *sim.RNG  // placement draws

	// st is every piece of state the node keeps on behalf of the keys it
	// owns and the placements it has in flight (see state.go); handlers
	// read its maps directly and write them only through its mutators.
	st *state

	sc *scratch // the trigger and placement path's buffers, its slot's
}

// scratch holds the buffers the trigger and placement path builds in:
// the candidates, slots and walk keys of the placement being decided,
// the DISTINCT projection of the trigger being checked, the row its
// completion produced, a shared pipeline's per-subscriber projection
// of that row and the text of an aggregate row's aggregator key. One
// set serves an accounting slot's processors: a shard's handlers run
// one at a time whatever the worker count, and coordinator-context
// placements run between drains, so no two calls share it at once.
// What outlives a call — a waiting placement, a walk, the piggy-backed
// reports, an answer or partial row (copied into its message's own
// buffer), an aggregator key (interned) — is copied out of it.
//
// row is held for longer than one call: a completion's vals alias it
// through the whole of complete, the shared fan-out and its containment
// replays included. Nothing reached from there may call trigger, which
// writes row, or keep vals after returning. fan is written only by the
// fan-out's subscriber loop, which a containment replay's own fan-out
// may reenter only after the outer loop is done with it.
type scratch struct {
	cands []query.Candidate
	slots []slot
	walk  []relation.Key
	proj  []byte
	row   []relation.Value
	fan   []relation.Value
	akey  []byte
}

// newProc builds the processor of a ring handle: the node it acts as,
// the shard its handlers run on, the accounting slot they count into
// and the identifier's load record — created here, or the one an
// earlier holder of the identifier left. A processor never changes
// handle — a node that moves identifier leaves and joins, and the
// joiner is a fresh Proc.
func newProc(eng *Engine, node *chord.Node) *Proc {
	p := &Proc{eng: eng, node: node, shard: sim.ShardOfID(uint64(node.ID())), st: newState()}
	p.rng = sim.NewRNG(eng.sim.Seed(), uint64(node.ID()), 0x91ac)
	s := &eng.slots[p.shard]
	p.ctr, p.sc = &s.ctr, &s.scratch
	p.ld = eng.loads[node.ID()]
	if p.ld == nil {
		p.ld = new(load)
		eng.loads[node.ID()] = p.ld
	}
	p.st.due = func(c clock, at int64) { s.due[c].add(at, p) }
	p.st.reach = eng.tupleReach
	p.st.hz = &eng.horizon
	return p
}

// HandleMessage dispatches overlay deliveries. The pooled message
// kinds are recycled once their handler returns (each type's recycle
// method, messages.go) — handlers copy out everything they retain.
// Keyed messages that arrive at a node that no longer owns their key
// (the key moved while they were in flight) are re-routed before any
// processing, and are not recycled on that path: they are still in
// flight. Handlers that mutate state leave their replica ops counted in
// it; the trailing replFlush charges them to every replica target, so
// no replica update is ever outstanding between events.
func (p *Proc) HandleMessage(now sim.Time, msg overlay.Message) {
	switch m := msg.(type) {
	case *tupleMsg:
		if p.reroute(m.Key, m) {
			return
		}
		p.onTuple(now, m)
		m.recycle()
	case *evalMsg:
		if p.reroute(m.Key, m) {
			return
		}
		p.onEval(now, m)
		m.recycle()
	case *answerMsg:
		p.eng.recordAnswer(now, m, p)
		m.recycle()
	case *aggPartialMsg:
		if p.reroute(m.Key, m) {
			return
		}
		p.onAggPartial(now, m)
		m.recycle()
	case *aggUpdateMsg:
		p.eng.recordAggUpdate(now, m, p)
		m.recycle()
	case *ricRequestMsg:
		p.onRICRequest(now, m) // forwards the walk, or recycles it as the reply
	case *ricReplyMsg:
		p.onRICReply(now, m)
		m.recycle()
	}
	p.replFlush()
}

// reroute forwards a keyed message that was delivered to a live node
// that no longer owns its key — a membership change moved the key while
// the message was in flight (the overlay's bounce path covers dead
// recipients; this covers live ones). Routing is exact, so the forward
// reaches the key's current owner; a message is never processed
// elsewhere. Returns true when the message was forwarded.
func (p *Proc) reroute(key relation.Key, m overlay.Message) bool {
	if p.ownsKey(key) {
		return false
	}
	p.ctr.MessagesRerouted++
	p.eng.net.Send(p.node, key.ID(), m)
	return true
}

// nid is the node's 64-bit identity as trace events carry it.
func (p *Proc) nid() uint64 { return uint64(p.node.ID()) }

// profTrigger attributes one trigger outcome — a rewrite step, or a
// chain completion when the rewrite it produced has no relations left
// to join — to the (pipeline query, placement key) that performed it.
// Nil-guarded like every observability hook.
func (p *Proc) profTrigger(now sim.Time, sq *storedQuery, left int) {
	if ob := p.eng.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindTrigger, QID: sq.q.ID, Key: sq.key.String(), Arg: int64(left)})
	}
}

// stateSizeOf estimates the retained bytes of one stored query copy:
// the struct header plus its clause and select lists. A fixed counting
// rule rather than a measurement, so the estimate is identical across
// worker counts and Go versions.
func stateSizeOf(q *query.Query) int64 {
	return 112 +
		16*int64(len(q.Relations)) +
		48*int64(len(q.Select)) +
		32*int64(len(q.Joins)) +
		40*int64(len(q.Selections))
}

// profStateDrop debits a removed stored query's estimated footprint
// from its placement counter and the query's state-footprint series.
func (p *Proc) profStateDrop(now sim.Time, sq *storedQuery) {
	if ob := p.eng.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindStateDrop, QID: sq.q.ID, Key: sq.key.String(), N: -stateSizeOf(sq.q)})
	}
}

// rate returns the node's current RIC estimate for a key.
func (p *Proc) rate(key relation.Key, now sim.Time) float64 {
	st, ok := p.st.stats[key]
	if !ok {
		return 0
	}
	return st.rate(now, ricWindow)
}

// ownsKey reports whether this node is Successor(Hash(key)): whether
// the key lies in (predecessor, node]. The key's ring identifier is
// cached and the predecessor pointer is exact, so this is pure interval
// arithmetic.
func (p *Proc) ownsKey(key relation.Key) bool {
	return id.BetweenRightIncl(key.ID(), p.node.Predecessor().ID(), p.node.ID())
}

// onTuple is Procedure 2: a node receives newTuple(t, Key, Level).
// Stored queries under the delivery key are triggered and rewritten; at
// value level the tuple is then stored, at attribute level it enters
// the ALTT for Δ ticks.
func (p *Proc) onTuple(now sim.Time, m *tupleMsg) {
	p.st.recordArrival(m.Key, now, ricWindow)
	p.ld.qpl++
	p.ctr.TuplesReceived++
	if ob := p.eng.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{
			At: now, Kind: obs.KindTupleArrive, Node: p.nid(),
			Pub: uint64(m.Publisher), PubSeq: m.T.PubSeq,
			Key: m.Key.String(), Arg: int64(m.Level),
		})
	}

	p.st.filterQueries(m.Key, func(sq *storedQuery) bool {
		// Section 5 rule: a rewritten query found outside its window
		// when triggered is deleted. Every quiescent Run drops those
		// dead by the horizon; this still meets the others — one passed
		// since (RunUntil stops short of quiescence), or one a tuple
		// overtaking an earlier-published tuple closes early.
		if sq.q.Depth > 0 && sq.q.Window.Enabled() && !sq.q.Window.Valid(sq.q.Start, sq.q.Window.Clock(m.T)) {
			p.ctr.QueriesExpired++
			p.profStateDrop(now, sq)
			return false
		}
		p.trigger(now, sq, m.T, false)
		return true
	})

	if m.Level == query.ValueLevel {
		p.storeTuple(m.Key, m.T)
		if ob := p.eng.obs; ob != nil {
			ob.Emit(p.shard, obs.Rec{
				At: now, Kind: obs.KindTupleStore, Node: p.nid(),
				Pub: uint64(m.Publisher), PubSeq: m.T.PubSeq,
				Key: m.Key.String(),
			})
		}
	} else if p.eng.delta >= 0 {
		p.st.addALTT(m.Key, alttEntry{t: m.T, expireAt: now + sim.Time(p.eng.delta)})
		if ob := p.eng.obs; ob != nil {
			ob.Emit(p.shard, obs.Rec{
				At: now, Kind: obs.KindALTTStore, Node: p.nid(),
				Pub: uint64(m.Publisher), PubSeq: m.T.PubSeq,
				Key: m.Key.String(), Arg: int64(p.eng.delta),
			})
		}
	}
}

// trigger applies one tuple to one stored query: the semantic checks
// (publication order, window validity, DISTINCT projection), the rewrite
// itself, and dispatch of the result. It serves both sites — an arriving
// tuple meeting a waiting query (Procedure 2) and, with stored set, a
// just-arrived query meeting a locally stored tuple (Procedure 3's loop)
// — which differ in the Section 5 window rules alone. An arriving tuple
// that finds a rewritten query outside its window deletes it, which
// onTuple has done before calling; a stored tuple outside the window is
// skipped and the query kept. A rewritten query's rewrite inherits the
// window start (rule 2) unless the tuple was stored, when it starts at
// max(start, clock) (rule 3); an input query's rewrite starts at the
// tuple's clock either way (rule 1).
func (p *Proc) trigger(now sim.Time, sq *storedQuery, t *relation.Tuple, stored bool) {
	q := sq.q
	if !pubQualifies(q, t) {
		return
	}
	clock := q.Window.Clock(t)
	if stored && q.Depth > 0 && q.Window.Enabled() && !q.Window.Valid(q.Start, clock) {
		return
	}
	// The DISTINCT rule: a tuple may trigger the query only if its
	// projection over the attributes the query references has not
	// triggered it before.
	var proj []byte
	if q.Distinct {
		proj = q.AppendProjection(p.sc.proj[:0], t)
		p.sc.proj = proj
		if sq.seen[string(proj)] {
			return
		}
	}
	if len(q.Relations) == 1 {
		// The final rewriting step: substitution completes the query, so
		// the row is produced without materialising the child. A completed
		// query never consults its window again, so no start is derived.
		vals, ok := query.AppendComplete(p.sc.row[:0], q, t)
		if !ok {
			return
		}
		p.sc.row = vals
		p.consume(sq, proj)
		p.profTrigger(now, sq, 0)
		p.countRewrite(q.Depth + 1)
		p.complete(now, sq, q.Depth+1, completion{
			vals: vals, clock: max(clock, q.AggClock), minPub: min(t.PubTime, q.MinPub),
			pubAt: t.PubTime, lin: p.lineage(q, t),
		})
		return
	}
	sq2 := newEntry()
	if !query.RewriteInto(sq2.q, q, t) {
		return
	}
	sq2.pipe = sq.pipe
	q2 := sq2.q
	q2.Start = clock
	if q.Depth > 0 {
		q2.Start = q.Start
		if stored && clock > q2.Start {
			q2.Start = clock
		}
	}
	q2.AggClock = max(q2.AggClock, clock)
	q2.MinPub = min(q2.MinPub, t.PubTime)
	q2.Lineage = p.lineage(q, t)
	p.consume(sq, proj)
	p.profTrigger(now, sq, len(q2.Relations))
	p.dispatch(now, sq2)
}

// lineage extends q's provenance by the step of consuming t here; nil
// unless Config.Provenance is set.
func (p *Proc) lineage(q *query.Query, t *relation.Tuple) []query.LineageStep {
	if !p.eng.prov {
		return nil
	}
	return query.AppendLineage(q.Lineage, query.LineageStep{Pub: t.Publisher, Seq: t.PubSeq, Node: p.nid()})
}

// completion is one completed row leaving the join pipeline. vals may
// be the slot's scratch (scratch.row): it is read, never kept.
type completion struct {
	vals   []relation.Value
	clock  int64 // completion clock: max window-clock over the combined tuples; assigns the epoch
	minPub int64 // min publication time over the combined tuples: the fan-out's insertion-time filter
	pubAt  int64 // publication time of the triggering tuple, for the latency measurement
	lin    []query.LineageStep
}

// complete is what happens to a query whose WHERE clause has become
// true, and the only place it happens: the chain's depth is observed and
// traced, then the row leaves through the fan-out on sq's pipeline
// record — a query nothing shares with is a class of one, its own single
// subscriber. A torn-down pipeline, or a QID with no record, has nobody
// listening. depth is the completed chain's length. Whether a tuple met
// a stored query or a query met a stored tuple, the trace event is the
// same, which keeps the trace multiset schedule-independent when both
// reach a node on the same tick (they fire in engine-dependent order,
// but exactly one fires either way).
func (p *Proc) complete(now sim.Time, sq *storedQuery, depth int, c completion) {
	if ob := p.eng.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindComplete, Node: p.nid(), QID: sq.q.ID, Arg: int64(depth)})
	}
	if sq.pipe != nil && sq.pipe.cls != nil {
		p.fanoutComplete(now, sq.pipe.cls, c)
	}
}

// countRewrite counts one rewriting step producing a query of the given
// depth.
func (p *Proc) countRewrite(depth int) {
	p.ctr.RewritesCreated++
	if depth >= 2 {
		p.ctr.DeepRewrites++
	}
}

// consume records the memory a successful trigger leaves on the stored
// query: the DISTINCT projection it used up.
func (p *Proc) consume(sq *storedQuery, proj []byte) {
	if sq.q.Distinct {
		p.st.trigger(sq, string(proj))
	}
}

// storeTuple stores a value-level tuple, counted as storage load. Under
// Config.TupleGC the store files it under its death (state.addTuple).
func (p *Proc) storeTuple(key relation.Key, t *relation.Tuple) {
	p.st.addTuple(key, t)
	p.ld.sl++
	p.ctr.TuplesStored++
}

// expire is this node's share of the death drain (state.expire).
func (p *Proc) expire(h horizon) {
	now := p.eng.sim.Now()
	n := p.st.expire(h, func(sq *storedQuery) { p.profStateDrop(now, sq) })
	p.ctr.QueriesExpired += int64(n.Rewrites)
	p.ctr.TuplesCollected += int64(n.Tuples)
	p.ctr.ALTTExpired += int64(n.ALTT)
}

// onEval is Procedure 3 (and the input-query indexing step): the node
// stores the query, then matches it against locally stored tuples —
// the value-level store for value-level keys, the ALTT for
// attribute-level keys (the Section 4 completeness rule, which also
// covers rewritten queries placed at attribute level per Section 6).
func (p *Proc) onEval(now sim.Time, m *evalMsg) {
	for _, info := range m.RIC {
		p.st.ctMerge(info)
	}
	sq, q := m.SQ, m.SQ.q
	if sq.tornDown() {
		return // torn-down pipeline: never re-index stragglers
	}
	if ob := p.eng.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{
			At: now, Kind: obs.KindEval, Node: p.nid(),
			QID: q.ID, Key: m.Key.String(), Arg: int64(q.Depth),
		})
	}
	sq.key, sq.level = m.Key, m.Level
	if q.OneTime {
		// One-time queries keep no standing state: all qualifying
		// tuples were published before submission, so scanning the
		// local stores suffices and nothing waits for the future.
		if q.Depth > 0 {
			p.ld.qpl++
		}
	} else {
		p.st.addQuery(sq)
		if ob := p.eng.obs; ob != nil {
			ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindStateStore, QID: q.ID, Key: m.Key.String(), N: stateSizeOf(q)})
		}
		if q.Depth > 0 {
			p.ld.qpl++
			p.ld.sl++
			p.ctr.RewritesStored++
		} else {
			p.ctr.InputQueriesStored++
		}
	}

	if m.Level == query.ValueLevel {
		for _, t := range p.st.tuples[m.Key] {
			p.trigger(now, sq, t, true)
		}
	} else {
		for _, e := range p.st.alttScan(m.Key, now) {
			p.trigger(now, sq, e.t, true)
		}
	}
}

// dispatch routes a freshly created rewrite: contradictory queries are
// discarded; everything else is indexed at the node the placement
// strategy selects. A rewrite that reaches it still has a relation to
// join — trigger completes a one-relation query through
// query.AppendComplete, and a containment child's relations strictly
// contain its parent's.
func (p *Proc) dispatch(now sim.Time, sq *storedQuery) {
	q2 := sq.q
	p.countRewrite(q2.Depth)
	if ob := p.eng.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindRewrite, Node: p.nid(), QID: q2.ID, Arg: int64(q2.Depth)})
	}
	if q2.Contradictory() {
		return
	}
	p.place(now, sq)
}

// place implements nextKey(): choose the index candidate for a query
// according to the engine's strategy and send the Eval message. The
// candidates are enumerated into the processor's scratch.
func (p *Proc) place(now sim.Time, sq *storedQuery) {
	q := sq.q
	cands := q.AppendCandidates(p.sc.cands[:0])
	p.sc.cands = cands
	if q.Depth > 0 {
		// Section 3's rule: rewritten queries are indexed at value
		// level. An attribute-level node keeps only Δ of tuple history
		// (the ALTT), so a rewrite anchored there out of publication
		// order could miss older tuples; a value-level store keeps every
		// tuple a live rewrite can still combine with — all of them
		// without TupleGC, each for 2·MaxWindowHint−1 on both clocks
		// under it. Attribute level is the fallback only for a rewrite
		// with no value-level candidate. The candidates are the
		// scratch's, so filter them in place.
		vcands := cands[:0]
		for _, c := range cands {
			if c.Level == query.ValueLevel {
				vcands = append(vcands, c)
			}
		}
		if len(vcands) > 0 {
			cands = vcands
		}
	}
	if len(cands) == 0 {
		p.ctr.UnplaceableDropped++
		return
	}
	switch p.eng.Cfg.Strategy {
	case StrategyRandom:
		c := cands[p.rng.Intn(len(cands))]
		p.sendEval(newEvalMsg(sq, c.Key, c.Level), false)
	case StrategyWorst:
		best := cands[0]
		bestRate := p.eng.oracleRate(best.Key, now)
		for _, c := range cands[1:] {
			if r := p.eng.oracleRate(c.Key, now); r > bestRate {
				best, bestRate = c, r
			}
		}
		p.sendEval(newEvalMsg(sq, best.Key, best.Level), false)
	default: // StrategyRIC
		p.placeRIC(now, sq, cands)
	}
}

// placeRIC is Sections 6–7: consult the candidate table for fresh RIC
// info, poll only unknown candidates with a chained RIC request, and on
// reply index the query at the candidate with the lowest predicted
// rate, directly (one hop) because the reply carried its address.
//
// Walks are single-flight per candidate key: a key some pending
// placement of this node already waits on is being fetched, so the
// placement waits for that report instead of asking again — one tuple
// triggering several stored queries under one key binds the same value
// into each rewrite, and the table learns it only when the first reply
// lands ticks later. Only the keys nobody is fetching are walked; a
// placement with none left to walk sends nothing. That is a property of
// the walk, not of the table.
//
// The slots and walk keys are built in the processor's scratch; a
// placement that must wait copies its slots into a pooled
// pendingPlacement's own array, and the walk's keys go into the pooled
// request.
func (p *Proc) placeRIC(now sim.Time, sq *storedQuery, cands []query.Candidate) {
	slots, walk := p.sc.slots[:0], p.sc.walk[:0]
	missing := 0
	ob := p.eng.obs
	for _, c := range cands {
		s := slot{ricInfo: ricInfo{Key: c.Key}, level: c.Level}
		if e, ok := p.st.ct.fresh(c.Key, now, ctValidity); ok {
			s.ricInfo, s.have = ricInfo{Key: c.Key, Rate: e.Rate, Addr: e.Addr, At: e.At}, true
			if ob != nil {
				ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindCTHit, Node: p.nid(), QID: sq.q.ID, Key: c.Key.String()})
			}
		} else if ob != nil {
			ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindCTMiss, Node: p.nid(), QID: sq.q.ID, Key: c.Key.String()})
		}
		if !s.have {
			missing++
			if !p.st.inFlight(c.Key) {
				walk = append(walk, c.Key)
			}
		}
		slots = append(slots, s)
	}
	p.sc.slots, p.sc.walk = slots, walk
	if missing == 0 {
		p.decide(sq, slots)
		return
	}
	p.st.lastReq++
	p.st.addPending(p.st.lastReq, newPending(sq, slots, missing))
	if len(walk) == 0 {
		if ob != nil {
			ob.Emit(p.shard, obs.Rec{
				At: now, Kind: obs.KindRICJoin, Node: p.nid(),
				QID: sq.q.ID, Arg: int64(missing),
			})
		}
		return
	}
	// Visit them in clockwise ring order from here (the "optimal order
	// to contact these nodes").
	from := p.node.ID()
	id.SortByDist(walk, func(k *relation.Key) uint64 { return id.Dist(from, k.ID()) })
	p.ctr.RICRequests++
	if ob != nil {
		ob.Emit(p.shard, obs.Rec{
			At: now, Kind: obs.KindRICWalk, Node: p.nid(),
			QID: sq.q.ID, Key: walk[0].String(), Arg: int64(len(walk)),
		})
	}
	req := newRICRequestMsg(p.node.ID(), walk)
	p.eng.net.WithTag(p.node, overlay.TagRIC, func() {
		p.eng.net.Send(p.node, walk[0].ID(), req)
	})
}

// onRICRequest handles one step of the chained walk: report the rate
// for every pending key this node is responsible for, then forward the
// walk or return the collected reports to the origin. The request
// travels as one message from hop to hop; at its last hop it is recycled
// and its reports go back in a pooled reply.
func (p *Proc) onRICRequest(now sim.Time, m *ricRequestMsg) {
	// The message was addressed to Hash(Pending[0]), so this node owns
	// at least that key; it may own later pending keys too.
	reported := false
	for len(m.Pending) > 0 && (!reported || p.ownsKey(m.Pending[0])) {
		key := m.Pending[0]
		m.Pending = m.Pending[1:]
		m.Got = append(m.Got, ricInfo{Key: key, Rate: p.rate(key, now), Addr: p.node.ID(), At: now})
		reported = true
	}
	if len(m.Pending) > 0 {
		p.eng.net.WithTag(p.node, overlay.TagRIC, func() {
			p.eng.net.Send(p.node, m.Pending[0].ID(), m)
		})
		return
	}
	reply := newRICReplyMsg(m.Origin, m.Got)
	m.recycle()
	p.eng.net.WithTag(p.node, overlay.TagRIC, func() {
		p.eng.net.SendDirect(p.node, reply.Origin, reply)
	})
}

// onRICReply resolves a walk's reply by key, not by walk: every report
// is merged into the candidate table and handed to each placement
// waiting on its key — the one that walked and the ones that joined
// alike — and a placement decides as soon as its last missing report
// arrives. A report nobody waits for (its placement was torn down, or
// restarted elsewhere: a leave or a crash restarts an origin's walks at
// the node that takes over its identifier, so a reply bounced there
// either finds them waiting or only feeds the table) is still a report.
func (p *Proc) onRICReply(now sim.Time, m *ricReplyMsg) {
	p.ctr.RICReplies++
	for _, info := range m.Got {
		p.st.ctMerge(info)
		for _, reqID := range p.st.report(info) {
			pp := p.st.pending[reqID]
			p.st.removePending(reqID)
			p.decide(pp.sq, pp.slots)
			pp.recycle()
		}
	}
}

// decide picks the candidate with the lowest predicted rate (ties
// resolve to clause order, which is deterministic) and sends the query
// there in one hop: it runs only once every slot holds its report, so
// the candidate's address is known.
func (p *Proc) decide(sq *storedQuery, slots []slot) {
	best := &slots[0]
	for i := range slots[1:] {
		s := &slots[1+i]
		// Strictly lower rate wins; ties prefer value level, which
		// distributes load better (Section 3).
		if s.Rate < best.Rate || s.Rate == best.Rate && best.level == query.AttrLevel && s.level == query.ValueLevel {
			best = s
		}
	}
	msg := newEvalMsg(sq, best.Key, best.level)
	// Every report concerns a candidate key (CT hits come from the
	// candidate scan, walk replies cover exactly the unknown
	// candidates), so the piggy-backed set (Section 7) is the reports
	// themselves, copied into the message: the slots may be scratch.
	// Receivers only merge it into their candidate tables, which is
	// order-insensitive.
	for i := range slots {
		msg.RIC = append(msg.RIC, slots[i].ricInfo)
	}
	p.sendEval(msg, true)
}

// sendEval ships the Eval message: directly when the target's address
// is known (the RIC reply contains candidate IPs), routed otherwise.
func (p *Proc) sendEval(msg *evalMsg, direct bool) {
	if direct {
		// The candidate table holds the address: a CT hit was read from
		// it, and onRICReply merges every report before handing it on.
		// The address may be stale (node left); fall back to routing.
		e, _ := p.st.ct.get(msg.Key)
		if tgt := p.eng.ring.Node(e.Addr); tgt != nil && p.stillOwns(tgt.ID(), msg.Key) {
			p.eng.net.SendDirect(p.node, tgt.ID(), msg)
			return
		}
	}
	p.eng.net.Send(p.node, msg.Key.ID(), msg)
}

// stillOwns verifies a cached address still owns the key before sending
// directly.
func (p *Proc) stillOwns(addr id.ID, key relation.Key) bool {
	owner := p.eng.ring.Owner(key.ID())
	return owner != nil && owner.ID() == addr
}
