package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"rjoin/internal/agg"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// This file is the keyed-state store: the one place that writes the
// seven state classes a processor holds, and the one vocabulary —
// stateOp — every mechanism that moves, counts or deletes that state
// speaks. A membership move — leave, join, crash promotion — feeds
// each() over a filter to the heir's apply() (Engine.move), which
// installs every entry: the heir holds none of the keys it receives
// (I3), so nothing is merged, and an install at a held key panics. A
// departure nobody inherits feeds it to recovery, which charges what it
// cannot re-index through stateOp.chargeLost; teardown hands drop() each
// entry a record lists (Engine.release); and what dies by the clock —
// windowed rewrites, ALTT entries, stored tuples under Config.TupleGC,
// candidate-table entries, windowed aggregate epochs — is filed on a
// death wheel at its add mutator and dropped by expire() (a dirty epoch
// at the flush that follows), which dead() counts. Live
// replication is a charge, not a copy: every mutator a backup would
// have to see adds one to the state's op count, and replFlush bills it
// (see replicate.go).
//
// Aliasing rule. An op yielded by each() or handed to a mutator aliases
// live objects (the stored query, the aggregator group, the pending
// placement). Every consumer of one *moves* the entry, and the source
// forgets it (dropKey, or being discarded) before it is touched again.
// Nothing copies state, so nothing has to own a second copy of a
// mutable part. Queries and tuples themselves are immutable once stored
// and are always shared; a rewrite's entry, its query with it, is reused
// only once no state, walk, message or record holds it (freeEntries).
//
// Ownership rule. Every stored query, placement walk and aggregator
// group is listed on its record (subscription.enlist) while a state
// holds it. The mutators here write the maps alone: the code that
// decides an entry's fate — the handlers, move, teardown — writes the
// lists, and a move, which installs the same object at the heir,
// leaves them as they are.
//
// Adding a state class: one class bit, one op kind, one arm each in
// each(), apply() and (if it can be lost) chargeLost(), and — if a
// replica keeps it — its entries in stateCounts.mirrored() and a
// replOps count in each of its mutators, plus one row in
// state_test.go's charge table. If its entries die by the clock: one
// row in mortals per clock they die on, a file() call in its add
// mutator, one arm in expire()'s prune switch and one count in dead(),
// and Engine.expired keeps a dead entry from moving.

// class is a bit set over the state classes, in each()'s visiting order.
type class uint8

const (
	classQueries class = 1 << iota // stored queries, both levels
	classTuples                    // value-level tuple store
	classALTT                      // attribute-level tuple table
	classStats                     // per-key arrival-rate statistics
	classAggs                      // aggregator groups
	classCT                        // candidate table (node-bound)
	classPending                   // in-flight placement walks (node-bound)

	// classKeyed is what ownership of a key carries with it; the
	// node-bound classes follow the node, never a key.
	classKeyed = classQueries | classTuples | classALTT | classStats | classAggs
	// classMirrored is what a replica holds. Rate statistics are not
	// mirrored: they are estimates a promotee re-learns in one epoch.
	classMirrored = classQueries | classTuples | classALTT | classAggs | classCT | classPending
	classAll      = classKeyed | classCT | classPending
)

// opKind names an entry's class: one kind per class, in each()'s
// visiting order.
type opKind uint8

const (
	opAddQuery opKind = iota
	opAddTuple
	opAddALTT
	opAddStat
	opAddAgg
	opCT
	opAddPending
	numOpKinds
)

// stateOp is one state entry in transit: what each() yields and apply()
// installs. It is a union struct: only the fields of its kind are set.
type stateOp struct {
	kind opKind
	key  relation.Key

	sq *storedQuery // opAddQuery

	t        *relation.Tuple // opAddTuple, opAddALTT
	expireAt sim.Time        // opAddALTT

	stat rateStat // opAddStat

	g *aggGroup // opAddAgg: a whole group

	info ricInfo // opCT

	pp *pendingPlacement // opAddPending
}

// stored returns the stored query a stored-query or pending-placement
// entry carries, nil for every other kind.
func (op stateOp) stored() *storedQuery {
	if op.pp != nil {
		return op.pp.sq
	}
	return op.sq
}

// delist takes the entry off its record's list: it leaves every state.
func (op stateOp) delist() {
	switch op.kind {
	case opAddQuery:
		op.sq.pipe.delist(op.sq)
	case opAddPending:
		op.pp.sq.pipe.delist(op.pp)
	case opAddAgg:
		op.g.sub.delist(op.g)
	}
}

// chargeLost charges one entry that disappears with nobody to inherit
// it (Engine.recover) to the loss counters. Rate statistics and
// candidate-table entries are soft state and are never lost.
func (op stateOp) chargeLost(ctr *Counters) {
	switch op.kind {
	case opAddQuery, opAddPending:
		if op.stored().q.Depth == 0 {
			ctr.QueriesLost++
		} else {
			ctr.RewritesLost++
		}
	case opAddTuple, opAddALTT:
		ctr.TuplesLost++
	case opAddAgg:
		ctr.AggStateLost += op.g.epochCount()
	}
}

// state holds one node's RJoin state: a processor's live stores.
type state struct {
	queries map[relation.Key][]*storedQuery    // by index key, both levels
	tuples  map[relation.Key][]*relation.Tuple // value-level tuple store
	altt    map[relation.Key][]alttEntry       // expiry-ordered per key
	stats   map[relation.Key]*rateStat
	aggs    map[relation.Key]*aggGroup // aggregator state by group key
	ct      *candidateTable
	pending map[int64]*pendingPlacement
	// lastReq is the id of the last placement this node began: ids rise
	// in issue order, which is all each's pending order relies on, and
	// never leave the node (a reply is resolved by key, a move restarts
	// the walk under a fresh id).
	lastReq int64

	// waiting is pending inverted: under every candidate key some pending
	// placement still has no report for, the ids of those placements in
	// the order they began to wait. It is what makes a walk single-flight
	// (a placement that misses a key found here waits for the walk already
	// fetching it) and what a reply is resolved by. Derived state: only
	// addPending, removePending and report write it and no op names it,
	// so apply rebuilds it, and a move, which restarts walks, by place.
	waiting map[relation.Key][]int64

	// rewrites files every windowed rewrite by identity under the value
	// at which it dies on its clock (deathOf), so its drain finds the dead
	// without looking at the live rewrites of its key. wheels files the
	// other mortal entries by key, one wheel per row of mortals: a tuple
	// stored under a reach at its death on the sequence clock
	// (tupleDeath) — and, once a drain found that passed but not its
	// death on time, at that one on the time clock; an ALTT entry at the
	// first instant past its expiry; a candidate-table key at its entry's
	// death (ctDeath) when it enters the table — a refresh moves the death
	// later, and the drain that finds the filing passed files the key
	// again at the current one; an aggregator group's key at the death of
	// each of its epochs on the window's clock (epochDeath) when the epoch
	// enters the state. Derived state like waiting: only the add mutators
	// and expire write them and no op names them, so apply rebuilds them.
	// An item whose entry left another way — deleted by a trigger out of
	// window, torn down, its key moved — stays filed, and its drain finds
	// nothing to drop: a rewrite's entry may be alive again by then as
	// another rewrite (freeEntries), even here, so its filing names the
	// life it was filed in (filedRewrite).
	rewrites [numClocks]wheel[filedRewrite]
	wheels   [len(mortals)]wheel[relation.Key]

	// hz is the horizon of the engine's last quiescent Run
	// (Engine.horizon): which aggregate views are still open, and which
	// epochs a flush may drop. Nil: none passed.
	hz *horizon

	// reach returns how many clock values past its publication a stored
	// tuple stays reachable, on each clock (Engine.tupleReach); read when
	// a tuple is filed and when it is drained. Nil or 0: tuples never die.
	reach func() int64

	// due files the node in its accounting slot's due wheel, so the engine
	// finds it when its earliest death falls due; dueAt is, per clock, the
	// value it is filed under there (notDue: nowhere), never later than
	// its earliest death on that clock. expire files it afresh once that
	// value passed.
	due   func(c clock, at int64)
	dueAt [numClocks]int64

	// spareQueries, spareTuples, spareALTT and spareWaiting hold the
	// arrays of emptied lists for the next keys to start one: under the
	// drain, keys empty and refill every few ticks, and so do the keys
	// walks are in flight for; a fresh array each time would be their
	// steady-state allocation. ready is report's result, reused call to
	// call.
	spareQueries spares[*storedQuery]
	spareTuples  spares[*relation.Tuple]
	spareALTT    spares[alttEntry]
	spareWaiting spares[int64]
	ready        []int64

	// spareParts holds emptied aggregate partials (agg.Partial.Reset) for
	// the next (group, epoch) to start one (newPartial): a tumbling epoch
	// dies and the next one opens every window. Only this state's own
	// prunes feed it — the flush's (flushDirty) and the drain's (expire);
	// the groups of a departing node are pruned without it — so it never
	// holds more partials than this node pruned and has not reused since.
	// The node's state is written only by its own shard's sub-round and by
	// the coordinator between sub-rounds, so it needs no lock.
	spareParts []agg.Partial

	// dirtyAggs is the set of aggregator keys whose group holds epochs
	// marked since its last flush: {k : len(aggs[k].dirty) > 0}, so a
	// flush visits what changed instead of every group. flushKeys is the
	// flush's buffer for ordering them, reused flush to flush.
	dirtyAggs map[relation.Key]struct{}
	flushKeys []relation.Key

	// replOps counts the mutations since the last replFlush that a replica
	// would have to apply — the op stream a primary-backup protocol
	// ships, which replFlush charges as ReplOps. The death drain, reports
	// and the derived indexes are local and uncounted.
	replOps int
}

func newState() *state {
	return &state{
		queries: make(map[relation.Key][]*storedQuery),
		tuples:  make(map[relation.Key][]*relation.Tuple),
		altt:    make(map[relation.Key][]alttEntry),
		stats:   make(map[relation.Key]*rateStat),
		aggs:    make(map[relation.Key]*aggGroup),
		ct:      newCandidateTable(),
		pending: make(map[int64]*pendingPlacement),
		waiting: make(map[relation.Key][]int64),
		dueAt:   [numClocks]int64{notDue, notDue},
	}
}

// ---------------------------------------------------------------------
// Mutators. Each performs the write and counts in replOps the replica
// ops it stands for: one per call, one per removed entry for the
// filters, none for a write that touches nothing a replica keeps (a
// trigger that leaves no memory, rate statistics, a dropKey of
// statistics alone).

func (s *state) addQuery(sq *storedQuery) {
	list := s.queries[sq.key]
	if list == nil {
		list = s.spareQueries.get()
	}
	s.queries[sq.key] = append(list, sq)
	if c, at, ok := deathOf(sq.q); ok {
		s.rewrites[c].add(at, filedRewrite{sq, sq.gen})
		s.register(c, at)
	}
	s.replOps++
}

// filterQueries removes the stored queries under key that keep rejects.
// keep runs once per query in list order and may itself mutate other
// classes (a trigger cascades into placements); it must not touch the
// query list of key.
func (s *state) filterQueries(key relation.Key, keep func(*storedQuery) bool) {
	s.replOps += filterKey(s.queries, &s.spareQueries, key, keep)
}

// filterKey removes the entries of m[key] that keep rejects and returns
// how many went. keep runs once per entry in list order; the kept
// entries keep their order, and nothing is written before the first
// entry removed. An emptied list leaves m, its array for sp.
func filterKey[T any](m map[relation.Key][]T, sp *spares[T], key relation.Key, keep func(T) bool) int {
	list := m[key]
	i := 0
	for i < len(list) && keep(list[i]) {
		i++
	}
	if i == len(list) {
		return 0
	}
	kept := list[:i]
	for _, x := range list[i+1:] {
		if keep(x) {
			kept = append(kept, x)
		}
	}
	clear(list[len(kept):]) // the array must not keep the removed alive
	if len(kept) == 0 {
		delete(m, key)
		sp.put(kept)
	} else {
		m[key] = kept
	}
	return len(list) - len(kept)
}

// removeQuery deletes sq from its key's list, uncounted, and reports
// whether it was stored there.
func (s *state) removeQuery(sq *storedQuery) bool {
	list := s.queries[sq.key]
	i := slices.Index(list, sq)
	if i < 0 {
		return false
	}
	list = slices.Delete(list, i, i+1)
	if len(list) == 0 {
		delete(s.queries, sq.key)
		s.spareQueries.put(list)
	} else {
		s.queries[sq.key] = list
	}
	return true
}

// trigger records the memory a successful trigger leaves on a stored
// query: the DISTINCT projection it consumed. Plain queries leave none.
func (s *state) trigger(sq *storedQuery, proj string) {
	if proj == "" {
		return
	}
	if sq.seen == nil {
		sq.seen = make(map[string]bool)
	}
	sq.seen[proj] = true
	s.replOps++
}

// addTuple appends a tuple to its key's list, in arrival order, and —
// under a reach — files the key at the tuple's death on the sequence
// clock.
func (s *state) addTuple(key relation.Key, t *relation.Tuple) {
	list := s.tuples[key]
	if list == nil {
		list = s.spareTuples.get()
	}
	s.tuples[key] = append(list, t)
	if r := s.tupleReach(); r > 0 {
		s.file(classTuples, clockSeq, tupleDeath(t, clockSeq, r), key)
	}
	s.replOps++
}

// tupleReach is reach's value, 0 without one.
func (s *state) tupleReach() int64 {
	if s.reach == nil {
		return 0
	}
	return s.reach()
}

// addALTT appends an entry to the expiry-ordered list of its key, the
// invariant alttScan and pruneALTT rely on (the lapsed prefix is
// contiguous), and files its death: the first instant past expireAt. A
// fresh admission expires at now+Δ, later than every entry before it,
// and a moved list arrives in order onto a key its heir does not hold
// (I3), so an append keeps the order.
func (s *state) addALTT(key relation.Key, e alttEntry) {
	list := s.altt[key]
	if list == nil {
		list = s.spareALTT.get()
	}
	s.altt[key] = append(list, e)
	s.file(classALTT, clockTime, int64(e.expireAt)+1, key)
	s.replOps++
}

// alttScan returns the ALTT entries of a key still live at now. It only
// skips the lapsed prefix: the death wheel deletes it at the first
// quiescent Run past its expiry.
func (s *state) alttScan(key relation.Key, now sim.Time) []alttEntry {
	list := s.altt[key]
	return list[lapsed(list, now):]
}

// lapsed returns how many entries of an expiry-ordered list lapsed at
// now.
func lapsed(list []alttEntry, now sim.Time) int {
	i := 0
	for i < len(list) && list[i].expireAt < now {
		i++
	}
	return i
}

// pruneALTT deletes the entries of a key lapsed at now and returns how
// many went: a prefix of the list, which a cut removes without looking
// at the rest. The live ones move to the front, so the array keeps its
// room for the entries still to come.
func (s *state) pruneALTT(key relation.Key, now sim.Time) int {
	list := s.altt[key]
	gone := lapsed(list, now)
	if gone == 0 {
		return 0
	}
	n := copy(list, list[gone:])
	clear(list[n:])
	if n == 0 {
		delete(s.altt, key)
		s.spareALTT.put(list[:0])
	} else {
		s.altt[key] = list[:n]
	}
	return gone
}

// recordArrival notes one tuple arrival in the key's rate statistic.
func (s *state) recordArrival(key relation.Key, now sim.Time, window int64) {
	st, ok := s.stats[key]
	if !ok {
		st = &rateStat{epoch: epochOf(now, window)}
		s.stats[key] = st
	}
	st.record(now, window)
}

// addStat installs a moved rate statistic at a key the state holds none
// of (I3: a key moves only to a node that did not own it).
func (s *state) addStat(key relation.Key, st rateStat) {
	if s.stats[key] != nil {
		panic(fmt.Sprintf("core: rate statistic installed at %q, which holds one", key))
	}
	s.stats[key] = &st
}

// aggFold folds one answer row into the (group, epoch) partial at key
// and returns the group if the fold made it, nil otherwise.
func (s *state) aggFold(key relation.Key, sub *subscription, epoch int64, row []relation.Value, lin []query.LineageStep, pubAt int64) (fresh *aggGroup) {
	spec := sub.spec
	g, ok := s.aggs[key]
	if !ok {
		g = newAggGroup(sub, key, row)
		s.aggs[key], fresh = g, g
	}
	part := g.partial(epoch)
	if part == nil {
		part = g.addPartial(epoch, s.newPartial(spec))
		if c, at, ok := epochDeath(spec.Window, epoch); ok {
			s.file(classAggs, c, at, key)
		}
	}
	part.Add(spec, row)
	g.pubAt = max(g.pubAt, pubAt)
	g.foldLineage(epoch, lin)
	g.markDirty(epoch, spec.Sliding())
	s.noteDirty(key, g)
	s.replOps++
	return fresh
}

// newPartial returns an empty partial for spec: the last spare when its
// column array has room, a new one otherwise.
func (s *state) newPartial(spec *agg.Spec) agg.Partial {
	n := len(s.spareParts)
	if n == 0 || !spec.Fit(&s.spareParts[n-1]) {
		return *agg.NewPartial(spec)
	}
	part := s.spareParts[n-1]
	s.spareParts[n-1] = agg.Partial{}
	s.spareParts = s.spareParts[:n-1]
	return part
}

// addAgg installs a whole group at a key the state holds none of (I3: a
// key moves only to a node that did not own it) and files its epochs'
// deaths.
func (s *state) addAgg(key relation.Key, g *aggGroup) {
	if s.aggs[key] != nil {
		panic(fmt.Sprintf("core: aggregator group installed at %q, which holds one", key))
	}
	s.aggs[key] = g
	for _, ep := range g.epochs {
		if c, at, ok := epochDeath(g.sub.spec.Window, ep.epoch); ok {
			s.file(classAggs, c, at, key)
		}
	}
	s.noteDirty(key, g) // an un-flushed group moved in: handover, promotion
	s.replOps++
}

// horizon is hz's value, the zero horizon without one.
func (s *state) horizon() horizon {
	if s.hz == nil {
		return horizon{}
	}
	return *s.hz
}

// noteDirty enters key into the dirty set if its group g has un-flushed
// epochs.
func (s *state) noteDirty(key relation.Key, g *aggGroup) {
	if len(g.dirty) == 0 {
		return
	}
	if s.dirtyAggs == nil {
		s.dirtyAggs = make(map[relation.Key]struct{})
	}
	s.dirtyAggs[key] = struct{}{}
}

// flushDirty hands visit every group with un-flushed epochs, in key
// order, and marks it flushed. An epoch the horizon passed while one of
// its views was dirty waited for this flush (expire leaves it): it goes
// now. visit must not mutate s.
func (s *state) flushDirty(visit func(*aggGroup)) {
	if len(s.dirtyAggs) == 0 {
		return
	}
	h := s.horizon()
	keys := s.flushKeys[:0]
	for k := range s.dirtyAggs {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, byKeyText)
	for _, key := range keys {
		g := s.aggs[key]
		visit(g)
		g.dirty = g.dirty[:0]
		g.prune(h, &s.spareParts)
	}
	clear(s.dirtyAggs)
	s.flushKeys = keys
}

// ctMerge is the candidate-table write path. A key new to the table is
// filed at its entry's death.
func (s *state) ctMerge(info ricInfo) {
	if s.ct.merge(info) {
		s.file(classCT, clockTime, ctDeath(info.At), info.Key)
	}
	s.replOps++
}

// addPending records a placement waiting for RIC reports — the one
// node-bound class a replica must cover: the placement exists only at
// its origin, so without it a crash silently un-places the query being
// routed. The placement enters the waiting list of every candidate key
// it misses.
func (s *state) addPending(reqID int64, pp *pendingPlacement) {
	s.pending[reqID], pp.id = pp, reqID
	for _, sl := range pp.slots {
		if !sl.have {
			ids := s.waiting[sl.Key]
			if ids == nil {
				ids = s.spareWaiting.get()
			}
			s.waiting[sl.Key] = append(ids, reqID)
		}
	}
	s.replOps++
}

func (s *state) removePending(reqID int64) {
	if pp := s.pending[reqID]; pp != nil {
		for _, sl := range pp.slots {
			if !sl.have {
				filterKey(s.waiting, &s.spareWaiting, sl.Key, func(x int64) bool { return x != reqID })
			}
		}
	}
	delete(s.pending, reqID)
	s.replOps++
}

// inFlight reports whether some placement of this node already waits
// for a report on key: a walk that will bring one is on the wire.
func (s *state) inFlight(key relation.Key) bool {
	return len(s.waiting[key]) > 0
}

// report hands one RIC report to every placement waiting on its key —
// it fills the key's slot — and returns, in the order they began to
// wait, the ids of those it was the last missing report of, valid until
// the next call. They stay pending until the caller removes them. Like
// the slots it fills, what a placement still misses is not replicated
// (promotion restarts the walk), so nothing counts.
func (s *state) report(info ricInfo) []int64 {
	ids, ok := s.waiting[info.Key]
	s.ready = s.ready[:0]
	if !ok {
		return s.ready
	}
	delete(s.waiting, info.Key)
	for _, reqID := range ids {
		if s.pending[reqID].fill(info) {
			s.ready = append(s.ready, reqID)
		}
	}
	s.spareWaiting.put(ids)
	return s.ready
}

// dropKey forgets everything keyed under key — the key moved to another
// owner, or its aggregator group was retired. One op when a replicated
// class held something, so statistics leave silently.
func (s *state) dropKey(key relation.Key) {
	if len(s.queries[key])+len(s.tuples[key])+len(s.altt[key]) > 0 || s.aggs[key] != nil {
		s.replOps++
	}
	delete(s.queries, key)
	delete(s.tuples, key)
	delete(s.altt, key)
	delete(s.stats, key)
	delete(s.aggs, key)
	delete(s.dirtyAggs, key)
}

// apply installs one entry through the mutator of its kind. A placement
// walk is not installed but restarted, through Proc.place (handover.go).
func (s *state) apply(op stateOp) {
	switch op.kind {
	case opAddQuery:
		s.addQuery(op.sq)
	case opAddTuple:
		s.addTuple(op.key, op.t)
	case opAddALTT:
		s.addALTT(op.key, alttEntry{t: op.t, expireAt: op.expireAt})
	case opAddStat:
		s.addStat(op.key, op.stat)
	case opAddAgg:
		s.addAgg(op.key, op.g)
	case opCT:
		s.ctMerge(op.info)
	}
}

// ---------------------------------------------------------------------
// Enumeration.

// sortedStateKeys returns a map's keys ordered by their string form —
// the deterministic iteration order of every walk over keyed state, so
// equal seeds replay identically regardless of map layout.
func sortedStateKeys[V any](m map[relation.Key]V) []relation.Key {
	keys := make([]relation.Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, byKeyText)
	return keys
}

// byKeyText orders keys by their string form.
func byKeyText(a, b relation.Key) int { return strings.Compare(a.String(), b.String()) }

// each visits every entry of the wanted classes as the op that would
// re-create it: classes in declaration order, keys sorted, entries in
// stored order, placement walks by request id. keyOK (nil: every key)
// restricts the keyed classes; the node-bound ones ignore it. The ops
// alias live state, and visit must not mutate s.
func (s *state) each(want class, keyOK func(relation.Key) bool, visit func(stateOp)) {
	ok := func(key relation.Key) bool { return keyOK == nil || keyOK(key) }
	if want&classQueries != 0 {
		for _, key := range sortedStateKeys(s.queries) {
			if !ok(key) {
				continue
			}
			for _, sq := range s.queries[key] {
				visit(stateOp{kind: opAddQuery, key: key, sq: sq})
			}
		}
	}
	if want&classTuples != 0 {
		for _, key := range sortedStateKeys(s.tuples) {
			if !ok(key) {
				continue
			}
			for _, t := range s.tuples[key] {
				visit(stateOp{kind: opAddTuple, key: key, t: t})
			}
		}
	}
	if want&classALTT != 0 {
		for _, key := range sortedStateKeys(s.altt) {
			if !ok(key) {
				continue
			}
			for _, e := range s.altt[key] {
				visit(stateOp{kind: opAddALTT, key: key, t: e.t, expireAt: e.expireAt})
			}
		}
	}
	if want&classStats != 0 {
		for _, key := range sortedStateKeys(s.stats) {
			if ok(key) {
				visit(stateOp{kind: opAddStat, key: key, stat: *s.stats[key]})
			}
		}
	}
	if want&classAggs != 0 {
		for _, key := range sortedStateKeys(s.aggs) {
			if ok(key) {
				visit(stateOp{kind: opAddAgg, key: key, g: s.aggs[key]})
			}
		}
	}
	if want&classCT != 0 {
		for _, key := range sortedStateKeys(s.ct.entries) {
			e := s.ct.entries[key]
			visit(stateOp{kind: opCT, key: key, info: ricInfo{Key: key, Rate: e.Rate, Addr: e.Addr, At: e.At}})
		}
	}
	if want&classPending != 0 {
		reqIDs := make([]int64, 0, len(s.pending))
		for reqID := range s.pending {
			reqIDs = append(reqIDs, reqID)
		}
		slices.Sort(reqIDs)
		for _, reqID := range reqIDs {
			visit(stateOp{kind: opAddPending, pp: s.pending[reqID]})
		}
	}
}

// ops collects each()'s sequence.
func (s *state) ops(want class, keyOK func(relation.Key) bool) []stateOp {
	var out []stateOp
	s.each(want, keyOK, func(op stateOp) { out = append(out, op) })
	return out
}

// take removes the keyed state under every key keyOK selects and
// returns it as ops for its new owner to apply.
func (s *state) take(keyOK func(relation.Key) bool) []stateOp {
	out := s.ops(classKeyed, keyOK)
	for i := range out {
		if i == 0 || out[i].key != out[i-1].key { // a key's entries are adjacent within a class
			s.dropKey(out[i].key)
		}
	}
	return out
}

// drop removes one entry a torn-down pipeline or a retired subscriber
// listed — a stored query, a placement walk or an aggregator group —
// charging one replica op; a placement goes back to its pool, since
// nothing else holds it. The removals commute: each keeps the order of
// what stays. A listed stored query the state does not hold is a broken
// record (the ownership rule), and panics.
func (s *state) drop(op stateOp) {
	switch op.kind {
	case opAddQuery:
		if !s.removeQuery(op.sq) {
			panic(fmt.Sprintf("core: dropping a stored query its key %q does not list", op.sq.key))
		}
		s.replOps++
	case opAddPending:
		s.removePending(op.pp.id)
		op.pp.recycle()
	case opAddAgg:
		s.dropKey(op.key)
	}
}

// stateCounts is the instantaneous occupancy of a state, per class in
// the unit its loss counter charges, and in entries where a replica
// snapshot counts them.
type stateCounts struct {
	queries, tuples, altt, pending int
	aggGroups, ct                  int
	aggEpochs                      int64
}

func (s *state) counts() (c stateCounts) {
	for _, l := range s.queries {
		c.queries += len(l)
	}
	for _, l := range s.tuples {
		c.tuples += len(l)
	}
	for _, l := range s.altt {
		c.altt += len(l)
	}
	for _, g := range s.aggs {
		c.aggEpochs += g.epochCount()
	}
	c.pending, c.aggGroups, c.ct = len(s.pending), len(s.aggs), s.ct.size()
	return c
}

// mirrored is the number of entries a replica of the state holds: what
// each(classMirrored, nil, …) would yield.
func (c stateCounts) mirrored() int {
	return c.queries + c.tuples + c.altt + c.aggGroups + c.ct + c.pending
}

// ---------------------------------------------------------------------
// Deaths.

// clock names what a death is measured on: the publication sequence
// (tuple windows) or virtual time (time windows, the ALTT's Δ).
type clock uint8

const (
	clockSeq clock = iota
	clockTime
	numClocks
)

// horizon is, per clock, the earliest value a tuple still to arrive can
// carry. When Run returns nothing is in flight, so every tuple that can
// still arrive is published later: its sequence is past pubSeq and its
// time at least now (Engine.drainExpired records it there).
type horizon [numClocks]int64

// windowClock is the clock a window is measured on.
func windowClock(w query.WindowSpec) clock {
	if w.Kind == query.WindowTime {
		return clockTime
	}
	return clockSeq
}

// deathOf returns when a stored query dies: a windowed rewrite once every
// tuple from the horizon on falls outside its window — a sliding window
// at Start+Size, a tumbling one at the end of Start's epoch, on the
// window's clock. Input queries and unwindowed rewrites never die.
func deathOf(q *query.Query) (c clock, at int64, ok bool) {
	w := q.Window
	if q.Depth == 0 || !w.Enabled() {
		return 0, 0, false
	}
	if w.Tumbling {
		return windowClock(w), (w.EpochOf(q.Start) + 1) * w.Size, true
	}
	return windowClock(w), q.Start + w.Size, true
}

// epochDeath returns when an aggregate epoch dies: once the last view that
// merges its partial closed (viewOpen) — its own for a tumbling window,
// the next epoch's for a sliding one — on the window's clock. An
// unwindowed aggregate's one epoch never dies.
func epochDeath(w query.WindowSpec, epoch int64) (c clock, at int64, ok bool) {
	switch {
	case !w.Enabled():
		return 0, 0, false
	case w.Tumbling:
		return windowClock(w), (epoch + 1) * w.Size, true
	}
	return windowClock(w), (epoch + 2) * w.Size, true
}

// viewOpen reports whether the view row of epoch v can still change: a
// completion from h on has a clock at least h — the maximum over its
// tuples' clocks, one of them still to arrive — so its partial lands in
// epoch v or, sliding, v−1 (the two v's row merges) only while h is
// short of v's end. A closed view was flushed for the last time before
// h, and its subscriber holds that row.
func (h horizon) viewOpen(w query.WindowSpec, v int64) bool {
	return !w.Enabled() || h[windowClock(w)] < (v+1)*w.Size
}

// epochDead reports whether no view that merges the epoch's partial can
// change from h on.
func (h horizon) epochDead(w query.WindowSpec, epoch int64) bool {
	c, at, ok := epochDeath(w, epoch)
	return ok && h[c] >= at
}

// ctDeath returns when a candidate-table entry learned at at dies: the
// first instant fresh() no longer trusts it.
func ctDeath(at sim.Time) int64 { return int64(at) + ctValidity + 1 }

// ctDead reports whether an entry learned at at is stale from h on:
// every later read is at a time past h's.
func (h horizon) ctDead(at sim.Time) bool { return h[clockTime] >= ctDeath(at) }

// dead reports whether no tuple from h on can trigger q.
func (h horizon) dead(q *query.Query) bool {
	c, at, ok := deathOf(q)
	return ok && h[c] >= at
}

// tupleDeath returns when a stored tuple dies on clock c under reach r:
// r clock values past its publication, PubSeq on the sequence clock and
// PubTime on the time clock.
func tupleDeath(t *relation.Tuple, c clock, r int64) int64 {
	if c == clockSeq {
		return t.PubSeq + r
	}
	return t.PubTime + r
}

// tupleDead reports whether no rewrite from h on can combine with t
// under reach r (0: none, so never): h passed its death on both clocks,
// since a rewrite may be windowed on either.
func (h horizon) tupleDead(t *relation.Tuple, r int64) bool {
	return r > 0 && h[clockSeq] >= tupleDeath(t, clockSeq, r) && h[clockTime] >= tupleDeath(t, clockTime, r)
}

// notDue is dueAt's value for a node its slot does not name.
const notDue = math.MaxInt64

// register files the node under at on clock c in its slot's due wheel,
// unless it is filed there no later already.
func (s *state) register(c clock, at int64) {
	if s.due != nil && at < s.dueAt[c] {
		s.dueAt[c] = at
		s.due(c, at)
	}
}

// mortal is one key wheel of a state: a class whose entries die by the
// clock, and the clock the wheel files them on.
type mortal struct {
	cl class
	c  clock
}

// mortals lists the key wheels, in expire's drain order. Stored tuples
// and aggregate epochs die on either clock, ALTT and candidate-table
// entries on time alone; a tuple's sequence wheel drains before its time
// wheel, onto which it files what waits on time alone.
var mortals = [...]mortal{
	{classTuples, clockSeq}, {classTuples, clockTime},
	{classALTT, clockTime}, {classCT, clockTime},
	{classAggs, clockSeq}, {classAggs, clockTime},
}

// file files key under at on class cl's wheel of clock c.
func (s *state) file(cl class, c clock, at int64, key relation.Key) {
	s.wheels[slices.Index(mortals[:], mortal{cl, c})].add(at, key)
	s.register(c, at)
}

// earliest returns the first death still filed on clock c.
func (s *state) earliest(c clock) (at int64, ok bool) {
	at, ok = sooner(&s.rewrites[c], at, ok)
	for i, m := range mortals {
		if m.c == c {
			at, ok = sooner(&s.wheels[i], at, ok)
		}
	}
	return at, ok
}

// sooner returns the earlier of at (when ok) and w's first filing.
func sooner[T comparable](w *wheel[T], at int64, ok bool) (int64, bool) {
	if pend := w.pending(); len(pend) > 0 && (!ok || pend[0].at < at) {
		return pend[0].at, true
	}
	return at, ok
}

// DeadCounts counts stored entries per class that nothing still to come
// can reach: what a drain dropped (state.expire), or what a census found
// (state.dead).
type DeadCounts struct {
	Rewrites, Tuples, ALTT int // windowed rewrites past their window, tuples past their reach, ALTT entries past Δ
	CT, Epochs             int // candidate-table entries past ctValidity, epochs whose views all closed
}

// expire drops every windowed rewrite, stored tuple, ALTT entry,
// candidate-table entry and aggregate epoch dead by h — the drain of a
// quiescent Run — handing each rewrite to dropped, and returns how many
// of each went. A rewrite filed at or before h is dead, and dropped if it
// is still stored here. A tuple is dead once both clocks passed its
// deaths. Its key is filed at its death on the sequence clock, which on
// the workloads passes last, and a drain that visits the key prunes
// every tuple of it dead on both and files those whose death on time
// alone is still to come there, so a tuple leaves at the first drain past
// both, whichever clock passes last. A candidate-table entry refreshed
// since its key was filed is filed again at its new death. An epoch one
// of whose views is dirty stays for the flush that follows the drain
// (flushDirty). Like the Δ prune it replaced, the drain charges no
// replica op: a replica files the same deaths and drops them itself.
func (s *state) expire(h horizon, dropped func(*storedQuery)) (n DeadCounts) {
	for c := range s.rewrites {
		s.rewrites[c].drain(h[c], func(at int64, f filedRewrite) {
			if f.current(clock(c), at) && s.removeQuery(f.sq) {
				dropped(f.sq)
				n.Rewrites++
			}
		})
	}
	r := s.tupleReach()
	for i, m := range mortals {
		s.wheels[i].drain(h[m.c], func(_ int64, key relation.Key) {
			switch m.cl {
			case classTuples:
				n.Tuples += filterKey(s.tuples, &s.spareTuples, key, func(t *relation.Tuple) bool {
					switch {
					case h.tupleDead(t, r):
						return false
					case r > 0 && h[clockSeq] >= tupleDeath(t, clockSeq, r):
						s.file(classTuples, clockTime, tupleDeath(t, clockTime, r), key) // it waits on time alone now
					}
					return true
				})
			case classALTT:
				n.ALTT += s.pruneALTT(key, sim.Time(h[clockTime]))
			case classCT:
				switch e, ok := s.ct.entries[key]; {
				case !ok:
				case h.ctDead(e.At):
					delete(s.ct.entries, key)
					n.CT++
				default:
					s.file(classCT, clockTime, ctDeath(e.At), key) // refreshed since it was filed
				}
			case classAggs:
				if g := s.aggs[key]; g != nil {
					n.Epochs += g.prune(h, &s.spareParts)
				}
			}
		})
	}
	for c := range s.dueAt {
		if s.dueAt[c] <= h[c] { // the slot is done with it
			s.dueAt[c] = notDue
			if at, ok := s.earliest(clock(c)); ok {
				s.register(clock(c), at)
			}
		}
	}
	return n
}

// dead counts the entries dead by h: what expire(h) drops. An aggregate
// epoch a flush still owes a view of waits for that flush, and is not
// counted. A full scan, for tests and censuses (Engine.DeadState).
func (s *state) dead(h horizon) (n DeadCounts) {
	for _, list := range s.queries {
		for _, sq := range list {
			if h.dead(sq.q) {
				n.Rewrites++
			}
		}
	}
	r := s.tupleReach()
	for _, list := range s.tuples {
		for _, t := range list {
			if h.tupleDead(t, r) {
				n.Tuples++
			}
		}
	}
	for _, list := range s.altt {
		for _, e := range list {
			if int64(e.expireAt) < h[clockTime] {
				n.ALTT++
			}
		}
	}
	for _, e := range s.ct.entries {
		if h.ctDead(e.At) {
			n.CT++
		}
	}
	for _, g := range s.aggs {
		for _, ep := range g.epochs {
			if h.epochDead(g.sub.spec.Window, ep.epoch) && !g.owes(ep.epoch) {
				n.Epochs++
			}
		}
	}
	return n
}

// wheel files items under the clock value at which they fall due, in one
// array ascending by that value — items filed under one value in filing
// order — so a drain visits the items due by a horizon and nothing else.
// The drained prefix is reused: in steady state a wheel allocates
// nothing.
type wheel[T comparable] struct {
	filings []filing[T] // filings[head:] are pending
	head    int
}

type filing[T comparable] struct {
	at   int64
	item T
}

// filedRewrite is a rewrite's death as its wheel files it: the entry,
// and which of its lives (storedQuery.gen) died.
type filedRewrite struct {
	sq  *storedQuery
	gen uint16
}

// current reports whether a filing under at on clock c is the death of
// its entry's present life. Once the entry went to the free list it is
// not: the generation moved on. Should the 16-bit count come round to
// it again, the present life's own death (deathOf) must also be the
// filed one — and if it is, dropping the entry is right anyway.
func (f filedRewrite) current(c clock, at int64) bool {
	if f.sq.gen != f.gen {
		return false
	}
	dc, dat, ok := deathOf(f.sq.q)
	return ok && dc == c && dat == at
}

// add files item at at. An item equal to the last one filed at at is not
// filed twice.
func (w *wheel[T]) add(at int64, item T) {
	pend := w.pending()
	i := len(pend)
	if i > 0 && pend[i-1].at > at { // deaths mostly come in order
		i = sort.Search(i, func(j int) bool { return pend[j].at > at })
	}
	f := filing[T]{at, item}
	if i > 0 && pend[i-1] == f {
		return
	}
	if w.head > 0 && i < len(pend)/2 {
		// Nearer the front: shift the filings before it into the drained
		// prefix, the shorter move.
		w.head--
		copy(w.filings[w.head:], pend[:i])
		w.filings[w.head+i] = f
		return
	}
	if len(w.filings) == cap(w.filings) && w.head > 0 && w.head >= len(pend) {
		// The drained prefix is as long as what is pending: reuse it
		// rather than grow, which keeps the copy amortized.
		n := copy(w.filings, pend)
		clear(w.filings[n:])
		w.filings, w.head = w.filings[:n], 0
	}
	w.filings = slices.Insert(w.filings, w.head+i, f)
}

// drain visits, in ascending order, every item filed at or before h,
// with the value it was filed under, and forgets it. visit may file into
// w, but only past h.
func (w *wheel[T]) drain(h int64, visit func(at int64, item T)) {
	for w.head < len(w.filings) && w.filings[w.head].at <= h {
		f := w.filings[w.head]
		w.filings[w.head] = filing[T]{}
		w.head++
		visit(f.at, f.item)
	}
	if w.head == len(w.filings) {
		w.filings, w.head = w.filings[:0], 0
	}
}

// pending returns the filings not drained yet, ascending.
func (w *wheel[T]) pending() []filing[T] { return w.filings[w.head:] }

// spares keeps emptied arrays for reuse: lists that empty and refill
// every few ticks then allocate nothing in steady state.
type spares[T any] [][]T

// get returns an empty array with room, or nil.
func (sp *spares[T]) get() []T {
	n := len(*sp)
	if n == 0 {
		return nil
	}
	list := (*sp)[n-1]
	*sp = (*sp)[:n-1]
	return list
}

// put keeps list's array, which nothing may reference any more. Like
// every list array, it is zero past len(list): put clears up to there.
func (sp *spares[T]) put(list []T) {
	clear(list)
	*sp = append(*sp, list[:0])
}
