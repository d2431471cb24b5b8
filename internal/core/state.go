package core

import (
	"slices"
	"sort"

	"rjoin/internal/agg"
	"rjoin/internal/id"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// This file is the keyed-state store: the one place that writes the
// seven state classes a processor holds, and the one vocabulary —
// stateOp — every mechanism that moves, counts or deletes that state
// speaks. A membership move — leave, join, crash promotion — feeds
// each() over a filter to the new owners' apply() (Engine.move),
// teardown is sweep(), loss accounting is chargeLost. Live replication
// is a charge, not a copy: every mutator a backup would have to see
// adds one to the state's op count, and replFlush bills it (see
// replicate.go).
//
// Aliasing rule. An op yielded by each() or handed to a mutator aliases
// live objects (the stored query, the aggregator group, the pending
// placement). Every consumer of one *moves* the entry, and the source
// forgets it (dropKey, or being discarded) before it is touched again.
// Nothing copies state, so nothing has to own a second copy of a
// mutable part. Queries and tuples themselves are immutable once stored
// and are always shared.
//
// Adding a state class: one class bit, one op kind, one arm each in
// each(), apply() and (if it can be lost) chargeLost(), and — if a
// replica keeps it — its entries in stateCounts.mirrored() and a
// replOps count in each of its mutators, plus one row in
// state_test.go's charge table.

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
	opStat
	opAggMerge
	opCT
	opAddPending
	numOpKinds
)

// stateOp is one state entry in transit: what each() yields and apply()
// installs. It is a union struct: only the fields of its kind are set.
type stateOp struct {
	kind opKind
	key  relation.Key
	id   int64 // request id (opAddPending)

	sq *storedQuery // opAddQuery

	t        *relation.Tuple // opAddTuple, opAddALTT
	expireAt sim.Time        // opAddALTT

	stat rateStat // opStat

	g *aggGroup // opAggMerge: a whole group, merged into or installed at key

	info ricInfo // opCT

	pp *pendingPlacement // opAddPending
}

// query returns the query a stored-query or pending-placement entry
// carries, nil for every other kind.
func (op stateOp) query() *query.Query {
	switch {
	case op.sq != nil:
		return op.sq.q
	case op.pp != nil:
		return op.pp.q
	}
	return nil
}

// keyed reports whether the entry follows its key (true) or its node:
// candidate-table entries and placement walks are never forwarded.
func (op stateOp) keyed() bool { return op.kind != opCT && op.kind != opAddPending }

// chargeLost charges one entry that disappears without a successor to
// the loss counters. Rate statistics and candidate-table entries are
// soft state and are never lost.
func (op stateOp) chargeLost(ctr *Counters) {
	switch op.kind {
	case opAddQuery, opAddPending:
		if op.query().Depth == 0 {
			ctr.QueriesLost++
		} else {
			ctr.RewritesLost++
		}
	case opAddTuple, opAddALTT:
		ctr.TuplesLost++
	case opAggMerge:
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

	// waiting is pending inverted: under every candidate key some pending
	// placement still has no report for, the ids of those placements in
	// the order they began to wait. It is what makes a walk single-flight
	// (a placement that misses a key found here waits for the walk already
	// fetching it) and what a reply is resolved by. Derived state: only
	// addPending, removePending, report and clear write it and no op
	// names it, so apply rebuilds it, and a move, which restarts walks,
	// by place.
	waiting map[relation.Key][]int64

	// dirtyAggs is the set of aggregator keys whose group holds epochs
	// marked since its last flush: {k : len(aggs[k].dirty) > 0}, so a
	// flush visits what changed instead of every group.
	dirtyAggs map[relation.Key]struct{}

	specOf func(qid string) *agg.Spec

	// replOps counts the mutations since the last replFlush that a replica
	// would have to apply — the op stream a primary-backup protocol
	// ships, which replFlush charges as ReplOps. ALTT expiry, reports
	// and the derived indexes are local and uncounted.
	replOps int
}

func newState(specOf func(string) *agg.Spec) *state {
	s := &state{specOf: specOf}
	s.clear()
	return s
}

// clear empties every class without counting: the state moved away
// wholesale.
func (s *state) clear() {
	s.queries = make(map[relation.Key][]*storedQuery)
	s.tuples = make(map[relation.Key][]*relation.Tuple)
	s.altt = make(map[relation.Key][]alttEntry)
	s.stats = make(map[relation.Key]*rateStat)
	s.aggs = make(map[relation.Key]*aggGroup)
	s.ct = newCandidateTable()
	s.pending = make(map[int64]*pendingPlacement)
	s.waiting = make(map[relation.Key][]int64)
	s.dirtyAggs = nil
}

// ---------------------------------------------------------------------
// Mutators. Each performs the write and counts in replOps the replica
// ops it stands for: one per call, one per removed entry for the
// filters, none for a write that touches nothing a replica keeps (a
// trigger that leaves no memory, rate statistics, a dropKey of
// statistics alone).

func (s *state) addQuery(sq *storedQuery) {
	s.queries[sq.key] = append(s.queries[sq.key], sq)
	s.replOps++
}

// filterQueries removes the stored queries under key that keep rejects.
// keep runs once per query in list order and may itself mutate other
// classes (a trigger cascades into placements); it must not touch the
// query list of key.
func (s *state) filterQueries(key relation.Key, keep func(*storedQuery) bool) {
	list := s.queries[key]
	if len(list) == 0 {
		return
	}
	kept := list[:0]
	for _, sq := range list {
		if keep(sq) {
			kept = append(kept, sq)
		} else {
			s.replOps++
		}
	}
	if len(kept) == 0 {
		delete(s.queries, key)
	} else {
		s.queries[key] = kept
	}
}

// trigger records the memory a successful trigger leaves on a stored
// query: the DISTINCT projection it consumed and, under migration, the
// combined publication sequence. Plain queries leave none.
func (s *state) trigger(sq *storedQuery, proj string, pubSeq int64) {
	if proj == "" && pubSeq == 0 {
		return
	}
	if proj != "" {
		if sq.seen == nil {
			sq.seen = make(map[string]bool)
		}
		sq.seen[proj] = true
	}
	if pubSeq != 0 {
		sq.triggers++
		sq.combined = append(sq.combined, pubSeq)
	}
	s.replOps++
}

func (s *state) addTuple(key relation.Key, t *relation.Tuple) {
	s.tuples[key] = append(s.tuples[key], t)
	s.replOps++
}

// filterTuples is filterQueries for the tuple store (garbage
// collection); it returns how many tuples went, one op each.
func (s *state) filterTuples(key relation.Key, keep func(*relation.Tuple) bool) int {
	list := s.tuples[key]
	kept := list[:0]
	for _, t := range list {
		if keep(t) {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		delete(s.tuples, key)
	} else {
		s.tuples[key] = kept
	}
	gone := len(list) - len(kept)
	s.replOps += gone
	return gone
}

// addALTT splices an entry into the expiry-ordered list of its key, the
// invariant alttScan relies on (the expired prefix is contiguous). A
// fresh admission lands at the tail; a moved entry may not.
func (s *state) addALTT(key relation.Key, e alttEntry) {
	list := s.altt[key]
	i := len(list)
	for i > 0 && list[i-1].expireAt > e.expireAt {
		i--
	}
	s.altt[key] = slices.Insert(list, i, e)
	s.replOps++
}

// alttScan returns the live ALTT entries of a key and how many expired
// ones it pruned in passing. Expiry is a local prune, uncounted: entries
// carry their expiry time, so a replica prunes its own, and promotion
// filters the expired ones nobody pruned yet.
func (s *state) alttScan(key relation.Key, now sim.Time) (live []alttEntry, expired int) {
	live = s.altt[key]
	for expired < len(live) && live[expired].expireAt < now {
		expired++
	}
	if expired > 0 {
		live = live[expired:]
		if len(live) == 0 {
			delete(s.altt, key)
		} else {
			s.altt[key] = live
		}
	}
	return live, expired
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

// mergeStat installs a moved rate statistic, keeping whichever estimate
// saw traffic more recently.
func (s *state) mergeStat(key relation.Key, st rateStat) {
	if cur, ok := s.stats[key]; !ok {
		cp := st // only this branch allocates
		s.stats[key] = &cp
	} else if st.epoch > cur.epoch {
		*cur = st
	}
}

// aggFold folds one answer row into the (group, epoch) partial at key
// and reports whether the group is new.
func (s *state) aggFold(key relation.Key, qid string, owner id.ID, epoch int64, row []relation.Value, lin []query.LineageStep, pubAt int64) (fresh bool) {
	spec := s.specOf(qid)
	if spec == nil {
		return false
	}
	g, ok := s.aggs[key]
	if !ok {
		g = &aggGroup{
			qid: qid, owner: owner,
			gkey: spec.GroupKey(row), group: spec.GroupValues(row),
			epochs: make(map[int64]*agg.Partial),
			dirty:  make(map[int64]bool),
		}
		s.aggs[key] = g
	}
	part, have := g.epochs[epoch]
	if !have {
		part = agg.NewPartial(spec)
		g.epochs[epoch] = part
	}
	part.Add(spec, row)
	g.pubAt = max(g.pubAt, pubAt)
	g.foldLineage(epoch, lin)
	g.markDirty(epoch, spec.Sliding())
	s.noteDirty(key, g)
	s.replOps++
	return !ok
}

// aggMerge merges a whole group into the one at key (partials for it
// arrived before the moved state did — per-epoch merges commute, so the
// interleaving does not matter), or installs it. mergeInto moves g's
// partials into the destination.
func (s *state) aggMerge(key relation.Key, g *aggGroup) {
	spec := s.specOf(g.qid)
	if spec == nil {
		return
	}
	s.replOps++
	if cur, ok := s.aggs[key]; ok {
		g.mergeInto(spec.Sliding(), cur)
		g = cur
	} else {
		s.aggs[key] = g
	}
	s.noteDirty(key, g) // an un-flushed group moved in: handover, promotion
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
// order, and marks it flushed. visit must not mutate s.
func (s *state) flushDirty(visit func(*aggGroup)) {
	if len(s.dirtyAggs) == 0 {
		return
	}
	for _, key := range sortedStateKeys(s.dirtyAggs) {
		g := s.aggs[key]
		visit(g)
		g.dirty = make(map[int64]bool)
	}
	clear(s.dirtyAggs)
}

// ctMerge is the candidate-table write path.
func (s *state) ctMerge(info ricInfo) {
	s.ct.merge(info)
	s.replOps++
}

// addPending records a placement waiting for RIC reports — the one
// node-bound class a replica must cover: the placement exists only at
// its origin, so without it a crash silently un-places the query being
// routed. The placement enters the waiting list of every candidate key
// it misses.
func (s *state) addPending(reqID int64, pp *pendingPlacement) {
	s.pending[reqID] = pp
	for _, c := range pp.cands {
		if pp.misses(c.Key) {
			s.waiting[c.Key] = append(s.waiting[c.Key], reqID)
		}
	}
	s.replOps++
}

func (s *state) removePending(reqID int64) {
	if pp := s.pending[reqID]; pp != nil {
		for _, c := range pp.cands {
			if !pp.misses(c.Key) {
				continue
			}
			if ids := slices.DeleteFunc(s.waiting[c.Key], func(x int64) bool { return x == reqID }); len(ids) > 0 {
				s.waiting[c.Key] = ids
			} else {
				delete(s.waiting, c.Key)
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

// report hands one RIC report to every placement waiting on its key and
// returns, in the order they began to wait, the ids of those it was the
// last missing report of. They stay pending until the caller removes
// them. Like the known list it extends, what a placement still misses
// is not replicated (promotion restarts the walk), so nothing counts.
func (s *state) report(info ricInfo) (ready []int64) {
	ids := s.waiting[info.Key]
	delete(s.waiting, info.Key)
	ready = ids[:0]
	for _, reqID := range ids {
		pp := s.pending[reqID]
		pp.known = append(pp.known, info)
		if len(pp.known) == len(pp.cands) {
			ready = append(ready, reqID)
		}
	}
	return ready
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

// apply installs one entry through the mutator of its kind.
func (s *state) apply(op stateOp) {
	switch op.kind {
	case opAddQuery:
		s.addQuery(op.sq)
	case opAddTuple:
		s.addTuple(op.key, op.t)
	case opAddALTT:
		s.addALTT(op.key, alttEntry{t: op.t, expireAt: op.expireAt})
	case opStat:
		s.mergeStat(op.key, op.stat)
	case opAggMerge:
		s.aggMerge(op.key, op.g)
	case opCT:
		s.ctMerge(op.info)
	case opAddPending:
		s.addPending(op.id, op.pp)
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
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}

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
				visit(stateOp{kind: opStat, key: key, stat: *s.stats[key]})
			}
		}
	}
	if want&classAggs != 0 {
		for _, key := range sortedStateKeys(s.aggs) {
			if ok(key) {
				visit(stateOp{kind: opAggMerge, key: key, g: s.aggs[key]})
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
			visit(stateOp{kind: opAddPending, id: reqID, pp: s.pending[reqID]})
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

// sweep removes every entry of the wanted classes (stored queries,
// placement walks, aggregator groups) that match selects, and reports
// whether anything went. One unordered pass per class: each removal
// charges one replica op and the counts commute, so no order is needed.
//
//lint:ordered removals commute
func (s *state) sweep(want class, match func(stateOp) bool) (hit bool) {
	if want&classQueries != 0 {
		for key := range s.queries {
			s.filterQueries(key, func(sq *storedQuery) bool {
				m := match(stateOp{kind: opAddQuery, key: key, sq: sq})
				hit = hit || m
				return !m
			})
		}
	}
	if want&classPending != 0 {
		for reqID, pp := range s.pending {
			if match(stateOp{kind: opAddPending, id: reqID, pp: pp}) {
				s.removePending(reqID)
				hit = true
			}
		}
	}
	if want&classAggs != 0 {
		for key, g := range s.aggs {
			if match(stateOp{kind: opAggMerge, key: key, g: g}) {
				s.dropKey(key)
				hit = true
			}
		}
	}
	return hit
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

// chargeLost charges every entry of a state that disappears with no
// successor to hand to and no replica to promote. retired selects
// entries nobody is waiting for (torn-down pipelines, unsubscribed
// aggregates), which are not losses.
func (s *state) chargeLost(ctr *Counters, retired func(stateOp) bool) {
	s.each(classAll, nil, func(op stateOp) {
		if !retired(op) {
			op.chargeLost(ctr)
		}
	})
}
