package core

import (
	"cmp"
	"slices"

	"rjoin/internal/agg"
	"rjoin/internal/id"
	"rjoin/internal/obs"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// This file implements the control plane of in-network continuous
// aggregation (the data plane — specs, mergeable partials, epochs —
// lives in internal/agg). A completed answer row of an aggregate query
// is not shipped to the subscriber: the completion node hashes the
// row's group key to a deterministic aggregator key on the DHT and
// routes a partial there. The aggregator folds partials into
// per-(group, epoch) state and emits finalized group-update rows to
// the subscriber — at quiescence flushes, coalescing any number of
// partials into one update per touched (group, epoch).

// aggKeyPrefix namespaces aggregator keys away from the Rel+Attr[+Value]
// index keys; identifiers cannot contain NUL, so no relation or
// attribute name can collide with it.
const aggKeyPrefix = "\x00agg\x00"

// appendAggQuery appends the part of an aggregator key's text that
// names the query: aggKeyPrefix, the query ID and a NUL. The group's
// canonical encoding (agg.Spec.AppendGroupKey) completes it. Every group
// of a query hashes to its own ring position, so aggregation load
// spreads over the overlay instead of concentrating at the subscriber.
func appendAggQuery(b []byte, queryID string) []byte {
	return append(append(append(b, aggKeyPrefix...), queryID...), 0)
}

// aggKey returns the aggregator key of row's group under one query. Its
// text is built in the scratch's akey buffer and looked up there
// (relation.KeyOfBytes), so a key interned before costs nothing.
func (sc *scratch) aggKey(queryID string, spec *agg.Spec, row []relation.Value) relation.Key {
	sc.akey = spec.AppendGroupKey(appendAggQuery(sc.akey[:0], queryID), row)
	return relation.KeyOfBytes(sc.akey)
}

// aggGroup is the aggregator-node state of one group of one aggregate
// query: the ring of per-epoch mergeable partials plus the dirty set of
// epochs whose view rows changed since the last flush. It is keyed
// under its aggregator key in the node's state (see state.go), which
// makes it a first-class citizen of handover, replication and loss
// accounting. A group of one grouping value whose epochs and marks fit
// their inline arrays is one object (newAggGroup): its partials come
// from the node's spares once it pruned some (state.newPartial).
type aggGroup struct {
	sub   *subscription    // the aggregate query's record, retired or not
	key   relation.Key     // its aggregator key
	pos   int32            // its place in sub's list (roster)
	group []relation.Value // grouping values, in group-position order

	// epochs holds the partials ascending by epoch and dirty the epochs
	// whose view rows changed since the last flush, ascending: a handful
	// each, since a windowed epoch dies once its last view closed
	// (aggGroup.prune). Both keep their arrays when they empty, so a
	// group that lives on from epoch to epoch allocates nothing for them.
	epochs []epochPartial
	dirty  []int64

	// pubAt is the group's latency watermark: the maximum triggering
	// publication vtime over all folded partials. Max commutes, so the
	// watermark is deterministic under any fold order; it rides on
	// emitted group updates so the subscriber can measure answer
	// latency for aggregates the same way it does for plain answers.
	pubAt int64

	// lins is the group's per-epoch provenance: the union of the
	// lineage steps of every row folded into the epoch's partial. Set
	// union commutes like the pubAt max, so the union is deterministic
	// under any fold order; flushes snapshot it sorted. Nil unless
	// Config.Provenance is set.
	lins map[int64]map[query.LineageStep]struct{}

	// The arrays group, epochs and dirty start on: one grouping value,
	// the two epochs a tumbling window keeps at a time and their marks.
	inGroup  [1]relation.Value
	inEpochs [2]epochPartial
	inDirty  [2]int64
}

// newAggGroup returns the empty group of row under sub at key, its
// lists on its inline arrays.
func newAggGroup(sub *subscription, key relation.Key, row []relation.Value) *aggGroup {
	g := &aggGroup{sub: sub, key: key}
	g.group = sub.spec.AppendGroupValues(g.inGroup[:0], row)
	g.epochs, g.dirty = g.inEpochs[:0], g.inDirty[:0]
	return g
}

// gkey returns the group's canonical key (agg.Spec.AppendGroupKey): the
// tail of its interned aggregator key's text, past appendAggQuery's part,
// so it costs nothing.
func (g *aggGroup) gkey() string {
	return g.key.String()[len(aggKeyPrefix)+len(g.sub.q.ID)+1:]
}

// foldLineage unions one row's lineage into an epoch's provenance set.
func (g *aggGroup) foldLineage(epoch int64, lin []query.LineageStep) {
	if len(lin) == 0 {
		return
	}
	if g.lins == nil {
		g.lins = make(map[int64]map[query.LineageStep]struct{})
	}
	set, ok := g.lins[epoch]
	if !ok {
		set = make(map[query.LineageStep]struct{}, len(lin))
		g.lins[epoch] = set
	}
	for _, s := range lin {
		set[s] = struct{}{}
	}
}

// lineageOf snapshots the sorted union of the given epochs' provenance
// sets; nil when provenance is off or the epochs are empty.
func (g *aggGroup) lineageOf(epochs ...int64) []query.LineageStep {
	if g.lins == nil {
		return nil
	}
	n := 0
	for _, ep := range epochs {
		n += len(g.lins[ep])
	}
	if n == 0 {
		return nil
	}
	out := make([]query.LineageStep, 0, n)
	seen := make(map[query.LineageStep]struct{}, n)
	for _, ep := range epochs {
		for s := range g.lins[ep] {
			if _, dup := seen[s]; !dup {
				seen[s] = struct{}{}
				out = append(out, s)
			}
		}
	}
	query.SortLineage(out)
	return out
}

// epochPartial is one epoch's partial, stored by value. Its column
// array is the one allocation an epoch can cost, and it costs none once
// its node pruned an epoch: a pruned partial's array goes to the node's
// spares (state.spareParts) for the next epoch to reuse.
type epochPartial struct {
	epoch int64
	part  agg.Partial
}

// partial returns the epoch's partial, nil if the group has none. The
// pointer is into g.epochs: addPartial and prune invalidate it.
func (g *aggGroup) partial(epoch int64) *agg.Partial {
	for i := range g.epochs {
		if g.epochs[i].epoch == epoch {
			return &g.epochs[i].part
		}
	}
	return nil
}

// addPartial files a partial for an epoch the group holds none of and
// returns a pointer to the filed copy (see partial).
func (g *aggGroup) addPartial(epoch int64, part agg.Partial) *agg.Partial {
	i, _ := slices.BinarySearchFunc(g.epochs, epoch, func(ep epochPartial, e int64) int { return cmp.Compare(ep.epoch, e) })
	g.epochs = slices.Insert(g.epochs, i, epochPartial{epoch, part})
	return &g.epochs[i].part
}

// viewRowInto appends the view row of one epoch to dst — for a sliding
// window the merge of the epoch's partial with its predecessor's,
// finalized in place (agg.Spec.AppendRow) — and returns it with its
// version, the number of rows folded into it, and its provenance. ver is
// 0, and nothing appended, while the epoch holds no data (it was marked
// dirty by a neighbour).
func (g *aggGroup) viewRowInto(dst []relation.Value, epoch int64) (row []relation.Value, ver int64, lin []query.LineageStep) {
	spec := g.sub.spec
	parts, epochs := [2]*agg.Partial{g.partial(epoch)}, [2]int64{epoch}
	n := 1
	if spec.Sliding() {
		parts[1], epochs[1], n = g.partial(epoch-1), epoch-1, 2
	}
	if ver = agg.MergedRows(parts[:n]...); ver == 0 {
		return dst, 0, nil
	}
	return spec.AppendRow(dst, g.group, parts[:n]...), ver, g.lineageOf(epochs[:n]...)
}

// markDirty flags an epoch's view row for the next flush. The next
// epoch's sliding view merges this epoch's partial, so its row changed
// too.
func (g *aggGroup) markDirty(epoch int64, sliding bool) {
	g.markView(epoch)
	if sliding {
		g.markView(epoch + 1)
	}
}

// markView flags the view row of epoch v for the next flush.
func (g *aggGroup) markView(v int64) {
	if i, found := slices.BinarySearch(g.dirty, v); !found {
		g.dirty = slices.Insert(g.dirty, i, v)
	}
}

// markOpen flags for the next flush the views that merge an epoch's
// partial and are still open at h (horizon.viewOpen): re-emitting a
// closed one would only repeat the row its subscriber holds.
func (g *aggGroup) markOpen(epoch int64, h horizon) {
	spec := g.sub.spec
	if h.viewOpen(spec.Window, epoch) {
		g.markView(epoch)
	}
	if spec.Sliding() && h.viewOpen(spec.Window, epoch+1) {
		g.markView(epoch + 1)
	}
}

// owes reports whether a flush still owes the subscriber a view row
// that merges the epoch's partial: its own, or the next epoch's sliding
// one.
func (g *aggGroup) owes(epoch int64) bool {
	_, own := slices.BinarySearch(g.dirty, epoch)
	_, next := slices.BinarySearch(g.dirty, epoch+1)
	return own || g.sub.spec.Sliding() && next
}

// prune drops the epochs dead by h (horizon.epochDead) whose views are
// all flushed — an epoch whose row a flush still owes its subscriber
// waits for that flush — and returns how many went, uncounted: the
// drain's local prune. Their partials, emptied, go to spares unless it
// is nil. The group itself stays, empty or not, until its query is
// unsubscribed: it is what a partial of a later epoch folds into, and a
// group made afresh would charge its storage load again.
func (g *aggGroup) prune(h horizon, spares *[]agg.Partial) int {
	n := len(g.epochs)
	g.epochs = slices.DeleteFunc(g.epochs, func(ep epochPartial) bool {
		dead := h.epochDead(g.sub.spec.Window, ep.epoch) && !g.owes(ep.epoch)
		if dead {
			delete(g.lins, ep.epoch)
			if spares != nil {
				ep.part.Reset()
				*spares = append(*spares, ep.part)
			}
		}
		return dead
	})
	return n - len(g.epochs)
}

// epochCount reports the stored (group, epoch) partials — the unit the
// loss counters charge when aggregator state dies with a node.
func (g *aggGroup) epochCount() int64 { return int64(len(g.epochs)) }

// emitTo ships one completed row to one subscriber: a plain query's
// row goes directly to the owner (the pre-aggregation behaviour), an
// aggregate query's row is folded into the aggregation pipeline, its
// epoch assigned by the completion clock. The routing identity (query
// ID, owner, spec) is the caller's, not a query object's: the
// shared-pipeline fan-out emits one subscriber-shaped row per attached
// query, each under its own identity and aggregation spec, through
// exactly this path.
func (p *Proc) emitTo(now sim.Time, qid string, owner id.ID, spec *agg.Spec, c completion) {
	if spec == nil {
		p.eng.net.SendDirect(p.node, owner, newAnswerMsg(qid, owner, c.vals, c.pubAt, c.lin))
		return
	}
	key := p.sc.aggKey(qid, spec, c.vals)
	msg := newAggPartialMsg(qid, key, spec.Window.EpochOf(c.clock), c.vals, c.pubAt, c.lin)
	p.eng.net.WithTag(p.node, overlay.TagAgg, func() {
		// One-hop fast path: the candidate table remembers which node a
		// previous partial for this group was routed to (the same trick
		// Section 7 plays for Eval messages); the ground-truth ownership
		// check guards against stale addresses mid-churn.
		if ent, ok := p.st.ct.fresh(key, now, ctValidity); ok {
			if tgt := p.eng.ring.Node(ent.Addr); tgt != nil && p.stillOwns(tgt.ID(), key) {
				p.eng.net.SendDirect(p.node, tgt.ID(), msg)
				return
			}
		}
		if owner := p.eng.net.Send(p.node, key.ID(), msg); owner != nil {
			p.st.ctMerge(ricInfo{Key: key, Addr: owner.ID(), At: now})
		}
	})
}

// onAggPartial folds one partial into the aggregator state of its
// group. Aggregation work is query processing, so it is charged to the
// QPL; a group's first partial also charges one unit of storage load.
func (p *Proc) onAggPartial(now sim.Time, m *aggPartialMsg) {
	s := p.eng.sub(m.QueryID)
	if s == nil || s.spec == nil || s.retired() {
		return // unsubscribed while the partial was in flight (an unknown query cannot happen in-run)
	}
	p.ld.qpl++
	p.ctr.AggPartials++
	if ob := p.eng.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{
			At: now, Kind: obs.KindAggPartial, Node: p.nid(),
			QID: m.QueryID, Key: m.Key.String(), Arg: m.Epoch,
		})
	}
	if g := p.st.aggFold(m.Key, s, m.Epoch, m.Row, m.Lineage, m.PubAt); g != nil {
		p.ld.sl++
		s.enlist(g)
	}
}

// flushAggregates emits one group-update row per dirty (group, epoch)
// across every aggregator node, in deterministic order (node, key,
// epoch), and reports whether anything was emitted. It runs from
// coordinator context between drains; Engine.Run loops until a drain
// produces no new dirty state. Only nodes whose dirty-key set (see
// state.go) is non-empty are visited, so the loop's final iteration —
// and every Run on a quiet engine — allocates and sorts nothing.
func (e *Engine) flushAggregates() bool {
	if e.aggLive == 0 {
		return false
	}
	ids := e.flushIDs[:0]
	for nid, p := range e.procs {
		if len(p.st.dirtyAggs) > 0 {
			ids = append(ids, nid)
		}
	}
	slices.Sort(ids)
	e.flushIDs = ids
	emitted := false
	for _, nid := range ids {
		p := e.procs[nid]
		p.st.flushDirty(func(g *aggGroup) {
			for _, ep := range g.dirty { // ascending
				msg := newAggUpdateMsg(g, ep)
				if msg == nil {
					continue
				}
				e.net.WithTag(p.node, overlay.TagAgg, func() {
					e.net.SendDirect(p.node, msg.Owner, msg)
				})
				emitted = true
			}
		})
	}
	return emitted
}
