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
// accounting.
type aggGroup struct {
	qid   string
	owner id.ID
	gkey  string           // canonical group key (agg.Spec.GroupKey)
	group []relation.Value // grouping values, in group-position order

	// epochs holds the partials ascending by epoch and dirty the epochs
	// whose view rows changed since the last flush, ascending: a handful
	// each, since a windowed epoch dies once its last view closed
	// (state.pruneEpochs). Both keep their arrays when they empty, so a
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

// epochPartial is one epoch's partial, stored by value: a new epoch
// costs one allocation, its partial's column array.
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
func (g *aggGroup) viewRowInto(dst []relation.Value, spec *agg.Spec, epoch int64) (row []relation.Value, ver int64, lin []query.LineageStep) {
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

// mergeInto folds g into dst (the handover-collision path: partials for
// the same group arrived at the new owner before the handed-over state
// did). Per-epoch merges are commutative and associative, so the final
// state is independent of arrival interleaving. The still-open views of
// every transferred epoch are marked dirty on dst, so the next flush
// re-emits their rows, and so are the views g had not flushed yet.
func (g *aggGroup) mergeInto(w query.WindowSpec, h horizon, dst *aggGroup) {
	if g.pubAt > dst.pubAt {
		dst.pubAt = g.pubAt
	}
	for e, set := range g.lins {
		if dst.lins == nil {
			dst.lins = make(map[int64]map[query.LineageStep]struct{})
		}
		dstSet, ok := dst.lins[e]
		if !ok {
			dstSet = make(map[query.LineageStep]struct{}, len(set))
			dst.lins[e] = dstSet
		}
		for s := range set {
			dstSet[s] = struct{}{}
		}
	}
	for i := range g.epochs {
		ep := &g.epochs[i]
		if cur := dst.partial(ep.epoch); cur != nil {
			cur.Merge(&ep.part)
		} else {
			dst.addPartial(ep.epoch, ep.part)
		}
		dst.markOpen(ep.epoch, w, h)
	}
	for _, v := range g.dirty {
		dst.markView(v)
	}
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
func (g *aggGroup) markOpen(epoch int64, w query.WindowSpec, h horizon) {
	if h.viewOpen(w, epoch) {
		g.markView(epoch)
	}
	if w.Enabled() && !w.Tumbling && h.viewOpen(w, epoch+1) {
		g.markView(epoch + 1)
	}
}

// owes reports whether a flush still owes the subscriber a view row
// that merges the epoch's partial: its own, or the next epoch's sliding
// one.
func (g *aggGroup) owes(epoch int64, w query.WindowSpec) bool {
	_, own := slices.BinarySearch(g.dirty, epoch)
	_, next := slices.BinarySearch(g.dirty, epoch+1)
	return own || w.Enabled() && !w.Tumbling && next
}

// prune drops the epochs dead by h (horizon.epochDead) whose views are
// all flushed — an epoch whose row a flush still owes its subscriber
// waits for that flush — and returns how many went.
func (g *aggGroup) prune(w query.WindowSpec, h horizon) int {
	n := len(g.epochs)
	g.epochs = slices.DeleteFunc(g.epochs, func(ep epochPartial) bool {
		dead := h.epochDead(w, ep.epoch) && !g.owes(ep.epoch, w)
		if dead {
			delete(g.lins, ep.epoch)
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
	msg := newAggPartialMsg(qid, key, owner, spec.Window.EpochOf(c.clock), c.vals, c.pubAt, c.lin)
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
	if s := p.eng.sub(m.QueryID); s == nil || s.spec == nil || s.retired {
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
	if p.st.aggFold(m.Key, m.QueryID, m.Owner, m.Epoch, m.Row, m.Lineage, m.PubAt) {
		p.ld.sl++
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
			spec := e.aggSpec(g.qid)
			for _, ep := range g.dirty { // ascending
				msg := newAggUpdateMsg(g, spec, ep)
				if msg == nil {
					continue
				}
				e.net.WithTag(p.node, overlay.TagAgg, func() {
					e.net.SendDirect(p.node, g.owner, msg)
				})
				emitted = true
			}
		})
	}
	return emitted
}
