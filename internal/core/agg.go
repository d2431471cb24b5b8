package core

import (
	"maps"
	"slices"
	"sort"

	"rjoin/internal/agg"
	"rjoin/internal/id"
	"rjoin/internal/obs"
	"rjoin/internal/obs/profile"
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

// TagAgg is the traffic tag under which aggregation traffic is charged:
// partials routed to aggregators and group updates sent to subscribers
// (and, under SubscriberSideAgg, the raw rows shipped instead). The
// aggregation experiment reports this share separately.
const TagAgg = "agg"

// aggKeyPrefix namespaces aggregator keys away from the Rel+Attr[+Value]
// index keys; identifiers cannot contain NUL, so no relation or
// attribute name can collide with it.
const aggKeyPrefix = "\x00agg\x00"

// aggKeyOf derives the aggregator key of one group of one query. Every
// group of a query hashes to its own ring position, so aggregation load
// spreads over the overlay instead of concentrating at the subscriber.
func aggKeyOf(queryID, groupKey string) relation.Key {
	return relation.KeyOf(aggKeyPrefix + queryID + "\x00" + groupKey)
}

// aggGroup is the aggregator-node state of one group of one aggregate
// query: the ring of per-epoch mergeable partials plus the dirty set of
// epochs whose view rows changed since the last flush. It is keyed
// under its aggregator key in the node's state (see state.go), which
// makes it a first-class citizen of handover, replication and loss
// accounting.
type aggGroup struct {
	qid    string
	owner  id.ID
	gkey   string           // canonical group key (agg.Spec.GroupKey)
	group  []relation.Value // grouping values, in group-position order
	epochs map[int64]*agg.Partial
	dirty  map[int64]bool

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

// mergeInto folds g into dst (the handover-collision path: partials for
// the same group arrived at the new owner before the handed-over state
// did). Per-epoch merges are commutative and associative, so the final
// state is independent of arrival interleaving. Every transferred
// epoch is marked dirty on dst so the next flush re-emits its row.
func (g *aggGroup) mergeInto(sliding bool, dst *aggGroup) {
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
	for e, part := range g.epochs {
		if cur, ok := dst.epochs[e]; ok {
			cur.Merge(part)
		} else {
			dst.epochs[e] = part
		}
		dst.markDirty(e, sliding)
	}
}

// markDirty flags an epoch's view row for the next flush. The next
// epoch's sliding view merges this epoch's partial, so its row changed
// too.
func (g *aggGroup) markDirty(epoch int64, sliding bool) {
	g.dirty[epoch] = true
	if sliding {
		g.dirty[epoch+1] = true
	}
}

// clone deep-copies the group for a mirror, which must own its partials
// and lineage sets outright: the live copy keeps folding rows in. The
// dirty set is flush bookkeeping of the live copy and starts empty.
func (g *aggGroup) clone() *aggGroup {
	cp := &aggGroup{
		qid: g.qid, owner: g.owner, gkey: g.gkey, group: slices.Clone(g.group),
		epochs: make(map[int64]*agg.Partial, len(g.epochs)),
		dirty:  make(map[int64]bool),
		pubAt:  g.pubAt,
	}
	for e, part := range g.epochs {
		cp.epochs[e] = part.Clone()
	}
	if len(g.lins) > 0 {
		cp.lins = make(map[int64]map[query.LineageStep]struct{}, len(g.lins))
		for e, set := range g.lins {
			cp.lins[e] = maps.Clone(set)
		}
	}
	return cp
}

// epochCount reports the stored (group, epoch) partials — the unit the
// loss counters charge when aggregator state dies with a node.
func (g *aggGroup) epochCount() int64 { return int64(len(g.epochs)) }

// aggSpec returns the immutable aggregation spec of a query. Specs are
// registered at submission (coordinator context) and never mutated, so
// worker-context reads are safe without locking.
func (e *Engine) aggSpec(queryID string) *agg.Spec { return e.aggSpecs[queryID] }

// emitCompletion routes one completed answer row: plain queries ship it
// directly to the owner (the pre-aggregation behaviour), aggregate
// queries fold it into the aggregation pipeline. clock is the
// completion clock — the maximum window-clock over the combined tuples
// — which assigns the row to its epoch.
func (p *Proc) emitCompletion(now sim.Time, q *query.Query, vals []relation.Value, clock int64, pubAt int64, lin []query.LineageStep) {
	p.emitTo(now, q.ID, id.ID(q.Owner), p.eng.aggSpec(q.ID), vals, clock, pubAt, lin)
}

// emitTo is emitCompletion with the routing identity (query ID, owner,
// spec) supplied by the caller instead of read off a query object: the
// shared-pipeline fan-out emits one subscriber-shaped row per attached
// query, each under its own identity and aggregation spec, through
// exactly this path.
func (p *Proc) emitTo(now sim.Time, qid string, owner id.ID, spec *agg.Spec, vals []relation.Value, clock int64, pubAt int64, lin []query.LineageStep) {
	if spec == nil {
		p.eng.net.SendDirect(p.node, owner, newAnswerMsg(qid, owner, vals, pubAt, lin))
		return
	}
	epoch := spec.Window.EpochOf(clock)
	if p.eng.Cfg.SubscriberSideAgg {
		p.eng.net.WithTag(p.node, TagAgg, func() {
			p.eng.net.SendDirect(p.node, owner, newAggRowMsg(qid, owner, epoch, vals, pubAt, lin))
		})
		return
	}
	key := aggKeyOf(qid, spec.GroupKey(vals))
	msg := newAggPartialMsg(qid, key, owner, epoch, vals, pubAt, lin)
	p.eng.net.WithTag(p.node, TagAgg, func() {
		// One-hop fast path: the candidate table remembers which node a
		// previous partial for this group was routed to (the same trick
		// Section 7 plays for Eval messages); the ground-truth ownership
		// check guards against stale addresses mid-churn.
		if ent, ok := p.st.ct.fresh(key, now, p.eng.Cfg.CTValidity); ok {
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
	spec := p.eng.aggSpec(m.QueryID)
	if spec == nil {
		return // unknown query (cannot happen in-run; dropped defensively)
	}
	if p.eng.retiredSub(m.QueryID) {
		return // unsubscribed while the partial was in flight
	}
	p.qpl.Add(p.node.ID(), 1)
	p.ctr.AggPartials++
	if pf := p.eng.prof; pf != nil {
		pf.Add(p.shard, m.QueryID, m.Key.String(), profile.AggPartials, 1)
	}
	if tr := p.eng.trace; tr != nil {
		tr.Emit(p.shard, obs.Event{
			At: int64(now), Kind: obs.KindAggPartial, Node: p.nid(),
			Trace: m.QueryID, Key: m.Key.String(), Arg: m.Epoch,
		})
	}
	if p.st.aggFold(m.Key, m.QueryID, m.Owner, m.Epoch, m.Row, m.Lineage, m.PubAt) {
		p.sl.Add(p.node.ID(), 1)
	}
}

// viewKey addresses one row of a query's aggregate view.
type viewKey struct {
	group string
	epoch int64
}

// viewEntry is the latest version of one view row.
type viewEntry struct {
	row []relation.Value
	ver int64
	// lin is the row's provenance snapshot (see aggUpdateMsg.Lineage);
	// nil unless Config.Provenance is set.
	lin []query.LineageStep
}

// recordAggUpdate installs a group-update row into the owner-side
// aggregate view, keeping the highest version per (group, epoch) so
// reordered deliveries cannot regress the view. p is the owner's
// processor.
func (e *Engine) recordAggUpdate(now sim.Time, m *aggUpdateMsg, p *Proc) {
	if e.retiredS[m.QueryID] {
		return // unsubscribed while the update was in flight
	}
	e.answersMu.Lock()
	defer e.answersMu.Unlock()
	p.ctr.AggUpdates++
	lat := int64(now) - m.PubAt
	if om := e.obsM; om != nil {
		om.ObserveLatency(m.QueryID, lat)
		om.IncQuery(p.shard, int64(now), m.QueryID)
	}
	if tr := e.trace; tr != nil {
		tr.Emit(p.shard, obs.Event{
			At: int64(now), Kind: obs.KindAggUpdate, Node: p.nid(),
			Trace: m.QueryID, Key: m.Group, Arg: m.Epoch,
		})
	}
	vw, ok := e.aggViews[m.QueryID]
	if !ok {
		vw = make(map[viewKey]viewEntry)
		e.aggViews[m.QueryID] = vw
	}
	k := viewKey{group: m.Group, epoch: m.Epoch}
	if cur, ok := vw[k]; ok && cur.ver > m.Ver {
		return
	}
	vw[k] = viewEntry{row: m.Row, ver: m.Ver, lin: m.Lineage}
}

// localAggGroup is the subscriber-side fold state of one group when
// in-network aggregation is disabled.
type localAggGroup struct {
	group  []relation.Value
	epochs map[int64]*agg.Partial
	// lins mirrors aggGroup.lins for the subscriber-side fold; nil
	// unless Config.Provenance is set.
	lins map[int64]map[query.LineageStep]struct{}
}

// recordAggRow folds a raw answer row into the owner-held aggregate
// state (the SubscriberSideAgg ablation) and refreshes the affected
// view rows immediately — the subscriber pays one message per raw row,
// which is exactly the load the aggregation figure measures against.
func (e *Engine) recordAggRow(now sim.Time, m *aggRowMsg, p *Proc) {
	spec := e.aggSpec(m.QueryID)
	if spec == nil || e.retiredS[m.QueryID] {
		return
	}
	e.answersMu.Lock()
	defer e.answersMu.Unlock()
	p.ctr.AggPartials++
	if om := e.obsM; om != nil {
		om.ObserveLatency(m.QueryID, int64(now)-m.PubAt)
		om.IncQuery(p.shard, int64(now), m.QueryID)
	}
	if tr := e.trace; tr != nil {
		tr.Emit(p.shard, obs.Event{
			At: int64(now), Kind: obs.KindAggPartial, Node: p.nid(),
			Trace: m.QueryID, Arg: m.Epoch,
		})
	}
	groups, ok := e.aggLocal[m.QueryID]
	if !ok {
		groups = make(map[string]*localAggGroup)
		e.aggLocal[m.QueryID] = groups
	}
	gk := spec.GroupKey(m.Row)
	lg, ok := groups[gk]
	if !ok {
		lg = &localAggGroup{group: spec.GroupValues(m.Row), epochs: make(map[int64]*agg.Partial)}
		groups[gk] = lg
	}
	part, ok := lg.epochs[m.Epoch]
	if !ok {
		part = agg.NewPartial(spec)
		lg.epochs[m.Epoch] = part
	}
	part.Add(spec, m.Row)
	if e.prov && len(m.Lineage) > 0 {
		if lg.lins == nil {
			lg.lins = make(map[int64]map[query.LineageStep]struct{})
		}
		set, ok := lg.lins[m.Epoch]
		if !ok {
			set = make(map[query.LineageStep]struct{}, len(m.Lineage))
			lg.lins[m.Epoch] = set
		}
		for _, s := range m.Lineage {
			set[s] = struct{}{}
		}
	}

	vw, ok := e.aggViews[m.QueryID]
	if !ok {
		vw = make(map[viewKey]viewEntry)
		e.aggViews[m.QueryID] = vw
	}
	refresh := func(epoch int64) {
		parts := []*agg.Partial{lg.epochs[epoch]}
		if spec.Sliding() {
			parts = append(parts, lg.epochs[epoch-1])
		}
		if agg.MergedRows(parts...) == 0 {
			return
		}
		var lin []query.LineageStep
		if lg.lins != nil {
			g := aggGroup{lins: lg.lins}
			if spec.Sliding() {
				lin = g.lineageOf(epoch, epoch-1)
			} else {
				lin = g.lineageOf(epoch)
			}
		}
		vw[viewKey{group: gk, epoch: epoch}] = viewEntry{
			row: spec.FinalizeRow(lg.group, parts...),
			ver: agg.MergedRows(parts...),
			lin: lin,
		}
	}
	refresh(m.Epoch)
	if spec.Sliding() {
		refresh(m.Epoch + 1)
	}
}

// flushAggregates emits one group-update row per dirty (group, epoch)
// across every aggregator node, in deterministic order (node, key,
// epoch), and reports whether anything was emitted. It runs from
// coordinator context between drains; Engine.Run loops until a drain
// produces no new dirty state.
func (e *Engine) flushAggregates() bool {
	if len(e.aggSpecs) == 0 || e.Cfg.SubscriberSideAgg {
		return false
	}
	// Enumerate only procs with dirty groups: the loop's final
	// iteration (and every Run on a quiet engine) must not pay the
	// per-proc key sort just to discover there is nothing to emit.
	ids := make([]id.ID, 0, len(e.procs))
	for nid, p := range e.procs {
		for _, g := range p.st.aggs {
			if len(g.dirty) > 0 {
				ids = append(ids, nid)
				break
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	emitted := false
	for _, nid := range ids {
		p := e.procs[nid]
		for _, key := range sortedStateKeys(p.st.aggs) {
			g := p.st.aggs[key]
			if len(g.dirty) == 0 {
				continue
			}
			spec := e.aggSpec(g.qid)
			epochs := make([]int64, 0, len(g.dirty))
			for ep := range g.dirty {
				epochs = append(epochs, ep)
			}
			sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
			for _, ep := range epochs {
				parts := []*agg.Partial{g.epochs[ep]}
				if spec.Sliding() {
					parts = append(parts, g.epochs[ep-1])
				}
				if agg.MergedRows(parts...) == 0 {
					continue // dirty via a neighbour that has no data yet
				}
				var lin []query.LineageStep
				if spec.Sliding() {
					lin = g.lineageOf(ep, ep-1)
				} else {
					lin = g.lineageOf(ep)
				}
				msg := &aggUpdateMsg{
					QueryID: g.qid,
					Owner:   g.owner,
					Group:   g.gkey,
					Epoch:   ep,
					Ver:     agg.MergedRows(parts...),
					Row:     spec.FinalizeRow(g.group, parts...),
					PubAt:   g.pubAt,
					Lineage: lin,
				}
				e.net.WithTag(p.node, TagAgg, func() {
					e.net.SendDirect(p.node, g.owner, msg)
				})
				emitted = true
			}
			g.dirty = make(map[int64]bool)
		}
	}
	return emitted
}

// AggRows returns the current aggregate view of a query: the latest
// finalized row of every (group, epoch), sorted by group key then
// epoch. Aggregate views are complete as of the last Run() quiescence
// flush.
func (e *Engine) AggRows(queryID string) []agg.ViewRow {
	e.answersMu.Lock()
	defer e.answersMu.Unlock()
	vw := e.aggViews[queryID]
	out := make([]agg.ViewRow, 0, len(vw))
	for k, ent := range vw {
		out = append(out, agg.ViewRow{Group: k.group, Epoch: k.epoch, Row: ent.row, Lineage: ent.lin})
	}
	agg.SortViewRows(out)
	return out
}
