package core

import (
	"slices"

	"rjoin/internal/agg"
	"rjoin/internal/id"
	"rjoin/internal/obs"
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
// partials routed to aggregators and group updates sent to subscribers.
// The aggregation experiment reports this share separately.
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

// viewRow finalizes the view row of one epoch — for a sliding window the
// merge of the epoch's partial with its predecessor's — versioned by the
// number of rows folded into it. ok is false while the epoch holds no
// data (it was marked dirty by a neighbour).
func (g *aggGroup) viewRow(spec *agg.Spec, epoch int64) (row viewEntry, ok bool) {
	parts, epochs := [2]*agg.Partial{g.epochs[epoch]}, [2]int64{epoch}
	n := 1
	if spec.Sliding() {
		parts[1], epochs[1], n = g.epochs[epoch-1], epoch-1, 2
	}
	ver := agg.MergedRows(parts[:n]...)
	if ver == 0 {
		return viewEntry{}, false
	}
	return viewEntry{row: spec.FinalizeRow(g.group, parts[:n]...), ver: ver, lin: g.lineageOf(epochs[:n]...)}, true
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
	key := aggKeyOf(qid, spec.GroupKey(c.vals))
	msg := newAggPartialMsg(qid, key, owner, spec.Window.EpochOf(c.clock), c.vals, c.pubAt, c.lin)
	p.eng.net.WithTag(p.node, TagAgg, func() {
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
	p.qpl.Add(p.node.ID(), 1)
	p.ctr.AggPartials++
	if ob := p.eng.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{
			At: now, Kind: obs.KindAggPartial, Node: p.nid(),
			QID: m.QueryID, Key: m.Key.String(), Arg: m.Epoch,
		})
	}
	if p.st.aggFold(m.Key, m.QueryID, m.Owner, m.Epoch, m.Row, m.Lineage, m.PubAt) {
		p.sl.Add(p.node.ID(), 1)
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
	var ids []id.ID
	for nid, p := range e.procs {
		if len(p.st.dirtyAggs) > 0 {
			ids = append(ids, nid)
		}
	}
	slices.Sort(ids)
	emitted := false
	for _, nid := range ids {
		p := e.procs[nid]
		p.st.flushDirty(func(g *aggGroup) {
			spec := e.aggSpec(g.qid)
			epochs := make([]int64, 0, len(g.dirty))
			for ep := range g.dirty {
				epochs = append(epochs, ep)
			}
			slices.Sort(epochs)
			for _, ep := range epochs {
				row, ok := g.viewRow(spec, ep)
				if !ok {
					continue
				}
				msg := &aggUpdateMsg{
					QueryID: g.qid,
					Owner:   g.owner,
					Group:   g.gkey,
					Epoch:   ep,
					Ver:     row.ver,
					Row:     row.row,
					PubAt:   g.pubAt,
					Lineage: row.lin,
				}
				e.net.WithTag(p.node, TagAgg, func() {
					e.net.SendDirect(p.node, g.owner, msg)
				})
				emitted = true
			}
		})
	}
	return emitted
}
