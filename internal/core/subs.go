package core

import (
	"sort"
	"sync"

	"rjoin/internal/agg"
	"rjoin/internal/obs"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// This file is the subscriber side of the engine: one subscription
// record per submitted query, and the only code that indexes Engine.subs.
// Engine.subs is written in coordinator context only (SubmitQuery adds a
// record, nothing ever removes one) and read lock-free by handlers — the
// discipline the sharing registry follows. A record's identity (query,
// spec) is immutable; its contents are guarded by its own mutex, because
// mid-churn two nodes on different shards can deliver for one query in
// the same tick.
//
// Unsubscribe retires a record: the contents go, the identity stays.
// In-flight partials and mirrored aggregator groups still look their spec
// up by QID, and Explain must keep answering for past queries, so one
// immutable query + spec per departed subscription is what the engine
// retains — and nothing else.

// Answer is one result row delivered to a query owner.
type Answer struct {
	// Query is the subscription's query ID.
	Query string
	// Row holds the select-list values.
	Row []relation.Value
	// At is the virtual time of delivery.
	At int64
	// Lineage is the row's provenance: the base tuples that joined into
	// it, by (publisher, publish sequence), with the node each rewrite
	// hop executed on, in consumption order. Nil unless Config.Provenance
	// is set.
	Lineage []query.LineageStep
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

// subscription is everything the engine keeps for one submitted query.
type subscription struct {
	q    *query.Query // as stamped at submission
	spec *agg.Spec    // nil for a plain query

	// retired is written by Unsubscribe, in coordinator context, and
	// read by handlers without the lock like the map itself.
	retired bool

	mu   sync.Mutex
	rows []Answer              // delivered rows, in delivery order
	seen map[string]bool       // DISTINCT: canonical rows already delivered
	view map[viewKey]viewEntry // aggregate view
	lat  *obs.Histogram        // answer latency; nil unless Config.Obs has metrics
}

// addSub opens the record of a freshly stamped query.
func (e *Engine) addSub(q *query.Query) {
	s := &subscription{q: q, spec: agg.SpecOf(q)}
	if e.obs.Views().Metrics != nil {
		s.lat = &obs.Histogram{}
	}
	if s.spec != nil {
		e.aggLive++
	}
	e.subs[q.ID] = s
}

// retireSub marks a record retired and drops everything but its
// identity.
func (e *Engine) retireSub(qid string) {
	s := e.subs[qid]
	if s.spec != nil {
		e.aggLive--
	}
	s.mu.Lock()
	s.retired = true
	s.rows, s.seen, s.view, s.lat = nil, nil, nil, nil
	s.mu.Unlock()
}

// sub returns the record of a submitted query, nil for an unknown ID.
func (e *Engine) sub(qid string) *subscription { return e.subs[qid] }

// aggSpec returns the immutable aggregation spec of a query, live or
// retired; nil for plain and unknown queries.
func (e *Engine) aggSpec(qid string) *agg.Spec {
	if s := e.subs[qid]; s != nil {
		return s.spec
	}
	return nil
}

// retiredSub reports whether qid names an unsubscribed subscriber: its
// in-flight answers and aggregation partials must be dropped.
func (e *Engine) retiredSub(qid string) bool {
	s := e.subs[qid]
	return s != nil && s.retired
}

// open is the first half of every delivery: one lookup, the retired
// check, the lock. It returns nil when the row has nobody to go to
// (unsubscribed while it was in flight); otherwise the caller unlocks.
func (e *Engine) open(qid string) *subscription {
	s := e.subs[qid]
	if s == nil || s.retired {
		return nil
	}
	s.mu.Lock()
	return s
}

// observe is the second half: the delivery's latency into the per-query
// histogram (under the record's lock, which the caller holds) and the
// delivery's record — the global latency histogram, the query's rate
// series and the trace event all derive from it. p is the owner's
// processor.
func (e *Engine) observe(now sim.Time, p *Proc, s *subscription, lat int64, kind obs.Kind, key string, arg int64) {
	s.lat.Observe(lat)
	if ob := e.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{At: now, Kind: kind, Node: p.nid(), QID: s.q.ID, Key: key, Arg: arg, N: lat})
	}
}

// recordAnswer collects an answer at its owner, applying the owner-side
// set-semantics filter for DISTINCT queries (a final local safety net on
// top of the distributed projection rule). Per-query delivery order is
// fixed by the owner's shard schedule, so locking cannot perturb it.
func (e *Engine) recordAnswer(now sim.Time, m *answerMsg, p *Proc) {
	s := e.open(m.QueryID)
	if s == nil {
		return
	}
	defer s.mu.Unlock()
	if s.q.Distinct {
		if s.seen == nil {
			s.seen = make(map[string]bool)
		}
		key := rowKey(m.Values)
		if s.seen[key] {
			return
		}
		s.seen[key] = true
	}
	p.ctr.AnswersDelivered++
	s.rows = append(s.rows, Answer{Query: m.QueryID, Row: m.Values, At: int64(now), Lineage: m.Lineage})
	lat := int64(now) - m.PubAt
	e.observe(now, p, s, lat, obs.KindAnswer, "", lat)
}

// rowKey canonicalizes a row for the DISTINCT filter using the shared
// injective encoding (relation.AppendCanonical — kind tag plus
// length-prefixed payload): no choice of values — strings containing
// NUL, strings resembling a separator, or an integer rendering
// identically to a string (Int64(12) vs String64("12")) — can make two
// distinct rows collide, which a bare separator-joined rendering
// allowed (rows differing only in where a NUL fell deduplicated
// against each other, silently dropping a real answer).
func rowKey(vals []relation.Value) string {
	var b []byte
	for _, v := range vals {
		b = relation.AppendCanonical(b, v)
	}
	return string(b)
}

// recordAggUpdate installs a group-update row into the owner-side
// aggregate view, keeping the highest version per (group, epoch) so
// reordered deliveries cannot regress the view.
func (e *Engine) recordAggUpdate(now sim.Time, m *aggUpdateMsg, p *Proc) {
	s := e.open(m.QueryID)
	if s == nil {
		return
	}
	defer s.mu.Unlock()
	p.ctr.AggUpdates++
	e.observe(now, p, s, int64(now)-m.PubAt, obs.KindAggUpdate, m.Group, m.Epoch)
	if s.view == nil {
		s.view = make(map[viewKey]viewEntry)
	}
	k := viewKey{group: m.Group, epoch: m.Epoch}
	if cur, ok := s.view[k]; ok && cur.ver > m.Ver {
		return
	}
	s.view[k] = viewEntry{row: m.Row, ver: m.Ver, lin: m.Lineage}
}

// Answers returns the rows delivered so far for a query, in delivery
// order; nil once it is unsubscribed. The returned slice is shared;
// callers must not mutate it.
func (e *Engine) Answers(queryID string) []Answer {
	if s := e.subs[queryID]; s != nil {
		return s.rows
	}
	return nil
}

// AllAnswers returns a snapshot of every live query's delivered answers
// keyed by query ID: the map, its slices and each answer's value row
// are copies, so callers may mutate or retain them without corrupting
// engine state. The churn experiments use this to compare whole answer
// sets against a reference run.
func (e *Engine) AllAnswers() map[string][]Answer {
	out := make(map[string][]Answer, len(e.subs))
	for qid, s := range e.subs {
		if len(s.rows) == 0 {
			continue
		}
		cp := make([]Answer, len(s.rows))
		for i, a := range s.rows {
			a.Row = append([]relation.Value(nil), a.Row...)
			cp[i] = a
		}
		out[qid] = cp
	}
	return out
}

// AggRows returns the current aggregate view of a query: the latest
// finalized row of every (group, epoch), sorted by group key then
// epoch. Aggregate views are complete as of the last Run() quiescence
// flush.
func (e *Engine) AggRows(queryID string) []agg.ViewRow {
	s := e.subs[queryID]
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]agg.ViewRow, 0, len(s.view))
	for k, ent := range s.view {
		out = append(out, agg.ViewRow{Group: k.group, Epoch: k.epoch, Row: ent.row, Lineage: ent.lin})
	}
	agg.SortViewRows(out)
	return out
}

// QueryLatency summarizes one query's answer latency; the zero summary
// when Config.Metrics is off or the query is unknown or unsubscribed.
func (e *Engine) QueryLatency(queryID string) obs.LatencySummary {
	if s := e.subs[queryID]; s != nil {
		return s.lat.Summary()
	}
	return obs.LatencySummary{}
}

// LiveSubscriptions returns the IDs of every query submitted and not
// yet unsubscribed, sorted.
func (e *Engine) LiveSubscriptions() []string {
	ids := make([]string, 0, len(e.subs))
	for qid, s := range e.subs {
		if !s.retired {
			ids = append(ids, qid)
		}
	}
	sort.Strings(ids)
	return ids
}

// resetLatency zeroes the per-query histograms (ResetMetrics).
func (e *Engine) resetLatency() {
	for _, s := range e.subs {
		if s.lat != nil {
			*s.lat = obs.Histogram{}
		}
	}
}

// subsFootprint is what the engine retains on the subscriber side:
// records by status and the rows, view rows, DISTINCT keys and
// histograms reachable through them.
type subsFootprint struct {
	live, retired int
	rows          int // delivered rows + aggregate view rows
	aux           int // DISTINCT keys + latency histograms
}

func (e *Engine) subsFootprint() (f subsFootprint) {
	for _, s := range e.subs {
		if s.retired {
			f.retired++
		} else {
			f.live++
		}
		f.rows += len(s.rows) + len(s.view)
		f.aux += len(s.seen)
		if s.lat != nil {
			f.aux++
		}
	}
	return f
}
