package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"rjoin/internal/agg"
	"rjoin/internal/obs"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/share"
	"rjoin/internal/sim"
)

// This file is the subscriber side of the engine: one subscription
// record per submitted query, and the only code that indexes Engine.subs.
// Engine.subs is written in coordinator context only (SubmitQuery adds a
// record, nothing ever removes one) and read lock-free by handlers. A
// record's identity (query, spec) is immutable; its sharing fields
// change only in coordinator context too; its contents are guarded by
// its own mutex, because mid-churn two nodes on different shards can
// deliver for one query in the same tick.
//
// The record is also where the query's sharing class lives (share.go):
// the record of a QID naming a pipeline names its class, and every
// live subscriber's record points at the class it rides and holds its
// residual. A subscriber is live while it rides a class, the pipeline
// its QID names while its record names one.
//
// Unsubscribe retires a record: the contents go, the identity stays.
// In-flight partials and Evals still look their record up, and Explain
// must keep answering for past queries, so one immutable query + spec
// per departed subscription is what the engine retains — and the class
// of a pipeline others still ride. The entries the nodes hold for it go
// with the retirement or the teardown (Engine.release).

// Answer is one result row delivered to a query owner.
type Answer struct {
	// Query is the subscription's query ID.
	Query string
	// Row holds the select-list values: the caller's own copy, decoded
	// from the owner's answer log by the read that returned it.
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

// markEvery is how many logged rows lie between two seek marks: a read
// from a cursor decodes at most markEvery-1 rows it does not return.
const markEvery = 64

// logMark is where row i·markEvery of an answer log starts (i ≥ 1; row
// 0 starts at offset 0 with base time 0): its byte offset, and the
// delivery time of the row before it, which its delay counts from.
type logMark struct {
	off  int
	base int64
}

// subscription is everything the engine keeps for one submitted query.
type subscription struct {
	q    *query.Query // as stamped at submission
	spec *agg.Spec    // nil for a plain query

	// The sharing fields (share.go), written in coordinator context only
	// and read by handlers without the lock, like the map itself. cls is
	// the class whose pipeline this QID names: set when the class opens,
	// nil once it is torn down or if the QID rides another's pipeline.
	// rides is the class this subscriber rides and res its residual
	// against the class's form (nil: rows pass through unchanged); both
	// are nil once it is unsubscribed.
	cls   *shareClass
	rides *shareClass
	res   *share.Residual

	// What the nodes' states hold for the record, each entry listed
	// while one does: its pipeline's stored queries and placement walks,
	// its subscriber's aggregator groups. Teardown removes what they
	// list. Handlers of several shards write one pipeline's lists in the
	// same sub-round, so every write holds own.
	own     sync.Mutex
	queries roster[*storedQuery]
	pending roster[*pendingPlacement]
	groups  roster[*aggGroup]

	mu sync.Mutex
	// The answer log: the delivered rows in delivery order, each the
	// uvarint delay since the previous row's delivery (since time 0 for
	// the first), then its len(q.Select) values encoded with
	// relation.AppendCanonical. rows counts them, last is the latest
	// row's delivery time, and marks holds the start of every
	// markEvery-th row. lins holds each row's lineage (nil unless
	// Config.Provenance is set). The reads decode the rows they return.
	log   []byte
	rows  int
	last  int64
	marks []logMark
	lins  [][]query.LineageStep
	seen  map[string]bool // DISTINCT: canonical rows already delivered
	// The aggregate view: every (group, epoch)'s index into vrows, which
	// holds its latest row (len(q.Select) values per row), vers, its
	// version, and vlins, its lineage (nil unless Config.Provenance is
	// set; see aggUpdateMsg.Lineage).
	view  map[viewKey]int32
	vrows []relation.Value
	vers  []int64
	vlins [][]query.LineageStep
	lat   *obs.Histogram // answer latency; nil unless Config.Obs has metrics
}

// addSub opens the record of a freshly stamped query.
func (e *Engine) addSub(q *query.Query) *subscription {
	s := &subscription{q: q, spec: agg.SpecOf(q)}
	if e.obs.Views().Metrics != nil {
		s.lat = &obs.Histogram{}
	}
	if s.spec != nil {
		e.aggLive++
	}
	e.subs[q.ID] = s
	return s
}

// retired reports whether the subscriber has been unsubscribed.
func (s *subscription) retired() bool { return s.rides == nil }

// since is the earliest publication time a row's tuples may have for
// the row to reach the subscriber: its insertion time, or none for a
// one-time snapshot, whose rows combine tuples published before it.
func (s *subscription) since() int64 {
	if s.q.OneTime {
		return math.MinInt64
	}
	return s.q.InsertTime
}

// retireSub retires a record: it drops everything but its identity —
// and the class of a pipeline others still ride.
func (e *Engine) retireSub(s *subscription) {
	if s.spec != nil {
		e.aggLive--
	}
	s.mu.Lock()
	s.rides, s.res = nil, nil
	s.log, s.rows, s.last, s.marks, s.lins, s.seen = nil, 0, 0, nil, nil, nil
	s.view, s.vrows, s.vers, s.vlins, s.lat = nil, nil, nil, nil, nil
	s.mu.Unlock()
}

// sub returns the record of a submitted query, nil for an unknown ID.
func (e *Engine) sub(qid string) *subscription { return e.subs[qid] }

// enlist lists an entry that enters a state on the record, and delist
// takes off one that leaves every state: it died, was triggered out of
// its window, decided, lost or restarted afresh. A move installs the same object at the heir and touches
// neither. A nil record — a QID with no record — lists nothing.
func (s *subscription) enlist(x any) { s.list(x, true) }
func (s *subscription) delist(x any) { s.list(x, false) }

func (s *subscription) list(x any, on bool) {
	if s == nil {
		return
	}
	s.own.Lock()
	switch x := x.(type) {
	case *storedQuery:
		s.queries.set(x, on)
	case *pendingPlacement:
		s.pending.set(x, on)
	case *aggGroup:
		s.groups.set(x, on)
	}
	s.own.Unlock()
}

// roster is a record's list of the entries of one kind it owns, in no
// order. Each entry keeps its index there (at), so adding and removing
// one costs the same whatever the list's length.
type roster[T interface {
	comparable
	at() *int32
}] []T

// set adds x, or with on unset removes it.
func (r *roster[T]) set(x T, on bool) {
	l := *r
	if on {
		*x.at() = int32(len(l))
		*r = append(l, x)
		return
	}
	i, last := *x.at(), l[len(l)-1]
	if l[i] != x {
		panic("core: delisting an entry its record does not list")
	}
	l[i], *last.at() = last, i
	var none T
	l[len(l)-1] = none
	*r = l[:len(l)-1]
}

func (sq *storedQuery) at() *int32      { return &sq.pos }
func (pp *pendingPlacement) at() *int32 { return &pp.pos }
func (g *aggGroup) at() *int32          { return &g.pos }

// tornDown reports whether the entry's pipeline was torn down: its
// record names no class. Its straggler rewrites and placements are
// dropped, not re-indexed. An entry of a QID with no record is live.
func (sq *storedQuery) tornDown() bool { return sq.pipe != nil && sq.pipe.cls == nil }

// open is the first half of every delivery: one lookup, the retired
// check, the lock. It returns nil when the row has nobody to go to
// (unsubscribed while it was in flight); otherwise the caller unlocks.
func (e *Engine) open(qid string) *subscription {
	s := e.subs[qid]
	if s == nil || s.retired() {
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
// top of the distributed projection rule), and encodes the row onto the
// log — the message's row buffer goes back to the pool with it.
// Per-query delivery order is fixed by the owner's shard schedule, so
// locking cannot perturb it.
func (e *Engine) recordAnswer(now sim.Time, m *answerMsg, p *Proc) {
	s := e.open(m.QueryID)
	if s == nil {
		return
	}
	defer s.mu.Unlock()
	if len(m.Values) != len(s.q.Select) {
		panic(fmt.Sprintf("core: answer of %d values for %s, which selects %d", len(m.Values), m.QueryID, len(s.q.Select)))
	}
	if int64(now) < s.last {
		panic(fmt.Sprintf("core: answer for %s delivered at %d, after one at %d", m.QueryID, now, s.last))
	}
	if cap(s.log)-len(s.log) < 64 {
		// Past 256 bytes an append grows a byte slice by about a quarter;
		// doubling keeps a row's share of the log's reallocations below
		// what the value slices it replaced cost.
		s.log = slices.Grow(s.log, len(s.log)+64)
	}
	start := len(s.log)
	s.log = binary.AppendUvarint(s.log, uint64(int64(now)-s.last))
	vals := len(s.log)
	s.log = appendRowKey(s.log, m.Values)
	if s.q.Distinct {
		// The row's encoding on the log's tail is its key: the lookup
		// reads it in place, only a kept row's key becomes a string, and
		// a repeat leaves the log as it was.
		if s.seen[string(s.log[vals:])] {
			s.log = s.log[:start]
			return
		}
		if s.seen == nil {
			s.seen = make(map[string]bool)
		}
		s.seen[string(s.log[vals:])] = true
	}
	if s.rows > 0 && s.rows%markEvery == 0 {
		s.marks = append(s.marks, logMark{off: start, base: s.last})
	}
	s.rows++
	s.last = int64(now)
	p.ctr.AnswersDelivered++
	if e.prov {
		s.lins = append(s.lins, m.Lineage)
	}
	lat := int64(now) - m.PubAt
	e.observe(now, p, s, lat, obs.KindAnswer, "", lat)
}

// appendRowKey encodes a row with the shared injective encoding
// (relation.AppendCanonical — kind tag plus length-prefixed payload),
// which is both the answer log's row format and the DISTINCT filter's
// key: no choice of values — strings containing NUL, strings resembling
// a separator, or an integer rendering identically to a string
// (Int64(12) vs String64("12")) — can make two distinct rows collide,
// which a bare separator-joined rendering allowed (rows differing only
// in where a NUL fell deduplicated against each other, silently
// dropping a real answer).
func appendRowKey(dst []byte, vals []relation.Value) []byte {
	for _, v := range vals {
		dst = relation.AppendCanonical(dst, v)
	}
	return dst
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
	w := len(s.q.Select)
	if len(m.Row) != w {
		panic(fmt.Sprintf("core: view row of %d values for %s, which selects %d", len(m.Row), m.QueryID, w))
	}
	// The message's row is its own buffer, recycled on return: the view
	// copies it into its row array.
	k := viewKey{group: m.Group, epoch: m.Epoch}
	i, ok := s.view[k]
	if !ok {
		if s.view == nil {
			s.view = make(map[viewKey]int32)
		}
		s.view[k] = int32(len(s.vers))
		s.vrows = append(s.vrows, m.Row...)
		s.vers = append(s.vers, m.Ver)
		if e.prov {
			s.vlins = append(s.vlins, m.Lineage)
		}
		return
	}
	if s.vers[i] > m.Ver {
		return
	}
	copy(s.vrows[int(i)*w:], m.Row)
	s.vers[i] = m.Ver
	if e.prov {
		s.vlins[i] = m.Lineage
	}
}

// Answers returns the rows delivered so far for a query, in delivery
// order; nil once it is unsubscribed. It is AnswersSince(queryID, 0).
func (e *Engine) Answers(queryID string) []Answer { return e.AnswersSince(queryID, 0) }

// AnswersSince returns the rows delivered at or after position cursor
// of the delivery order (clamped to it); nil when there are none. It
// decodes the rows from the answer log on every call, starting at the
// last seek mark at or before cursor, so it costs O(rows returned +
// markEvery). The []Answer and every Row in it are the caller's: each
// Row is a capacity-capped slice of one fresh array, so an append to it
// copies, and a slice returned earlier never changes.
func (e *Engine) AnswersSince(queryID string, cursor int) []Answer {
	s := e.subs[queryID]
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.rows
	cursor = min(max(cursor, 0), n)
	if cursor == n {
		return nil
	}
	r, mk := cursor-cursor%markEvery, logMark{}
	if r > 0 {
		mk = s.marks[r/markEvery-1]
	}
	b, at := s.log[mk.off:], mk.base
	w := len(s.q.Select)
	out := make([]Answer, n-cursor)
	vals := make([]relation.Value, len(out)*w)
	for ; r < n; r++ {
		d, k := binary.Uvarint(b)
		b, at = b[k:], at+int64(d)
		var row []relation.Value // nil: a row before cursor, decoded and dropped
		if i := r - cursor; i >= 0 {
			row = vals[i*w : (i+1)*w : (i+1)*w]
			out[i] = Answer{Query: s.q.ID, Row: row, At: at}
			if s.lins != nil {
				out[i].Lineage = s.lins[r]
			}
		}
		for j := range w {
			v, rest, err := relation.ReadCanonical(b)
			if err != nil {
				panic(fmt.Sprintf("core: answer log of %s, row %d: %v", queryID, r, err))
			}
			if b = rest; row != nil {
				row[j] = v
			}
		}
	}
	return out
}

// AnswerCount returns how many rows have been delivered for a query; 0
// once it is unsubscribed.
func (e *Engine) AnswerCount(queryID string) int {
	s := e.subs[queryID]
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// AggRows returns the current aggregate view of a query: the latest
// finalized row of every (group, epoch), sorted by group key then
// epoch. Aggregate views are complete as of the last Run() quiescence
// flush. The rows are copied into one fresh array on every call, so a
// slice returned earlier never changes, though a later update rewrites
// the engine's row in place.
func (e *Engine) AggRows(queryID string) []agg.ViewRow {
	s := e.subs[queryID]
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := len(s.q.Select)
	out := make([]agg.ViewRow, 0, len(s.view))
	vals := slices.Clone(s.vrows)
	for k, i := range s.view {
		r := int(i) * w
		out = append(out, agg.ViewRow{Group: k.group, Epoch: k.epoch, Row: vals[r : r+w : r+w]})
		if s.vlins != nil {
			out[len(out)-1].Lineage = s.vlins[i]
		}
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
		if !s.retired() {
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
		if s.retired() {
			f.retired++
		} else {
			f.live++
		}
		f.rows += s.rows + len(s.view)
		f.aux += len(s.seen)
		if s.lat != nil {
			f.aux++
		}
	}
	return f
}
