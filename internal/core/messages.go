package core

import (
	"sync"

	"rjoin/internal/id"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// The high-volume message kinds — tuple deliveries, query placements,
// answers, aggregation partials, group updates and RIC walks — are
// pooled. Every such message is delivered at most once and its receiver
// copies out whatever it retains, so the handler dispatch loop recycles
// the struct as soon as the handler returns — except a walk's request,
// which travels on from hop to hop and is recycled at its last one,
// where the reply takes over its reports. Messages dropped by the
// overlay (dead or detached recipient) simply fall to the garbage
// collector; only delivery recycles.
//
// The pendingPlacement a query waits for RIC reports in is the eighth
// pooled kind (proc.go); it is recycled where it is decided or torn
// down. One ownership rule holds for all eight: each owns its unexported
// buffers (the inline report, key and slot arrays, the row of an answer,
// a partial or a group update) and nothing else. Its constructor copies
// what it carries into them, and its recycle method — the only place a
// pooled object is reset — leaves every field zero except those
// buffers, emptied, so the next use allocates nothing and the pool
// keeps no value alive.
// TestPooledMessagesKeepOnlyOwnedBuffers checks that by reflection.
var (
	tupleMsgPool      = sync.Pool{New: func() interface{} { return new(tupleMsg) }}
	evalMsgPool       = sync.Pool{New: func() interface{} { return new(evalMsg) }}
	answerMsgPool     = sync.Pool{New: func() interface{} { return new(answerMsg) }}
	aggPartialMsgPool = sync.Pool{New: func() interface{} { return new(aggPartialMsg) }}
	aggUpdateMsgPool  = sync.Pool{New: func() interface{} { return new(aggUpdateMsg) }}
	ricRequestMsgPool = sync.Pool{New: func() interface{} { return new(ricRequestMsg) }}
	ricReplyMsgPool   = sync.Pool{New: func() interface{} { return new(ricReplyMsg) }}
	pendingPool       = sync.Pool{New: func() interface{} { return new(pendingPlacement) }}
)

// inlineReports is how many RIC reports or walk keys a pooled message
// carries in its own arrays: a rewrite's placement has one or two value
// candidates, an input query's a few attribute ones. More spill to the
// heap.
const inlineReports = 2

func newTupleMsg(t *relation.Tuple, key relation.Key, level query.Level, publisher id.ID) *tupleMsg {
	m := tupleMsgPool.Get().(*tupleMsg)
	*m = tupleMsg{T: t, Key: key, Level: level, Publisher: publisher}
	return m
}

func (m *tupleMsg) recycle() {
	*m = tupleMsg{}
	tupleMsgPool.Put(m)
}

// newEvalMsg returns a pooled Eval message for sq with no reports
// piggy-backed; the sender appends them to RIC, which starts on the
// message's own array.
func newEvalMsg(sq *storedQuery, key relation.Key, level query.Level) *evalMsg {
	m := evalMsgPool.Get().(*evalMsg)
	*m = evalMsg{SQ: sq, Key: key, Level: level}
	m.RIC = m.ric[:0]
	return m
}

func (m *evalMsg) recycle() {
	*m = evalMsg{}
	evalMsgPool.Put(m)
}

// newAnswerMsg returns a pooled answer carrying a copy of values in the
// message's own row buffer: the caller's row may be scratch.
func newAnswerMsg(queryID string, owner id.ID, values []relation.Value, pubAt int64, lin []query.LineageStep) *answerMsg {
	m := answerMsgPool.Get().(*answerMsg)
	m.row = append(m.row[:0], values...)
	m.QueryID, m.Owner, m.Values, m.PubAt, m.Lineage = queryID, owner, m.row, pubAt, lin
	return m
}

func (m *answerMsg) recycle() {
	*m = answerMsg{row: emptied(m.row)}
	answerMsgPool.Put(m)
}

// emptied returns a pooled message's row buffer, cleared so the pool
// keeps no value's string alive, with its array kept for the next use.
func emptied(row []relation.Value) []relation.Value {
	clear(row)
	return row[:0]
}

// tupleMsg is Procedure 1's newTuple(t, Key, IP(x), Level) message: one
// copy per index key of the tuple.
type tupleMsg struct {
	T         *relation.Tuple
	Key       relation.Key
	Level     query.Level
	Publisher id.ID
}

// RingKey implements overlay.Rekeyable: an undeliverable tuple message
// is bound to its index key.
func (m *tupleMsg) RingKey() id.ID { return m.Key.ID() }

// evalMsg carries an input or rewritten query, in the entry that will
// store it, to the node that will store it (the paper's Eval(q, Key,
// Owner(q)) message; input-query indexing uses the same shape). RIC
// entries learned by the sender are piggy-backed per Section 7, copied
// into the message: the receiver reads them ticks later.
type evalMsg struct {
	SQ    *storedQuery
	Key   relation.Key
	Level query.Level
	RIC   []ricInfo
	ric   [inlineReports]ricInfo
}

// RingKey implements overlay.Rekeyable.
func (m *evalMsg) RingKey() id.ID { return m.Key.ID() }

// answerMsg delivers one answer row directly to the input query's
// owner. Owner is carried so that an answer in flight to a node that
// just departed can be bounced to the successor of the owner's
// identifier — the node applications reach when they look the owner up
// after the departure.
type answerMsg struct {
	QueryID string
	Owner   id.ID
	Values  []relation.Value // the message's row buffer
	// PubAt is the publication vtime of the tuple whose arrival
	// completed the rewrite chain — the trigger of this answer. The
	// owner's answer-latency measurement is delivery vtime minus PubAt.
	PubAt int64
	// Lineage is the answer's provenance — the (publisher, pubSeq,
	// node) of every tuple the rewrite chain consumed, in consumption
	// order. Nil unless Config.Provenance is set.
	Lineage []query.LineageStep
	row     []relation.Value
}

// RingKey implements overlay.Rekeyable: answers re-route to the
// current successor of the owner's ring position.
func (m *answerMsg) RingKey() id.ID { return m.Owner }

// newAggPartialMsg returns a pooled partial carrying a copy of row in
// the message's own row buffer: the caller's row may be scratch, or
// the one row a shared pipeline's fan-out hands every subscriber.
func newAggPartialMsg(queryID string, key relation.Key, epoch int64, row []relation.Value, pubAt int64, lin []query.LineageStep) *aggPartialMsg {
	m := aggPartialMsgPool.Get().(*aggPartialMsg)
	m.row = append(m.row[:0], row...)
	m.QueryID, m.Key, m.Epoch, m.Row, m.PubAt, m.Lineage = queryID, key, epoch, m.row, pubAt, lin
	return m
}

func (m *aggPartialMsg) recycle() {
	*m = aggPartialMsg{row: emptied(m.row)}
	aggPartialMsgPool.Put(m)
}

// aggPartialMsg carries one completed answer row of an aggregate query
// from its completion node to the aggregator responsible for the row's
// group: the node owning Key = Hash(agg + queryID + groupKey). The
// aggregator finds where group updates go on the query's record.
type aggPartialMsg struct {
	QueryID string
	Key     relation.Key
	Epoch   int64
	Row     []relation.Value // the message's row buffer
	// PubAt is the triggering tuple's publication vtime (see
	// answerMsg.PubAt); the aggregator folds it into the group's
	// latency watermark.
	PubAt int64
	// Lineage is the row's provenance (see answerMsg.Lineage); the
	// aggregator folds it into the group's per-epoch lineage union.
	Lineage []query.LineageStep
	row     []relation.Value
}

// RingKey implements overlay.Rekeyable: a partial in flight to a
// departed aggregator re-routes to its group key's new owner.
func (m *aggPartialMsg) RingKey() id.ID { return m.Key.ID() }

// newAggUpdateMsg returns a pooled group update carrying the view row of
// one epoch of g, finalized into the message's own row buffer
// (aggGroup.viewRowInto); nil while the epoch holds no data.
func newAggUpdateMsg(g *aggGroup, epoch int64) *aggUpdateMsg {
	m := aggUpdateMsgPool.Get().(*aggUpdateMsg)
	row, ver, lin := g.viewRowInto(m.row[:0], epoch)
	if ver == 0 {
		aggUpdateMsgPool.Put(m)
		return nil
	}
	m.row = row
	m.QueryID, m.Owner, m.Group, m.Epoch, m.Ver, m.Row, m.PubAt, m.Lineage = g.sub.q.ID, id.ID(g.sub.q.Owner), g.gkey(), epoch, ver, row, g.pubAt, lin
	return m
}

func (m *aggUpdateMsg) recycle() {
	*m = aggUpdateMsg{row: emptied(m.row)}
	aggUpdateMsgPool.Put(m)
}

// aggUpdateMsg delivers one finalized aggregate view row — the latest
// aggregates of one group in one epoch — from an aggregator node to the
// query owner. Ver is the number of answer rows folded into the row,
// which only grows for a given (group, epoch), so deliveries reordered
// by random hop delays (or an aggregator handover) can never regress
// the subscriber's view.
type aggUpdateMsg struct {
	QueryID string
	Owner   id.ID
	Group   string
	Epoch   int64
	Ver     int64
	Row     []relation.Value // the message's row buffer; the subscriber copies it
	// PubAt is the group's latency watermark: the latest triggering
	// publication vtime folded into the row (a commutative max, so it
	// is deterministic under any fold order).
	PubAt int64
	// Lineage is the sorted snapshot of the group's per-epoch lineage
	// union — every (publisher, pubSeq, node) step of every row folded
	// into the view row. Nil unless Config.Provenance is set.
	Lineage []query.LineageStep
	row     []relation.Value
}

// RingKey implements overlay.Rekeyable: updates re-route to the current
// successor of the owner's ring position.
func (m *aggUpdateMsg) RingKey() id.ID { return m.Owner }

// ricInfo is one candidate's report: the key it is responsible for, the
// rate of incoming tuples it observes for that key, its address (so the
// decision maker can reach it in one hop), and when the report was
// produced.
type ricInfo struct {
	Key  relation.Key
	Rate float64
	Addr id.ID
	At   sim.Time
}

// ricRequestMsg implements the chained RIC collection walk of Section
// 6: the message visits each pending candidate key in turn, every
// visited node appends its report, and the last node returns the
// collected reports directly to the origin. Pending and Got start on the
// message's own arrays.
type ricRequestMsg struct {
	Origin  id.ID
	Pending []relation.Key // candidate keys not yet visited, in visit order
	Got     []ricInfo
	pending [inlineReports]relation.Key
	got     [inlineReports]ricInfo
}

// newRICRequestMsg returns a pooled walk from origin over keys, in order.
func newRICRequestMsg(origin id.ID, keys []relation.Key) *ricRequestMsg {
	m := ricRequestMsgPool.Get().(*ricRequestMsg)
	m.Origin = origin
	m.Pending = append(m.pending[:0], keys...)
	m.Got = m.got[:0]
	return m
}

func (m *ricRequestMsg) recycle() {
	*m = ricRequestMsg{}
	ricRequestMsgPool.Put(m)
}

// RingKey implements overlay.Rekeyable: the walk continues at the
// next pending candidate's owner.
func (m *ricRequestMsg) RingKey() id.ID {
	if len(m.Pending) > 0 {
		return m.Pending[0].ID()
	}
	return m.Origin
}

// ricReplyMsg returns the collected reports to the origin, which hands
// each to the placements waiting on its key: the reply names no
// placement. Origin is carried so a reply whose origin departed mid-walk
// bounces to the node that took over its identifier, where the
// departure restarted the origin's placements; there it releases those
// still waiting on its keys or only feeds the candidate table.
type ricReplyMsg struct {
	Origin id.ID
	Got    []ricInfo
	got    [inlineReports]ricInfo
}

// newRICReplyMsg returns a pooled reply to origin carrying a copy of got.
func newRICReplyMsg(origin id.ID, got []ricInfo) *ricReplyMsg {
	m := ricReplyMsgPool.Get().(*ricReplyMsg)
	m.Origin = origin
	m.Got = append(m.got[:0], got...)
	return m
}

func (m *ricReplyMsg) recycle() {
	*m = ricReplyMsg{}
	ricReplyMsgPool.Put(m)
}

// RingKey implements overlay.Rekeyable.
func (m *ricReplyMsg) RingKey() id.ID { return m.Origin }
