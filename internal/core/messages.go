package core

import (
	"sync"

	"rjoin/internal/id"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// The high-volume message kinds — tuple deliveries, query placements,
// answers and RIC walks — are pooled. Every such message is delivered
// at most once and its receiver copies out whatever it retains, so the
// handler dispatch loop can recycle the struct as soon as the handler
// returns — except a walk's request, which travels on from hop to hop
// and is recycled at its last one, where the reply takes over its
// reports. Messages dropped by the overlay (dead or detached recipient)
// simply fall to the garbage collector; only delivery recycles.
var (
	tupleMsgPool      = sync.Pool{New: func() interface{} { return new(tupleMsg) }}
	evalMsgPool       = sync.Pool{New: func() interface{} { return new(evalMsg) }}
	answerMsgPool     = sync.Pool{New: func() interface{} { return new(answerMsg) }}
	aggPartialMsgPool = sync.Pool{New: func() interface{} { return new(aggPartialMsg) }}
	ricRequestMsgPool = sync.Pool{New: func() interface{} { return new(ricRequestMsg) }}
	ricReplyMsgPool   = sync.Pool{New: func() interface{} { return new(ricReplyMsg) }}
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

// newEvalMsg returns a pooled Eval message for sq with no reports
// piggy-backed; the sender appends them to RIC, which starts on the
// message's own array.
func newEvalMsg(sq *storedQuery, key relation.Key, level query.Level) *evalMsg {
	m := evalMsgPool.Get().(*evalMsg)
	*m = evalMsg{SQ: sq, Key: key, Level: level}
	m.RIC = m.ric[:0]
	return m
}

func newAnswerMsg(queryID string, owner id.ID, values []relation.Value, pubAt int64, lin []query.LineageStep) *answerMsg {
	m := answerMsgPool.Get().(*answerMsg)
	*m = answerMsg{QueryID: queryID, Owner: owner, Values: values, PubAt: pubAt, Lineage: lin}
	return m
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
	Values  []relation.Value
	// PubAt is the publication vtime of the tuple whose arrival
	// completed the rewrite chain — the trigger of this answer. The
	// owner's answer-latency measurement is delivery vtime minus PubAt.
	PubAt int64
	// Lineage is the answer's provenance — the (publisher, pubSeq,
	// node) of every tuple the rewrite chain consumed, in consumption
	// order. Nil unless Config.Provenance is set.
	Lineage []query.LineageStep
}

// RingKey implements overlay.Rekeyable: answers re-route to the
// current successor of the owner's ring position.
func (m *answerMsg) RingKey() id.ID { return m.Owner }

func newAggPartialMsg(queryID string, key relation.Key, owner id.ID, epoch int64, row []relation.Value, pubAt int64, lin []query.LineageStep) *aggPartialMsg {
	m := aggPartialMsgPool.Get().(*aggPartialMsg)
	*m = aggPartialMsg{QueryID: queryID, Key: key, Owner: owner, Epoch: epoch, Row: row, PubAt: pubAt, Lineage: lin}
	return m
}

// aggPartialMsg carries one completed answer row of an aggregate query
// from its completion node to the aggregator responsible for the row's
// group: the node owning Key = Hash(agg + queryID + groupKey). Owner
// rides along so the aggregator knows where group updates go.
type aggPartialMsg struct {
	QueryID string
	Key     relation.Key
	Owner   id.ID
	Epoch   int64
	Row     []relation.Value
	// PubAt is the triggering tuple's publication vtime (see
	// answerMsg.PubAt); the aggregator folds it into the group's
	// latency watermark.
	PubAt int64
	// Lineage is the row's provenance (see answerMsg.Lineage); the
	// aggregator folds it into the group's per-epoch lineage union.
	Lineage []query.LineageStep
}

// RingKey implements overlay.Rekeyable: a partial in flight to a
// departed aggregator re-routes to its group key's new owner.
func (m *aggPartialMsg) RingKey() id.ID { return m.Key.ID() }

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
	Row     []relation.Value
	// PubAt is the group's latency watermark: the latest triggering
	// publication vtime folded into the row (a commutative max, so it
	// is deterministic under any fold order).
	PubAt int64
	// Lineage is the sorted snapshot of the group's per-epoch lineage
	// union — every (publisher, pubSeq, node) step of every row folded
	// into the view row. Nil unless Config.Provenance is set.
	Lineage []query.LineageStep
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

// RingKey implements overlay.Rekeyable.
func (m *ricReplyMsg) RingKey() id.ID { return m.Origin }
