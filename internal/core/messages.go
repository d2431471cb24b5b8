package core

import (
	"sync"

	"rjoin/internal/id"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// The high-volume message kinds — tuple deliveries, query placements
// and answers — are pooled. Every such message is delivered at most
// once and its receiver copies out whatever it retains, so the handler
// dispatch loop can recycle the struct as soon as the handler returns.
// Messages dropped by the overlay (dead or detached recipient) simply
// fall to the garbage collector; only delivery recycles.
var (
	tupleMsgPool      = sync.Pool{New: func() interface{} { return new(tupleMsg) }}
	evalMsgPool       = sync.Pool{New: func() interface{} { return new(evalMsg) }}
	answerMsgPool     = sync.Pool{New: func() interface{} { return new(answerMsg) }}
	aggPartialMsgPool = sync.Pool{New: func() interface{} { return new(aggPartialMsg) }}
)

func newTupleMsg(t *relation.Tuple, key relation.Key, level query.Level, publisher id.ID) *tupleMsg {
	m := tupleMsgPool.Get().(*tupleMsg)
	*m = tupleMsg{T: t, Key: key, Level: level, Publisher: publisher}
	return m
}

func newEvalMsg(q *query.Query, key relation.Key, level query.Level, ric []ricInfo) *evalMsg {
	m := evalMsgPool.Get().(*evalMsg)
	*m = evalMsg{Q: q, Key: key, Level: level, RIC: ric}
	return m
}

func newAnswerMsg(queryID string, owner id.ID, values []relation.Value, pubAt int64, lin []query.LineageStep) *answerMsg {
	m := answerMsgPool.Get().(*answerMsg)
	*m = answerMsg{QueryID: queryID, Owner: owner, Values: values, PubAt: pubAt, Lineage: lin}
	return m
}

// tupleMsg is Procedure 1's newTuple(t, Key, IP(x), Level) message: one
// copy per index key of the tuple. Reroutes counts ownership
// corrections applied mid-churn (see Proc.reroute).
type tupleMsg struct {
	T         *relation.Tuple
	Key       relation.Key
	Level     query.Level
	Publisher id.ID
	Reroutes  uint8
}

// RingKey implements overlay.Rekeyable: an undeliverable tuple message
// is bound to its index key.
func (m *tupleMsg) RingKey() id.ID { return m.Key.ID() }

// evalMsg carries an input or rewritten query to the node that will
// store it (the paper's Eval(q, Key, Owner(q)) message; input-query
// indexing uses the same shape). RIC entries learned by the sender are
// piggy-backed per Section 7.
type evalMsg struct {
	Q        *query.Query
	Key      relation.Key
	Level    query.Level
	RIC      []ricInfo
	Reroutes uint8
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
	PubAt    int64
	Reroutes uint8
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
// collected reports directly to the origin.
type ricRequestMsg struct {
	Origin  id.ID
	Pending []relation.Key // candidate keys not yet visited, in visit order
	Got     []ricInfo
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
}

// RingKey implements overlay.Rekeyable.
func (m *ricReplyMsg) RingKey() id.ID { return m.Origin }
