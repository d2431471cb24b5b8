// Package obs is the observability layer of the simulated RJoin
// deployment. It has one write path: every hook site in the engine
// builds one Rec — raw facts, no formatting — and hands it to
// Recorder.Emit, which appends it to the executing shard's cell. At
// sync barriers Recorder.Flush, single-threaded in coordinator context,
// folds the buffered records into the three read-side views: the
// causal Tracer, the Metrics histograms and rate series, and the
// per-placement profile.Profiler. The disabled path is free — a nil
// *Recorder is what every hook site's one nil check tests — and the
// enabled path stays deterministic across the serial engine and every
// parallel worker count.
//
// # Determinism
//
// Trace identity never touches a wall clock or a random stream: a
// tuple's trace ID is derived from (publisher node, publication
// sequence number), a query's from its network-wide query ID. Both are
// assigned in coordinator context and are bit-identical across worker
// counts.
//
// Event ORDER, however, is schedule-dependent: the parallel engine
// executes same-timestamp events shard-concurrently. Records therefore
// buffer per logical shard (no lock is ever taken on the hot path) and
// the tracer canonicalizes at merge points: every Flush sorts the batch
// of traced records it folded by (At, Kind, Node, Trace, Key, Arg).
// Flushes happen at engine sync barriers, which are driver-driven and
// therefore occur at the same virtual times for every worker count; the
// flushed stream is bit-identical whenever the event multiset is. The
// histograms, rate series and profile counters are sums keyed by the
// record's own fields (its timestamp picks the window), so they do not
// depend on fold order at all.
//
// The resulting guarantee mirrors the engine's own replay model
// exactly: a trace replays bit-identically run over run, and is
// bit-identical across every parallel worker count (Workers ∈ {2, 4,
// 8, ...}), because the barrier schedule is keyed by the fixed
// logical-shard space, never the worker count. Serial traces are
// pinned separately — the serial heap interleaves same-tick deliveries
// in a different (equally deterministic) order, which moves
// schedule-sensitive intermediate state such as candidate-table
// hit/miss outcomes, exactly as the repo's separate serial and
// parallel golden Stats digests already document.
package obs

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
)

// Kind classifies a record. The kinds up to KindRICJoin are the trace
// event kinds, covering the full tuple lifecycle (publish → index
// placement → lookups → rewrite hops → completion → aggregation →
// delivery) plus transport-level annotations; their numeric values are
// part of the trace digest. The kinds after them are record-only: they
// feed the histograms, rate series or profiler and never show in a
// trace.
type Kind uint8

const (
	// KindPublish is the root span of a tuple trace: a tuple enters the
	// network at its publisher. Arg is the publication sequence number.
	KindPublish Kind = iota
	// KindTupleArrive is a tuple copy reaching an index node. Arg is
	// the indexing level (0 attribute, 1 value).
	KindTupleArrive
	// KindTupleStore is a value-level insertion into a node's tuple
	// index.
	KindTupleStore
	// KindALTTStore is an attribute-level insertion into a node's ALTT.
	KindALTTStore
	// KindSubmit is the root span of a query trace: a continuous query
	// enters at its subscriber node.
	KindSubmit
	// KindEval is a query (or rewritten query) arriving at an index
	// node for evaluation. Arg is the rewrite depth.
	KindEval
	// KindCTHit / KindCTMiss are candidate-table lookups during query
	// placement (Section 7's one-hop cache).
	KindCTHit
	KindCTMiss
	// KindRICWalk is a rate-information walk issued for placement
	// candidates the candidate table could not answer. Arg is the
	// number of keys requested.
	KindRICWalk
	// KindRewrite is one recursive rewrite hop: a stored query combined
	// with a matching tuple produces a smaller query shipped onward.
	// Arg is the new rewrite depth.
	KindRewrite
	// KindComplete is the final rewrite: all joins satisfied, the
	// result row leaves for the subscriber (or aggregator). Arg is the
	// completed depth.
	KindComplete
	// KindAnswer is an answer row delivered at the subscriber. Arg is
	// the answer latency in ticks (delivery vtime − publish vtime).
	KindAnswer
	// KindAggPartial is a completion row folded into an aggregator
	// node's group state. Arg is the window epoch.
	KindAggPartial
	// KindAggUpdate is a finalized group update delivered at the
	// subscriber. Arg is the window epoch.
	KindAggUpdate
	// KindReplFanout is one replica-group fan-out of a keyed state
	// mutation batch. Arg is the number of replicas addressed.
	KindReplFanout
	// KindRetransmit is one retransmission of a lost transmission,
	// recorded when the send draws its ladder. Arg is the retry number
	// within the current backoff ladder (one past the ladder's length
	// when an exhausted ladder restarts).
	KindRetransmit
	// KindAck is one coalesced acknowledgement; Node is the receiver
	// sending it.
	KindAck
	// KindBounce is a message arriving at a node that no longer owns
	// its key and being re-routed to the current owner.
	KindBounce
	// KindHandover is one chunk of state handed over during a graceful
	// leave or join. Arg is the number of entries in the chunk.
	KindHandover
	// KindRICJoin is a placement that issued no walk of its own: every
	// candidate the table could not answer is already being fetched by a
	// walk in flight from the same node, and the placement waits for that
	// walk's reply. Arg is the number of keys awaited. It is the newest
	// trace kind and sits last among them so that no older kind's number
	// — part of every pinned trace digest — moved when it was added.
	KindRICJoin

	// KindRoute is one keyed send routed over the DHT. Arg is the number
	// of transmissions it cost (origin plus intermediate routers), Key
	// the traffic tag it was charged under.
	KindRoute
	// KindHop is one single-hop transmission (direct sends, transfers,
	// bounces). Key is the traffic tag.
	KindHop
	// KindDeliver is one message delivered to a node's handler.
	KindDeliver
	// KindStateStore is a query copy stored at its placement key; N is
	// its estimated footprint in bytes.
	KindStateStore
	// KindStateDrop is a stored query copy removed because it expired;
	// N is the footprint released, as a negative number.
	KindStateDrop
	// KindTrigger is one trigger outcome at a placement. Arg is the
	// number of relations the rewrite it produced still has to join: zero
	// is a chain completion, anything else a rewrite step.
	KindTrigger
	// KindFanoutRow is one per-subscriber row leaving a shared
	// pipeline's completion fan-out.
	KindFanoutRow

	kindCount
)

// lastTraced is the highest-numbered trace event kind.
const lastTraced = KindRICJoin

var kindNames = [kindCount]string{
	"publish", "tuple.arrive", "tuple.store", "altt.store",
	"query.submit", "query.eval", "ct.hit", "ct.miss", "ric.walk",
	"rewrite", "complete", "answer", "agg.partial", "agg.update",
	"repl.fanout", "retransmit", "ack", "bounce", "handover", "ric.join",
	"route", "hop", "deliver", "state.store", "state.drop",
	"trigger", "fanout.row",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// PubTrace derives a tuple's trace identifier from its publisher and
// publication sequence number — both assigned in coordinator context,
// so the ID is bit-identical across worker counts.
func PubTrace(publisher uint64, pubSeq int64) string {
	return fmt.Sprintf("pub:%016x#%d", publisher, pubSeq)
}

// Event is one trace event. All fields are virtual-time or identity
// data; nothing here depends on the wall clock or the schedule.
type Event struct {
	// At is the virtual tick the event occurred on.
	At int64
	// Kind classifies the event.
	Kind Kind
	// Node is the 64-bit ring identifier of the node the event occurred
	// at.
	Node uint64
	// Trace is the causal trace this event belongs to: a tuple trace
	// (PubTrace) or a query ID. Empty for pure transport annotations.
	Trace string
	// Key is the DHT key involved, when one is ("" otherwise).
	Key string
	// Arg is a kind-specific small integer (depth, epoch, latency,
	// fan-out, retry number — see the Kind constants).
	Arg int64
}

// compare is the canonical event order used at merge points and in the
// digest: virtual time first, then identity fields. Two distinct
// executions producing the same event multiset sort to the same
// sequence.
func (e Event) compare(o Event) int {
	if c := cmp.Compare(e.At, o.At); c != 0 {
		return c
	}
	if c := cmp.Compare(e.Kind, o.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(e.Node, o.Node); c != 0 {
		return c
	}
	if c := strings.Compare(e.Trace, o.Trace); c != 0 {
		return c
	}
	if c := strings.Compare(e.Key, o.Key); c != 0 {
		return c
	}
	return cmp.Compare(e.Arg, o.Arg)
}

// Tracer is the causal trace: the canonically ordered stream of every
// traced record folded so far. Recorder.Flush is its only writer. A nil
// *Tracer is a valid, empty trace.
type Tracer struct {
	// limit caps the retained event count (0 = unbounded); overflow is
	// truncated deterministically at flush and counted in dropped.
	limit   int64
	dropped int64

	// events is the merged, canonically ordered stream.
	events []Event
}

// NewTracer returns an empty trace. maxEvents caps retained events
// (0 = unbounded).
func NewTracer(maxEvents int64) *Tracer {
	return &Tracer{limit: maxEvents}
}

// seal closes one flush batch, the events appended since start: it
// sorts the batch canonically and applies the retention cap. Batches
// keep their order — barriers only ever move forward.
func (t *Tracer) seal(start int) {
	slices.SortFunc(t.events[start:], Event.compare)
	if t.limit > 0 && int64(len(t.events)) > t.limit {
		t.dropped += int64(len(t.events)) - t.limit
		t.events = t.events[:t.limit]
	}
}

// Events returns the stream as of the last Recorder.Flush. The slice is
// owned by the tracer; callers must not mutate it. Returns nil on a nil
// receiver.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Dropped reports events truncated by the MaxEvents cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Digest folds the canonical stream into one FNV-64a value. Two runs
// with the same event multiset and the same flush barrier times — in
// particular, the same workload on any worker count — digest
// identically. Returns 0 on a nil receiver.
func (t *Tracer) Digest() uint64 {
	if t == nil {
		return 0
	}
	h := fnv.New64a()
	for _, ev := range t.Events() {
		fmt.Fprintf(h, "%d|%d|%016x|%s|%s|%d;", ev.At, ev.Kind, ev.Node, ev.Trace, ev.Key, ev.Arg)
	}
	return h.Sum64()
}
