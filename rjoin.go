// Package rjoin is an implementation of RJoin (Idreos, Liarou,
// Koubarakis: "Continuous Multi-Way Joins over Distributed Hash
// Tables", EDBT 2008): continuous multi-way equi-join queries evaluated
// incrementally over a Chord DHT by recursive query rewriting.
//
// The package runs a complete simulated overlay in-process: a Chord
// ring with real finger-table routing, a deterministic discrete-event
// network with bounded message delays, and one RJoin processor per
// node. Continuous queries are written in a small SQL subset and
// subscribed into the network; published tuples flow through the DHT,
// rewrite matching queries, and produce answer rows delivered back to
// the subscriber.
//
// Quickstart:
//
//	net, _ := rjoin.NewNetwork(rjoin.Options{Nodes: 64, Seed: 1})
//	net.MustDefineRelation("Trades", "Sym", "Px")
//	net.MustDefineRelation("Quotes", "Sym", "Bid")
//	sub, _ := net.Subscribe("select Trades.Px, Quotes.Bid from Trades,Quotes where Trades.Sym=Quotes.Sym")
//	net.MustPublish("Trades", 7, 101)
//	net.MustPublish("Quotes", 7, 99)
//	net.Run()
//	for _, a := range sub.Answers() { fmt.Println(a.Row) }
package rjoin

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"rjoin/internal/chord"
	"rjoin/internal/core"
	"rjoin/internal/id"
	"rjoin/internal/obs"
	"rjoin/internal/obs/profile"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
)

// Value is one attribute value: an integer or a string.
type Value = relation.Value

// Int builds an integer Value.
func Int(v int64) Value { return relation.Int64(v) }

// Str builds a string Value.
func Str(s string) Value { return relation.String64(s) }

// Strategy selects how queries are placed on nodes; see the package
// documentation of the placement experiment (Figure 2 of the paper).
type Strategy = core.Strategy

// Placement strategies.
const (
	// StrategyRIC places queries where the observed rate of incoming
	// tuples is lowest (RJoin proper).
	StrategyRIC = core.StrategyRIC
	// StrategyRandom places queries at a random candidate.
	StrategyRandom = core.StrategyRandom
	// StrategyWorst places queries at the hottest candidate (the
	// paper's adversarial baseline).
	StrategyWorst = core.StrategyWorst
)

// Options configures a simulated RJoin network. The zero value of every
// field selects a sensible default. The paper's placement machinery —
// the Section 7 candidate table, piggy-backed RIC reports and
// value-level placement of rewritten queries — is not an option: it is
// how the engine runs. A field exists only while some caller sets it
// (TestEveryOptionFieldIsSet).
type Options struct {
	// Nodes is the overlay size (default 128).
	Nodes int
	// Seed fixes all randomness; runs with equal seeds are identical.
	Seed int64
	// Strategy is the query placement strategy (default StrategyRIC).
	Strategy Strategy
	// MinHopDelay/MaxHopDelay bound per-hop message delay in virtual
	// ticks (default 1/1: deterministic unit delays).
	MinHopDelay int64
	MaxHopDelay int64
	// Delta overrides the ALTT retention Δ (default: derived bound
	// that preserves eventual completeness; negative disables ALTT).
	Delta int64
	// Sharing enables multi-query optimization: queries whose join
	// graphs are equivalent up to relation/predicate ordering, constant
	// selections and projections collapse onto one shared in-network
	// rewrite pipeline, and a query whose join graph strictly contains
	// an existing shared pipeline's attaches to its completions instead
	// of re-joining from scratch. Each subscriber still receives exactly
	// the answer bag its own query defines — per-subscriber selections,
	// projections and insertion-time cutoffs are applied at the
	// completion fan-out. Requires MinHopDelay >= 1 (the default), so a
	// query attaching to a live pipeline at tick T observes only
	// completions after T. Byte-identical resubmissions of the same SQL
	// are always deduplicated, with or without this option.
	Sharing bool
	// ReplicationFactor k keeps every keyed state entry — stored
	// queries with their DISTINCT memory, indexed tuples, ALTT and
	// candidate-table entries, aggregation partials — on k nodes: the
	// owner plus its k−1 ring successors, under a synchronous
	// primary-backup model. Single-node crashes then lose nothing: the
	// surviving replica the ring routes to promotes its copy
	// (Stats.RewritesLost/TuplesLost/AggStateLost stay zero) and the
	// factor is restored by re-replication. Mutations fan out as batched
	// replica-update messages counted in Stats.TrafficByTag.Repl. The
	// simulator charges the copies without keeping them — a copy always
	// equals its primary, so promotion reads the crashed node's own
	// state — and k changes the charge, not the outcome. Membership
	// changes are serialized and each one returns with every group
	// re-formed and every promoted entry replicated again, so k = 2
	// already survives any sequence of single departures that leaves
	// two nodes — a node and its promoting successor crashing within
	// the same tick included — and values above 2 cost traffic and
	// tolerate nothing 2 does not (DESIGN.md "Cost and guarantees").
	// Values < 2 (the default) disable replication and keep the
	// counted-loss crash model. Must not exceed Nodes. Replicas serve no
	// traffic until promoted.
	ReplicationFactor int
	// Workers is how many goroutines execute a sub-round of the event
	// engine's one schedule: nodes hash into a fixed set of logical
	// shards, the shards with events at the current tick form a
	// sub-round, and cross-shard effects merge at its barrier in a
	// deterministic order. Delays and random placements come from
	// per-node counter-based streams. A seed therefore replays
	// bit-identically, and every digest is the same for every value:
	// 0 or 1 (the default) runs each sub-round inline, N >= 2 runs its
	// shards concurrently on N goroutines. N >= 2 requires MinHopDelay
	// >= 1 (the lookahead window that makes one virtual tick a safe
	// barrier interval) and is incompatible with StrategyWorst (whose
	// oracle reads rate state across shards).
	Workers int
	// Churn drives runtime membership changes — joins, graceful leaves
	// and crashes — while queries are live. The zero value keeps the
	// overlay static (the paper's setting). Explicit AddNode /
	// RemoveNode / Crash calls work either way. Every change, drawn or
	// explicit, leaves the overlay's routing exact when it returns:
	// there is no stabilization period during which a lookup can miss
	// a key's owner.
	Churn ChurnOptions
	// Faults switches the overlay into unreliable-network mode:
	// per-message drop and duplication draws, delay spikes and
	// scheduled partitions, masked end to end: each send's
	// retransmission ladder (exponential backoff with jitter) is drawn
	// when it is sent, and the message is delivered once, when its
	// first surviving attempt arrives. nil — the default — keeps the
	// reliable overlay bit-identical to previous releases. All fault
	// randomness comes from dedicated per-node streams, so a plan with
	// all rates zero and no partitions also replays the faults-off
	// schedule exactly, churn included. Combine with ReplicationFactor >= 2
	// to keep answers exact when partitions overlap crashes.
	Faults *FaultOptions
	// Trace enables the deterministic causal tracer: every tuple's
	// lifecycle (publish, index placement, lookups, each rewrite hop,
	// completion, answer delivery) plus transport annotations (bounces,
	// replication fan-out, retransmits, acks) recorded against the
	// virtual clock. Trace identity derives from (publisher, publish
	// sequence) and query IDs — no wall clock, no extra randomness — so
	// a run's trace is bit-identical for a given seed across every
	// Workers value. nil (the default) disables tracing; the hot paths then
	// pay one nil check and allocate nothing.
	Trace *TraceOptions
	// Metrics enables the virtual-time metrics registry: allocation-free
	// latency/depth/hop histograms and windowed per-node, per-traffic-tag
	// and per-query rate series sampled on the virtual clock. nil (the
	// default) disables collection at zero cost.
	Metrics *MetricsOptions
	// Profile enables the per-placement query profiler behind
	// Subscription.Explain: every arrival, evaluation, stored rewrite,
	// rewrite step, completion, candidate-table hit/miss, aggregation
	// partial and state byte is attributed to the (query, placement key)
	// that caused it, plus a virtual-time state-footprint series per
	// pipeline. All counters are sums folded at barriers, so a profile
	// read at a drained virtual time is bit-identical at every worker
	// count. nil (the default) disables
	// profiling; the hot paths then pay one nil check and allocate
	// nothing. Explain still works without it — the report carries the
	// static plan and delivery totals, with observed counters zero.
	Profile *ProfileOptions
	// Provenance threads answer lineage through the network: every
	// delivered row (and aggregate view row) carries the base tuples it
	// joins — by (publisher, publish sequence) — together with the node
	// each rewrite hop executed on, in consumption order. Lineage
	// survives shared-pipeline fan-out, containment replay, in-network
	// aggregation (a view row's lineage is the union over its
	// contributing rows) and replica promotion. Off (the default), rows
	// carry no lineage and the rewrite path allocates nothing extra.
	Provenance bool
}

// ProfileOptions configures the placement profiler (Options.Profile).
type ProfileOptions struct {
	// SampleInterval is the window width, in virtual ticks, of the
	// per-pipeline state-footprint series. 0 means 64; negative is
	// rejected.
	SampleInterval int64
}

// TraceOptions configures the causal tracer (Options.Trace). It has no
// fields: its presence turns tracing on. The tracer keeps at most
// traceCap events; overflow is truncated deterministically (newest
// events dropped at flush) and reported by Network.TraceDropped.
type TraceOptions struct{}

// traceCap is the number of trace events a network retains.
const traceCap = 1 << 20

// MetricsOptions configures the metrics registry (Options.Metrics).
type MetricsOptions struct {
	// SampleInterval is the window width, in virtual ticks, of the rate
	// series (per-node deliveries, per-tag sends, per-query answers).
	// 0 means 64; negative is rejected.
	SampleInterval int64
}

// FaultOptions is the deterministic fault-injection plan of
// Options.Faults. Probabilities are per transmission (retransmissions
// draw afresh) and must lie in [0, 1]; delays and partition windows
// are in virtual ticks. The retransmission ladder that masks the
// faults has fixed timing (DESIGN.md "The send-time ladder").
type FaultOptions struct {
	// DropProb is the probability one transmission is lost. A lost
	// transmission is retransmitted until one gets through, so
	// delivered answers stay exact; only latency and traffic change.
	DropProb float64
	// DupProb is the probability a delivered transmission is
	// duplicated. The copy is charged to Stats.Duplicated, not
	// delivered: receiver-side dedup would absorb it.
	DupProb float64
	// SpikeProb is the probability one transmission's delay is
	// inflated by a uniform draw from [0, SpikeMax] extra ticks.
	SpikeProb float64
	SpikeMax  int64
	// Partitions schedules link outages between node sets in virtual
	// time. Messages crossing an active partition are dropped (and
	// retransmitted after it heals).
	Partitions []FaultPartition
}

// FaultPartition is one scheduled partition window: during [Start,
// End) in virtual ticks, messages between the nodes listed in Side and
// everyone else are dropped. Side holds positions in the initial
// identifier-ordered node list (the same indexing RemoveNode and Crash
// use at time zero).
type FaultPartition struct {
	Start, End int64
	Side       []int
}

// ChurnOptions configures spontaneous membership churn. Rates are
// expected events per 1000 virtual ticks; an event class with rate
// zero never fires spontaneously. Graceful leaves hand the departing
// node's state to its successor (no answers are lost or duplicated);
// crashes drop state, with the engine re-indexing the input queries
// that died and counting everything else as loss. Joins take their arc
// from their successor. Each event leaves every routing pointer exact
// before the next one, so nothing here tunes route repair.
type ChurnOptions struct {
	JoinRate  float64
	LeaveRate float64
	CrashRate float64
	// Interval is the cadence in ticks of the churn-rate draws
	// (default 32).
	Interval int64
	// MinNodes floors the overlay size: leave/crash draws below it are
	// skipped (default 2).
	MinNodes int
}

// Answer is one delivered result row: Query is the subscription's query
// ID, Row holds the select-list values, At is the virtual time of
// delivery, and Lineage — nil unless Options.Provenance is set — is the
// row's provenance: the base tuples that joined into it, by (publisher,
// publish sequence), with the node each rewrite hop executed on, in
// consumption order.
type Answer = core.Answer

// LineageStep is one hop of an answer row's provenance: the base tuple
// consumed (Pub, Seq) and the node whose stored rewrite it triggered.
type LineageStep = query.LineageStep

// ExplainReport is the structured introspection report returned by
// Subscription.Explain: the placement plan with per-placement observed
// counters, sharing attribution, the state-footprint series and
// delivery totals. Its Text method renders the canonical EXPLAIN
// ANALYZE text and Digest folds that text into one 64-bit value
// (bit-identical across worker counts for a drained run).
type ExplainReport = profile.Report

// Stats is a snapshot of network-wide cost measures, in the paper's
// units.
type Stats struct {
	// Messages is total network traffic (messages sent, including DHT
	// routing).
	Messages int64
	// QueryProcessingLoad is the paper's QPL: rewritten queries plus
	// tuples received by nodes.
	QueryProcessingLoad int64
	// StorageLoad is the paper's SL: rewritten queries plus tuples
	// stored.
	StorageLoad int64
	// Answers is the number of answer rows delivered.
	Answers int64
	// RewritesCreated counts rewriting steps performed.
	RewritesCreated int64
	// AggPartials counts answer rows folded into aggregation state at
	// aggregator nodes; AggUpdates counts finalized group-update rows delivered to
	// subscribers; AggStateLost counts (group, epoch) partials dropped
	// by crashes or unrecoverable departures. All zero without
	// aggregate queries.
	AggPartials  int64
	AggUpdates   int64
	AggStateLost int64
	// MaxNodeQPL and ParticipatingNodes describe the QPL distribution:
	// the largest QPL of one ring identifier, and how many identifiers
	// carry any. Both cover every identifier that has held a node,
	// departed ones included.
	MaxNodeQPL         int64
	ParticipatingNodes int

	// Membership churn accounting. Joins/Leaves/Crashes count the
	// membership changes made, spontaneous (Options.Churn) and explicit;
	// they are engine counters like the handover, reroute and loss
	// counts, so core.Engine.ResetMetrics zeroes them.
	// HandoverMessages/HandoverEntries measure graceful-leave and join
	// state transfer;
	// MessagesRerouted counts keyed messages that reached a live node
	// after a membership change had moved their key, and were forwarded
	// to the key's owner without being processed; MessagesBounced
	// counts messages whose recipient had departed; QueriesRecovered,
	// QueriesLost, RewritesLost and TuplesLost describe crash damage and
	// repair. All zero on a static overlay.
	Joins            int64
	Leaves           int64
	Crashes          int64
	HandoverMessages int64
	HandoverEntries  int64
	MessagesRerouted int64
	MessagesBounced  int64
	QueriesRecovered int64
	QueriesLost      int64
	RewritesLost     int64
	TuplesLost       int64

	// Durable-state replication accounting (Options.ReplicationFactor);
	// the messages it costs are TrafficByTag.Repl. ReplUpdates/ReplOps
	// count the update batches charged and the state operations they
	// carry (one per state mutation per group member, plus each snapshot
	// entry); ReplSyncs counts full-state snapshots billed to the members
	// a membership change adds to replica groups;
	// ReplPromotions/ReplEntriesPromoted count crashed nodes whose state
	// a surviving replica promoted and the state entries recovered that
	// way. All zero with replication off.
	ReplUpdates         int64
	ReplOps             int64
	ReplSyncs           int64
	ReplPromotions      int64
	ReplEntriesPromoted int64

	// Unreliable-network accounting (Options.Faults). Dropped and
	// Duplicated count injected transmission faults; Retransmits counts
	// resends of lost transmissions and AckMessages the coalesced
	// acknowledgements (one per sender, receiver and two-tick window).
	// Abandoned counts sends given up after exhausting every
	// retransmission ladder — zero in any healthy run. None of these are included in Messages: the traffic
	// metric stays comparable with reliable-mode runs, and the ack/
	// retransmit overhead is measured separately. All zero with Faults
	// nil.
	Dropped     int64
	Duplicated  int64
	Retransmits int64
	AckMessages int64
	Abandoned   int64

	// Multi-query sharing accounting (Options.Sharing and exact-duplicate
	// dedup). QueriesShared counts submissions that attached to an
	// existing shared pipeline instead of placing their own;
	// QueriesUnsubscribed counts Unsubscribe calls; SharedFanoutRows
	// counts per-subscriber rows produced at shared-pipeline completion
	// fan-outs; ContainmentRewrites counts rewrite steps spent extending
	// a contained pipeline's completions into a containing query.
	QueriesShared       int64
	QueriesUnsubscribed int64
	SharedFanoutRows    int64
	ContainmentRewrites int64

	// TrafficByTag breaks Messages down by the overlay's traffic tags.
	TrafficByTag TagTraffic
}

// TagTraffic is the per-tag decomposition of total network traffic.
// Every message is counted under exactly one tag, so the five fields
// sum to Stats.Messages.
type TagTraffic struct {
	// RIC is placement polling (Request-RIC walks).
	RIC int64
	// Agg is in-network aggregation traffic: partial shipping and
	// finalized group updates.
	Agg int64
	// Churn is membership-change state transfer: handovers, arc
	// transfers and crash-recovery re-indexing.
	Churn int64
	// Repl is replica-group mirroring (Options.ReplicationFactor).
	Repl int64
	// App is everything sent outside those four scopes: tuple and query
	// routing, RIC piggybacks and answer delivery.
	App int64
}

// Network is a simulated RJoin deployment: a Chord overlay with an
// RJoin processor on every node, driven by a deterministic virtual
// clock. Membership may change at runtime (Options.Churn, AddNode,
// RemoveNode, Crash); node selection for subscriptions and
// publications always draws from the live ring.
type Network struct {
	eng *core.Engine
	cat *relation.Catalog
	rng *rand.Rand
	// churn draws the membership changes' joining identifiers, trials
	// and victims, apart from rng so that churn leaves the choice of
	// subscribing and publishing nodes alone.
	churn *rand.Rand
	obs   *obs.Recorder // nil unless Options.Trace, Metrics or Profile was set
}

// Subscription is a live continuous query.
type Subscription struct {
	// ID is the network-wide query identifier.
	ID string
	// SQL is the submitted query text (as parsed and rendered).
	SQL string

	net *Network
}

// NewNetwork builds a converged overlay of opts.Nodes nodes and attaches
// the RJoin engine.
func NewNetwork(opts Options) (*Network, error) {
	if opts.Nodes == 0 {
		opts.Nodes = 128
	}
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("rjoin: invalid node count %d", opts.Nodes)
	}
	if opts.MinHopDelay < 0 || opts.MaxHopDelay < 0 {
		return nil, fmt.Errorf("rjoin: negative hop delay bound [%d, %d]",
			opts.MinHopDelay, opts.MaxHopDelay)
	}
	if opts.MinHopDelay == 0 && opts.MaxHopDelay == 0 {
		opts.MinHopDelay, opts.MaxHopDelay = 1, 1
	}
	if opts.MinHopDelay > opts.MaxHopDelay {
		return nil, fmt.Errorf("rjoin: MinHopDelay %d exceeds MaxHopDelay %d",
			opts.MinHopDelay, opts.MaxHopDelay)
	}
	if opts.Sharing && opts.MinHopDelay < 1 {
		return nil, fmt.Errorf("rjoin: Sharing requires MinHopDelay >= 1 (attach-time cutoff needs a strict completion delay)")
	}
	if c := opts.Churn; c.JoinRate < 0 || c.LeaveRate < 0 || c.CrashRate < 0 || c.Interval < 0 || c.MinNodes < 0 {
		return nil, fmt.Errorf("rjoin: negative churn option %+v", c)
	}
	if opts.Strategy > StrategyWorst {
		return nil, fmt.Errorf("rjoin: unknown Strategy %d (want StrategyRIC, StrategyRandom or StrategyWorst)", opts.Strategy)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("rjoin: negative worker count %d", opts.Workers)
	}
	if opts.Metrics != nil && opts.Metrics.SampleInterval < 0 {
		return nil, fmt.Errorf("rjoin: negative Metrics.SampleInterval %d", opts.Metrics.SampleInterval)
	}
	if opts.Profile != nil && opts.Profile.SampleInterval < 0 {
		return nil, fmt.Errorf("rjoin: negative Profile.SampleInterval %d", opts.Profile.SampleInterval)
	}
	if opts.ReplicationFactor < 0 {
		return nil, fmt.Errorf("rjoin: negative ReplicationFactor %d", opts.ReplicationFactor)
	}
	if opts.ReplicationFactor > opts.Nodes {
		return nil, fmt.Errorf("rjoin: ReplicationFactor %d exceeds node count %d (a key cannot have more replicas than nodes)",
			opts.ReplicationFactor, opts.Nodes)
	}
	if opts.Workers > 1 {
		if opts.MinHopDelay < 1 {
			return nil, fmt.Errorf("rjoin: Workers %d requires MinHopDelay >= 1 (the parallel lookahead window)", opts.Workers)
		}
		if opts.Strategy == StrategyWorst {
			return nil, fmt.Errorf("rjoin: Workers %d is incompatible with StrategyWorst (its oracle reads cross-shard state)", opts.Workers)
		}
	}
	if opts.Faults != nil {
		// The plan's own ranges are the overlay's to validate; only the
		// node indices, which it never sees, are checked here.
		for i, p := range opts.Faults.Partitions {
			for _, idx := range p.Side {
				if idx < 0 || idx >= opts.Nodes {
					return nil, fmt.Errorf("rjoin: Faults.Partitions[%d] node index %d outside [0, %d)",
						i, idx, opts.Nodes)
				}
			}
		}
	}
	ring := chord.NewRing()
	idRng := rand.New(rand.NewSource(opts.Seed))
	for i := 0; i < opts.Nodes; i++ {
		for {
			if _, err := ring.Join(id.ID(idRng.Uint64())); err == nil {
				break
			}
		}
	}
	ring.BuildPerfect()
	var faults *overlay.Faults
	if opts.Faults != nil {
		// Resolve partition sides from positions in the initial
		// identifier-ordered node list to identifier sets; the ring is
		// fully built, so the indexing matches what RemoveNode and
		// Crash would see at time zero.
		nodes := ring.Nodes()
		faults = &overlay.Faults{
			DropProb:  opts.Faults.DropProb,
			DupProb:   opts.Faults.DupProb,
			SpikeProb: opts.Faults.SpikeProb,
			SpikeMax:  opts.Faults.SpikeMax,
		}
		for _, p := range opts.Faults.Partitions {
			side := make(map[id.ID]bool, len(p.Side))
			for _, idx := range p.Side {
				side[nodes[idx].ID()] = true
			}
			faults.Partitions = append(faults.Partitions, overlay.Partition{
				Start: sim.Time(p.Start),
				End:   sim.Time(p.End),
				Side:  side,
			})
		}
	}
	se := sim.NewEngine(opts.Seed)
	se.SetWorkers(opts.Workers)
	var tracer *obs.Tracer
	if opts.Trace != nil {
		tracer = obs.NewTracer(traceCap)
	}
	var om *obs.Metrics
	if opts.Metrics != nil {
		om = obs.NewMetrics(opts.Metrics.SampleInterval)
	}
	var prof *profile.Profiler
	if opts.Profile != nil {
		prof = profile.New(opts.Profile.SampleInterval)
	}
	rec := obs.NewRecorder(obs.Views{Trace: tracer, Metrics: om, Profile: prof})
	nw, err := overlay.NewNetwork(ring, se, overlay.Config{
		MinHopDelay: opts.MinHopDelay,
		MaxHopDelay: opts.MaxHopDelay,
		Faults:      faults,
		Obs:         rec,
		// With bouncing on, messages in flight to a node that departs
		// re-route to the key's new owner. On a static ring it never
		// fires, so enabling it unconditionally costs nothing. A
		// retransmission ladder can hold a message past its receiver's
		// departure, so Faults requires it.
		Bounce: true,
	})
	if err != nil {
		return nil, err
	}
	cat, err := relation.NewCatalog()
	if err != nil {
		return nil, err
	}
	var shareCat *relation.Catalog // full canonical-form sharing is opt-in
	if opts.Sharing {
		shareCat = cat
	}
	eng := core.NewEngine(ring, se, nw, core.Config{
		Strategy:          opts.Strategy,
		Delta:             opts.Delta,
		ReplicationFactor: opts.ReplicationFactor,
		Obs:               rec,
		Provenance:        opts.Provenance,
		// Exact-duplicate dedup is sound whenever completions are
		// strictly delayed past the attach tick; with the defaulted 1/1
		// delay model that is always the case, so byte-identical
		// resubmissions share unconditionally.
		ShareExact: opts.MinHopDelay >= 1,
		Catalog:    shareCat,
	})
	n := &Network{
		eng:   eng,
		cat:   cat,
		rng:   rand.New(rand.NewSource(opts.Seed + 1)),
		churn: rand.New(rand.NewSource(opts.Seed + 2)),
		obs:   rec,
	}
	if c := opts.Churn; c.JoinRate > 0 || c.LeaveRate > 0 || c.CrashRate > 0 {
		n.startChurn(c)
	}
	return n, nil
}

// startChurn registers the membership trials of c as periodic
// background work, for the life of the simulation: every Interval
// ticks (default 32) one draw per class, in the order join, leave,
// crash, each firing with probability min(rate·Interval/1000, 1). A
// leave or a crash takes a random live node, and is drawn only while
// the ring is above the MinNodes floor (default 2). The three draws
// happen in a fixed order on n.churn, so a seed fixes the whole churn
// history.
//
// Background events never keep Run from reaching quiescence: churn
// happens whenever foreground traffic, or an explicit RunFor, advances
// the virtual clock. They are also what makes churn safe and
// deterministic at every worker count: the engine runs shard-less
// events serially between sub-rounds, so every membership change
// runs at a barrier with no handler in flight, and the messages it
// emits enter the sharded queues through the same deterministic merge
// as any other send.
func (n *Network) startChurn(c ChurnOptions) {
	if c.Interval == 0 {
		c.Interval = 32
	}
	floor := max(c.MinNodes, 2)
	fires := func(rate float64) bool {
		return n.churn.Float64() < min(rate*float64(c.Interval)/1000, 1)
	}
	victim := func() *chord.Node {
		nodes := n.eng.Ring().Nodes()
		if len(nodes) <= floor {
			return nil
		}
		return nodes[n.churn.Intn(len(nodes))]
	}
	n.eng.Sim().EveryBg(c.Interval, func(sim.Time) bool {
		if fires(c.JoinRate) {
			n.AddNode() // 64 occupied draws in a row leave the ring as it is
		}
		if fires(c.LeaveRate) {
			if v := victim(); v != nil {
				n.eng.LeaveNode(v)
			}
		}
		if fires(c.CrashRate) {
			if v := victim(); v != nil {
				n.eng.CrashNode(v)
			}
		}
		return true
	})
}

// MustNetwork is NewNetwork that panics on error.
func MustNetwork(opts Options) *Network {
	n, err := NewNetwork(opts)
	if err != nil {
		panic(err)
	}
	return n
}

// DefineRelation declares a relation schema that tuples and queries may
// reference.
func (n *Network) DefineRelation(name string, attrs ...string) error {
	s, err := relation.NewSchema(name, attrs...)
	if err != nil {
		return err
	}
	return n.cat.Add(s)
}

// MustDefineRelation is DefineRelation that panics on error.
func (n *Network) MustDefineRelation(name string, attrs ...string) {
	if err := n.DefineRelation(name, attrs...); err != nil {
		panic(err)
	}
}

// Subscribe parses a continuous query and submits it to the network
// from a pseudo-randomly chosen node. Answers accumulate on the
// returned Subscription as the virtual network processes events.
func (n *Network) Subscribe(sql string) (*Subscription, error) {
	q, err := sqlparse.Parse(sql, n.cat)
	if err != nil {
		return nil, err
	}
	qid, err := n.eng.SubmitQuery(n.randomNode(), q)
	if err != nil {
		return nil, err
	}
	return &Subscription{ID: qid, SQL: q.String(), net: n}, nil
}

// MustSubscribe is Subscribe that panics on error.
func (n *Network) MustSubscribe(sql string) *Subscription {
	s, err := n.Subscribe(sql)
	if err != nil {
		panic(err)
	}
	return s
}

// Publish inserts one tuple into the named relation from a
// pseudo-randomly chosen node. Values may be int, int64 or string; the
// count must match the relation's arity.
func (n *Network) Publish(rel string, values ...interface{}) error {
	s, ok := n.cat.Schema(rel)
	if !ok {
		return fmt.Errorf("rjoin: unknown relation %s", rel)
	}
	vals := make([]Value, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case int:
			vals[i] = Int(int64(x))
		case int64:
			vals[i] = Int(x)
		case string:
			vals[i] = Str(x)
		case Value:
			vals[i] = x
		default:
			return fmt.Errorf("rjoin: unsupported value type %T at position %d", v, i)
		}
	}
	t, err := relation.NewTuple(s, vals...)
	if err != nil {
		return err
	}
	n.eng.PublishTuple(n.randomNode(), t)
	return nil
}

// randomNode picks a pseudo-random node from the live membership (a
// construction-time snapshot would go stale under churn).
func (n *Network) randomNode() *chord.Node {
	nodes := n.eng.Ring().Nodes()
	return nodes[n.rng.Intn(len(nodes))]
}

// MustPublish is Publish that panics on error.
func (n *Network) MustPublish(rel string, values ...interface{}) {
	if err := n.Publish(rel, values...); err != nil {
		panic(err)
	}
}

// Run processes all in-flight network activity to quiescence.
func (n *Network) Run() { n.eng.Run() }

// RunFor advances the virtual clock by d ticks, processing everything
// scheduled in that span.
func (n *Network) RunFor(d int64) { n.eng.RunUntil(n.eng.Sim().Now() + sim.Time(d)) }

// Now returns the current virtual time in ticks.
func (n *Network) Now() int64 { return int64(n.eng.Sim().Now()) }

// Nodes returns the current overlay size (membership may change at
// runtime under churn).
func (n *Network) Nodes() int { return n.eng.Ring().Size() }

// AddNode joins one new node at a pseudo-random free identifier. The
// node takes over its arc of the key space, receiving the stored state
// that falls in it from its successor.
func (n *Network) AddNode() error {
	for attempt := 0; attempt < 64; attempt++ {
		if _, err := n.eng.JoinNode(id.ID(n.churn.Uint64())); err == nil {
			return nil
		}
	}
	return fmt.Errorf("rjoin: could not find a free identifier")
}

// RemoveNode removes the node at the given position of the current
// identifier-ordered node list, gracefully: its stored queries,
// tuples, candidate-table entries and RIC state transfer to its
// successor — in place before RemoveNode returns, charged as counted
// handover messages — so no answer is lost or duplicated. The last node of a network cannot be removed.
func (n *Network) RemoveNode(index int) error {
	node, err := n.nodeAt(index, "remove")
	if err != nil {
		return err
	}
	return n.eng.LeaveNode(node)
}

// Crash abruptly removes the node at the given position of the current
// identifier-ordered node list. Its state is lost; the engine
// re-indexes the input queries that died with it (preserving their
// identity and insertion time), and Stats counts the rewritten queries
// and tuples that could not be saved. The last node cannot be crashed.
func (n *Network) Crash(index int) error {
	node, err := n.nodeAt(index, "crash")
	if err != nil {
		return err
	}
	return n.eng.CrashNode(node)
}

// nodeAt resolves a position in the identifier-ordered node list;
// action names the membership operation for the last-node error, so
// Crash does not report that it "cannot remove".
func (n *Network) nodeAt(index int, action string) (*chord.Node, error) {
	nodes := n.eng.Ring().Nodes()
	if index < 0 || index >= len(nodes) {
		return nil, fmt.Errorf("rjoin: node index %d outside [0, %d)", index, len(nodes))
	}
	if len(nodes) <= 1 {
		return nil, fmt.Errorf("rjoin: cannot %s the last node", action)
	}
	return nodes[index], nil
}

// Stats snapshots network-wide cost measures.
func (n *Network) Stats() Stats {
	n.eng.Sync() // fold any unmerged parallel shard deltas in first
	nw := n.eng.Net()
	byTag := TagTraffic{
		RIC:   nw.ByTag[overlay.TagRIC],
		Agg:   nw.ByTag[overlay.TagAgg],
		Churn: nw.ByTag[overlay.TagChurn],
		Repl:  nw.ByTag[overlay.TagRepl],
		App:   nw.ByTag[overlay.TagApp],
	}
	qpl, sl := n.eng.Load()
	ranked, _ := n.eng.RankedLoad()
	var maxQPL int64
	if len(ranked) > 0 {
		maxQPL = ranked[0]
	}
	return Stats{
		Messages:            nw.MessagesSent,
		QueryProcessingLoad: qpl,
		StorageLoad:         sl,
		Answers:             n.eng.Counters.AnswersDelivered,
		RewritesCreated:     n.eng.Counters.RewritesCreated,
		AggPartials:         n.eng.Counters.AggPartials,
		AggUpdates:          n.eng.Counters.AggUpdates,
		AggStateLost:        n.eng.Counters.AggStateLost,
		MaxNodeQPL:          maxQPL,
		ParticipatingNodes:  len(ranked),
		Joins:               n.eng.Counters.Joins,
		Leaves:              n.eng.Counters.Leaves,
		Crashes:             n.eng.Counters.Crashes,
		HandoverMessages:    n.eng.Counters.HandoverMessages,
		HandoverEntries:     n.eng.Counters.HandoverEntries,
		MessagesRerouted:    n.eng.Counters.MessagesRerouted,
		MessagesBounced:     nw.Bounced,
		QueriesRecovered:    n.eng.Counters.QueriesRecovered,
		QueriesLost:         n.eng.Counters.QueriesLost,
		RewritesLost:        n.eng.Counters.RewritesLost,
		TuplesLost:          n.eng.Counters.TuplesLost,
		ReplUpdates:         n.eng.Counters.ReplUpdates,
		ReplOps:             n.eng.Counters.ReplOps,
		ReplSyncs:           n.eng.Counters.ReplSyncs,
		ReplPromotions:      n.eng.Counters.ReplPromotions,
		ReplEntriesPromoted: n.eng.Counters.ReplEntriesPromoted,
		Dropped:             nw.Dropped,
		Duplicated:          nw.Duplicated,
		Retransmits:         nw.Retransmits,
		AckMessages:         nw.AckMessages,
		Abandoned:           nw.Abandoned,
		QueriesShared:       n.eng.Counters.QueriesShared,
		QueriesUnsubscribed: n.eng.Counters.QueriesUnsubscribed,
		SharedFanoutRows:    n.eng.Counters.SharedFanoutRows,
		ContainmentRewrites: n.eng.Counters.ContainmentRewrites,
		TrafficByTag:        byTag,
	}
}

// LatencySummary is a histogram snapshot: answer latency in virtual
// ticks between the triggering publish and the answer's delivery.
// Buckets are exponential; Buckets[i] counts observations in
// (BucketBound(i-1), BucketBound(i)].
type LatencySummary = obs.LatencySummary

// TraceEvent is one causal trace event on the virtual clock.
type TraceEvent = obs.Event

// LatencyStats summarizes end-to-end answer latency across all
// subscriptions — the virtual ticks between each triggering publish and
// the delivery of the answer (or aggregate update) it produced. The
// zero summary comes back when Options.Metrics is off.
func (n *Network) LatencyStats() LatencySummary {
	n.eng.Sync()
	if om := n.obs.Views().Metrics; om != nil {
		return om.AnswerLatency.Summary()
	}
	return LatencySummary{}
}

// TraceDigest folds the trace recorded so far into one 64-bit value.
// Equal seeds and workloads digest identically across every Workers
// value; the golden-trace test pins it. Zero when tracing is off.
func (n *Network) TraceDigest() uint64 {
	n.eng.Sync()
	return n.obs.Views().Trace.Digest()
}

// TraceDropped reports trace events truncated by the tracer's event cap
// (see TraceOptions).
func (n *Network) TraceDropped() int64 {
	n.eng.Sync()
	return n.obs.Views().Trace.Dropped()
}

// TraceEvents returns the canonically ordered trace recorded so far.
// The slice is owned by the network; callers must not mutate it. Nil
// when tracing is off.
func (n *Network) TraceEvents() []TraceEvent {
	n.eng.Sync()
	return n.obs.Views().Trace.Events()
}

// WriteTrace writes the trace in Chrome trace-event JSON — load the
// file at ui.perfetto.dev (or chrome://tracing) to see one lane per
// node with every event placed at its virtual time, rendered as
// microseconds. An error is returned when tracing is off.
func (n *Network) WriteTrace(w io.Writer) error {
	n.eng.Sync()
	tr := n.obs.Views().Trace
	if tr == nil {
		return fmt.Errorf("rjoin: tracing is not enabled (set Options.Trace)")
	}
	return tr.WriteChromeTrace(w)
}

// WriteTraceJSONL writes the trace as one JSON object per line, for
// ad-hoc filtering with line-oriented tools. An error is returned when
// tracing is off.
func (n *Network) WriteTraceJSONL(w io.Writer) error {
	n.eng.Sync()
	tr := n.obs.Views().Trace
	if tr == nil {
		return fmt.Errorf("rjoin: tracing is not enabled (set Options.Trace)")
	}
	return tr.WriteJSONL(w)
}

// WriteMetricsCSV writes every completed rate-series window as CSV
// (window_start, interval, scope, name, count): per-node delivery
// rates, per-traffic-tag send rates and per-query answer rates. An
// error is returned when metrics are off.
func (n *Network) WriteMetricsCSV(w io.Writer) error {
	n.eng.Sync()
	om := n.obs.Views().Metrics
	if om == nil {
		return fmt.Errorf("rjoin: metrics are not enabled (set Options.Metrics)")
	}
	return om.WriteCSV(w)
}

// Explain returns the introspection report of one live or past
// subscription by query ID; see Subscription.Explain. A past
// (unsubscribed) query reports zero subscribers.
func (n *Network) Explain(queryID string) (*ExplainReport, error) {
	n.eng.Sync()
	return n.eng.Explain(queryID)
}

// WriteProfileJSON writes the current introspection reports of every
// live subscription as one JSON object keyed by query ID, in sorted
// ID order — the payload the demo binary serves over expvar for live
// inspection. It works with profiling off (reports then carry only
// the static plan and delivery totals), but errors when the network
// has no live subscriptions to report on.
func (n *Network) WriteProfileJSON(w io.Writer) error {
	n.eng.Sync()
	ids := n.eng.LiveSubscriptions()
	if len(ids) == 0 {
		return fmt.Errorf("rjoin: no live subscriptions to profile")
	}
	reports := make(map[string]*ExplainReport, len(ids))
	for _, qid := range ids {
		r, err := n.eng.Explain(qid)
		if err != nil {
			return err
		}
		reports[qid] = r
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// Engine exposes the underlying engine for advanced use (experiment
// harnesses, metric distributions). Most applications only need the
// Network API.
func (n *Network) Engine() *core.Engine { return n.eng }

// Answers returns the rows delivered so far for this subscription, in
// delivery order; none once it is unsubscribed. Each call decodes a new
// slice from the engine's answer log, in time linear in the rows
// delivered, so a consumer polling a long-lived subscription uses
// AnswersSince. The slice and every answer's Row are the caller's: a
// slice returned earlier is never changed by later deliveries, and
// appending to a Row copies it.
func (s *Subscription) Answers() []Answer { return s.net.eng.Answers(s.ID) }

// AnswersSince returns the answers delivered at or after the given
// cursor position (an index into the delivery order; it is clamped to
// [0, Count()]). A consumer polls with its running total — typically
// cursor += len(batch) after each call — and sees every answer exactly
// once. It costs time linear in the answers returned, not in those
// delivered. As with Answers, the slice and its rows are the caller's.
func (s *Subscription) AnswersSince(cursor int) []Answer {
	return s.net.eng.AnswersSince(s.ID, cursor)
}

// Count returns the number of answers delivered so far, in constant
// time; 0 once the subscription is unsubscribed.
func (s *Subscription) Count() int { return s.net.eng.AnswerCount(s.ID) }

// Unsubscribe removes this continuous query from the network. The
// subscriber's answer and aggregate state is released immediately; the
// in-network rewrite state follows — when the subscription shares a
// pipeline with others, only its private fan-out entry is dropped, and
// the pipeline itself is torn down once its last subscriber leaves.
// Answers already in flight are discarded on arrival. A second call
// returns an error.
func (s *Subscription) Unsubscribe() error {
	return s.net.eng.Unsubscribe(s.ID)
}

// LatencyStats summarizes this subscription's answer latency: the
// virtual ticks between each triggering publish and the delivery of
// the answer (or aggregate update) it produced. The zero summary comes
// back when Options.Metrics is off.
func (s *Subscription) LatencyStats() LatencySummary {
	s.net.eng.Sync()
	return s.net.eng.QueryLatency(s.ID)
}

// Explain returns this subscription's introspection report: the
// placement plan (every index key the query's pipeline occupies, in
// clause order, plus runtime-discovered value-level and aggregator
// keys), the per-placement observed counters when Options.Profile is
// on (arrival rate, evaluations, stored rewrites, rewrite steps,
// completions, candidate-table hits/misses, live state bytes,
// aggregation partials — from which per-placement selectivity and
// fan-out derive), sharing attribution (which pipeline serves this
// query, how many subscribers ride it, the residual applied at
// fan-out), the pipeline's state-footprint series over virtual time,
// and delivery totals. Report.Text renders the EXPLAIN ANALYZE text;
// Report.Digest pins it. Reads are deterministic: at a drained virtual
// time the report is bit-identical at every worker count.
func (s *Subscription) Explain() (*ExplainReport, error) {
	s.net.eng.Sync()
	return s.net.eng.Explain(s.ID)
}

// AggregateRow is one row of an aggregate query's view: the latest
// finalized aggregates of one group in one window epoch. Row has the
// query's select-list shape — grouping columns carry the group's
// values, aggregate positions the aggregates. Epoch is 0 for
// unwindowed queries and clock/windowSize otherwise.
type AggregateRow struct {
	// Query is the subscription's query ID.
	Query string
	// Epoch is the window epoch this row aggregates.
	Epoch int64
	// Row holds the select-list values.
	Row []Value
	// Lineage is the sorted union of the lineage of every answer row
	// folded into this view row. Nil unless Options.Provenance is set.
	Lineage []LineageStep
}

// AggregateRows returns the current aggregate view of a GROUP BY /
// aggregate subscription, sorted canonically (by group, then epoch).
// The view is complete as of the last Run() — aggregator nodes flush
// their dirty group state when the network reaches quiescence. It is
// empty for non-aggregate subscriptions. Each call copies the view's
// rows into a new slice: a result returned earlier never changes when
// later updates rewrite a (group, epoch) it holds.
func (s *Subscription) AggregateRows() []AggregateRow {
	view := s.net.eng.AggRows(s.ID)
	out := make([]AggregateRow, len(view))
	for i, v := range view {
		out[i] = AggregateRow{Query: s.ID, Epoch: v.Epoch, Row: v.Row, Lineage: v.Lineage}
	}
	return out
}
