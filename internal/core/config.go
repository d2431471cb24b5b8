// Package core implements RJoin, the paper's primary contribution: the
// recursive evaluation of continuous multi-way equi-joins on top of a
// DHT. Tuples are indexed at attribute and value level (Procedure 1);
// nodes receiving tuples trigger and rewrite locally stored queries
// (Procedure 2); nodes receiving rewritten queries store them and match
// them against locally stored tuples (Procedure 3); completed rewrites
// become answers delivered directly to the query owner. The package
// also implements the ALTT completeness mechanism of Section 4,
// duplicate elimination for DISTINCT queries, the sliding/tumbling
// window rules of Section 5, and the RIC-informed placement machinery
// of Sections 6–7 (rate statistics, candidate tables, piggy-backed RIC
// info, chained RIC request walks).
package core

import (
	"rjoin/internal/obs"
	"rjoin/internal/relation"
)

// Strategy selects how nextKey() places input and rewritten queries
// among their index candidates (Sections 3 and 6). The experiments of
// Figure 2 compare the three.
type Strategy uint8

const (
	// StrategyRIC is RJoin proper: poll candidates for their observed
	// rate of incoming tuples and index the query where the predicted
	// rate is lowest.
	StrategyRIC Strategy = iota
	// StrategyRandom picks a candidate uniformly at random.
	StrategyRandom
	// StrategyWorst is the paper's adversarial baseline: always place
	// the query at the candidate with the highest rate of incoming
	// tuples. It consults the simulator's ground truth (an oracle), so
	// it pays no RIC traffic, only the consequences of bad placement.
	StrategyWorst
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyRIC:
		return "RJoin"
	case StrategyRandom:
		return "Random"
	case StrategyWorst:
		return "Worst"
	default:
		return "unknown"
	}
}

// ricWindow is the length in ticks of the rate-measurement epoch: a
// key's predicted rate is the number of tuple arrivals observed in the
// last complete epoch ("we observe what has happened during the last
// time window and assume a similar behavior").
const ricWindow = 2048

// ctValidity bounds how long a candidate-table entry is trusted before a
// fresh RIC poll is required (Section 7).
const ctValidity = 16384

// Config tunes the RJoin engine. The zero value is the paper's
// configuration: RIC placement (StrategyRIC is 0) with the derived Δ,
// the Section 7 candidate table and piggy-backed RIC reports, and
// rewritten queries placed at value level (Section 3's rule, which
// Theorem 1's completeness argument needs; attribute-level candidates
// are used only when a rewrite has no value-level one). Those three are
// how placement works, not settings.
type Config struct {
	// Strategy is the query-placement strategy.
	Strategy Strategy

	// Delta is the ALTT retention Δ of Section 4 in virtual-time ticks.
	// Zero selects an automatic bound derived from the overlay's
	// maximum message delay (Network.MaxDelta), which preserves
	// eventual completeness. Negative disables the ALTT entirely
	// (used by ablation benchmarks to demonstrate lost answers).
	Delta int64

	// ReplicationFactor k replicates every keyed state entry — stored
	// queries with their DISTINCT projection memory, value-level
	// tuples, ALTT and candidate-table entries, aggregator group
	// partials, placement walks — on the owner plus its k−1 ring
	// successors, the key's replica group (ring ground truth:
	// chord.Ring.SuccessorList), under a synchronous primary-backup model.
	// Mutations batch per handler and are charged as one replica-update
	// message per group member (overlay.TagRepl); on a crash the head of
	// the group — the node the ring now routes to — promotes its copy,
	// so single-node crashes lose no keyed state (RewritesLost,
	// TuplesLost and AggStateLost stay zero) and the factor is restored
	// by re-replication. A synchronous copy always equals its primary,
	// so the engine keeps none: it charges the copies and promotes the
	// crashed node's own state, and k changes the charge, not what
	// survives. Updates are charged when the mutating handler returns
	// and promotion runs inside CrashNode, so every k >= 2 survives any
	// sequence of single departures that leaves two nodes, and k >= 3
	// tolerates nothing k = 2 does not (TestPromoteeCrashLosesNothing
	// pins zero loss at k = 2, 3, 4). Values < 2 disable replication
	// and keep the counted-loss crash model. Replicas are passive copies
	// that serve no traffic until promoted.
	ReplicationFactor int

	// TupleGC gives every stored value-level tuple a death: the first
	// quiescent Run at which both clocks passed 2·MaxWindowHint−1 past
	// its publication (PubSeq, PubTime) drops it, counted in
	// TuplesCollected. By then no rewrite can still combine with it —
	// under the anchor rule a 3-way rewrite may start up to Size−1 clocks
	// before a tuple it meets and outlive the horizon by as much — so no
	// answer is lost. The promise holds only for continuous queries
	// windowed within MaxWindowHint, and SubmitQuery rejects any other
	// query while TupleGC is set: unwindowed, wider, one-time. It reduces
	// memory only; the storage-load metric counts store events and is
	// unaffected. Set it before the first tuple is stored.
	TupleGC bool

	// MaxWindowHint is the largest window size a submitted query may use
	// under TupleGC, on either clock. It must be positive when TupleGC
	// is set.
	MaxWindowHint int64

	// ShareExact enables the multi-query sharing layer's byte-identical
	// duplicate detection (see share.go): a submitted query whose
	// canonical SQL rendering matches an already-live query attaches to
	// that query's pipeline instead of indexing a second copy, and the
	// completion node fans answer rows out to every subscriber.
	// Attaching mid-stream is only sound when completions of tuples
	// published at the attach tick happen strictly later (the fan-out
	// table must be visible first), so ShareExact requires every message
	// to take at least one tick — the rjoin layer enables it exactly
	// when MinHopDelay >= 1. Off by default: the bare engine keeps the
	// one-pipeline-per-submission behaviour.
	ShareExact bool

	// Catalog, when non-nil, enables full canonical-form sharing and
	// supplies the relation schemas the canonicalizer needs (a
	// canonical pipeline selects every attribute of every relation):
	// queries that differ only in constants, filter predicates or
	// projection lists share one canonical full-row pipeline per
	// join-graph equivalence class, with per-subscriber residuals
	// applied at the completion node, and a query whose join graph
	// strictly contains an existing class's attaches to that class's
	// completions (containment sharing). It implies the ShareExact
	// timing constraint (MinHopDelay >= 1). A nil Catalog disables
	// canonical sharing but leaves exact-duplicate sharing intact.
	Catalog *relation.Catalog

	// Obs, when non-nil, receives one record per step of the tuple and
	// query lifecycle (see internal/obs), from which the causal trace,
	// the latency/depth histograms, the windowed rate series and the
	// per-(query, placement) attribution behind Engine.Explain are all
	// folded at Sync barriers. It must be the recorder the overlay was
	// built with. Every hook is nil-guarded: a nil Obs costs nothing on
	// the hot path and leaves all golden digests byte-identical.
	Obs *obs.Recorder

	// Provenance threads answer lineage through the rewrite pipeline:
	// every rewrite step appends the consumed tuple's (publisher,
	// pubSeq, node) to the query's Lineage, completed rows carry it to
	// the subscriber (through sharing fan-out and aggregation, whose
	// group lineage is the union of contributing rows'), and
	// Answer.Lineage / ViewRow.Lineage expose it. Off by
	// default: the hot path then never touches lineage slices and
	// allocates nothing for them.
	Provenance bool
}
