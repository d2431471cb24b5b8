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

// Config tunes the RJoin engine. Start from DefaultConfig: the zero
// value runs, but with the Section 7 optimizations off.
type Config struct {
	// Strategy is the query-placement strategy.
	Strategy Strategy

	// Delta is the ALTT retention Δ of Section 4 in virtual-time ticks.
	// Zero selects an automatic bound derived from the overlay's
	// maximum message delay (Network.MaxDelta), which preserves
	// eventual completeness. Negative disables the ALTT entirely
	// (used by ablation benchmarks to demonstrate lost answers).
	Delta int64

	// UseCT enables the candidate-table cache of Section 7. Disabling
	// it forces a RIC poll for every unknown candidate (ablation).
	UseCT bool

	// PiggybackRIC attaches the sender's RIC knowledge about a
	// rewritten query's candidates to the Eval message (Section 7), so
	// the receiver typically needs to poll only the one candidate the
	// rewriting step introduced.
	PiggybackRIC bool

	// AllowAttrRewrites permits rewritten queries to be indexed at
	// attribute-level candidates, the full candidate set of Section 6.
	// It is off by default because attribute-level nodes only retain Δ
	// of tuple history (the ALTT), so a rewritten query anchored
	// out of publication order can miss tuples older than Δ — the
	// eventual-completeness proof of Theorem 1 covers the generalized
	// placement only under in-order anchoring. With the flag off,
	// rewritten queries use value-level candidates (Section 3's rule),
	// whose tuple stores are unbounded, preserving completeness.
	AllowAttrRewrites bool

	// AttrReplicas spreads attribute-level load over r replica keys
	// per Rel+Attr pair — the replication remedy of [18] the paper
	// points to for attribute-level hotspots ("a node responsible for
	// R.B receives more tuples to process than a node responsible for
	// R.B+v"). Queries indexed at attribute level are stored at every
	// replica; each tuple is delivered to exactly one replica (round
	// robin on its publication sequence), so every (query, tuple) pair
	// still meets exactly once and both completeness and bag semantics
	// are unchanged. Values < 2 disable replication.
	//
	// AttrReplicas is load spreading, not durability: the copies are
	// key aliases on different nodes, each holding a distinct slice of
	// the stream. Durability — surviving a node crash with state
	// intact — is ReplicationFactor's job.
	AttrReplicas int

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
	// and keep the counted-loss crash model.
	//
	// ReplicationFactor is durability, not load spreading: replicas are
	// passive copies that serve no traffic until promoted. To spread a
	// hot attribute-level key over several nodes, use AttrReplicas.
	ReplicationFactor int

	// EnableMigration turns on the future-work extension the paper
	// sketches in Section 10: on-line adaptation of the distributed
	// query plan by query migration. A stored value-level rewritten
	// query that keeps being triggered at a hot key relocates itself to
	// the coldest of its candidates (judged from the node's candidate
	// table), carrying an exclusion set of already-combined tuples so
	// no answer is duplicated. Migration is restricted to value-level
	// rewritten queries, whose destination tuple stores are unbounded,
	// so eventual completeness is preserved.
	EnableMigration bool

	// MigrationMinTriggers is how many local triggers a stored query
	// must accumulate before migration is considered (default 8).
	MigrationMinTriggers int

	// MigrationFactor requires the local key's observed rate to exceed
	// the best alternative candidate's rate by this factor before a
	// migration fires (default 4).
	MigrationFactor float64

	// TupleGC drops stored value-level tuples that can no longer fall
	// inside any window of size <= MaxWindowHint. It reduces memory
	// only; the storage-load metric counts store events and is
	// unaffected.
	TupleGC bool

	// MaxWindowHint is the largest window size any submitted query
	// uses, consulted by TupleGC. Zero disables tuple GC even when
	// TupleGC is set.
	MaxWindowHint int64

	// ShareExact enables the multi-query registry's byte-identical
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

	// ShareQueries enables full canonical-form sharing: queries that
	// differ only in constants, filter predicates or projection lists
	// share one canonical full-row pipeline per join-graph equivalence
	// class, with per-subscriber residuals applied at the completion
	// node, and a query whose join graph strictly contains an existing
	// class's attaches to that class's completions (containment
	// sharing). Requires Catalog and implies the ShareExact timing
	// constraint (MinHopDelay >= 1).
	ShareQueries bool

	// Catalog supplies relation schemas to the canonicalizer; required
	// by ShareQueries (a canonical pipeline selects every attribute of
	// every relation, which needs the schemas). A nil Catalog disables
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

// DefaultConfig returns the configuration the paper's experiments run
// under: RIC placement with candidate-table caching and piggy-backed
// RIC info.
func DefaultConfig() Config {
	return Config{
		Strategy:     StrategyRIC,
		Delta:        0, // auto
		UseCT:        true,
		PiggybackRIC: true,
	}
}
