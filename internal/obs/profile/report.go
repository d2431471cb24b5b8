// Report assembly and rendering: the structured form Explain()
// returns, its EXPLAIN ANALYZE-style text rendering, and the FNV-64a
// digest the determinism tests pin. The engine fills the static plan
// (placement keys in candidate order, sharing attribution) and joins
// the profiler's merged counters in; everything here is pure
// formatting over that data, in canonical order.
package profile

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Placement is one index placement of a query's rewrite pipeline:
// static plan facts plus the observed per-placement counters.
type Placement struct {
	// Key is the placement's index key ("Rel+Attr" or "Rel+Attr+Value").
	Key string `json:"key"`
	// Rel is the relation the placement indexes ("" when the placement
	// was discovered at runtime and the engine no longer knows).
	Rel string `json:"rel,omitempty"`
	// Level is "attribute", "value", or "aggregate".
	Level string `json:"level"`
	// Clause is the placement's position in the query's static
	// candidate order (the arrival-order baseline RJoin rewrites in),
	// or -1 for placements reached only through rewriting.
	Clause int `json:"clause"`

	// Observed counters (zero when profiling is off).
	Arrivals    int64 `json:"arrivals"`
	Evals       int64 `json:"evals"`
	Stored      int64 `json:"stored"`
	Rewrites    int64 `json:"rewrites"`
	Completions int64 `json:"completions"`
	CTHits      int64 `json:"ct_hits"`
	CTMisses    int64 `json:"ct_misses"`
	StateBytes  int64 `json:"state_bytes"`
	AggPartials int64 `json:"agg_partials"`
}

// triggers is the rewrite work the placement performed.
func (pl *Placement) triggers() int64 { return pl.Rewrites + pl.Completions }

// Selectivity is the rewrite steps triggered per arrival at this
// placement (above 1 when one arrival meets several stored rewrites),
// the quantity a rate-ordered planner would sort placements by. -1
// when no arrivals were observed.
func (pl *Placement) Selectivity() float64 {
	if pl.Arrivals == 0 {
		return -1
	}
	return float64(pl.triggers()) / float64(pl.Arrivals)
}

// StatePoint is one window of a query's state-footprint series.
type StatePoint struct {
	// Win is the window's start tick; Bytes the estimated retained
	// rewrite-state bytes at the end of it.
	Win   int64 `json:"win"`
	Bytes int64 `json:"bytes"`
}

// Report is the structured result of Explain(): the query's placement
// plan with per-placement observations, its sharing attribution, and
// subscriber-side delivery totals.
type Report struct {
	// Query is the subscription's query ID; SQL its rendered text.
	Query string `json:"query"`
	SQL   string `json:"sql"`
	// Now is the virtual time the report was taken at.
	Now int64 `json:"now"`

	// Pipeline is the query ID whose rewrite pipeline does this
	// query's in-network work — its own ID, or the shared class
	// leader's when multi-query sharing attached it.
	Pipeline string `json:"pipeline"`
	// Subscribers counts queries fanning out of that pipeline; zero
	// means this query has been unsubscribed.
	Subscribers int `json:"subscribers"`
	// Residual renders this subscriber's residual filter/projection
	// ("" when the pipeline's completions are delivered as-is).
	Residual string `json:"residual,omitempty"`

	// Placements is the pipeline's placements: static candidates in
	// clause order first, then runtime-discovered keys sorted.
	Placements []Placement `json:"placements"`
	// Series is the pipeline's state-footprint series.
	Series []StatePoint `json:"series,omitempty"`

	// Delivery totals for this subscriber.
	Answers    int64 `json:"answers"`
	AggUpdates int64 `json:"agg_updates"`
	FanoutRows int64 `json:"fanout_rows"`

	// Profiled and Provenance report which collection layers were on.
	Profiled   bool `json:"profiled"`
	Provenance bool `json:"provenance"`
}

// frac renders a ratio with stable precision, "-" for undefined.
func frac(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.4f", v)
}

// Text renders the report in an EXPLAIN ANALYZE-like layout. The
// rendering is canonical: equal reports produce equal text, which is
// what Digest pins.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE %s (at tick %d)\n", r.Query, r.Now)
	fmt.Fprintf(&b, "  %s\n", r.SQL)
	if r.Subscribers == 0 {
		b.WriteString("  unsubscribed: no live subscriber\n")
	} else if r.Pipeline != r.Query {
		fmt.Fprintf(&b, "  shared pipeline: %s (%d subscribers)\n", r.Pipeline, r.Subscribers)
	} else if r.Subscribers > 1 {
		fmt.Fprintf(&b, "  pipeline shared by %d subscribers\n", r.Subscribers)
	}
	if r.Residual != "" {
		fmt.Fprintf(&b, "  residual: %s\n", r.Residual)
	}
	if !r.Profiled {
		b.WriteString("  (profiling off: static plan only — set Options.Profile)\n")
	}
	for i := range r.Placements {
		pl := &r.Placements[i]
		pos := "runtime"
		if pl.Clause >= 0 {
			pos = fmt.Sprintf("clause %d", pl.Clause)
		}
		fmt.Fprintf(&b, "  -> %s [%s, %s]", pl.Key, pl.Level, pos)
		if r.Profiled {
			fmt.Fprintf(&b, " arrivals=%d evals=%d stored=%d rewrites=%d completions=%d ct=%d/%d state=%dB agg=%d sel=%s",
				pl.Arrivals, pl.Evals, pl.Stored, pl.Rewrites, pl.Completions,
				pl.CTHits, pl.CTMisses, pl.StateBytes, pl.AggPartials, frac(pl.Selectivity()))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  delivered: answers=%d agg_updates=%d fanout_rows=%d provenance=%v\n",
		r.Answers, r.AggUpdates, r.FanoutRows, r.Provenance)
	if len(r.Series) > 0 {
		b.WriteString("  state footprint:")
		for _, pt := range r.Series {
			fmt.Fprintf(&b, " t%d=%dB", pt.Win, pt.Bytes)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Digest folds the report's canonical text rendering into one 64-bit
// FNV-1a value; the explain-determinism tests pin it across worker
// counts.
func (r *Report) Digest() uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.Text()))
	return h.Sum64()
}
