package core

// Engine.Explain assembles the per-query introspection report: the
// static placement plan (the pipeline's index candidates in clause
// order), the per-placement counters the profiler attributed to them,
// sharing attribution from the query's class, the state footprint
// series and the subscriber-side delivery totals. It runs from driver
// context between drains — the same contexts Answers and Stats are read
// from — so reading the merged profiler maps and the class is
// race-free. Everything it reads is either static plan
// structure or a Sync-merged deterministic counter, so a report taken
// at a drained virtual time is bit-identical across worker counts.

import (
	"fmt"
	"strings"

	"rjoin/internal/obs/profile"
	"rjoin/internal/query"
	"rjoin/internal/share"
)

// Explain returns the introspection report of one submitted query.
// With Config.Profile unset the report still carries the static plan
// and delivery totals; the observed counters are zero and the report
// says so. An unsubscribed query reports zero subscribers and zero
// deliveries. Unknown (never-submitted) query IDs error.
func (e *Engine) Explain(queryID string) (*profile.Report, error) {
	sub := e.sub(queryID)
	if sub == nil {
		return nil, fmt.Errorf("core: Explain of unknown query %s", queryID)
	}
	q := sub.q
	r := &profile.Report{
		Query:       queryID,
		SQL:         q.String(),
		Now:         int64(e.sim.Now()),
		Pipeline:    queryID,
		Subscribers: 1,
		Profiled:    e.obs.Views().Profile != nil,
		Provenance:  e.prov,
	}
	// Sharing attribution: whose rewrite pipeline does this query's
	// in-network work, how many subscribers ride it, and what residual
	// this subscriber applies at the completion node.
	pipe := q
	if cls := sub.rides; cls == nil {
		r.Subscribers = 0 // unsubscribed: what follows is the query's own plan, as history
	} else {
		r.Pipeline = cls.pipe.q.ID
		r.Subscribers = len(cls.members)
		pipe = cls.query
		if sub.res != nil {
			r.Residual = residualText(sub.res)
		}
	}

	// Static placements: the pipeline's candidate set in clause order —
	// the arrival-order baseline a rate-informed planner is compared
	// against. Runtime-discovered keys (rewrites indexed at value-level
	// keys derived from tuple contents, aggregator group keys) follow,
	// sorted, marked clause -1.
	seen := make(map[string]bool)
	for i, c := range pipe.Candidates() {
		seen[c.Key.String()] = true
		r.Placements = append(r.Placements, profile.Placement{
			Key: c.Key.String(), Rel: c.Col.Rel,
			Level: c.Level.String(), Clause: i,
		})
	}
	if pf := e.obs.Views().Profile; pf != nil {
		for _, k := range pf.Keys(r.Pipeline) {
			if !seen[k] {
				r.Placements = append(r.Placements, profile.Placement{
					Key: k, Level: levelOfKey(k), Clause: -1,
				})
			}
		}
		for i := range r.Placements {
			pl := &r.Placements[i]
			pl.Arrivals = pf.Count("", pl.Key, profile.Arrivals)
			pl.Evals = pf.Count(r.Pipeline, pl.Key, profile.Evals)
			pl.Stored = pf.Count(r.Pipeline, pl.Key, profile.StoredQueries)
			pl.Rewrites = pf.Count(r.Pipeline, pl.Key, profile.Rewrites)
			pl.Completions = pf.Count(r.Pipeline, pl.Key, profile.Completions)
			pl.CTHits = pf.Count(r.Pipeline, pl.Key, profile.CTHits)
			pl.CTMisses = pf.Count(r.Pipeline, pl.Key, profile.CTMisses)
			pl.StateBytes = pf.Count(r.Pipeline, pl.Key, profile.StateBytes)
			pl.AggPartials = pf.Count(r.Pipeline, pl.Key, profile.AggPartials)
		}
		r.FanoutRows = pf.Count(queryID, "", profile.FanoutRows)
		r.Series = pf.SeriesFor(r.Pipeline)
	}

	sub.mu.Lock()
	r.Answers = int64(sub.rows)
	r.AggUpdates = int64(len(sub.view))
	sub.mu.Unlock()
	return r, nil
}

// levelOfKey classifies a runtime-discovered profiling key: aggregator
// group keys carry the NUL-fenced agg prefix, value-level index keys
// have at least two '+' separators (Rel+Attr+Value), attribute-level
// ones exactly one.
func levelOfKey(k string) string {
	if strings.HasPrefix(k, aggKeyPrefix) {
		return "aggregate"
	}
	if strings.Count(k, "+") >= 2 {
		return query.ValueLevel.String()
	}
	return query.AttrLevel.String()
}

// residualText renders a subscriber's residual deterministically:
// filter conjuncts over full-row positions, then the projection.
func residualText(res *share.Residual) string {
	var b strings.Builder
	b.WriteString("filter[")
	for i, p := range res.Preds {
		if i > 0 {
			b.WriteString(" and ")
		}
		fmt.Fprintf(&b, "row[%d]=%s", p.Pos, p.Val)
	}
	b.WriteString("] project[")
	for i, it := range res.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.IsConst {
			b.WriteString(it.Const.String())
		} else {
			fmt.Fprintf(&b, "row[%d]", it.Pos)
		}
	}
	b.WriteString("]")
	return b.String()
}
