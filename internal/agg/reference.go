package agg

import (
	"sort"

	"rjoin/internal/query"
	"rjoin/internal/relation"
)

// ViewRow is one entry of a query's aggregate view: the latest
// finalized aggregates of one group in one epoch. Group is the
// injective group-key encoding (Spec.AppendGroupKey), so view rows sort and
// compare deterministically.
type ViewRow struct {
	Group string
	Epoch int64
	Row   []relation.Value
	// Lineage is the sorted union of the lineage of every answer row
	// folded into this view row — the contributing base tuples by
	// (publisher, pubSeq) with their rewrite hop nodes. Populated only
	// by the engine when provenance is enabled; Reference leaves it nil.
	Lineage []query.LineageStep
}

// SortViewRows orders view rows by (group key, epoch) — the canonical
// presentation order of an aggregate view.
func SortViewRows(rows []ViewRow) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Group != rows[j].Group {
			return rows[i].Group < rows[j].Group
		}
		return rows[i].Epoch < rows[j].Epoch
	})
}

// Reference computes the aggregate view of q from scratch, given the
// full answer multiset with per-row completion clocks — the centralized
// one-shot fold the distributed incremental machinery must equal. Tests
// feed it refeval's brute-forced answer bag.
func Reference(q *query.Query, rows [][]relation.Value, clocks []int64) []ViewRow {
	s := SpecOf(q)
	if s == nil {
		return nil
	}
	type bucket struct {
		group []relation.Value
		parts map[int64]*Partial
	}
	groups := make(map[string]*bucket)
	for i, row := range rows {
		gk := string(s.AppendGroupKey(nil, row))
		b, ok := groups[gk]
		if !ok {
			b = &bucket{group: s.GroupValues(row), parts: make(map[int64]*Partial)}
			groups[gk] = b
		}
		e := s.Window.EpochOf(clocks[i])
		p, ok := b.parts[e]
		if !ok {
			p = NewPartial(s)
			b.parts[e] = p
		}
		p.Add(s, row)
	}
	var out []ViewRow
	for gk, b := range groups {
		// A view row exists for every epoch holding rows; a sliding view
		// additionally has a row for the epoch after each occupied one
		// (windows ending there still see the previous epoch's rows).
		epochs := make(map[int64]bool, len(b.parts))
		for e := range b.parts {
			epochs[e] = true
			if s.Sliding() {
				epochs[e+1] = true
			}
		}
		for e := range epochs {
			parts := []*Partial{b.parts[e]}
			if s.Sliding() {
				parts = append(parts, b.parts[e-1])
			}
			out = append(out, ViewRow{Group: gk, Epoch: e, Row: s.FinalizeRow(b.group, parts...)})
		}
	}
	SortViewRows(out)
	return out
}
