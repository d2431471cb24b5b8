package core

import (
	"rjoin/internal/id"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// rateStat measures the rate of incoming tuples for one index key at
// the node responsible for it — the RIC information of Section 6. The
// estimate is epoch-based: time is divided into fixed windows of
// ricWindow ticks, and the prediction for the next window is the
// count observed in the last complete window (falling back to the
// current, still-open window when no complete one exists yet, so that
// freshly hot keys are visible immediately).
type rateStat struct {
	epoch     int64 // index of the epoch countCur refers to
	countCur  int64
	countPrev int64
}

func epochOf(now sim.Time, window int64) int64 {
	if window <= 0 {
		return 0
	}
	return int64(now) / window
}

// record notes one tuple arrival at time now.
func (r *rateStat) record(now sim.Time, window int64) {
	e := epochOf(now, window)
	switch {
	case e == r.epoch:
		r.countCur++
	case e == r.epoch+1:
		r.countPrev = r.countCur
		r.epoch = e
		r.countCur = 1
	default:
		r.countPrev = 0
		r.epoch = e
		r.countCur = 1
	}
}

// rate predicts the next window's arrival count.
func (r *rateStat) rate(now sim.Time, window int64) float64 {
	e := epochOf(now, window)
	switch {
	case e == r.epoch:
		if r.countPrev > 0 {
			return float64(r.countPrev)
		}
		return float64(r.countCur)
	case e == r.epoch+1:
		return float64(r.countCur)
	default:
		return 0 // key has gone quiet
	}
}

// ctEntry is one row of the candidate table (CT) of Section 7: the most
// recent RIC information a node holds about a key, together with the
// address of the node responsible for it so future queries can reach
// that candidate in one hop.
type ctEntry struct {
	Rate float64
	Addr id.ID
	At   sim.Time
}

// candidateTable caches RIC information learned from replies and from
// RIC info piggy-backed on rewritten queries, keeping the most recent
// report per key.
type candidateTable struct {
	entries map[relation.Key]ctEntry
}

func newCandidateTable() *candidateTable {
	return &candidateTable{entries: make(map[relation.Key]ctEntry)}
}

// merge records a report, keeping the newest per key, and reports
// whether the key is new to the table.
func (ct *candidateTable) merge(info ricInfo) (added bool) {
	cur, ok := ct.entries[info.Key]
	if ok && cur.At >= info.At {
		return false
	}
	ct.entries[info.Key] = ctEntry{Rate: info.Rate, Addr: info.Addr, At: info.At}
	return !ok
}

// fresh returns the entry for key if it exists and was learned within
// validity ticks of now.
func (ct *candidateTable) fresh(key relation.Key, now sim.Time, validity int64) (ctEntry, bool) {
	e, ok := ct.entries[key]
	if !ok || int64(now-e.At) > validity {
		return ctEntry{}, false
	}
	return e, true
}

// get returns the entry regardless of freshness. Its one caller,
// addrFor, reads a key right after a fresh hit on it or a merge of it,
// so the entry it finds is never one the death drain would have dropped.
func (ct *candidateTable) get(key relation.Key) (ctEntry, bool) {
	e, ok := ct.entries[key]
	return e, ok
}

// size returns the number of cached keys.
func (ct *candidateTable) size() int { return len(ct.entries) }
