package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rjoin/internal/sim"
)

// parallelEngine is an event engine whose recorder gets the full
// per-shard cell layout.
func parallelEngine() *sim.Engine {
	se := sim.NewEngine(1)
	se.SetWorkers(2)
	return se
}

// tracing returns a serial-layout recorder with only the trace on.
func tracing(maxEvents int64) (*Recorder, *Tracer) {
	tr := NewTracer(maxEvents)
	return NewRecorder(Views{Trace: tr}), tr
}

// TestTracerCanonicalOrder: the merged stream must not depend on which
// execution shard an event was emitted from, only on the canonical
// (At, Kind, Node, ...) order — that is the whole determinism argument.
func TestTracerCanonicalOrder(t *testing.T) {
	recs := []Rec{
		{At: 2, Kind: KindRewrite, Node: 7, QID: "q1", Arg: 1},
		{At: 1, Kind: KindPublish, Node: 3, Pub: 3, PubSeq: 1},
		{At: 2, Kind: KindTupleArrive, Node: 9, Pub: 3, PubSeq: 1, Key: "R.A=3"},
		{At: 1, Kind: KindSubmit, Node: 5, QID: "q1", Arg: 2},
	}
	ra, a := tracing(0)
	ra.Bind(parallelEngine())
	for i, rec := range recs {
		ra.Emit(i%sim.Shards, rec) // scatter across shards
	}
	ra.Flush()
	rb, b := tracing(0)
	for i := len(recs) - 1; i >= 0; i-- {
		rb.Emit(sim.NoShard, recs[i]) // reverse order, coordinator cell
	}
	rb.Flush()
	if a.Digest() != b.Digest() {
		t.Fatalf("digest depends on emit shard/order: %x vs %x", a.Digest(), b.Digest())
	}
	got := a.Events()
	if len(got) != len(recs) || got[0].Trace != PubTrace(3, 1) || got[3].Trace != "q1" {
		t.Fatalf("trace identity lost in the fold: %+v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i].compare(got[i-1]) < 0 {
			t.Fatalf("events not in canonical order at %d: %+v before %+v", i, got[i-1], got[i])
		}
	}
}

// TestTracerFlushBatches: events flushed in separate batches keep batch
// order (later flush, later position) even when their timestamps
// interleave — batches model sim barriers, which only ever move forward.
func TestTracerFlushBatches(t *testing.T) {
	rec, tr := tracing(0)
	rec.Emit(sim.NoShard, Rec{At: 5, Kind: KindPublish, Node: 1})
	rec.Flush()
	rec.Emit(sim.NoShard, Rec{At: 5, Kind: KindAnswer, Node: 2})
	if len(tr.Events()) != 1 {
		t.Fatalf("unflushed record visible: %+v", tr.Events())
	}
	rec.Flush()
	got := tr.Events()
	if len(got) != 2 || got[0].Kind != KindPublish || got[1].Kind != KindAnswer {
		t.Fatalf("batch order lost: %+v", got)
	}
}

func TestTracerLimit(t *testing.T) {
	rec, tr := tracing(3)
	for i := 0; i < 10; i++ {
		rec.Emit(sim.NoShard, Rec{At: sim.Time(i), Kind: KindPublish, Node: 1})
	}
	rec.Flush()
	if got := len(tr.Events()); got != 3 {
		t.Fatalf("limit 3 retained %d events", got)
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
}

func TestTracerNilSafe(t *testing.T) {
	var rec *Recorder
	rec.Bind(parallelEngine())
	rec.Emit(0, Rec{})
	rec.Flush()
	rec.Reset()
	tr := rec.Views().Trace
	if tr.Events() != nil || tr.Digest() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must be inert")
	}
	if NewRecorder(Views{}) != nil {
		t.Fatal("a recorder with no view must be the nil recorder")
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < kindCount; k++ {
		if k.String() == "" || seen[k.String()] {
			t.Fatalf("kind %d has no name of its own: %q", k, k)
		}
		seen[k.String()] = true
	}
}

// TestRecordOnlyKindsStayOutOfTheTrace: a trace shows the public kinds
// only, the record-only kinds not at all.
func TestRecordOnlyKindsStayOutOfTheTrace(t *testing.T) {
	rec, tr := tracing(0)
	for k := Kind(0); k < kindCount; k++ {
		rec.Emit(sim.NoShard, Rec{At: sim.Time(k), Kind: k})
	}
	rec.Flush()
	got := tr.Events()
	if len(got) != int(lastTraced)+1 {
		t.Fatalf("trace holds %d events, want %d", len(got), int(lastTraced)+1)
	}
	for i, ev := range got {
		if ev.Kind != Kind(i) {
			t.Fatalf("event %d has kind %v, want %v", i, ev.Kind, Kind(i))
		}
	}
}

func TestExportJSONL(t *testing.T) {
	rec, tr := tracing(0)
	rec.Emit(sim.NoShard, Rec{At: 1, Kind: KindPublish, Node: 3, Pub: 3, PubSeq: 1})
	rec.Emit(sim.NoShard, Rec{At: 4, Kind: KindAnswer, Node: 9, QID: "q1", Arg: 3})
	rec.Flush()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d: %q", len(lines), buf.String())
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q not valid JSON: %v", ln, err)
		}
	}
}

// TestExportChromeTrace: the Chrome trace-event output must be one valid
// JSON array with per-node thread-name metadata plus one instant event
// per trace event — the shape Perfetto's JSON importer accepts.
func TestExportChromeTrace(t *testing.T) {
	rec, tr := tracing(0)
	rec.Emit(sim.NoShard, Rec{At: 1, Kind: KindPublish, Node: 3})
	rec.Emit(sim.NoShard, Rec{At: 2, Kind: KindTupleArrive, Node: 5, Key: "R.A=1"})
	rec.Flush()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome trace not a JSON array: %v\n%s", err, buf.String())
	}
	var meta, inst int
	for _, e := range evs {
		switch e["ph"] {
		case "M":
			meta++
		case "i":
			inst++
		}
	}
	if meta != 2 || inst != 2 {
		t.Fatalf("want 2 metadata + 2 instant events, got %d + %d", meta, inst)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 100, -5} {
		h.Observe(v)
	}
	s := h.Summary()
	if s.Count != 6 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 0 || s.Max != 100 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	if s.P50 > s.P99 {
		t.Fatalf("P50 %d > P99 %d", s.P50, s.P99)
	}
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	if s := h.Summary(); s.Count != 0 {
		t.Fatal("nil histogram must be inert")
	}
}

// TestMetricsWindows: counts land in the window of the record's
// timestamp regardless of fold timing, counts for one (win, scope,
// name) from different shards and different folds merge into one row,
// and the CSV renders every window.
func TestMetricsWindows(t *testing.T) {
	m := NewMetrics(10)
	rec := NewRecorder(Views{Metrics: m})
	rec.Bind(parallelEngine())
	rec.Emit(0, Rec{At: 3, Kind: KindDeliver, Node: 0xa})
	rec.Emit(1, Rec{At: 7, Kind: KindDeliver, Node: 0xa}) // same node, different shard, same window
	rec.Emit(0, Rec{At: 12, Kind: KindRoute, Key: "ric", Arg: 2})
	rec.Emit(0, Rec{At: 13, Kind: KindRoute, Arg: 0}) // a local delivery cost no transmission
	rec.Emit(2, Rec{At: 5, Kind: KindAnswer, QID: "q1"})
	rec.Flush()
	rec.Emit(3, Rec{At: 14, Kind: KindHop}) // a later fold into a window already seen
	rec.Emit(3, Rec{At: 15, Kind: KindHop, Key: "ric"})
	rec.Flush()
	samples := m.Samples()
	if len(samples) != 4 {
		t.Fatalf("want one row per (window, scope, name), got %+v", samples)
	}
	byKey := map[string]int64{}
	for _, s := range samples {
		byKey[s.Scope+"/"+s.Name] += s.Count
	}
	if byKey["node/000000000000000a"] != 2 {
		t.Fatalf("node counts did not merge: %+v", samples)
	}
	if byKey["tag/ric"] != 3 || byKey["tag/app"] != 1 || byKey["query/q1"] != 1 {
		t.Fatalf("unexpected samples: %+v", samples)
	}
	if m.HopCount.Summary().Count != 2 {
		t.Fatalf("hop count observed %d routed sends, want 2", m.HopCount.Summary().Count)
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 1+len(samples) {
		t.Fatalf("CSV rows %d != header + %d samples:\n%s", len(lines), len(samples), buf.String())
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.add(1, "tag", 0, "x", 1)
	m.Reset()
	if m.Samples() != nil || m.Interval() != 0 {
		t.Fatal("nil metrics must be inert")
	}
}

// TestObsDisabledZeroAlloc pins the disabled-path contract: with
// observability off (the nil recorder, and the nil per-subscription
// histogram that goes with it), everything the hot paths and the sync
// barrier call must allocate nothing.
func TestObsDisabledZeroAlloc(t *testing.T) {
	var rec *Recorder
	var h *Histogram
	if n := testing.AllocsPerRun(100, func() {
		rec.Emit(3, Rec{At: 1, Kind: KindPublish, Node: 2, QID: "q1", Key: "R+A"})
		rec.Flush()
		h.Observe(7)
	}); n != 0 {
		t.Fatalf("disabled observability allocated %.1f times per run", n)
	}
}

// TestEnabledHistogramZeroAlloc: the enabled histogram path must also be
// allocation-free — it is on the answer hot path.
func TestEnabledHistogramZeroAlloc(t *testing.T) {
	h := &Histogram{}
	if n := testing.AllocsPerRun(100, func() { h.Observe(42) }); n != 0 {
		t.Fatalf("Histogram.Observe allocated %.1f times per run", n)
	}
}

// TestExportChromeTraceFlows: events sharing a trace ID must emit a
// flow-event chain — ph "s" at the first event, "t" in the middle, "f"
// with bp "e" at the last, all under one id — while traces with a
// single event draw no arrows.
func TestExportChromeTraceFlows(t *testing.T) {
	rec, tr := tracing(0)
	rec.Emit(sim.NoShard, Rec{At: 1, Kind: KindSubmit, Node: 3, QID: "q1"})
	rec.Emit(sim.NoShard, Rec{At: 2, Kind: KindRewrite, Node: 5, QID: "q1"})
	rec.Emit(sim.NoShard, Rec{At: 4, Kind: KindAnswer, Node: 9, QID: "q1"})
	rec.Emit(sim.NoShard, Rec{At: 6, Kind: KindPublish, Node: 3, Pub: 3, PubSeq: 1}) // lone trace: no flow
	rec.Flush()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome trace not a JSON array: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	var ids []any
	for _, e := range evs {
		ph := e["ph"].(string)
		phases[ph]++
		switch ph {
		case "s", "t", "f":
			ids = append(ids, e["id"])
			if e["cat"] != "rjoin.flow" || e["name"] != "lineage" {
				t.Fatalf("flow event mislabelled: %v", e)
			}
			if ph == "f" && e["bp"] != "e" {
				t.Fatalf(`final flow event must bind with bp "e": %v`, e)
			}
		}
	}
	if phases["s"] != 1 || phases["t"] != 1 || phases["f"] != 1 {
		t.Fatalf("want one s/t/f chain, got %v", phases)
	}
	if phases["i"] != 4 {
		t.Fatalf("instant events must be unaffected: %v", phases)
	}
	for _, id := range ids {
		if id != ids[0] {
			t.Fatalf("flow chain ids diverge: %v", ids)
		}
	}
}

// TestHistogramZeroObservations: an untouched histogram summarizes to
// all zeros — no phantom min/max, quantiles zero, empty buckets.
func TestHistogramZeroObservations(t *testing.T) {
	h := &Histogram{}
	s := h.Summary()
	if s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 || s.Mean != 0 {
		t.Fatalf("zero-observation summary not zero: %+v", s)
	}
	if s.P50 != 0 || s.P99 != 0 {
		t.Fatalf("quantiles of empty histogram must be 0, got P50=%d P99=%d", s.P50, s.P99)
	}
	for i, c := range s.Buckets {
		if c != 0 {
			t.Fatalf("bucket %d nonzero on empty histogram", i)
		}
	}
}

// TestHistogramSingleBucket: identical observations land in exactly one
// bucket, and every quantile is that bucket's bound.
func TestHistogramSingleBucket(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 7; i++ {
		h.Observe(5) // bucket (4, 8]
	}
	s := h.Summary()
	if s.Count != 7 || s.Min != 5 || s.Max != 5 || s.Mean != 5 {
		t.Fatalf("summary = %+v", s)
	}
	occupied := -1
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if occupied != -1 {
			t.Fatalf("observations spread over buckets %d and %d", occupied, i)
		}
		if c != 7 {
			t.Fatalf("bucket %d holds %d of 7", i, c)
		}
		occupied = i
	}
	if occupied != bucketOf(5) {
		t.Fatalf("landed in bucket %d, want %d", occupied, bucketOf(5))
	}
	if s.P50 != BucketBound(occupied) || s.P99 != BucketBound(occupied) {
		t.Fatalf("quantiles %d/%d, want both %d", s.P50, s.P99, BucketBound(occupied))
	}
}

// TestHistogramMaxValueOverflow: values beyond the last finite bucket
// bound clamp into the overflow bucket without corrupting count, sum,
// max or the quantile walk.
func TestHistogramMaxValueOverflow(t *testing.T) {
	h := &Histogram{}
	huge := int64(1) << 60 // far past BucketBound(HistBuckets-2)
	h.Observe(huge)
	h.Observe(1 << 62)
	h.Observe(3) // one small value for contrast
	s := h.Summary()
	if s.Count != 3 || s.Max != 1<<62 || s.Min != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if got := s.Buckets[HistBuckets-1]; got != 2 {
		t.Fatalf("overflow bucket holds %d, want 2", got)
	}
	if s.P99 != BucketBound(HistBuckets-1) {
		t.Fatalf("P99 = %d, want overflow bound %d", s.P99, BucketBound(HistBuckets-1))
	}
	if s.P50 != BucketBound(HistBuckets-1) {
		// 3 observations: the median (index 1) is in the overflow bucket.
		t.Fatalf("P50 = %d, want overflow bound %d", s.P50, BucketBound(HistBuckets-1))
	}
}

// TestMetricsCSVEmptyRegistry: a registry that never saw an event must
// still write valid CSV — the header alone, no phantom rows.
func TestMetricsCSVEmptyRegistry(t *testing.T) {
	m := NewMetrics(10)
	NewRecorder(Views{Metrics: m}).Flush()
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "window_start") {
		t.Fatalf("empty registry CSV should be header only:\n%s", buf.String())
	}
}
