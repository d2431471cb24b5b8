package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rjoin"
	"rjoin/internal/core"
)

// setupReps is how many times an untraced run sets the workload up;
// setup_s is the median and the last network is the one measured.
const setupReps = 5

// prefixBlocks is how many throughput blocks the fixed prefix splits
// into; the time box continues in blocks of the same length.
const prefixBlocks = 16

// maxSlope is the growth of mean stored state from the first half of
// the prefix to the second above which a workload without a documented
// unbounded component is not stationary, and its run not a measurement.
const maxSlope = 0.10

// metric is one named reading.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string
	Seed      int64
	Correct   bool
	Attempted int64
	Failed    int64
	Digest    string // answers_digest
	Notes     []string
	// EndToEnd is set by the untraced run only and Layers by the traced
	// run only. Diag holds facts about the run and readings too noisy to
	// carry a bound; no name appears in two of the three.
	EndToEnd []metric
	Layers   []metric
	Diag     []metric

	rec *recorder
}

// snapshot is the engine's exported accounting at one instant.
type snapshot struct {
	stats     rjoin.Stats
	ctr       core.Counters
	fired     uint64
	delivered int64
	mallocs   uint64
	cpu       float64
	tuples    int64
}

func (h *harness) snapshot() snapshot {
	st := h.net.Stats() // syncs shard accumulators first
	return snapshot{
		stats: st, ctr: h.eng.Counters, fired: h.eng.Sim().Fired(),
		delivered: h.eng.Net().Delivered, mallocs: mallocs(), cpu: cpuSeconds(), tuples: h.tuples,
	}
}

// timed is what the prefix and the time box measured.
type timed struct {
	before, after snapshot // around the fixed prefix
	final         snapshot // after the time box
	ops           []opSample
	opsPerBlock   int
	traced        []bool  // per block: were spans on (half the blocks of a traced run)
	storedMean    float64 // mean stored state over the prefix
	slope         float64 // second half of the prefix over the first, minus 1
	heapMB        float64 // live heap at the end of the prefix
	latencies     []float64
}

// measure runs one workload: set-up (setupReps times when untraced),
// warm-up, the fixed prefix, the untimed verification, and then blocks
// of ops until seconds of op time have been measured.
func measure(cat *catalogue, w *wl, seed int64, seconds float64, trace bool) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed}
	reps := setupReps
	var taxes []float64
	if trace {
		reps = 1
		// Before the workload's own network exists: ten networks' worth of
		// heap would make every collection during the timed phase dearer.
		var err error
		if taxes, err = featureTaxes(w, seed); err != nil {
			return nil, err
		}
	}
	var h *harness
	var setups []float64
	for i := 0; i < reps; i++ {
		h = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if h, err = newHarness(w, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	warmStart := h.tuples
	if err := h.warmUp(); err != nil {
		return nil, err
	}
	warmupS := time.Since(t0).Seconds()
	if trace {
		res.rec = newRecorder()
	}

	t := h.prefix(res.rec)
	res.Notes = append(res.Notes, h.verifySamples()...)
	res.Digest = h.digest()
	h.log, h.checks = nil, nil
	switch {
	case t.slope <= maxSlope:
	case w.slopeNote != "":
		res.Notes = append(res.Notes, fmt.Sprintf("state_slope %.3f: %s", t.slope, w.slopeNote))
	default:
		return nil, fmt.Errorf("%s seed %d: state_slope %.3f exceeds %.2f: the workload is not stationary",
			w.name, seed, t.slope, maxSlope)
	}
	h.timeBox(t, seconds, res.rec)
	res.Notes = append(res.Notes, h.checkInvariants()...)
	res.Attempted, res.Failed, res.Correct = h.attempted, h.failed, h.failed == 0

	drains := make([]float64, len(t.ops))
	var resubSum time.Duration
	var resubs int
	for i, s := range t.ops {
		drains[i] = float64(s.drain.Nanoseconds()) / 1e3
		if s.resubNs > 0 {
			resubSum += s.resubNs
			resubs++
		}
	}
	sort.Float64s(drains)
	prefixTuples := float64(t.after.tuples - t.before.tuples)
	var err error
	if trace {
		res.Layers, err = h.layerMetrics(cat.PerLayer, t, drains, res.rec, taxes)
	} else {
		e2e := newMetricSet(cat.EndToEnd)
		e2e.add("tuples_per_s", median(t.blockRates()))
		e2e.add("allocs_per_tuple", float64(t.after.mallocs-t.before.mallocs)/prefixTuples)
		e2e.add("live_heap_mb", t.heapMB)
		e2e.add("msgs_per_tuple", float64(t.after.stats.Messages-t.before.stats.Messages)/prefixTuples)
		e2e.add("answer_latency_mean_ticks", mean(t.latencies))
		e2e.add("stored_entries", t.storedMean)
		e2e.add("setup_s", median(setups))
		res.EndToEnd, err = e2e.list()
		// The traced run reports these four by the same names.
		res.Diag = []metric{
			{"core.drain_p50_us", quantile(drains, 0.50), "us"},
			{"core.drain_p90_us", quantile(drains, 0.90), "us"},
			{"core.drain_p99_us", quantile(drains, 0.99), "us"},
			{"core.state_slope", t.slope, "ratio"},
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	res.Diag = append(res.Diag,
		metric{"drain_p99.9_us", quantile(drains, 0.999), "us"},
		metric{"drain_samples", float64(len(drains)), "count"},
		metric{"warmup_s", warmupS, "s"},
		metric{"warmup_tuples", float64(t.before.tuples - warmStart), "count"},
		metric{"timed_tuples", float64(t.final.tuples - t.before.tuples), "count"},
		metric{"answer_latency_samples", float64(len(t.latencies)), "count"},
	)
	if resubs > 0 {
		res.Diag = append(res.Diag, metric{"resub_pair_us", float64(resubSum.Microseconds()) / float64(resubs), "us"})
	}
	return res, nil
}

// block runs the next block of ops and returns its mean stored state.
// In a traced run spans are on in half the blocks, prefix and time box
// alike, on the one network, in the order on, off, off, on: that gives
// bench.trace_overhead as many untraced blocks as traced ones whatever
// --seconds is, and keeps both a drifting host and housekeeping that
// falls due every other block out of the comparison.
func (h *harness) block(t *timed, rec *recorder) float64 {
	h.rec = nil
	if (len(t.traced)+1)/2%2 == 0 {
		h.rec = rec
	}
	t.traced = append(t.traced, h.rec != nil)
	return h.run(t.opsPerBlock*h.w.burst, &t.ops)
}

// prefix runs the fixed prefix: the same ops on every run of a seed, so
// every count read across it repeats exactly.
func (h *harness) prefix(rec *recorder) *timed {
	w := h.w
	t := &timed{opsPerBlock: max(1, w.prefix/prefixBlocks/w.burst)}
	t.ops = make([]opSample, 0, 4*prefixBlocks*t.opsPerBlock)
	runtime.GC()
	t.before = h.snapshot()
	var firstHalf, secondHalf float64
	for b := 0; b < prefixBlocks; b++ {
		if m := h.block(t, rec); b < prefixBlocks/2 {
			firstHalf += m
		} else {
			secondHalf += m
		}
	}
	t.after = h.snapshot()
	t.storedMean = (firstHalf + secondHalf) / prefixBlocks
	t.slope = (secondHalf - firstHalf) / firstHalf
	t.heapMB = heapMB()
	t.latencies = h.answerLatencies(t.ops)
	return t
}

// timeBox continues in blocks until seconds of op time have been
// measured, prefix included.
func (h *harness) timeBox(t *timed, seconds float64, rec *recorder) {
	var spent time.Duration
	for n := 0; ; {
		for _, s := range t.ops[n:] {
			spent += s.wall
		}
		if n = len(t.ops); spent.Seconds() >= seconds {
			break
		}
		h.block(t, rec)
	}
	h.rec = rec
	t.final = h.snapshot()
}

// blockRates returns every block's tuples per second of op time.
func (t *timed) blockRates() []float64 {
	rates := make([]float64, len(t.traced))
	for b := range rates {
		var wall time.Duration
		var tuples int
		for _, s := range t.ops[b*t.opsPerBlock : (b+1)*t.opsPerBlock] {
			wall += s.wall
			tuples += s.tuples
		}
		rates[b] = float64(tuples) / wall.Seconds()
	}
	return rates
}

// answerLatencies returns, for every answer row delivered during ops to
// a still-live subscription, the virtual ticks between the publish of
// the op that triggered it and its delivery. The op is found from the
// harness's own publish log: ops are closed-loop and every hop takes at
// least a tick, so an answer delivered at tick t belongs to the op whose
// (publish, quiescence] interval holds t.
func (h *harness) answerLatencies(ops []opSample) []float64 {
	var out []float64
	first, last := ops[0].vstart, ops[len(ops)-1].vend
	for _, ls := range h.subs {
		if ls.sub.Count() == 0 {
			continue
		}
		for _, a := range ls.sub.Answers() {
			if a.At <= first || a.At > last {
				continue
			}
			i := sort.Search(len(ops), func(i int) bool { return ops[i].vend >= a.At })
			out = append(out, float64(a.At-ops[i].vstart))
		}
	}
	sort.Float64s(out)
	return out
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile reads the q-quantile of an ascending slice, interpolating
// between neighbours.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}
