// Package sim provides the deterministic discrete-event engine the
// overlay network runs on. The paper assumes a "relaxed asynchronous
// model" with a known upper bound δ on message delay; here virtual time
// is an integer tick counter, every scheduled event carries a virtual
// timestamp, and events fire in one total order — the sub-round
// schedule of parallel.go — so that a given seed reproduces an
// experiment exactly, whatever the number of goroutines that run it.
// Within one tick the events addressed to an entity (AtCtxShard and
// AfterCtxShard: deliveries, flushes) fire after the tick's global ones
// (AtCtx and EveryBg: driver callbacks, churn draws).
//
// The event queues are typed 4-ary min-heaps storing events inline: no
// container/heap interface boxing, no per-push pointer allocation. The
// (time, sequence) ordering key is a total order (sequence numbers are
// unique), so the firing order is independent of heap shape and
// bit-identical to any other correct priority queue — replay
// determinism does not depend on the heap implementation.
package sim

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Time is a point in virtual time, in ticks. The unit is arbitrary; the
// experiment harness uses one tick = one simulated millisecond.
type Time int64

// Duration is a span of virtual time in ticks.
type Duration = int64

// Ctx carries context to a CtxFunc without allocating: three reference
// slots that hold pointers or pre-boxed interfaces for free. Scalars
// small enough to matter ride inside the objects the slots point at,
// keeping the inline event struct compact (events are copied on every
// heap swap).
type Ctx struct {
	A, B, C interface{}
}

// CtxFunc is an allocation-free scheduled callback: a package-level (or
// otherwise pre-existing) function pointer invoked with the Ctx it was
// scheduled with. Unlike a closure, scheduling one allocates nothing.
type CtxFunc func(now Time, c Ctx)

// event is one scheduled callback, stored inline in the heap slice.
// Background events (bg) are housekeeping — churn draws — that fire
// in timestamp order like any other event but do not count as pending
// work: Run returns once only background events remain, so a
// self-rescheduling loop cannot keep the simulation alive forever.
type event struct {
	at  Time
	seq uint64
	cb  CtxFunc
	ctx Ctx
	bg  bool
}

// before reports whether e fires before o: (time, sequence) order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Engine is a deterministic event loop over virtual time, running the
// sub-round schedule described in parallel.go.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap // global events: 4-ary min-heap ordered by (at, seq)
	fg     int       // queued events that are not background
	seed   int64
	fired  uint64

	workers int // goroutines that run a sub-round; 1 runs it inline
	heaps   [Shards]eventHeap
	busy    uint64          // bit s set: heaps[s] is non-empty
	bufs    [Shards][]bufEv // deferred schedules, indexed by source shard
	firedSh [Shards]uint64  // events executed per shard this sub-round
	inRound bool            // a shard handler is (possibly) running

	round    []int32 // the shards of the current sub-round, ascending
	step     int     // Step's position in round; -1 between sub-rounds
	roundIdx atomic.Int64

	// The worker pool of one drain; nil channels when none is spawned.
	tokens, quit chan struct{}
	wg           sync.WaitGroup
}

// NewEngine returns an engine whose randomness derives entirely from
// the given seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, workers: 1, step: -1}
}

// Seed returns the seed the engine was built with. Every random draw
// comes from a per-node stream (see RNG) keyed by it, so one seed fixes
// an entire experiment.
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// eventHeap is a typed 4-ary min-heap of inline events ordered by
// (at, seq). The engine owns one per logical shard plus the global one.
type eventHeap []event

// push inserts an event into the 4-ary heap.
func (hp *eventHeap) push(ev event) {
	h := append(*hp, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*hp = h
}

// pop removes and returns the minimum event. The caller guarantees the
// heap is non-empty.
func (hp *eventHeap) pop() event {
	h := *hp
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release references held by the vacated slot
	h = h[:n]
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Smallest of up to four children.
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	*hp = h
	return root
}

// schedule clamps t to now and pushes a global event.
func (e *Engine) schedule(t Time, ev event) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev.at = t
	ev.seq = e.seq
	if !ev.bg {
		e.fg++
	}
	e.events.push(ev)
}

// AtCtx schedules cb(t, c) at absolute virtual time t without
// allocating: the context is stored inline in the event queue.
// Scheduling in the past is clamped to "now" (the event still runs,
// after already-queued events for the current instant).
func (e *Engine) AtCtx(t Time, cb CtxFunc, c Ctx) {
	e.schedule(t, event{cb: cb, ctx: c})
}

// AtCtxShard schedules an event addressed to an entity: dst is the
// logical shard whose heap holds it (the destination node's shard, or
// NoShard for a global event), src is the logical shard of the acting
// node making the call — the buffer a call from inside a sub-round goes
// to. From driver or global-event context src is not read.
func (e *Engine) AtCtxShard(t Time, cb CtxFunc, c Ctx, src, dst int) {
	if t < e.now {
		t = e.now
	}
	ev := event{at: t, cb: cb, ctx: c}
	if e.inRound {
		// Only the handler running on shard src can make this call, so
		// the buffer needs no lock.
		e.bufs[src] = append(e.bufs[src], bufEv{ev: ev, dst: int32(dst)})
		return
	}
	e.seq++
	ev.seq = e.seq
	e.fg++
	e.pushTo(dst, ev)
}

// AfterCtxShard schedules cb d ticks from now; see AtCtxShard.
func (e *Engine) AfterCtxShard(d Duration, cb CtxFunc, c Ctx, src, dst int) {
	e.AtCtxShard(e.now+Time(d), cb, c, src, dst)
}

// Step executes the single next event of the schedule, if any, and
// reports whether one was executed: the events Run would fire, one at a
// time and in the same order, on the calling goroutine. A sub-round's
// buffered schedules merge when its last event has fired. Driver calls
// made between two Steps act from coordinator context, as between two
// drains.
func (e *Engine) Step() bool {
	if e.step < 0 {
		t, ok := e.nextTime()
		if !ok {
			return false
		}
		e.now = t
		if len(e.events) > 0 && e.events[0].at == t {
			e.fireGlobal()
			return true
		}
		e.openRound(t)
		e.step = 0
	}
	h := &e.heaps[e.round[e.step]]
	ev := h.pop()
	e.fg--
	e.fired++
	e.inRound = true
	ev.cb(e.now, ev.ctx)
	e.inRound = false
	for e.step < len(e.round) {
		if h := e.heaps[e.round[e.step]]; len(h) > 0 && h[0].at == e.now {
			return true
		}
		e.step++
	}
	e.step = -1
	e.mergeRound()
	return true
}

// Run drains all pending foreground work. Events may schedule further
// events; Run returns at the first time-step boundary with only
// background events (EveryBg series) queued. Background events whose
// timestamps fall before remaining foreground work still fire in order
// along the way.
func (e *Engine) Run() { e.drain(0, true) }

// RunUntil executes events with timestamp <= deadline — background
// included — and then advances the clock to the deadline. Later events
// remain queued.
func (e *Engine) RunUntil(deadline Time) { e.drain(deadline, false) }

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	n := len(e.events)
	for m := e.busy; m != 0; m &= m - 1 {
		n += len(e.heaps[bits.TrailingZeros64(m)])
	}
	return n
}

// EachPending hands visit the context of every queued event, in no
// particular order: a census of what is in flight, for checks made
// between drains (never while one runs).
func (e *Engine) EachPending(visit func(Ctx)) {
	for i := range e.events {
		visit(e.events[i].ctx)
	}
	for m := e.busy; m != 0; m &= m - 1 {
		for _, ev := range e.heaps[bits.TrailingZeros64(m)] {
			visit(ev.ctx)
		}
	}
}

// PendingForeground returns the number of queued non-background events
// (the count Run drains to zero).
func (e *Engine) PendingForeground() int { return e.fg }

// EveryBg schedules fn every interval ticks, starting interval from
// now, until fn returns false; an interval <= 0 means 1. The occurrences
// are background events: the series fires whenever foreground work (or
// RunUntil) advances the clock past its next tick, but never keeps Run
// alive. Churn-rate draws run on this.
func (e *Engine) EveryBg(interval Duration, fn func(Time) bool) {
	if interval <= 0 {
		interval = 1
	}
	c := Ctx{A: &series{e: e, interval: interval, fn: fn}}
	e.schedule(e.now+Time(interval), event{cb: seriesTick, ctx: c, bg: true})
}

// series is one EveryBg registration, boxed once into the Ctx every
// occurrence carries.
type series struct {
	e        *Engine
	interval Duration
	fn       func(Time) bool
}

// seriesTick runs one occurrence of a series and schedules the next.
func seriesTick(now Time, c Ctx) {
	s := c.A.(*series)
	if s.fn(now) {
		s.e.schedule(now+Time(s.interval), event{cb: seriesTick, ctx: c, bg: true})
	}
}
