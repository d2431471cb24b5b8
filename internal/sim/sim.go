// Package sim provides the deterministic discrete-event engine the
// overlay network runs on. The paper assumes a "relaxed asynchronous
// model" with a known upper bound δ on message delay; here virtual time
// is an integer tick counter, every scheduled event carries a virtual
// timestamp, and events fire in (time, sequence) order so that a given
// seed reproduces an experiment exactly. Within one tick the events
// addressed to an entity (AtCtxShard and AfterCtxShard: deliveries,
// flushes) fire after the tick's global ones (AtCtx and EveryBg:
// driver callbacks, churn draws) — the order the parallel
// schedule's sub-round has always had, so a membership change and a
// delivery that fall on one tick run the same way round on both engines.
//
// The event queue is a typed 4-ary min-heap storing events inline: no
// container/heap interface boxing, no per-push pointer allocation. The
// (time, sequence) ordering key is a total order (sequence numbers are
// unique), so the firing order is independent of heap shape and
// bit-identical to any other correct priority queue — replay
// determinism does not depend on the heap implementation.
package sim

import (
	"math/rand"
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

// entity is the bit the serial engine sets in the sequence number of an
// event addressed to an entity, which orders it behind every global event
// of its tick (see the package comment) without widening the event or its
// comparison. The parallel engine needs no mark: it keeps the two kinds
// in different heaps.
const entity = 1 << 63

// before reports whether e fires before o: (time, sequence) order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Engine is a deterministic event loop over virtual time. By default
// it executes serially; SetWorkers switches it to the deterministic
// parallel schedule described in parallel.go.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap // global events: 4-ary min-heap ordered by (at, seq)
	fg     int       // queued events that are not background
	rng    *rand.Rand
	seed   int64
	fired  uint64

	par parState // parallel execution state; inert while par.workers == 0
}

// NewEngine returns an engine whose randomness derives entirely from
// the given seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed the engine was built with. Per-node RNG
// streams (see RNG) derive from it so one seed still fixes an entire
// experiment in parallel mode.
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source. All layers
// share it so one seed fixes an entire experiment.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// eventHeap is a typed 4-ary min-heap of inline events ordered by
// (at, seq). The serial engine owns one; the parallel engine owns one
// per logical shard plus the global one.
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

// push and pop on the engine operate on the global heap.
func (e *Engine) push(ev event) { e.events.push(ev) }
func (e *Engine) pop() event    { return e.events.pop() }

// schedule clamps t to now and pushes the event.
func (e *Engine) schedule(t Time, ev event) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev.at = t
	ev.seq |= e.seq // keeps the entity bit a caller set
	if !ev.bg {
		e.fg++
	}
	e.push(ev)
}

// AtCtx schedules cb(t, c) at absolute virtual time t without
// allocating: the context is stored inline in the event queue.
// Scheduling in the past is clamped to "now" (the event still runs,
// after already-queued events for the current instant).
func (e *Engine) AtCtx(t Time, cb CtxFunc, c Ctx) {
	e.schedule(t, event{cb: cb, ctx: c})
}

// AtCtxShard is AtCtx with shard routing for parallel mode: dst is the
// logical shard whose worker must execute the event (the destination
// node's shard), src is the logical shard of the acting node making the
// call, or NoShard from driver or global-event context. On a serial
// engine both are ignored; what remains of the call there is that the
// event is an entity's, and fires after its tick's global events.
func (e *Engine) AtCtxShard(t Time, cb CtxFunc, c Ctx, src, dst int) {
	if e.par.workers == 0 {
		e.schedule(t, event{cb: cb, ctx: c, seq: entity})
		return
	}
	e.scheduleShard(t, event{cb: cb, ctx: c}, src, dst)
}

// AfterCtxShard schedules cb d ticks from now; see AtCtxShard.
func (e *Engine) AfterCtxShard(d Duration, cb CtxFunc, c Ctx, src, dst int) {
	e.AtCtxShard(e.now+Time(d), cb, c, src, dst)
}

// Step executes the single next event, if any, and reports whether one
// was executed. Step is a serial-engine primitive: a parallel engine
// defines order only at sub-round granularity, so it must be driven
// through Run/RunUntil.
func (e *Engine) Step() bool {
	if e.par.workers > 0 {
		panic("sim: Step is not supported on a parallel engine; use Run or RunUntil")
	}
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	if !ev.bg {
		e.fg--
	}
	e.now = ev.at
	e.fired++
	ev.cb(e.now, ev.ctx)
	return true
}

// Run drains all pending foreground work. Events may schedule further
// events; Run returns when only background events (EveryBg series)
// remain queued. Background events whose timestamps fall before
// remaining foreground work still fire in order along the way.
//
// On a parallel engine the drain proceeds in barrier-synchronized time
// steps (see parallel.go) and stops at the first time-step boundary
// with no foreground work left.
func (e *Engine) Run() {
	if e.par.workers > 0 {
		e.runParallel(0, true)
		return
	}
	for e.fg > 0 {
		e.Step()
	}
}

// RunUntil executes events with timestamp <= deadline — background
// included — and then advances the clock to the deadline. Later events
// remain queued.
func (e *Engine) RunUntil(deadline Time) {
	if e.par.workers > 0 {
		e.runParallel(deadline, false)
		return
	}
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	n := len(e.events)
	for i := range e.par.heaps {
		n += len(e.par.heaps[i])
	}
	return n
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
