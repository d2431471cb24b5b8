package sim

import "math/bits"

// The schedule: deterministic sub-rounds.
//
// The engine has one event order, and it executes it on any number of
// goroutines while preserving bit-identical replay for a given seed.
// The schedule is conservative and time-stepped:
//
//   - Every stateful entity (a simulated node) is assigned one of
//     Shards fixed logical shards by its 64-bit identifier. The shard
//     count is a constant, NOT the worker count, so the execution order
//     defined below never depends on how many workers happen to run it.
//   - All events with the current minimum timestamp T execute in one or
//     more sub-rounds. Within a sub-round, shard-less "global" events
//     (driver callbacks, churn draws, periodic maintenance) run first,
//     serially, in (T, seq) order — they may mutate any state, and no
//     worker is running while they do. Then every shard with events at
//     T executes them in (T, seq) order; distinct shards run
//     concurrently, claimed by workers from a shared work queue, or one
//     after another in ascending shard order on the coordinator.
//   - A handler running on shard s may touch only shard-s state and
//     must route cross-shard effects through scheduling. Schedules made
//     during a sub-round are buffered per *source* shard and merged at
//     the barrier in deterministic order: ascending source shard, then
//     creation order within the shard. Merge assigns the global (at,
//     seq) keys, so the next sub-round's order is again total.
//   - Sub-rounds repeat at T until no event with timestamp T remains
//     (zero-delay self-deliveries land in the next sub-round), then the
//     clock advances to the next pending timestamp.
//
// Workers only parallelize *within* a sub-round, and a zero-delay send
// lands in the next sub-round of its tick, so any hop delays run on any
// worker count; the barrier frequency is O(sub-rounds), one per tick
// when no send takes zero ticks.

// Shards is the fixed number of logical shards entities hash into.
// It bounds usable parallelism and is deliberately a constant: the
// barrier merge order is keyed by shard index, so digests are identical
// for every worker count.
const Shards = 64

// NoShard marks a scheduling call made from driver or global-event
// context rather than from a shard's handler.
const NoShard = -1

// ShardOfID maps a 64-bit entity identifier to its logical shard.
func ShardOfID(u uint64) int { return int(u % Shards) }

// ShardSlots sizes a per-execution-context accumulation array: slot 0
// for driver/global (NoShard) context plus one slot per logical shard,
// so that a context's slot is shard+1. The observability recorder's
// cells are laid out this way.
const ShardSlots = Shards + 1

// bufEv is one schedule deferred during a sub-round: the event plus its
// destination heap.
type bufEv struct {
	ev  event
	dst int32
}

// SetWorkers sets how many goroutines run a sub-round: n <= 1 runs
// each one inline on the calling goroutine. The event order — and
// therefore every digest — is identical for every n; n only sets the
// degree of hardware parallelism. It must be called before any event
// is scheduled or executed.
func (e *Engine) SetWorkers(n int) {
	n = max(n, 1)
	if n == e.workers {
		return
	}
	if e.fired > 0 || e.Pending() > 0 {
		panic("sim: SetWorkers must be called on a fresh engine")
	}
	e.workers = n
}

// pushTo pushes a sequenced event onto its destination's heap.
func (e *Engine) pushTo(dst int, ev event) {
	if dst < 0 {
		e.events.push(ev)
		return
	}
	e.heaps[dst].push(ev)
	e.busy |= 1 << dst
}

// nextTime returns the earliest pending timestamp across all heaps.
func (e *Engine) nextTime() (Time, bool) {
	var best Time
	ok := false
	if len(e.events) > 0 {
		best, ok = e.events[0].at, true
	}
	for m := e.busy; m != 0; m &= m - 1 {
		if at := e.heaps[bits.TrailingZeros64(m)][0].at; !ok || at < best {
			best, ok = at, true
		}
	}
	return best, ok
}

// fireGlobal executes the earliest global event.
func (e *Engine) fireGlobal() {
	ev := e.events.pop()
	if !ev.bg {
		e.fg--
	}
	e.fired++
	ev.cb(e.now, ev.ctx)
}

// openRound lists the shards whose earliest event is at t, in
// ascending order: the sub-round at t. It reports whether there is one.
func (e *Engine) openRound(t Time) bool {
	e.round = e.round[:0]
	for m := e.busy; m != 0; m &= m - 1 {
		if s := bits.TrailingZeros64(m); e.heaps[s][0].at == t {
			e.round = append(e.round, int32(s))
		}
	}
	return len(e.round) > 0
}

// execShard executes every event of shard s with timestamp t, in seq
// order. Called either by a worker (which owns the shard for the
// duration of the sub-round) or inline by the coordinator.
func (e *Engine) execShard(s int, t Time) {
	h := &e.heaps[s]
	var n uint64
	for len(*h) > 0 && (*h)[0].at == t {
		ev := h.pop()
		n++
		ev.cb(t, ev.ctx)
	}
	e.firedSh[s] += n
}

// mergeRound folds the sub-round's results back into the engine at the
// barrier: executed-event accounting, then the deferred schedules in
// deterministic order (ascending source shard, creation order within a
// shard), each receiving the next global sequence number. Only a shard
// of the round can have run a handler, so only its buffer can hold
// anything.
func (e *Engine) mergeRound() {
	for _, s := range e.round {
		e.fired += e.firedSh[s]
		e.fg -= int(e.firedSh[s])
		e.firedSh[s] = 0
		if len(e.heaps[s]) == 0 {
			e.busy &^= 1 << s
		}
		buf := e.bufs[s]
		for i := range buf {
			ev := buf[i].ev
			e.seq++
			ev.seq = e.seq
			e.fg++
			e.pushTo(int(buf[i].dst), ev)
		}
		clear(buf) // release payload references
		e.bufs[s] = buf[:0]
	}
}

// drain is the loop behind Run (untilFg=true) and RunUntil
// (untilFg=false, bounded by deadline).
func (e *Engine) drain(deadline Time, untilFg bool) {
	defer e.stopWorkers()
	for e.step >= 0 { // finish the sub-round a Step opened
		e.Step()
	}
	for !untilFg || e.fg > 0 {
		t, ok := e.nextTime()
		if !ok || !untilFg && t > deadline {
			break
		}
		e.now = t
		for { // sub-rounds at time t
			// Global events first: serial, free to mutate anything.
			for len(e.events) > 0 && e.events[0].at == t {
				e.fireGlobal()
			}
			if !e.openRound(t) {
				break
			}
			e.runRound(t)
		}
	}
	if !untilFg && e.now < deadline {
		e.now = deadline
	}
}

// runRound executes the open sub-round at t and merges it. A round of
// one shard, or an engine of one worker, runs inline on the
// coordinator: the result is identical (determinism never depends on
// who executes a shard) and the barrier costs nothing.
func (e *Engine) runRound(t Time) {
	e.inRound = true
	if e.workers > 1 && len(e.round) > 1 {
		if e.tokens == nil {
			e.spawnWorkers()
		}
		e.roundIdx.Store(0)
		e.wg.Add(e.workers)
		for i := 0; i < e.workers; i++ {
			e.tokens <- struct{}{}
		}
		e.wg.Wait()
	} else {
		for _, s := range e.round {
			e.execShard(int(s), t)
		}
	}
	e.inRound = false
	e.mergeRound()
}

// spawnWorkers starts the pool on the first multi-shard sub-round of a
// drain. It lives until the drain returns — deliberately not a
// persistent per-engine pool: the engine has no Close, so parked
// goroutines would pin every abandoned engine (tests and benchmarks
// create hundreds) and leak. Spawn cost is per drain, not per
// sub-round, and a drain runs thousands of events.
func (e *Engine) spawnWorkers() {
	e.tokens, e.quit = make(chan struct{}, e.workers), make(chan struct{})
	for i := 0; i < e.workers; i++ {
		go e.work(e.tokens, e.quit)
	}
}

// work is one pool goroutine: per token, it claims shards of the
// current sub-round until none is left.
func (e *Engine) work(tokens, quit chan struct{}) {
	for {
		select {
		case <-quit:
			return
		case <-tokens:
			for {
				i := e.roundIdx.Add(1) - 1
				if int(i) >= len(e.round) {
					break
				}
				e.execShard(int(e.round[i]), e.now)
			}
			e.wg.Done()
		}
	}
}

// stopWorkers ends the drain's pool, if it spawned one.
func (e *Engine) stopWorkers() {
	if e.quit != nil {
		close(e.quit)
		e.tokens, e.quit = nil, nil
	}
}
