package sim

import (
	"sync"
	"sync/atomic"
)

// Deterministic parallel event execution.
//
// The engine optionally executes events on N workers while preserving
// bit-identical replay for a given seed, independent of N. The schedule
// is conservative and time-stepped:
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
//     concurrently, claimed by workers from a shared work queue.
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
// Workers only parallelize *within* a sub-round, so any MinHopDelay >=
// 1 network has at least one full hop of lookahead per time step and
// the barrier frequency stays at O(virtual ticks), not O(events).

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

// ShardOf maps an entity identifier to the shard this engine schedules
// its events on: ShardOfID under SetWorkers, NoShard on a serial engine,
// where every event lives on the one global heap. Layers above ask here
// instead of branching on the engine's mode themselves.
func (e *Engine) ShardOf(u uint64) int {
	if e.par.workers == 0 {
		return NoShard
	}
	return ShardOfID(u)
}

// ShardSlots sizes a per-execution-context accumulation array: slot 0
// for driver/global (NoShard) context plus one slot per logical shard,
// so that a context's slot is shard+1. The components that collect
// state from handler context without locks — the overlay's lanes, the
// core engine's accounting slots, the observability recorder's cells —
// all lay their arrays out this way.
const ShardSlots = Shards + 1

// bufEv is one schedule deferred during a sub-round: the event plus its
// destination heap.
type bufEv struct {
	ev  event
	dst int32
}

// parState is the engine's parallel-mode state; zero and inert on a
// serial engine.
type parState struct {
	workers int         // 0 = serial engine
	heaps   []eventHeap // one per logical shard
	bufs    [][]bufEv   // deferred schedules, indexed by source shard
	firedSh []uint64    // events executed per shard this sub-round
	inRound bool        // workers are (possibly) running

	roundTime   Time
	roundShards []int32
	roundIdx    atomic.Int64
}

// SetWorkers switches the engine to deterministic parallel execution
// on n workers (n >= 1), or back to the serial engine (n = 0). The
// event order — and therefore every digest — is identical for every
// n >= 1; n only sets the degree of hardware parallelism. It must be
// called before any event is scheduled or executed.
func (e *Engine) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	if n == e.par.workers {
		return
	}
	if e.fired > 0 || e.Pending() > 0 {
		panic("sim: SetWorkers must be called on a fresh engine")
	}
	e.par.workers = n
	if n > 0 && e.par.heaps == nil {
		e.par.heaps = make([]eventHeap, Shards)
		e.par.bufs = make([][]bufEv, Shards)
		e.par.firedSh = make([]uint64, Shards)
	}
}

// Workers returns the configured worker count (0 = serial engine).
func (e *Engine) Workers() int { return e.par.workers }

// scheduleShard routes a sharded event. From worker context (inside a
// sub-round) the event is buffered on its source shard and receives its
// sequence number at the barrier merge; from coordinator context it is
// pushed directly, exactly like a serial schedule. Events addressed to
// an entity are always foreground.
func (e *Engine) scheduleShard(t Time, ev event, src, dst int) {
	if t < e.now {
		t = e.now
	}
	ev.at = t
	if e.par.inRound {
		// Only the worker currently executing shard src can make this
		// call, so the buffer needs no lock.
		e.par.bufs[src] = append(e.par.bufs[src], bufEv{ev: ev, dst: int32(dst)})
		return
	}
	e.seq++
	ev.seq = e.seq
	e.fg++
	e.heapFor(dst).push(ev)
}

// heapFor returns the heap a destination shard's events live in.
func (e *Engine) heapFor(dst int) *eventHeap {
	if dst < 0 {
		return &e.events
	}
	return &e.par.heaps[dst]
}

// nextTime returns the earliest pending timestamp across all heaps.
func (e *Engine) nextTime() (Time, bool) {
	var best Time
	ok := false
	if len(e.events) > 0 {
		best, ok = e.events[0].at, true
	}
	for s := range e.par.heaps {
		if h := e.par.heaps[s]; len(h) > 0 && (!ok || h[0].at < best) {
			best, ok = h[0].at, true
		}
	}
	return best, ok
}

// execShard executes every event of shard s with timestamp t, in seq
// order. Called either by a worker (which owns the shard for the
// duration of the sub-round) or inline by the coordinator.
func (e *Engine) execShard(s int, t Time) {
	h := &e.par.heaps[s]
	var n uint64
	for len(*h) > 0 && (*h)[0].at == t {
		ev := h.pop()
		n++
		ev.cb(t, ev.ctx)
	}
	e.par.firedSh[s] += n
}

// mergeRound folds the sub-round's results back into the engine at the
// barrier: executed-event accounting, then the deferred schedules in
// deterministic order (ascending source shard, creation order within a
// shard), each receiving the next global sequence number.
func (e *Engine) mergeRound() {
	p := &e.par
	var executed uint64
	for s := 0; s < Shards; s++ {
		executed += p.firedSh[s]
		p.firedSh[s] = 0
		buf := p.bufs[s]
		for i := range buf {
			ev := buf[i].ev
			e.seq++
			ev.seq = e.seq
			e.fg++
			e.heapFor(int(buf[i].dst)).push(ev)
			buf[i] = bufEv{} // release payload references
		}
		p.bufs[s] = buf[:0]
	}
	e.fired += executed
	e.fg -= int(executed)
}

// runParallel is the parallel drain loop behind Run (untilFg=true) and
// RunUntil (untilFg=false, bounded by deadline).
func (e *Engine) runParallel(deadline Time, untilFg bool) {
	p := &e.par
	nWorkers := p.workers

	// Workers are spawned lazily on the first multi-shard sub-round and
	// live until this drain returns — deliberately not a persistent
	// per-engine pool: the engine has no Close, so parked goroutines
	// would pin every abandoned engine (tests and benchmarks create
	// hundreds) and leak. Spawn cost is per drain, not per sub-round,
	// and a drain runs thousands of events. Single-shard sub-rounds run
	// inline on the coordinator: the result is identical (determinism
	// never depends on who executes a shard) and the barrier overhead
	// drops to zero for sparse phases.
	var (
		tokens  chan struct{}
		quit    chan struct{}
		wg      sync.WaitGroup
		spawned bool
	)
	defer func() {
		if spawned {
			close(quit)
		}
	}()
	spawn := func() {
		tokens = make(chan struct{}, nWorkers)
		quit = make(chan struct{})
		for i := 0; i < nWorkers; i++ {
			go func() {
				for {
					select {
					case <-quit:
						return
					case <-tokens:
						for {
							i := p.roundIdx.Add(1) - 1
							if int(i) >= len(p.roundShards) {
								break
							}
							e.execShard(int(p.roundShards[i]), p.roundTime)
						}
						wg.Done()
					}
				}
			}()
		}
		spawned = true
	}

	for {
		if untilFg && e.fg == 0 {
			break
		}
		t, ok := e.nextTime()
		if !ok {
			break
		}
		if !untilFg && t > deadline {
			break
		}
		e.now = t
		for { // sub-rounds at time t
			progress := false
			// Global events first: serial, free to mutate anything.
			for len(e.events) > 0 && e.events[0].at == t {
				ev := e.pop()
				if !ev.bg {
					e.fg--
				}
				e.fired++
				ev.cb(t, ev.ctx)
				progress = true
			}
			// Then every shard with events at t, concurrently.
			p.roundShards = p.roundShards[:0]
			for s := 0; s < Shards; s++ {
				if h := p.heaps[s]; len(h) > 0 && h[0].at == t {
					p.roundShards = append(p.roundShards, int32(s))
				}
			}
			if len(p.roundShards) > 0 {
				progress = true
				p.roundTime = t
				p.inRound = true
				if nWorkers > 1 && len(p.roundShards) > 1 {
					if !spawned {
						spawn()
					}
					p.roundIdx.Store(0)
					wg.Add(nWorkers)
					for i := 0; i < nWorkers; i++ {
						tokens <- struct{}{}
					}
					wg.Wait()
				} else {
					for _, s := range p.roundShards {
						e.execShard(int(s), t)
					}
				}
				p.inRound = false
				e.mergeRound()
			}
			if !progress {
				break
			}
		}
	}
	if !untilFg && e.now < deadline {
		e.now = deadline
	}
}
