package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// pnode is one synthetic sharded entity: it logs its firing times and
// forwards work to another entity with an RNG-drawn delay, exercising
// the buffered cross-shard scheduling path and per-node streams.
type pnode struct {
	id    uint64
	log   []Time
	rng   *RNG
	eng   *Engine
	nodes []*pnode
	fired *[]Time // when set, every node also logs into this one list
}

func pTick(now Time, c Ctx) {
	n := c.A.(*pnode)
	n.log = append(n.log, now)
	if n.fired != nil {
		*n.fired = append(*n.fired, now*10000+Time(n.id))
	}
	if now >= 40 {
		return
	}
	next := n.nodes[(int(n.id)+5)%len(n.nodes)]
	d := n.rng.Int63n(3) + 1
	n.eng.AfterCtxShard(d, pTick, Ctx{A: next}, ShardOfID(n.id), ShardOfID(next.id))
}

// runSynthetic drives a cascading cross-shard workload on the given
// worker count and digests every node's firing log.
func runSynthetic(workers int) uint64 {
	e := NewEngine(7)
	e.SetWorkers(workers)
	nodes := make([]*pnode, 16)
	for i := range nodes {
		nodes[i] = &pnode{id: uint64(i * 1047), rng: NewRNG(7, uint64(i*1047), 1), eng: e}
	}
	for _, n := range nodes {
		n.nodes = nodes
	}
	for _, n := range nodes {
		e.AtCtxShard(1, pTick, Ctx{A: n}, NoShard, ShardOfID(n.id))
	}
	e.Run()
	h := fnv.New64a()
	for _, n := range nodes {
		fmt.Fprintf(h, "[%d]", n.id)
		for _, t := range n.log {
			fmt.Fprintf(h, "%d,", t)
		}
	}
	return h.Sum64()
}

// TestParallelOrderInvariantAcrossWorkers is the sim-level half of the
// determinism guarantee: the same cascading workload must produce
// bit-identical firing logs for every worker count, including a single
// worker running the full parallel algorithm.
func TestParallelOrderInvariantAcrossWorkers(t *testing.T) {
	ref := runSynthetic(1)
	for _, w := range []int{2, 4, 8} {
		if got := runSynthetic(w); got != ref {
			t.Fatalf("workers=%d digest %x, want workers=1 digest %x", w, got, ref)
		}
	}
}

// TestParallelRunSemantics holds the Run/RunUntil contract on two
// workers: Run drains foreground work (firing
// background ticks it passes), leaves pending background series
// queued, and RunUntil advances them explicitly.
func TestParallelRunSemantics(t *testing.T) {
	e := NewEngine(1)
	e.SetWorkers(2)
	bgFired := 0
	e.EveryBg(5, func(Time) bool { bgFired++; return true })
	fgFired := 0
	e.AtCtxShard(12, func(Time, Ctx) { fgFired++ }, Ctx{}, NoShard, 3)
	e.Run()
	if fgFired != 1 {
		t.Fatalf("foreground fired %d, want 1", fgFired)
	}
	if bgFired != 2 {
		t.Fatalf("background fired %d times during Run, want 2", bgFired)
	}
	if e.PendingForeground() != 0 {
		t.Fatalf("foreground pending %d after Run", e.PendingForeground())
	}
	if e.Pending() == 0 {
		t.Fatal("background series should remain queued after Run")
	}
	e.RunUntil(30)
	if bgFired != 6 {
		t.Fatalf("background fired %d times after RunUntil(30), want 6", bgFired)
	}
	if e.Now() != 30 {
		t.Fatalf("clock %d after RunUntil(30), want 30", e.Now())
	}
}

// TestParallelZeroDelaySameInstant verifies sub-round handling: an
// event scheduling another event at the same timestamp (a zero-delay
// self-delivery) fires it within the same virtual instant.
func TestParallelZeroDelaySameInstant(t *testing.T) {
	e := NewEngine(1)
	e.SetWorkers(2)
	var times []Time
	second := func(now Time, _ Ctx) { times = append(times, now) }
	first := func(now Time, _ Ctx) {
		times = append(times, now)
		e.AfterCtxShard(0, second, Ctx{}, 4, 4)
	}
	e.AtCtxShard(9, first, Ctx{}, NoShard, 4)
	e.Run()
	if len(times) != 2 || times[0] != 9 || times[1] != 9 {
		t.Fatalf("zero-delay chain fired at %v, want [9 9]", times)
	}
}

// TestGlobalEventsFireBeforeEntityEvents pins the intra-tick rule: at a
// tick, a global event (a churn draw, a driver callback) fires before an
// event addressed to an entity (a delivery), whichever was scheduled
// first, at every worker count. Within a kind, scheduling order holds.
func TestGlobalEventsFireBeforeEntityEvents(t *testing.T) {
	for _, workers := range []int{0, 1, 2} {
		e := NewEngine(1)
		e.SetWorkers(workers)
		var order []string
		deliver := func(_ Time, c Ctx) { order = append(order, c.A.(string)) }
		e.AtCtxShard(5, deliver, Ctx{A: "delivery-1"}, NoShard, ShardOfID(3))
		e.EveryBg(5, func(Time) bool { order = append(order, "churn"); return false })
		e.AtCtxShard(5, deliver, Ctx{A: "delivery-2"}, NoShard, ShardOfID(3))
		e.AtCtx(5, deliver, Ctx{A: "driver"})
		e.AtCtx(4, deliver, Ctx{A: "earlier"})
		e.Run()
		if got, want := fmt.Sprint(order), "[earlier churn driver delivery-1 delivery-2]"; got != want {
			t.Fatalf("workers=%d fired %s, want %s", workers, got, want)
		}
	}
}

func TestSetWorkersRejectsUsedEngine(t *testing.T) {
	e := NewEngine(1)
	e.AtCtx(1, func(Time, Ctx) {}, Ctx{})
	defer func() {
		if recover() == nil {
			t.Fatal("SetWorkers on an engine with queued events must panic")
		}
	}()
	e.SetWorkers(2)
}

// TestStepMatchesRun: stepping an engine one event at a time fires the
// same events, at the same times and in the same order, as Run does.
func TestStepMatchesRun(t *testing.T) {
	order := func(step bool) []Time {
		e := NewEngine(7)
		nodes := make([]*pnode, 16)
		for i := range nodes {
			nodes[i] = &pnode{id: uint64(i * 1047), rng: NewRNG(7, uint64(i*1047), 1), eng: e}
		}
		var fired []Time
		for _, n := range nodes {
			n.nodes, n.fired = nodes, &fired
			e.AtCtxShard(1, pTick, Ctx{A: n}, NoShard, ShardOfID(n.id))
		}
		e.EveryBg(3, func(now Time) bool { fired = append(fired, -now); return now < 30 })
		if !step {
			e.Run()
			return fired
		}
		for e.PendingForeground() > 0 {
			if !e.Step() {
				t.Fatal("Step found nothing with foreground work queued")
			}
		}
		return fired
	}
	run, stepped := order(false), order(true)
	if len(run) < 50 || fmt.Sprint(run) != fmt.Sprint(stepped) {
		t.Fatalf("stepped order differs from Run:\nrun     %v\nstepped %v", run, stepped)
	}
}

// Run over sub-rounds of one shard allocates nothing once the heap and
// its buffers have grown: no worker pool is spawned for them.
func TestRunSingleShardAllocs(t *testing.T) {
	e := NewEngine(1)
	e.SetWorkers(4)
	var chain func(Time, Ctx)
	chain = func(_ Time, c Ctx) {
		if n := c.A.(*pnode); n.id > 0 {
			n.id--
			e.AfterCtxShard(1, chain, c, 5, 5)
		}
	}
	n := &pnode{}
	run := func() {
		n.id = 8
		e.AtCtxShard(e.Now()+1, chain, Ctx{A: n}, NoShard, 5)
		e.Run()
	}
	run()
	if a := testing.AllocsPerRun(100, run); a != 0 {
		t.Fatalf("Run allocated %.1f times per call, want 0", a)
	}
}

// TestRNGStreams pins the stream contract: equal keys replay, and any
// differing key component (seed, node, salt) yields an independent
// stream.
func TestRNGStreams(t *testing.T) {
	a, b := NewRNG(42, 7, 1), NewRNG(42, 7, 1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal keys must give equal streams")
		}
	}
	variants := []*RNG{NewRNG(43, 7, 1), NewRNG(42, 8, 1), NewRNG(42, 7, 2)}
	base := NewRNG(42, 7, 1)
	v0 := base.Uint64()
	for i, v := range variants {
		if v.Uint64() == v0 {
			t.Fatalf("variant %d collides with base stream on first draw", i)
		}
	}
	r := NewRNG(1, 2, 3)
	for i := 0; i < 1000; i++ {
		if n := r.Int63n(5); n < 0 || n >= 5 {
			t.Fatalf("Int63n(5) = %d out of range", n)
		}
		if n := r.Intn(3); n < 0 || n >= 3 {
			t.Fatalf("Intn(3) = %d out of range", n)
		}
	}
}
