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
}

func pTick(now Time, c Ctx) {
	n := c.A.(*pnode)
	n.log = append(n.log, now)
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

// TestParallelRunSemantics mirrors the serial engine's Run/RunUntil
// contract on a parallel engine: Run drains foreground work (firing
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

// TestGlobalEventsFireBeforeEntityEvents pins the one intra-tick rule the
// two engines share: at a tick, a global event (a churn draw, a driver
// callback) fires before an event addressed to an entity (a delivery),
// whichever was scheduled first — on the serial heap exactly as in a
// parallel sub-round. Within a kind, scheduling order holds. Before the
// serial heap had the rule, a delivery scheduled ahead of a same-tick
// membership change ran first on it and second under workers, and
// counters that depend on that order (replication ops, bounces) came out
// one apart.
func TestGlobalEventsFireBeforeEntityEvents(t *testing.T) {
	for _, workers := range []int{0, 1, 2} {
		e := NewEngine(1)
		e.SetWorkers(workers)
		var order []string
		deliver := func(_ Time, c Ctx) { order = append(order, c.A.(string)) }
		e.AtCtxShard(5, deliver, Ctx{A: "delivery-1"}, NoShard, e.ShardOf(3))
		e.EveryBg(5, func(Time) bool { order = append(order, "churn"); return false })
		e.AtCtxShard(5, deliver, Ctx{A: "delivery-2"}, NoShard, e.ShardOf(3))
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

func TestStepUnsupportedOnParallelEngine(t *testing.T) {
	e := NewEngine(1)
	e.SetWorkers(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Step on a parallel engine must panic")
		}
	}()
	e.Step()
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
