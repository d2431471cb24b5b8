package sim

import (
	"testing"
	"testing/quick"
)

// call runs the closure an event's Ctx carries: it lets a test schedule
// a closure through AtCtx, the one global event form.
func call(now Time, c Ctx) { c.A.(func(Time))(now) }

// at schedules fn at absolute time t.
func at(e *Engine, t Time, fn func(Time)) { e.AtCtx(t, call, Ctx{A: fn}) }

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, t := range []Time{30, 10, 20, 10, 5} {
		at(e, t, func(now Time) { got = append(got, now) })
	}
	e.Run()
	want := []Time{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		at(e, 7, func(Time) { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

// AfterCtxShard, the relative form, counts from the clock at the call.
func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var fired Time = -1
	at(e, 100, func(now Time) {
		e.AfterCtxShard(50, call, Ctx{A: func(now Time) { fired = now }}, NoShard, NoShard)
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("AfterCtxShard fired at %d, want 150", fired)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	e := NewEngine(1)
	var fired Time = -1
	at(e, 100, func(now Time) {
		at(e, 10, func(now Time) { fired = now }) // in the past
	})
	e.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %d, want clamp to 100", fired)
	}
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	at(e, 10, func(Time) { fired++ })
	at(e, 20, func(Time) { fired++ })
	at(e, 30, func(Time) { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired %d after Run, want 3", fired)
	}
}

// TestEachPendingVisitsEveryQueuedEvent: the census hands over the
// context of every queued event, global or addressed to a shard, and of
// none that fired.
func TestEachPendingVisitsEveryQueuedEvent(t *testing.T) {
	e := NewEngine(1)
	nop := func(Time, Ctx) {}
	e.AtCtx(10, nop, Ctx{A: "global"})
	e.AtCtxShard(20, nop, Ctx{A: "shard 3"}, NoShard, 3)
	e.AtCtxShard(30, nop, Ctx{A: "shard 3, later"}, NoShard, 3)
	e.AtCtxShard(40, nop, Ctx{A: "shard 60"}, NoShard, 60)
	census := func() map[any]bool {
		seen := map[any]bool{}
		e.EachPending(func(c Ctx) { seen[c.A] = true })
		return seen
	}
	if got := census(); len(got) != 4 || e.Pending() != 4 {
		t.Fatalf("census %v of %d queued events, want all 4", got, e.Pending())
	}
	e.RunUntil(20)
	if got := census(); len(got) != 2 || !got["shard 3, later"] || !got["shard 60"] {
		t.Fatalf("after the first two fired: census %v, want the last two", got)
	}
}

func TestDeterministicRand(t *testing.T) {
	a := NewRNG(NewEngine(42).Seed(), 3, 1)
	b := NewRNG(NewEngine(42).Seed(), 3, 1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

// Property: clock is monotonically non-decreasing over any schedule.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine(1)
		last := Time(-1)
		ok := true
		for _, t := range times {
			at(e, Time(t), func(now Time) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		e.Run()
		return ok && e.Fired() == uint64(len(times))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Fatal("Step on empty queue must return false")
	}
}

// A series repeats until its callback returns false, and then leaves
// nothing queued.
func TestEveryRepeatsUntilCancelled(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.EveryBg(10, func(now Time) bool {
		fired = append(fired, now)
		return len(fired) < 3
	})
	e.RunUntil(100)
	want := []Time{10, 20, 30}
	if len(fired) != len(want) {
		t.Fatalf("fired %d times, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firings at %v, want %v", fired, want)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events queued after the series ended", e.Pending())
	}
}

// Non-positive intervals are coerced to one tick rather than looping
// at the same instant forever (or panicking): the series stays usable
// and still terminates when the callback returns false.
func TestEveryNonPositiveIntervalCoercesToOne(t *testing.T) {
	for _, interval := range []Duration{0, -7} {
		e := NewEngine(1)
		var fired []Time
		e.EveryBg(interval, func(now Time) bool {
			fired = append(fired, now)
			return len(fired) < 3
		})
		e.RunUntil(10)
		want := []Time{1, 2, 3}
		if len(fired) != len(want) {
			t.Fatalf("interval %d: fired %d times, want %d", interval, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("interval %d: firings at %v, want %v", interval, fired, want)
			}
		}
	}
}

// A background periodic series must not keep Run alive: Run drains
// foreground work, interleaving only background ticks whose timestamps
// it passes, and returns with the series still queued.
func TestEveryBgDoesNotStallRun(t *testing.T) {
	e := NewEngine(1)
	bgFired := 0
	e.EveryBg(5, func(Time) bool { bgFired++; return true })
	fgFired := 0
	at(e, 12, func(Time) { fgFired++ })
	e.Run() // must terminate
	if fgFired != 1 {
		t.Fatalf("foreground fired %d, want 1", fgFired)
	}
	// Ticks at 5 and 10 precede the foreground event at 12.
	if bgFired != 2 {
		t.Fatalf("background fired %d times during Run, want 2", bgFired)
	}
	if e.PendingForeground() != 0 {
		t.Fatalf("foreground pending %d after Run", e.PendingForeground())
	}
	if e.Pending() == 0 {
		t.Fatal("background series should remain queued after Run")
	}
	// RunUntil advances background series explicitly.
	e.RunUntil(30)
	if bgFired != 6 {
		t.Fatalf("background fired %d times after RunUntil(30), want 6", bgFired)
	}
}

// Background events scheduling foreground work extends Run: the new
// foreground events (and their cascades) drain before Run returns.
func TestBackgroundCanScheduleForeground(t *testing.T) {
	e := NewEngine(1)
	var delivered []Time
	e.EveryBg(10, func(now Time) bool {
		if now == 10 {
			at(e, now+1, func(at Time) { delivered = append(delivered, at) })
		}
		return true
	})
	at(e, 15, func(Time) {})
	e.Run()
	if len(delivered) != 1 || delivered[0] != 11 {
		t.Fatalf("foreground work from background tick delivered %v, want [11]", delivered)
	}
}

// A background occurrence past the foreground horizon waits for a
// RunUntil that reaches it.
func TestAtBgFiresOnlyWhenClockPasses(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.EveryBg(100, func(Time) bool { fired = true; return false })
	at(e, 50, func(Time) {})
	e.Run()
	if fired {
		t.Fatal("background event past foreground horizon must not fire in Run")
	}
	e.RunUntil(100)
	if !fired {
		t.Fatal("RunUntil must fire queued background events")
	}
}
