package overlay

import (
	"math/rand"
	"runtime"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/sim"
)

type fixture struct {
	ring   *chord.Ring
	engine *sim.Engine
	nw     *Network
	nodes  []*chord.Node
	// received[i] collects messages delivered to nodes[i]
	received map[id.ID][]Message
}

func newFixture(t testing.TB, n int, cfg Config) *fixture {
	t.Helper()
	f := &fixture{
		ring:     chord.NewRing(),
		engine:   sim.NewEngine(1),
		received: make(map[id.ID][]Message),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		for {
			if _, err := f.ring.Join(id.ID(rng.Uint64())); err == nil {
				break
			}
		}
	}
	f.ring.BuildPerfect()
	f.nw = MustNetwork(f.ring, f.engine, cfg)
	f.nodes = f.ring.Nodes()
	for _, node := range f.nodes {
		nid := node.ID()
		f.nw.Attach(node, HandlerFunc(func(now sim.Time, msg Message) {
			f.received[nid] = append(f.received[nid], msg)
		}))
	}
	return f
}

// TestNewNetworkValidatesDelayBounds: the overlay must reject inverted
// or negative hop-delay bounds with an error — the silent repair it
// used to apply let internal callers construct networks the public API
// would have refused.
func TestNewNetworkValidatesDelayBounds(t *testing.T) {
	ring := chord.NewRing()
	if _, err := ring.Join(1); err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(1)
	for _, cfg := range []Config{
		{MinHopDelay: 5, MaxHopDelay: 2},
		{MinHopDelay: -1, MaxHopDelay: 1},
		{MinHopDelay: 0, MaxHopDelay: -3},
	} {
		if _, err := NewNetwork(ring, engine, cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
	for _, cfg := range []Config{
		{},
		{MinHopDelay: 0, MaxHopDelay: 4},
		{MinHopDelay: 2, MaxHopDelay: 2},
	} {
		if _, err := NewNetwork(ring, engine, cfg); err != nil {
			t.Errorf("valid config %+v rejected: %v", cfg, err)
		}
	}
}

func TestSendDeliversToOwner(t *testing.T) {
	f := newFixture(t, 64, DefaultConfig())
	key := id.HashKey("R+A")
	owner := f.nw.Send(f.nodes[0], key, "hello")
	f.engine.Run()
	if want := f.ring.Owner(key); owner != want {
		t.Fatalf("Send routed to %v, want %v", owner, want)
	}
	got := f.received[owner.ID()]
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("owner received %v", got)
	}
}

func TestSendChargesTrafficAlongPath(t *testing.T) {
	f := newFixture(t, 128, DefaultConfig())
	from := f.nodes[0]
	key := id.HashKey("some-key")
	_, path := from.Lookup(key)
	before := f.nw.MessagesSent
	f.nw.Send(from, key, "x")
	f.nw.Sync()
	charged := f.nw.MessagesSent - before
	if int(charged) != len(path) {
		t.Fatalf("charged %d messages for a %d-hop path", charged, len(path))
	}
	if f.nw.ByTag[TagApp] != charged {
		t.Fatalf("untagged send counted %d as TagApp, want %d", f.nw.ByTag[TagApp], charged)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	f := newFixture(t, 32, DefaultConfig())
	from := f.nodes[5]
	f.nw.Send(from, from.ID(), "self")
	f.nw.Sync()
	if f.nw.MessagesSent != 0 {
		t.Fatalf("self delivery charged %d messages", f.nw.MessagesSent)
	}
	f.engine.Run()
	if len(f.received[from.ID()]) != 1 {
		t.Fatal("self delivery lost")
	}
}

func TestSendDirectSingleMessage(t *testing.T) {
	f := newFixture(t, 64, DefaultConfig())
	from, to := f.nodes[0], f.nodes[10]
	f.nw.SendDirect(from, to.ID(), "direct")
	f.nw.Sync()
	if f.nw.MessagesSent != 1 {
		t.Fatalf("SendDirect cost %d messages, want 1", f.nw.MessagesSent)
	}
	f.engine.Run()
	if len(f.received[to.ID()]) != 1 {
		t.Fatal("direct message lost")
	}
}

func TestSendDirectToDeadNodeDropped(t *testing.T) {
	f := newFixture(t, 64, DefaultConfig())
	victim := f.nodes[3]
	f.ring.Fail(victim)
	f.nw.SendDirect(f.nodes[0], victim.ID(), "lost")
	f.engine.Run()
	if len(f.received[victim.ID()]) != 0 {
		t.Fatal("message delivered to dead node")
	}
}

// keyedMsg is a test message implementing Rekeyable.
type keyedMsg struct {
	key  id.ID
	body string
}

func (m keyedMsg) RingKey() id.ID { return m.key }

// An in-flight message whose recipient dies before delivery bounces to
// the current owner of its ring key when Bounce is enabled.
func TestBounceInFlightToNewOwner(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bounce = true
	f := newFixture(t, 64, cfg)
	key := id.HashKey("doomed-key")
	victim := f.ring.Owner(key)
	f.nw.Send(f.nodes[0], key, keyedMsg{key: key, body: "survive"})
	f.ring.Fail(victim) // dies while the message is in flight
	f.engine.Run()
	f.nw.Sync()
	heir := f.ring.Owner(key)
	if heir == victim {
		t.Fatal("fixture broken: owner unchanged after failure")
	}
	got := f.received[heir.ID()]
	if len(got) != 1 || got[0].(keyedMsg).body != "survive" {
		t.Fatalf("heir received %v, want the bounced message", got)
	}
	if f.nw.Bounced != 1 {
		t.Fatalf("Bounced = %d, want 1", f.nw.Bounced)
	}
}

// Without Bounce (the default), dead-recipient messages keep their
// historical drop semantics even when Rekeyable.
func TestNoBounceByDefault(t *testing.T) {
	f := newFixture(t, 64, DefaultConfig())
	key := id.HashKey("doomed-key")
	victim := f.ring.Owner(key)
	f.nw.Send(f.nodes[0], key, keyedMsg{key: key, body: "lost"})
	f.ring.Fail(victim)
	f.engine.Run()
	f.nw.Sync()
	heir := f.ring.Owner(key)
	if len(f.received[heir.ID()]) != 0 || f.nw.Bounced != 0 {
		t.Fatal("message must drop when bouncing is disabled")
	}
}

// SendDirect to an identifier that already left re-routes by ring key.
func TestSendDirectBouncesWhenAddresseeGone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bounce = true
	f := newFixture(t, 64, cfg)
	victim := f.nodes[7]
	vid := victim.ID()
	f.ring.Fail(victim)
	f.nw.SendDirect(f.nodes[0], vid, keyedMsg{key: vid, body: "answer"})
	f.engine.Run()
	heir := f.ring.Owner(vid)
	got := f.received[heir.ID()]
	if len(got) != 1 || got[0].(keyedMsg).body != "answer" {
		t.Fatalf("successor received %v, want the bounced direct message", got)
	}
}

// Non-Rekeyable messages cannot be re-routed and are dropped even with
// bouncing on.
func TestBounceRequiresRingKey(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bounce = true
	f := newFixture(t, 64, cfg)
	victim := f.nodes[3]
	f.ring.Fail(victim)
	f.nw.SendDirect(f.nodes[0], victim.ID(), "opaque")
	f.engine.Run()
	f.nw.Sync()
	if f.nw.Bounced != 0 {
		t.Fatal("opaque message must not bounce")
	}
}

// Handoff charges the sender one message under the active tag and
// neither schedules nor delivers anything: the caller installs the
// state itself.
func TestHandoffOnlyCharges(t *testing.T) {
	f := newFixture(t, 64, DefaultConfig())
	from, to := f.nodes[0], f.nodes[9]
	got := 0
	f.nw.Attach(to, HandlerFunc(func(sim.Time, Message) { got++ }))
	f.nw.WithTag(from, TagChurn, func() { f.nw.Handoff(from) })
	if n := f.engine.PendingForeground(); n != 0 {
		t.Fatalf("a handoff scheduled %d events", n)
	}
	f.engine.Run()
	f.nw.Sync()
	if got != 0 || f.nw.Delivered != 0 {
		t.Fatalf("a handoff delivered %d messages (Delivered = %d), want none", got, f.nw.Delivered)
	}
	if f.nw.MessagesSent != 1 || f.nw.ByTag[TagChurn] != 1 {
		t.Fatalf("sender charged %d (churn %d), want 1 each", f.nw.MessagesSent, f.nw.ByTag[TagChurn])
	}
}

// multiSendOrLoop sends msgs[j] to keys[j] from the first node, as one
// chained MultiSend or as a loop of independent Sends.
func multiSendOrLoop(f *fixture, chained bool, msgs []Message, keys []id.ID) {
	if chained {
		f.nw.MultiSend(f.nodes[0], msgs, keys)
		return
	}
	for j := range msgs {
		f.nw.Send(f.nodes[0], keys[j], msgs[j])
	}
}

// TestMultiSendAllocs: once warm, a grouped MultiSend allocates
// nothing — its legs are ordered in the acting lane's buffer by their
// precomputed ring distance, each routed and scheduled. Deliveries
// drain between the counted calls.
func TestMultiSendAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f := newFixture(t, 64, DefaultConfig())
	var keys []id.ID
	var msgs []Message
	for i := 0; i < 16; i++ {
		keys = append(keys, id.HashKey(string(rune('a'+i))))
		msgs = append(msgs, keyedMsg{key: keys[i]})
	}
	for _, legs := range []int{2, 6, 16} {
		send := func() { f.nw.MultiSend(f.nodes[5], msgs[:legs], keys[:legs]) }
		drain := func() {
			f.engine.Run()
			f.nw.Sync()
			for nid := range f.received {
				f.received[nid] = f.received[nid][:0]
			}
		}
		send() // warm: the lane's legs buffer, the scheduler's queue
		drain()
		const runs = 100
		delivered := f.nw.Delivered
		var before, after runtime.MemStats
		var total uint64
		for range runs {
			runtime.ReadMemStats(&before)
			send()
			runtime.ReadMemStats(&after)
			total += after.Mallocs - before.Mallocs
			drain()
		}
		if n := total / runs; n != 0 {
			t.Errorf("a MultiSend of %d legs: %d allocations, want 0", legs, n)
		}
		if got := f.nw.Delivered - delivered; got != int64(legs*runs) {
			t.Fatalf("%d legs: %d deliveries, want %d", legs, got, legs*runs)
		}
	}
}

func TestMultiSendDeliversAll(t *testing.T) {
	for _, chained := range []bool{false, true} {
		f := newFixture(t, 128, DefaultConfig())
		keys := []id.ID{id.HashKey("a"), id.HashKey("b"), id.HashKey("c"), id.HashKey("d")}
		msgs := []Message{"ma", "mb", "mc", "md"}
		multiSendOrLoop(f, chained, msgs, keys)
		f.engine.Run()
		for j, k := range keys {
			owner := f.ring.Owner(k)
			found := false
			for _, m := range f.received[owner.ID()] {
				if m == msgs[j] {
					found = true
				}
			}
			if !found {
				t.Fatalf("chained=%v: message %v not delivered to owner of %v", chained, msgs[j], k)
			}
		}
	}
}

func TestGroupedMultiSendCheaper(t *testing.T) {
	// With many keys, chaining along the ring must not cost more than
	// independent lookups from the origin (it shares prefixes).
	mk := func(chained bool) int64 {
		f := newFixture(t, 256, DefaultConfig())
		var keys []id.ID
		var msgs []Message
		for i := 0; i < 16; i++ {
			keys = append(keys, id.HashKey(string(rune('a'+i))))
			msgs = append(msgs, i)
		}
		multiSendOrLoop(f, chained, msgs, keys)
		f.engine.Run()
		return f.nw.MessagesSent
	}
	grouped, independent := mk(true), mk(false)
	if grouped > independent {
		t.Fatalf("grouped multiSend (%d msgs) costs more than independent (%d)", grouped, independent)
	}
}

func TestDelaysBounded(t *testing.T) {
	cfg := Config{MinHopDelay: 2, MaxHopDelay: 9}
	f := newFixture(t, 64, cfg)
	from := f.nodes[0]
	key := id.HashKey("delay-test")
	_, path := from.Lookup(key)
	start := f.engine.Now()
	var deliveredAt sim.Time = -1
	owner := f.ring.Owner(key)
	f.nw.Attach(owner, HandlerFunc(func(now sim.Time, msg Message) { deliveredAt = now }))
	f.nw.Send(from, key, "m")
	f.engine.Run()
	if deliveredAt < 0 {
		t.Fatal("never delivered")
	}
	hops := int64(len(path))
	if d := int64(deliveredAt - start); d < cfg.MinHopDelay*hops || d > cfg.MaxHopDelay*hops {
		t.Fatalf("delay %d outside [%d,%d] for %d hops", d, cfg.MinHopDelay*hops, cfg.MaxHopDelay*hops, hops)
	}
}

func TestMaxDeltaGrowsWithNetwork(t *testing.T) {
	small := newFixture(t, 8, DefaultConfig())
	large := newFixture(t, 512, DefaultConfig())
	if small.nw.MaxDelta() >= large.nw.MaxDelta() {
		t.Fatalf("MaxDelta small=%d >= large=%d", small.nw.MaxDelta(), large.nw.MaxDelta())
	}
}

func TestMultiSendLengthMismatchPanics(t *testing.T) {
	f := newFixture(t, 8, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	f.nw.MultiSend(f.nodes[0], []Message{"a"}, nil)
}

func TestDeliveredCounter(t *testing.T) {
	f := newFixture(t, 32, DefaultConfig())
	f.nw.Send(f.nodes[0], id.HashKey("k1"), "a")
	f.nw.SendDirect(f.nodes[0], f.nodes[1].ID(), "b")
	f.engine.Run()
	f.nw.Sync()
	if f.nw.Delivered != 2 {
		t.Fatalf("Delivered = %d, want 2", f.nw.Delivered)
	}
}
