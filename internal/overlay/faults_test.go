package overlay

import (
	"strings"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/sim"
)

// lossyCfg is the default network with a fault plan and the bounce path
// the plan requires.
func lossyCfg(f *Faults) Config {
	cfg := DefaultConfig()
	cfg.Bounce = true
	cfg.Faults = f
	return cfg
}

// TestNewNetworkValidatesFaults: out-of-range probabilities, negative
// timer parameters and inverted partition windows must all be rejected
// at construction.
func TestNewNetworkValidatesFaults(t *testing.T) {
	ring := newTestRing(t, 4)
	engine := sim.NewEngine(1)
	bad := []Config{
		lossyCfg(&Faults{DropProb: -0.1}),
		lossyCfg(&Faults{DropProb: 1.5}),
		lossyCfg(&Faults{DupProb: 2}),
		lossyCfg(&Faults{SpikeProb: -1}),
		lossyCfg(&Faults{SpikeMax: -4}),
		lossyCfg(&Faults{RTO: -1}),
		lossyCfg(&Faults{MaxRetries: -1}),
		lossyCfg(&Faults{AckDelay: -2}),
		lossyCfg(&Faults{Partitions: []Partition{{Start: 10, End: 5}}}),
	}
	for _, cfg := range bad {
		if _, err := NewNetwork(ring, engine, cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
	if _, err := NewNetwork(ring, engine, lossyCfg(&Faults{DropProb: 0.5})); err != nil {
		t.Fatalf("valid fault plan rejected: %v", err)
	}
}

// TestFaultsRequireBounce: the cross-validation error must name the
// knob to flip — retransmit escalation cannot work without the bounce
// path.
func TestFaultsRequireBounce(t *testing.T) {
	ring := newTestRing(t, 4)
	cfg := DefaultConfig()
	cfg.Faults = &Faults{DropProb: 0.1}
	_, err := NewNetwork(ring, sim.NewEngine(1), cfg)
	if err == nil {
		t.Fatal("Faults without Bounce accepted")
	}
	if !strings.Contains(err.Error(), "Bounce") {
		t.Fatalf("error %q does not tell the user to set Bounce", err)
	}
}

// TestReliableDeliveryUnderDrop: at a 30% transmission drop rate every
// keyed send still reaches its owner exactly once, no later than the
// widened MaxDelta, paid for in retransmissions and acks that stay out
// of the traffic metric.
func TestReliableDeliveryUnderDrop(t *testing.T) {
	f := newFixture(t, 64, lossyCfg(&Faults{DropProb: 0.3}))
	const sends = 200
	for i := 0; i < sends; i++ {
		from := f.nodes[i%len(f.nodes)]
		key := id.HashKey("k") + id.ID(i)*0x9e3779b97f4a7c15
		f.nw.Send(from, key, keyedMsg{key: key, body: "payload"})
	}
	f.engine.Run()
	f.nw.Sync()
	if last, delta := f.engine.Now(), sim.Time(f.nw.MaxDelta()); last > delta {
		t.Fatalf("last delivery at %d, past MaxDelta %d", last, delta)
	}
	delivered := 0
	for _, msgs := range f.received {
		delivered += len(msgs)
	}
	if delivered != sends {
		t.Fatalf("delivered %d messages, want exactly %d (loss or duplication)", delivered, sends)
	}
	if f.nw.Dropped == 0 || f.nw.Retransmits == 0 || f.nw.AckMessages == 0 {
		t.Fatalf("fault machinery idle: dropped %d, retransmits %d, acks %d",
			f.nw.Dropped, f.nw.Retransmits, f.nw.AckMessages)
	}
	if f.nw.Abandoned != 0 {
		t.Fatalf("%d messages abandoned at a survivable drop rate", f.nw.Abandoned)
	}
}

// TestDuplicationSuppressed: with every transmission duplicated, the
// handler still sees each payload once — receiver-side dedup absorbs
// the copies.
func TestDuplicationSuppressed(t *testing.T) {
	f := newFixture(t, 32, lossyCfg(&Faults{DupProb: 1}))
	const sends = 50
	for i := 0; i < sends; i++ {
		key := id.HashKey("dup") + id.ID(i)*0x9e3779b97f4a7c15
		f.nw.Send(f.nodes[i%len(f.nodes)], key, keyedMsg{key: key, body: "d"})
	}
	f.engine.Run()
	f.nw.Sync()
	delivered := 0
	for _, msgs := range f.received {
		delivered += len(msgs)
	}
	if delivered != sends {
		t.Fatalf("delivered %d, want %d: duplication leaked through dedup", delivered, sends)
	}
	if f.nw.Duplicated == 0 {
		t.Fatal("DupProb 1 injected no duplicates")
	}
}

// TestPartitionBlocksThenHeals: a message sent across an active
// partition window is dropped and retransmitted until the window
// closes; after the heal it arrives exactly once. The partition is
// added on a quiescent network, the only time AddPartition allows.
func TestPartitionBlocksThenHeals(t *testing.T) {
	f := newFixture(t, 16, lossyCfg(&Faults{}))
	from, to := f.nodes[0], f.nodes[8]
	if err := f.nw.AddPartition(Partition{
		Start: 0, End: 60, Side: map[id.ID]bool{from.ID(): true},
	}); err != nil {
		t.Fatal(err)
	}
	f.nw.SendDirect(from, to.ID(), keyedMsg{key: to.ID(), body: "cross"})
	f.engine.RunUntil(50)
	if got := len(f.received[to.ID()]); got != 0 {
		t.Fatalf("partitioned message delivered %d times before the heal", got)
	}
	f.engine.Run()
	f.nw.Sync()
	if got := len(f.received[to.ID()]); got != 1 {
		t.Fatalf("message crossed the healed partition %d times, want 1", got)
	}
	if f.nw.Dropped == 0 {
		t.Fatal("partition dropped nothing")
	}
	if f.nw.Abandoned != 0 {
		t.Fatalf("%d messages abandoned across a healing partition", f.nw.Abandoned)
	}
}

// TestDepartedReceiverIsNotResent: a node that has received a message
// and leaves inside its ack-coalescing window takes the message's
// effects with it in its state. Nothing may send the message again or
// re-route it to the key's new owner — on a plan that loses nothing,
// that was a second delivery.
func TestDepartedReceiverIsNotResent(t *testing.T) {
	f := newFixture(t, 16, lossyCfg(&Faults{}))
	from, to := f.nodes[0], f.nodes[8]
	f.nw.SendDirect(from, to.ID(), keyedMsg{key: to.ID(), body: "once"})
	f.engine.Run() // delivered; its ack window is still open
	if got := len(f.received[to.ID()]); got != 1 {
		t.Fatalf("delivered %d times before the departure, want 1", got)
	}
	f.ring.Leave(to)
	f.nw.Detach(to)
	f.engine.RunUntil(f.engine.Now() + 5000) // past every rung of the default ladder
	f.engine.Run()
	f.nw.Sync()
	delivered := 0
	for _, msgs := range f.received {
		delivered += len(msgs)
	}
	if delivered != 1 || f.nw.Bounced != 0 || f.nw.Retransmits != 0 {
		t.Fatalf("after the receiver left: %d deliveries, %d bounced, %d retransmits; want 1, 0, 0",
			delivered, f.nw.Bounced, f.nw.Retransmits)
	}
}

// TestZeroPlanScheduleIdentical: the all-zero fault plan must reproduce
// the faults-off run exactly — same delivery times, same per-node
// receive counts, same traffic metric — under churn too: a receiver
// crashes between the send and the arrival of messages addressed to
// it, and both runs bounce them on arrival. This is the overlay-level
// RNG isolation guarantee: the fault draws come only from their own
// streams and charge only their own counters.
func TestZeroPlanScheduleIdentical(t *testing.T) {
	type rec struct {
		at   sim.Time
		node id.ID
	}
	run := func(cfg Config) ([]rec, int64, int64) {
		f := &fixture{
			ring:     newTestRing(t, 48),
			engine:   sim.NewEngine(3),
			received: make(map[id.ID][]Message),
		}
		f.nw = MustNetwork(f.ring, f.engine, cfg)
		f.nodes = f.ring.Nodes()
		var log []rec
		for _, node := range f.nodes {
			nid := node.ID()
			f.nw.Attach(node, HandlerFunc(func(now sim.Time, msg Message) {
				log = append(log, rec{at: now, node: nid})
			}))
		}
		for i := 0; i < 120; i++ {
			from := f.nodes[i%len(f.nodes)]
			if !from.Alive() {
				continue
			}
			key := id.HashKey("iso") + id.ID(i)*0x9e3779b97f4a7c15
			f.nw.Send(from, key, keyedMsg{key: key, body: "x"})
			if owner := f.ring.Owner(key); i%20 == 10 && owner != from {
				// The owner crashes with the message in flight to it.
				f.ring.Fail(owner)
				f.nw.Detach(owner)
			}
			if i%3 == 0 {
				f.engine.Run()
			}
		}
		f.engine.Run()
		f.nw.Sync()
		return log, f.nw.Traffic.Total(), f.nw.Bounced
	}

	off := DefaultConfig()
	off.Bounce = true
	logOff, trafficOff, bouncedOff := run(off)
	logZero, trafficZero, bouncedZero := run(lossyCfg(&Faults{}))
	if bouncedOff == 0 {
		t.Fatal("no message was in flight to a crashed receiver; the churn has no teeth")
	}
	if trafficOff != trafficZero || bouncedOff != bouncedZero {
		t.Fatalf("zero plan changed the traffic metric or the bounces: %d/%d vs %d/%d",
			trafficZero, bouncedZero, trafficOff, bouncedOff)
	}
	if len(logOff) != len(logZero) {
		t.Fatalf("zero plan changed delivery count: %d vs %d", len(logZero), len(logOff))
	}
	for i := range logOff {
		if logOff[i] != logZero[i] {
			t.Fatalf("delivery %d diverged: faults-off %+v, zero plan %+v", i, logOff[i], logZero[i])
		}
	}
}

// TestMaxDeltaCoversRetransmits: enabling faults must widen the ALTT
// retention bound — the completeness guarantee has to absorb every
// backoff ladder plus the longest partition outage.
func TestMaxDeltaCoversRetransmits(t *testing.T) {
	ring := newTestRing(t, 64)
	base := MustNetwork(ring, sim.NewEngine(1), func() Config {
		c := DefaultConfig()
		c.Bounce = true
		return c
	}())
	lossy := MustNetwork(ring, sim.NewEngine(1), lossyCfg(&Faults{
		DropProb: 0.2, SpikeMax: 8,
		Partitions: []Partition{{Start: 0, End: 500, Side: map[id.ID]bool{}}},
	}))
	d0, d1 := base.MaxDelta(), lossy.MaxDelta()
	if d1 <= d0 {
		t.Fatalf("faulty MaxDelta %d not above faults-off %d", d1, d0)
	}
	if d1 < d0+500 {
		t.Fatalf("faulty MaxDelta %d does not absorb the 500-tick partition (base %d)", d1, d0)
	}
}

// TestAddPartitionRejectsInFlight: the attempts of a message in flight
// were drawn when it was sent, so a partition added while it travels
// would not apply to it. AddPartition refuses, saying why; once the
// network is quiescent the same call succeeds.
func TestAddPartitionRejectsInFlight(t *testing.T) {
	f := newFixture(t, 16, lossyCfg(&Faults{}))
	from, to := f.nodes[0], f.nodes[8]
	f.nw.SendDirect(from, to.ID(), keyedMsg{key: to.ID(), body: "in flight"})
	p := Partition{Start: f.engine.Now() + 10, End: f.engine.Now() + 50, Side: map[id.ID]bool{from.ID(): true}}
	err := f.nw.AddPartition(p)
	if err == nil || !strings.Contains(err.Error(), "quiescent") {
		t.Fatalf("AddPartition with a message in flight: error %v, want one naming the quiescence rule", err)
	}
	f.engine.Run()
	if err := f.nw.AddPartition(p); err != nil {
		t.Fatalf("AddPartition on a quiescent network: %v", err)
	}
}

// TestCrashedReceiverBouncesOnArrival: messages whose ladders are still
// being drawn out when their receiver crashes reach the key's new owner
// exactly once, through the ordinary bounce path.
func TestCrashedReceiverBouncesOnArrival(t *testing.T) {
	f := newFixture(t, 16, lossyCfg(&Faults{DropProb: 0.5}))
	from, victim := f.nodes[0], f.nodes[8]
	const sends = 40
	for i := 0; i < sends; i++ {
		f.nw.SendDirect(from, victim.ID(), keyedMsg{key: victim.ID(), body: "bounce"})
	}
	f.ring.Fail(victim)
	f.nw.Detach(victim)
	f.engine.Run()
	f.nw.Sync()
	heir := f.ring.Owner(victim.ID())
	if got := len(f.received[heir.ID()]); got != sends || f.nw.Bounced != sends {
		t.Fatalf("heir received %d, %d bounced; want %d each", got, f.nw.Bounced, sends)
	}
	if f.nw.Retransmits == 0 {
		t.Fatal("no retransmission was drawn; the plan has no teeth")
	}
}

// TestDropEverythingAbandons: a plan that loses every transmission
// still terminates — the draw loop gives up after relMaxLadders
// restarts of a full ladder — and charges exactly that many attempts.
func TestDropEverythingAbandons(t *testing.T) {
	f := newFixture(t, 16, lossyCfg(&Faults{DropProb: 1, MaxRetries: 3}))
	const sends = 10
	for i := 0; i < sends; i++ {
		f.nw.SendDirect(f.nodes[0], f.nodes[5].ID(), keyedMsg{key: f.nodes[5].ID(), body: "lost"})
	}
	f.engine.Run()
	f.nw.Sync()
	attempts := int64((relMaxLadders + 1) * (3 + 1))
	if f.nw.Abandoned != sends || f.nw.Dropped != sends*attempts || f.nw.Retransmits != sends*(attempts-1) {
		t.Fatalf("abandoned %d, dropped %d, retransmits %d; want %d, %d, %d",
			f.nw.Abandoned, f.nw.Dropped, f.nw.Retransmits, sends, sends*attempts, sends*(attempts-1))
	}
	if n := len(f.received[f.nodes[5].ID()]); n != 0 || f.engine.PendingForeground() != 0 {
		t.Fatalf("%d delivered, %d events pending; want nothing", n, f.engine.PendingForeground())
	}
}

// newTestRing builds a small converged ring for construction-level
// tests.
func newTestRing(t testing.TB, n int) *chord.Ring {
	t.Helper()
	ring := chord.NewRing()
	for i := 0; i < n; i++ {
		if _, err := ring.Join(id.ID(uint64(i+1) * 0x3c6ef372fe94f82b)); err != nil {
			t.Fatal(err)
		}
	}
	ring.BuildPerfect()
	return ring
}
