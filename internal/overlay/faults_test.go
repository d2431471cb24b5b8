package overlay

import (
	"fmt"
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

// drain runs the engine to reliable-delivery quiescence: foreground
// work first, then the clock advances to each outstanding retransmit
// deadline until no channel retains anything (the overlay-level copy of
// the core engine's drain loop).
func drain(f *fixture) {
	for {
		f.engine.Run()
		t, ok := f.nw.NextRetransmit()
		if !ok {
			return
		}
		f.engine.RunUntil(t)
	}
}

// TestNewNetworkValidatesFaults: out-of-range probabilities, negative
// timer parameters, inverted partition windows, and a negative batch
// window must all be rejected at construction.
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
		{MinHopDelay: 1, MaxHopDelay: 1, BatchWindow: -3},
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
// keyed send still reaches its owner exactly once, paid for in
// retransmissions and acks that stay out of the traffic metric.
func TestReliableDeliveryUnderDrop(t *testing.T) {
	f := newFixture(t, 64, lossyCfg(&Faults{DropProb: 0.3}))
	const sends = 200
	for i := 0; i < sends; i++ {
		from := f.nodes[i%len(f.nodes)]
		key := id.HashKey("k") + id.ID(i)*0x9e3779b97f4a7c15
		f.nw.Send(from, key, keyedMsg{key: key, body: "payload"})
	}
	drain(f)
	f.nw.Sync()
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
	drain(f)
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
// closes; after the heal it arrives exactly once.
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
	drain(f)
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
// effects with it in its state. The sender must not run the ladder and
// re-route the retained copy to the key's new owner — on a plan that
// loses nothing, that was a second delivery.
func TestDepartedReceiverIsNotResent(t *testing.T) {
	f := newFixture(t, 16, lossyCfg(&Faults{}))
	from, to := f.nodes[0], f.nodes[8]
	f.nw.SendDirect(from, to.ID(), keyedMsg{key: to.ID(), body: "once"})
	f.engine.Run() // delivered; the ack is a background event two ticks out
	if got := len(f.received[to.ID()]); got != 1 {
		t.Fatalf("delivered %d times before the departure, want 1", got)
	}
	f.ring.Leave(to)
	f.nw.Detach(to)
	f.engine.RunUntil(f.engine.Now() + 5000) // past every rung of the default ladder
	drain(f)
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
// receive counts, same traffic metric. This is the overlay-level RNG
// isolation guarantee: the ARQ machinery draws only from its own
// streams and charges only its own counters.
func TestZeroPlanScheduleIdentical(t *testing.T) {
	type rec struct {
		at   sim.Time
		node id.ID
	}
	run := func(cfg Config) ([]rec, int64) {
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
			key := id.HashKey("iso") + id.ID(i)*0x9e3779b97f4a7c15
			f.nw.Send(f.nodes[i%len(f.nodes)], key, keyedMsg{key: key, body: "x"})
			if i%3 == 0 {
				f.engine.Run()
			}
		}
		drain(f)
		f.nw.Sync()
		return log, f.nw.Traffic.Total()
	}

	off := DefaultConfig()
	off.Bounce = true
	logOff, trafficOff := run(off)
	logZero, trafficZero := run(lossyCfg(&Faults{}))
	if trafficOff != trafficZero {
		t.Fatalf("zero plan changed the traffic metric: %d vs %d", trafficZero, trafficOff)
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

// nextRetransmitScan is NextRetransmit by definition: the scan over
// every channel that ever spoke, which the busy sets replaced. Kept as
// the test oracle.
func nextRetransmitScan(nw *Network) (sim.Time, bool) {
	var best sim.Time
	found := false
	for srcID, src := range nw.peers {
		for dstID, tc := range src.rel.tx {
			var rx *rxChan
			if dst, ok := nw.peers[dstID]; ok {
				rx = dst.rel.rx[srcID]
			}
			for seq, e := range tc.unacked {
				if rx != nil && rx.dedup.Seen(seq) {
					continue
				}
				if !found || e.deadline < best {
					best, found = e.deadline, true
				}
			}
		}
	}
	return best, found
}

// checkBusySets asserts that NextRetransmit answers as the full scan
// does and that a channel is in its sender's busy set exactly while it
// retains something.
func checkBusySets(t *testing.T, nw *Network, label string) {
	t.Helper()
	got, gok := nw.NextRetransmit()
	want, wok := nextRetransmitScan(nw)
	if got != want || gok != wok {
		t.Fatalf("%s at %d: NextRetransmit = (%d, %v), full scan = (%d, %v)", label, nw.Engine.Now(), got, gok, want, wok)
	}
	for src, p := range nw.peers {
		rn := p.rel
		for dst, tc := range rn.tx {
			if _, busy := rn.busy[dst]; busy != (len(tc.unacked) > 0) {
				t.Fatalf("%s at %d: channel %s→%s busy=%v with %d unacked", label, nw.Engine.Now(), src, dst, busy, len(tc.unacked))
			}
		}
		for dst, tc := range rn.busy {
			if rn.tx[dst] != tc {
				t.Fatalf("%s: busy set of %s holds a channel to %s that tx does not", label, src, dst)
			}
		}
	}
}

// TestNextRetransmitMatchesFullScan drives three fault scenarios — the
// lossy plan, a partition window that outlasts a backoff ladder, and a
// receiver that crashes mid-stream so escalation must re-route or
// abandon — one event at a time (one tick at a time on the parallel
// engine, which has no finer step) and checks the busy-set bookkeeping
// against the full scan after every one. Once the clock has been driven
// past every pending timer and ack, no channel retains anything.
func TestNextRetransmitMatchesFullScan(t *testing.T) {
	short := Faults{RTO: 4, MaxRetries: 3} // a ladder of ~70 ticks
	scenarios := []struct {
		name  string
		plan  Faults
		setup func(f *fixture)           // before the stream
		mid   func(f *fixture, wave int) // between waves
	}{
		{name: "lossy", plan: Faults{DropProb: 0.10, DupProb: 0.05, SpikeProb: 0.05, SpikeMax: 4}},
		{name: "partition", plan: short, setup: func(f *fixture) {
			side := make(map[id.ID]bool)
			for _, n := range f.nodes[:len(f.nodes)/2] {
				side[n.ID()] = true
			}
			if err := f.nw.AddPartition(Partition{Start: 3, End: 300, Side: side}); err != nil {
				panic(err)
			}
		}},
		{name: "crash", plan: short, mid: func(f *fixture, wave int) {
			if wave != 3 {
				return
			}
			victim := f.nodes[5]
			// Unkeyed payloads to the victim cannot re-route: they run
			// every ladder and are abandoned.
			f.nw.SendDirect(f.nodes[1], victim.ID(), "unkeyed")
			f.nw.SendDirect(f.nodes[2], victim.ID(), "unkeyed")
			f.ring.Fail(victim)
			f.nw.Detach(victim)
		}},
	}
	var retransmits, bounced, abandoned int64
	for _, sc := range scenarios {
		for _, workers := range []int{0, 2} {
			for seed := int64(1); seed <= 20; seed++ {
				label := fmt.Sprintf("%s/workers=%d/seed=%d", sc.name, workers, seed)
				plan := sc.plan // AddPartition appends to the plan the network was given
				f := &fixture{ring: chord.NewRing(), engine: sim.NewEngine(seed)}
				if workers > 0 {
					f.engine.SetWorkers(workers)
				}
				rng := sim.NewRNG(seed, 0, 0)
				for f.ring.Size() < 24 {
					_, _ = f.ring.Join(id.ID(rng.Uint64())) // a taken identifier draws again
				}
				f.ring.BuildPerfect()
				f.nw = MustNetwork(f.ring, f.engine, lossyCfg(&plan))
				f.nodes = f.ring.Nodes()
				for _, n := range f.nodes {
					f.nw.Attach(n, HandlerFunc(func(sim.Time, Message) {}))
				}
				// step makes the smallest progress the engine supports and
				// reports whether there was any to make.
				step := func() bool {
					if workers == 0 {
						return f.engine.Step()
					}
					if f.engine.Pending() == 0 {
						return false
					}
					f.engine.RunUntil(f.engine.Now() + 1)
					return true
				}
				if sc.setup != nil {
					sc.setup(f)
				}
				for wave := 0; wave < 8; wave++ {
					for i := 0; i < 12; i++ {
						from := f.nodes[rng.Intn(len(f.nodes))]
						if !from.Alive() {
							continue
						}
						key := id.ID(rng.Uint64())
						f.nw.Send(from, key, keyedMsg{key: key, body: "m"})
						checkBusySets(t, f.nw, label)
					}
					if sc.mid != nil {
						sc.mid(f, wave)
					}
					for i := 0; i < 6 && step(); i++ {
						checkBusySets(t, f.nw, label)
					}
				}
				for step() {
					checkBusySets(t, f.nw, label)
				}
				for src, p := range f.nw.peers {
					if len(p.rel.busy) != 0 {
						t.Fatalf("%s: %s still has %d busy channels with the event heap empty", label, src, len(p.rel.busy))
					}
				}
				f.nw.Sync()
				retransmits += f.nw.Retransmits
				bounced += f.nw.Bounced
				abandoned += f.nw.Abandoned
				if sc.name != "crash" && f.nw.Abandoned != 0 {
					t.Fatalf("%s: %d messages abandoned", label, f.nw.Abandoned)
				}
			}
		}
	}
	if retransmits == 0 || bounced == 0 || abandoned == 0 {
		t.Fatalf("scenarios too weak: %d retransmits, %d re-routed, %d abandoned", retransmits, bounced, abandoned)
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
