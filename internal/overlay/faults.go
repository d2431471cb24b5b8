// Unreliable-network mode: deterministic fault injection, masked by a
// retransmission ladder drawn at send time.
//
// With Config.Faults set, every remote routed or direct send (Send,
// MultiSend, SendDirect — everything except node-local
// deliveries; Handoff and ReplicateTo only charge) is subject to the
// fault plan: a Bernoulli drop draw, a duplication draw, a delay-spike
// draw, and scheduled link partitions between node sets. All draws come
// from a dedicated per-node counter-based stream (salt faultSalt), so
// enabling faults perturbs neither the hop-delay nor the placement draw
// sequences, and a faulty run replays bit-identically for a given seed
// and worker count.
//
// Masking is what end-to-end ARQ achieves — sequence numbers,
// receiver-side dedup, coalesced acks, retransmission with exponential
// backoff — without running it: the outcome of ARQ over a live receiver
// is known in advance (the payload is handed over once, when the first
// attempt that gets through arrives), so sendReliable draws the fate of
// every attempt when the message is sent. Retry i leaves when the
// sender's retransmit timer would fire — RTO<<(i-1) after the previous
// attempt's hop, jittered from the second retry on — and every attempt
// is lost to a drop draw or to a partition open at its transmit time.
// An exhausted ladder restarts (without spending a round while a
// partition is open); after relMaxLadders restarts the message is
// abandoned. The survivor is
// scheduled once, as one foreground delivery through deliverEvent, so
// a receiver that died meanwhile is found dead on arrival and bounced
// exactly as with faults off. Dropped, Retransmits, Duplicated (a copy
// dedup would absorb) and AckMessages (one per coalesced (receiver,
// sender) ackDelay window) are charged from the draws, at send time.
//
// A zero-rate plan loses nothing: its first attempt arrives when the
// faults-off delivery would, as the same event, so its schedule is the
// faults-off schedule under churn too.
//
// Shard discipline: everything here is the sender's
// — its fault stream and the end of its open ack window per receiver —
// and is touched only at send time, from the sender's shard. The
// partition list is read-only while events run.
package overlay

import (
	"fmt"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/obs"
	"rjoin/internal/sim"
)

// faultSalt keys the per-node fault-injection streams; distinct from the
// hop-delay (0x0e7a) and placement (0x91ac) salts so enabling faults
// cannot perturb either draw sequence.
const faultSalt = 0xfa17

// relMaxLadders bounds the draw loop: how many times an exhausted
// retransmit ladder may restart before the message is abandoned. It is
// a termination guard, not a tuning knob: at any drop rate below one,
// losing every attempt of that many ladders is beyond astronomically
// unlikely, but a plan that drops everything must not loop forever.
// MaxDelta's widening is computed from it.
const relMaxLadders = 8

// The ladder's fixed timing. maxRetries is the length of one backoff
// ladder, after which it restarts; ackDelay is the ack-coalescing window
// in ticks: deliveries from one sender reaching one receiver within it
// are charged one ack. The base retransmit timeout RTO derives from the
// delay model at NewNetwork (Network.rto): one round trip at worst-case
// delay, 2·(MaxHopDelay+SpikeMax) + ackDelay + 2 ticks.
const (
	maxRetries = 6
	ackDelay   = 2
)

// Partition is one scheduled link partition: while the virtual clock is
// in [Start, End), every transmission between a node in Side and a node
// outside it is dropped. Ring membership and ground-truth lookups are
// unaffected: the partition models transport loss, not failure
// detection.
type Partition struct {
	Start, End sim.Time
	Side       map[id.ID]bool
}

// Faults is the fault-injection plan. All probabilities are per
// transmission (retransmissions draw afresh) and must lie in [0, 1].
// The zero plan (all rates zero, no partitions) injects nothing: the
// delivered schedule, traffic metric and answer stream are identical to
// a faults-off run, and only AckMessages moves.
type Faults struct {
	// DropProb is the probability a transmission is lost.
	DropProb float64
	// DupProb is the probability a delivered transmission is
	// duplicated. The copy is charged to Duplicated, not delivered:
	// receiver-side dedup would absorb it.
	DupProb float64
	// SpikeProb is the probability a delivered transmission's delay is
	// inflated by a uniform draw from [0, SpikeMax] extra ticks.
	SpikeProb float64
	SpikeMax  int64
	// Partitions are scheduled link outages; see Partition. A send
	// reads the list when it draws its attempts, so a partition the
	// plan's owner appends later — between runs, never while events
	// execute — applies to the sends after it, not to those in flight.
	Partitions []Partition
}

// validate rejects plans NewNetwork must not accept.
func (f *Faults) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"DropProb", f.DropProb}, {"DupProb", f.DupProb}, {"SpikeProb", f.SpikeProb}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("overlay: Faults.%s %v outside [0, 1]", p.name, p.v)
		}
	}
	if f.SpikeMax < 0 {
		return fmt.Errorf("overlay: negative Faults.SpikeMax %d", f.SpikeMax)
	}
	for i, p := range f.Partitions {
		if p.End < p.Start {
			return fmt.Errorf("overlay: Faults.Partitions[%d] window [%d, %d) ends before it starts",
				i, p.Start, p.End)
		}
	}
	return nil
}

// partitioned reports whether a transmission between x and y is blocked
// by an active partition window at time at.
func (nw *Network) partitioned(x, y id.ID, at sim.Time) bool {
	for i := range nw.cfg.Faults.Partitions {
		p := &nw.cfg.Faults.Partitions[i]
		if at >= p.Start && at < p.End && p.Side[x] != p.Side[y] {
			return true
		}
	}
	return false
}

// sendReliable delivers msg from `from` to owner under the fault plan:
// it draws every attempt's fate from the sender's fault stream, charges
// the transport counters, and schedules the first surviving attempt's
// arrival as the message's one delivery event. delay is the routed
// delivery delay already charged by the caller; p is the sender's
// record.
func (nw *Network) sendReliable(p *peer, from, owner *chord.Node, delay int64, msg Message) {
	f, rto, rng := nw.cfg.Faults, nw.rto, p.frng
	src, dst := from.ID(), owner.ID()
	now := nw.Engine.Now()
	at, hop := now, delay // the current attempt: transmit time and hop delay
	for rung, ladders := 0, 0; nw.partitioned(src, dst, at) || f.DropProb > 0 && rng.Float64() < f.DropProb; {
		p.l.tot.Dropped++
		// The lost attempt's retransmit timer fires RTO<<rung after its
		// hop, jittered on a retransmission.
		wait := rto << rung
		if rung > 0 {
			wait += rng.Int63n(rto/2 + 1)
		}
		at += sim.Time(hop + wait)
		switch {
		case rung < maxRetries:
			rung++
		case nw.partitioned(src, dst, at):
			rung = 0 // an outage is no evidence the peer is gone: no round spent
		case ladders == relMaxLadders:
			p.l.tot.Abandoned++
			return
		default:
			ladders++
			rung = 0
		}
		// A retransmission is one hop, drawn from the fault stream: the
		// regular hop-delay source must not see faults.
		hop = nw.hopDelay(rng)
		p.l.tot.Retransmits++
		if ob := nw.obs; ob != nil {
			// A restarted ladder goes on record as the round after the
			// full ladder it exhausted, so the histogram's tail shows it.
			round := int64(rung)
			if rung == 0 {
				round = int64(maxRetries) + 1
			}
			ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindRetransmit, Node: uint64(src), Arg: round})
		}
	}
	if f.DupProb > 0 && rng.Float64() < f.DupProb {
		p.l.tot.Duplicated++
	}
	if f.SpikeProb > 0 && rng.Float64() < f.SpikeProb {
		hop += rng.Int63n(f.SpikeMax + 1)
	}
	arrive := at + sim.Time(hop)
	if arrive >= p.ackEnd[dst] {
		p.ackEnd[dst] = arrive + sim.Time(ackDelay)
		p.l.tot.AckMessages++
		if ob := nw.obs; ob != nil {
			ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindAck, Node: uint64(dst)})
		}
	}
	nw.Engine.AtCtxShard(arrive, deliverEvent, sim.Ctx{A: nw, B: owner, C: msg}, p.shard, sim.ShardOfID(uint64(owner.ID())))
}

// NextRetransmit reports that no retransmission needs the clock driven
// to it: every attempt is drawn at send time and its delivery is an
// ordinary foreground event, which Run drains. It remains because the
// perfbench overlay probe still calls it.
func (nw *Network) NextRetransmit() (sim.Time, bool) { return 0, false }
