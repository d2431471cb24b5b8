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
// sender) AckDelay window) are charged from the draws, at send time.
//
// A zero-rate plan loses nothing: its first attempt arrives when the
// faults-off delivery would, as the same event, so its schedule is the
// faults-off schedule under churn too.
//
// Shard discipline (parallel engine): everything here is the sender's
// — its fault stream and the end of its open ack window per receiver —
// and is touched only at send time, from the sender's shard. The
// partition list is read-only while events run (AddPartition requires
// a quiescent network).
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
	// Partitions are scheduled link outages; see Partition. More can be
	// added after construction with Network.AddPartition.
	Partitions []Partition
	// RTO is the base retransmit timeout in ticks; 0 derives a bound
	// from the delay model (one round trip at maximum delay plus the
	// ack-coalescing window). Retry k of a lost message leaves
	// RTO<<(k-1), jittered from the second retry on, after the
	// previous attempt's hop.
	RTO int64
	// MaxRetries is the length of one backoff ladder; 0 means 6.
	MaxRetries int
	// AckDelay is the ack-coalescing window in ticks: deliveries from
	// one sender reaching one receiver within it are charged one ack.
	// 0 means 2.
	AckDelay int64
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
	if f.RTO < 0 || f.AckDelay < 0 || f.MaxRetries < 0 {
		return fmt.Errorf("overlay: negative Faults timer parameter (RTO %d, AckDelay %d, MaxRetries %d)",
			f.RTO, f.AckDelay, f.MaxRetries)
	}
	for i, p := range f.Partitions {
		if p.End < p.Start {
			return fmt.Errorf("overlay: Faults.Partitions[%d] window [%d, %d) ends before it starts",
				i, p.Start, p.End)
		}
	}
	return nil
}

// ladder is the plan's resolved retransmission timing.
type ladder struct {
	rto        int64
	maxRetries int
	ackDelay   int64
}

// initFaults resolves the plan's timer parameters. Called from
// NewNetwork when cfg.Faults != nil.
func (nw *Network) initFaults() {
	f := nw.cfg.Faults
	ackDelay := f.AckDelay
	if ackDelay == 0 {
		ackDelay = 2
	}
	rto := f.RTO
	if rto == 0 {
		// One full round trip at worst-case delay — outbound hop with a
		// spike, the coalescing window, the ack hop — plus slack.
		rto = 2*(nw.cfg.MaxHopDelay+f.SpikeMax) + ackDelay + 2
	}
	maxRetries := f.MaxRetries
	if maxRetries == 0 {
		maxRetries = 6
	}
	nw.ladder = &ladder{rto: rto, maxRetries: maxRetries, ackDelay: ackDelay}
}

// AddPartition schedules an additional link partition after
// construction — harnesses that only learn node identifiers once the
// ring is built use this. It is legal only on a quiescent network (no
// foreground event pending, e.g. right after Run): every attempt of a
// message in flight was drawn when it was sent, so a partition added
// later would not apply to it. Coordinator context only.
func (nw *Network) AddPartition(p Partition) error {
	if nw.cfg.Faults == nil {
		return fmt.Errorf("overlay: AddPartition on a network without Faults")
	}
	if p.End < p.Start {
		return fmt.Errorf("overlay: partition window [%d, %d) ends before it starts", p.Start, p.End)
	}
	if n := nw.Engine.PendingForeground(); n > 0 {
		return fmt.Errorf("overlay: AddPartition with %d events in flight; "+
			"their attempts were drawn at send time, so add partitions on a quiescent network", n)
	}
	nw.cfg.Faults.Partitions = append(nw.cfg.Faults.Partitions, p)
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
	f, lad, rng := nw.cfg.Faults, nw.ladder, p.frng
	src, dst := from.ID(), owner.ID()
	now := nw.Engine.Now()
	at, hop := now, delay // the current attempt: transmit time and hop delay
	for rung, ladders := 0, 0; nw.partitioned(src, dst, at) || f.DropProb > 0 && rng.Float64() < f.DropProb; {
		p.l.tot.Dropped++
		// The lost attempt's retransmit timer fires RTO<<rung after its
		// hop, jittered on a retransmission.
		wait := lad.rto << rung
		if rung > 0 {
			wait += rng.Int63n(lad.rto/2 + 1)
		}
		at += sim.Time(hop + wait)
		switch {
		case rung < lad.maxRetries:
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
				round = int64(lad.maxRetries) + 1
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
		p.ackEnd[dst] = arrive + sim.Time(lad.ackDelay)
		p.l.tot.AckMessages++
		if ob := nw.obs; ob != nil {
			ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindAck, Node: uint64(dst)})
		}
	}
	nw.Engine.AtCtxShard(arrive, deliverEvent, sim.Ctx{A: nw, B: owner, C: msg}, p.shard, nw.shardOf(owner))
}

// NextRetransmit reports that no retransmission needs the clock driven
// to it: every attempt is drawn at send time and its delivery is an
// ordinary foreground event, which Run drains. It remains because the
// perfbench overlay probe still calls it.
func (nw *Network) NextRetransmit() (sim.Time, bool) { return 0, false }
