// Unreliable-network mode: deterministic fault injection and the
// end-to-end reliable delivery machinery that masks it.
//
// With Config.Faults set, every routed or direct send (Send, MultiSend,
// SendDirect, batched flushes — everything except node-local
// deliveries; Handoff and ReplicateTo only charge) runs over a
// per-(source, destination) sequence-numbered channel. The transmission
// of each sequence number is subject to the fault plan: a Bernoulli drop
// draw, a duplication draw, a delay-spike draw, and scheduled link
// partitions between node sets. All draws come from a dedicated
// per-node counter-based stream (salt faultSalt), so enabling faults
// perturbs neither the hop-delay nor the placement draw sequences, and a
// faulty run replays bit-identically for a given seed and worker count.
//
// Masking is classic ARQ. The receiver suppresses duplicate sequence
// numbers with a reliable.Dedup filter and acknowledges cumulatively —
// a coalesced ack message per (receiver, sender) pair after AckDelay
// ticks, plus a piggybacked watermark on every reverse-direction
// envelope. The sender retains each message until acknowledged and
// retransmits on a timer with exponential backoff and jitter.
//
// Everything except a first transmission is a background event: acks,
// retransmit timers and retransmitted copies all execute as the clock
// passes them but never stall quiescence detection or extend a drain.
// This is what keeps the all-zero plan bit-identical to a faults-off
// run — the application schedule quiesces at exactly the same instant,
// with the transport's bookkeeping tail left pending on the heap. The
// core engine's drain loop makes lost payloads terminal anyway: when
// foreground work runs dry it asks NextRetransmit for the earliest
// deadline of an entry the receiver has *not* seen (an entry that is
// merely unacknowledged needs no clock driving; its ack is already
// scheduled) and advances the clock there, repeating until every
// payload is delivered or abandoned. A sender whose ladder is exhausted
// presumes the peer dead and escalates into the bounce path: the
// message is re-routed to the current owner of its ring key on a fresh
// channel. If ground truth says the original peer still owns the key
// (the acks were lost, not the peer), the ladder resets on the same
// channel instead — the receiver-side dedup keeps masking the
// duplicates — for at most relMaxLadders rounds, after which the
// message is abandoned so a black-holed peer cannot spin the
// simulation forever.
//
// Shard discipline (parallel engine): a channel's sender-side state —
// its retained entries and its membership in the sender's busy set — is
// touched only at send time, at ack arrival, and by retransmit timers —
// all events bound to the sender's shard. Receiver-side state is
// touched only at envelope delivery and ack emission — both bound to
// the receiver's shard. Fault counters ride the acting peer's lane like
// all overlay accounting.
package overlay

import (
	"fmt"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/obs"
	"rjoin/internal/reliable"
	"rjoin/internal/sim"
)

// faultSalt keys the per-node fault-injection streams; distinct from the
// hop-delay (0x0e7a) and placement (0x91ac) salts so enabling faults
// cannot perturb either draw sequence.
const faultSalt = 0xfa17

// relMaxLadders bounds how many times an exhausted retransmit ladder may
// reset against a peer that ground truth still says owns the key. It is
// a termination guard, not a tuning knob: at any drop rate the plan can
// express, losing every transmission and every ack of that many ladders
// is beyond astronomically unlikely, but a deliberately black-holed
// receiver (alive, detached handler) must not keep the drain loop alive
// forever.
const relMaxLadders = 8

// Partition is one scheduled link partition: while the virtual clock is
// in [Start, End), every transmission between a node in Side and a node
// outside it is dropped — payload envelopes, retransmissions and acks
// alike. Ring membership and ground-truth lookups are unaffected: the
// partition models transport loss, not failure detection.
type Partition struct {
	Start, End sim.Time
	Side       map[id.ID]bool
}

// Faults is the fault-injection plan. All probabilities are per
// transmission (retransmissions draw afresh) and must lie in [0, 1].
// The zero plan (all rates zero, no partitions) injects nothing but
// still runs every send through the reliable channel machinery; the
// delivered schedule, traffic metric and answer stream are then
// identical to a faults-off run.
type Faults struct {
	// DropProb is the probability a transmission is lost.
	DropProb float64
	// DupProb is the probability a transmission is duplicated (one
	// extra copy, suppressed by receiver-side dedup).
	DupProb float64
	// SpikeProb is the probability a transmission's delay is inflated
	// by a uniform draw from [0, SpikeMax] extra ticks.
	SpikeProb float64
	SpikeMax  int64
	// Partitions are scheduled link outages; see Partition. More can be
	// added after construction with Network.AddPartition.
	Partitions []Partition
	// RTO is the base retransmit timeout in ticks; 0 derives a bound
	// from the delay model (one round trip at maximum delay plus the
	// ack-coalescing window). Retry k waits RTO<<k plus jitter.
	RTO int64
	// MaxRetries is the length of one backoff ladder; 0 means 6.
	MaxRetries int
	// AckDelay is the ack-coalescing window in ticks; 0 means 2.
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

// relState is the network's reliable-channel state: the resolved timer
// parameters, plus every peer's channel registry in creation order.
type relState struct {
	order      []*relNode // every peer's rel: NextRetransmit ranges a slice several times faster than the peers map
	rto        int64
	maxRetries int
	ackDelay   int64
}

// relNode is one node's channel state: its private fault stream, its
// sender-side channels by destination, and its receiver-side channels
// by source. It is created with its peer record, from coordinator
// context; its interior is touched only by its own shard.
//
// busy is the subset of tx holding at least one unacknowledged entry —
// what NextRetransmit ranges over instead of every channel that ever
// spoke. It changes exactly where a channel's unacked map goes from
// empty to non-empty or back (retain, release), so it is sender-shard
// state like the entries themselves.
type relNode struct {
	id   id.ID
	rng  *sim.RNG
	tx   map[id.ID]*txChan
	rx   map[id.ID]*rxChan
	busy map[id.ID]*txChan
}

// txChan is the sender side of one (src → dst) channel.
type txChan struct {
	dst     *chord.Node
	next    uint64 // last assigned sequence number
	unacked map[uint64]*txEntry
}

// txEntry is one retained, not-yet-acknowledged message.
type txEntry struct {
	seq      uint64
	msg      Message
	retries  int      // position on the current backoff ladder
	ladders  int      // exhausted ladders reset against a live same-owner peer
	deadline sim.Time // when the armed retransmit timer fires
}

// rxChan is the receiver side of one (src → dst) channel.
type rxChan struct {
	src          *chord.Node
	dedup        reliable.Dedup
	ackScheduled bool
}

// relEnv is the wire envelope of one reliable transmission. The ack
// field piggybacks the sender's receive watermark for the reverse
// channel, so steady bidirectional traffic self-acknowledges.
type relEnv struct {
	src *chord.Node
	seq uint64
	ack uint64
	msg Message
}

// relAck is a standalone cumulative acknowledgment.
type relAck struct {
	from *chord.Node // the acknowledging receiver
	cum  uint64
}

// relTimer identifies the channel entry a retransmit timer guards.
type relTimer struct {
	src *chord.Node
	dst id.ID
	seq uint64
}

// initFaults resolves the plan's timer parameters and allocates the
// channel registry. Called from NewNetwork when cfg.Faults != nil.
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
	nw.rel = &relState{
		rto:        rto,
		maxRetries: maxRetries,
		ackDelay:   ackDelay,
	}
}

// AddPartition schedules an additional link partition after
// construction — harnesses that only learn node identifiers once the
// ring is built use this. Coordinator context only.
func (nw *Network) AddPartition(p Partition) error {
	if nw.cfg.Faults == nil {
		return fmt.Errorf("overlay: AddPartition on a network without Faults")
	}
	if p.End < p.Start {
		return fmt.Errorf("overlay: partition window [%d, %d) ends before it starts", p.Start, p.End)
	}
	nw.cfg.Faults.Partitions = append(nw.cfg.Faults.Partitions, p)
	return nil
}

// partitioned reports whether a transmission between x and y is blocked
// by an active partition window at time now.
func (nw *Network) partitioned(x, y id.ID, now sim.Time) bool {
	for i := range nw.cfg.Faults.Partitions {
		p := &nw.cfg.Faults.Partitions[i]
		if now >= p.Start && now < p.End && p.Side[x] != p.Side[y] {
			return true
		}
	}
	return false
}

// newRelNode creates the channel state of a new peer record, deriving
// its fault stream.
func (nw *Network) newRelNode(n id.ID) *relNode {
	rn := &relNode{
		id:   n,
		rng:  sim.NewRNG(nw.Engine.Seed(), uint64(n), faultSalt),
		tx:   make(map[id.ID]*txChan),
		rx:   make(map[id.ID]*rxChan),
		busy: make(map[id.ID]*txChan),
	}
	nw.rel.order = append(nw.rel.order, rn)
	return rn
}

// relHop draws a single-hop delay for transport-control traffic
// (retransmissions, acks) from the node's fault stream. The regular
// hop-delay source is deliberately not used: enabling faults must not
// perturb its draw sequence.
func (nw *Network) relHop(rng *sim.RNG) int64 {
	if nw.cfg.MaxHopDelay == nw.cfg.MinHopDelay {
		return nw.cfg.MinHopDelay
	}
	return nw.cfg.MinHopDelay + rng.Int63n(nw.cfg.MaxHopDelay-nw.cfg.MinHopDelay+1)
}

// sendReliable opens (or continues) the (from → owner) channel with one
// retained message: assign the next sequence number, transmit under the
// fault plan, and arm the first retransmit timer. delay is the routed
// delivery delay already charged by the caller.
func (nw *Network) sendReliable(p *peer, from, owner *chord.Node, delay int64, msg Message) {
	rn := p.rel
	tc, ok := rn.tx[owner.ID()]
	if !ok {
		tc = &txChan{dst: owner, unacked: make(map[uint64]*txEntry)}
		rn.tx[owner.ID()] = tc
	}
	tc.next++
	e := &txEntry{seq: tc.next, msg: msg}
	rn.retain(tc, e)
	nw.transmit(p, from, tc.dst, e.seq, delay, msg, false)
	nw.armTimer(p, from, owner.ID(), e, delay+nw.rel.rto)
}

// transmit puts one copy of a channel sequence number on the wire,
// subject to the fault plan: partition windows and the drop draw lose
// it, the duplication draw adds a second copy, the spike draw inflates
// a copy's delay. Every draw comes from the sender's fault stream. A
// first transmission delivers as a foreground event (it is the
// application's work); retransmissions are background — they must not
// perturb quiescence, which is what keeps a zero-rate plan's clock
// identical to a faults-off run even when a timer fires spuriously.
func (nw *Network) transmit(p *peer, src, dst *chord.Node, seq uint64, delay int64, msg Message, retx bool) {
	f, rn := nw.cfg.Faults, p.rel
	now := nw.Engine.Now()
	if nw.partitioned(src.ID(), dst.ID(), now) {
		p.l.tot.Dropped++
		return
	}
	if f.DropProb > 0 && rn.rng.Float64() < f.DropProb {
		p.l.tot.Dropped++
		return
	}
	copies := 1
	if f.DupProb > 0 && rn.rng.Float64() < f.DupProb {
		copies = 2
		p.l.tot.Duplicated++
	}
	var ack uint64
	if rx, ok := rn.rx[dst.ID()]; ok {
		ack = rx.dedup.Cum()
	}
	env := &relEnv{src: src, seq: seq, ack: ack, msg: msg}
	dstShard := nw.shardOf(dst)
	for i := 0; i < copies; i++ {
		d := delay
		if f.SpikeProb > 0 && rn.rng.Float64() < f.SpikeProb {
			d += rn.rng.Int63n(f.SpikeMax + 1)
		}
		if retx {
			nw.Engine.AfterCtxShardBg(d, deliverReliableEvent, sim.Ctx{A: nw, B: dst, C: env}, p.shard, dstShard)
		} else {
			nw.Engine.AfterCtxShard(d, deliverReliableEvent, sim.Ctx{A: nw, B: dst, C: env}, p.shard, dstShard)
		}
	}
}

// armTimer schedules the retransmit timer guarding one entry, after
// ticks from now, as a background event in the sender's shard (p is
// the sender's record).
func (nw *Network) armTimer(p *peer, src *chord.Node, dst id.ID, e *txEntry, after int64) {
	e.deadline = nw.Engine.Now() + sim.Time(after)
	tm := &relTimer{src: src, dst: dst, seq: e.seq}
	nw.Engine.AtCtxShardBg(e.deadline, relTimerEvent, sim.Ctx{A: nw, B: tm}, p.shard, p.shard)
}

// deliverReliableEvent completes one envelope's delivery at the
// receiver: apply the piggybacked ack, suppress duplicates, schedule a
// coalesced ack, and hand a first-time payload to the handler. A dead
// or detached receiver acknowledges nothing — the sender's ladder
// handles it.
func deliverReliableEvent(now sim.Time, c sim.Ctx) {
	nw := c.A.(*Network)
	owner := c.B.(*chord.Node)
	env := c.C.(*relEnv)
	p := nw.peerFor(owner.ID())
	rn := p.rel
	if env.ack > 0 {
		rn.ackUpTo(env.src.ID(), env.ack)
	}
	if p.h == nil || !owner.Alive() {
		return
	}
	rx, ok := rn.rx[env.src.ID()]
	if !ok {
		rx = &rxChan{src: env.src}
		rn.rx[env.src.ID()] = rx
	}
	first := rx.dedup.Mark(env.seq)
	nw.scheduleAck(p, owner, rx)
	if !first {
		return // duplicate suppressed
	}
	nw.handOver(p, owner, now, env.msg)
}

// retain adds one entry to a channel's retransmit buffer.
func (rn *relNode) retain(tc *txChan, e *txEntry) {
	if len(tc.unacked) == 0 {
		rn.busy[tc.dst.ID()] = tc
	}
	tc.unacked[e.seq] = e
}

// release drops one entry from a channel's retransmit buffer:
// acknowledged, re-routed or abandoned.
func (rn *relNode) release(tc *txChan, seq uint64) {
	delete(tc.unacked, seq)
	if len(tc.unacked) == 0 {
		delete(rn.busy, tc.dst.ID())
	}
}

// ackUpTo releases every entry retained for dst that the cumulative
// watermark covers. Only a busy channel can hold any.
func (rn *relNode) ackUpTo(dst id.ID, cum uint64) {
	tc, ok := rn.busy[dst]
	if !ok {
		return
	}
	for seq := range tc.unacked {
		if seq <= cum {
			rn.release(tc, seq)
		}
	}
}

// settle is a departing receiver's last acknowledgment: at every sender,
// each retained entry the node has already received is released. Its
// coalesced acks die with it (ackSendEvent sends none for a dead node),
// and an entry left to run its ladder would escalate to the key's new
// owner — a second delivery of a message whose effects already travel
// with the node's state: handed over, promoted, or counted lost.
// Releasing draws nothing and schedules nothing, so the order of the
// two map walks cannot show. Coordinator context only, like Detach.
func (nw *Network) settle(p *peer, n id.ID) {
	for src, rx := range p.rel.rx {
		sender := nw.peers[src].rel
		tc, ok := sender.busy[n]
		if !ok {
			continue
		}
		for seq := range tc.unacked {
			if rx.dedup.Seen(seq) {
				sender.release(tc, seq)
			}
		}
	}
}

// scheduleAck arms the receiver's coalesced ack for one channel, unless
// one is already pending. The ack event is background: it flows as the
// clock passes it, but a trailing ack never extends a drain — the
// sender-side entry it would clear is already marked seen on the
// receiver, which is what NextRetransmit consults.
func (nw *Network) scheduleAck(p *peer, owner *chord.Node, rx *rxChan) {
	if rx.ackScheduled {
		return
	}
	rx.ackScheduled = true
	nw.Engine.AfterCtxShardBg(nw.rel.ackDelay, ackSendEvent,
		sim.Ctx{A: nw, B: owner, C: rx}, p.shard, p.shard)
}

// ackSendEvent emits one coalesced cumulative ack. The ack itself rides
// the faulty network: partition windows and the drop draw can lose it
// (the sender's retransmission will provoke another).
func ackSendEvent(now sim.Time, c sim.Ctx) {
	nw := c.A.(*Network)
	owner := c.B.(*chord.Node)
	rx := c.C.(*rxChan)
	rx.ackScheduled = false
	if !owner.Alive() {
		return
	}
	p := nw.peerFor(owner.ID())
	rn := p.rel
	p.l.tot.AckMessages++
	if ob := nw.obs; ob != nil {
		// Arg annotates the ack with the receiver's out-of-order backlog —
		// how many sequence numbers the dedup filter holds above the
		// cumulative watermark this ack carries.
		ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindAck, Node: uint64(owner.ID()), Arg: int64(rx.dedup.Outstanding())})
	}
	if nw.partitioned(owner.ID(), rx.src.ID(), now) {
		p.l.tot.Dropped++
		return
	}
	f := nw.cfg.Faults
	if f.DropProb > 0 && rn.rng.Float64() < f.DropProb {
		p.l.tot.Dropped++
		return
	}
	ack := &relAck{from: owner, cum: rx.dedup.Cum()}
	nw.Engine.AfterCtxShardBg(nw.relHop(rn.rng), ackDeliverEvent,
		sim.Ctx{A: nw, B: rx.src, C: ack}, p.shard, nw.shardOf(rx.src))
}

// ackDeliverEvent applies a standalone ack at the original sender.
func ackDeliverEvent(_ sim.Time, c sim.Ctx) {
	nw := c.A.(*Network)
	src := c.B.(*chord.Node)
	ack := c.C.(*relAck)
	nw.peerFor(src.ID()).rel.ackUpTo(ack.from.ID(), ack.cum)
}

// relTimerEvent fires a retransmit timer: a still-unacknowledged entry
// is retransmitted with exponential backoff and jitter; an exhausted
// ladder escalates.
func relTimerEvent(now sim.Time, c sim.Ctx) {
	nw := c.A.(*Network)
	tm := c.B.(*relTimer)
	p := nw.peerFor(tm.src.ID())
	rn := p.rel
	tc, ok := rn.tx[tm.dst]
	if !ok {
		return
	}
	e, ok := tc.unacked[tm.seq]
	if !ok || e.deadline != now {
		return // acknowledged, or superseded by a re-armed timer
	}
	if e.retries >= nw.rel.maxRetries {
		nw.escalate(p, tc, tm, e)
		return
	}
	e.retries++
	delay := nw.retransmit(p, now, tm, tc, e, int64(e.retries))
	backoff := nw.rel.rto << e.retries
	jitter := rn.rng.Int63n(nw.rel.rto/2 + 1)
	nw.armTimer(p, tm.src, tm.dst, e, delay+backoff+jitter)
}

// retransmit resends one unacknowledged entry as the given round of its
// ladder, and returns the delay of the transmission.
func (nw *Network) retransmit(p *peer, now sim.Time, tm *relTimer, tc *txChan, e *txEntry, round int64) int64 {
	p.l.tot.Retransmits++
	if ob := nw.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindRetransmit, Node: uint64(tm.src.ID()), Arg: round})
	}
	delay := nw.relHop(p.rel.rng)
	nw.transmit(p, tm.src, tc.dst, e.seq, delay, e.msg, true)
	return delay
}

// escalate handles an exhausted backoff ladder. During an active
// partition the outage is the known cause: the ladder resets without
// consuming an escalation round and probing continues until the window
// heals. Otherwise the sender consults ring ground truth for the
// message's key: a peer that still owns it gets a fresh ladder on the
// same channel (sequence preserved, so receiver-side dedup keeps
// masking); a departed peer's message re-routes to the key's current
// owner over a fresh channel, exactly the bounce path — the dead peer
// never processed these deliveries (what it had was released when it
// detached, see settle), so the re-send cannot duplicate.
func (nw *Network) escalate(p *peer, tc *txChan, tm *relTimer, e *txEntry) {
	now, rn := nw.Engine.Now(), p.rel
	if nw.partitioned(tm.src.ID(), tm.dst, now) {
		e.retries = 0
		nw.armTimer(p, tm.src, tm.dst, e, nw.rel.rto<<nw.rel.maxRetries)
		return
	}
	rk, rekeyable := e.msg.(Rekeyable)
	var owner *chord.Node
	if rekeyable {
		owner = nw.Ring.Owner(rk.RingKey())
	}
	if owner != nil && owner.ID() == tm.dst {
		if e.ladders >= relMaxLadders {
			rn.release(tc, tm.seq)
			p.l.tot.Abandoned++
			return
		}
		e.ladders++
		e.retries = 0
		// A fresh ladder restarts the count; it goes on record as the
		// round after the full ladder it exhausted, so the histogram's
		// tail shows escalations.
		delay := nw.retransmit(p, now, tm, tc, e, int64(nw.rel.maxRetries)+1)
		nw.armTimer(p, tm.src, tm.dst, e, delay+nw.rel.rto)
		return
	}
	rn.release(tc, tm.seq)
	if owner == nil {
		p.l.tot.Abandoned++
		return // not rekeyable, or the ring is empty: the message is lost
	}
	p.l.tot.Bounced++
	p.l.tot.MessagesSent++
	p.l.charge(owner.ID(), 1)
	if owner == tm.src {
		nw.deliver(p, owner, 0, e.msg) // the key came home; deliver locally
		return
	}
	nw.sendReliable(p, tm.src, owner, nw.relHop(rn.rng), e.msg)
}

// NextRetransmit returns the earliest outstanding retransmit deadline
// of an entry whose payload the receiver has not seen — an entry that
// is merely unacknowledged has its (background) ack already on the
// heap and needs no clock driving. The core engine's drain loop
// advances the clock here when foreground work runs dry, so every lost
// payload is retransmitted, escalated or abandoned before Run returns.
// Only busy channels are visited, so the cost follows what is in
// flight, not how many (src, dst) pairs ever spoke.
// Coordinator context only: the cross-shard read of receiver dedup
// state is safe because the simulation is quiescent between drains.
func (nw *Network) NextRetransmit() (sim.Time, bool) {
	if !nw.Lossy() {
		return 0, false
	}
	var best sim.Time
	found := false
	for _, rn := range nw.rel.order {
		if len(rn.busy) == 0 {
			continue // starting a range over an empty map is not free; this is the idle path
		}
		for dstID, tc := range rn.busy {
			var rx *rxChan
			if dst, ok := nw.peers[dstID]; ok {
				rx = dst.rel.rx[rn.id]
			}
			for seq, e := range tc.unacked {
				if rx != nil && rx.dedup.Seen(seq) {
					continue // delivered; the pending ack will clear it
				}
				if !found || e.deadline < best {
					best, found = e.deadline, true
				}
			}
		}
	}
	return best, found
}

// Lossy reports whether the network runs in unreliable mode. The core
// engine gates message-struct recycling on it: a sender retains its
// payload pointers for retransmission, so pooled reuse would corrupt
// retained copies.
func (nw *Network) Lossy() bool { return nw.cfg.Faults != nil }
