// Package overlay implements the messaging API of the paper (Section 2)
// on top of the Chord substrate:
//
//	send(msg, id)        — deliver msg to Successor(id) in O(log N) hops
//	multiSend(msg, I)    — deliver msg to every Successor(Ij)
//	multiSend(M, I)      — deliver Mj to Successor(Ij), optionally
//	                       grouping deliveries along the ring
//	sendDirect(msg, addr)— deliver msg to a known node in one hop
//
// Every hop is charged to the sending node's traffic counter exactly as
// the paper defines network traffic ("messages that n creates due to
// RJoin ... and messages that n has to route due to the DHT routing
// protocols"), and every hop adds a bounded random delay on the virtual
// clock, realising the relaxed asynchronous model with maximum delay δ.
//
// Everything the network keeps for one ring identifier lives in one
// peer record — handler, scheduling shard, accounting lane, hop-delay
// stream and (under Faults) fault stream and ack windows —
// and every operation resolves the acting node's record once and counts
// through its lane: traffic charges, the active traffic tag, the integer
// totals and the lookup scratch buffers. Lane 0 is the aggregate itself
// (its loads are the public Traffic and tagged counters, its totals the
// public integer fields), and a serial network has no other; on a
// parallel engine (sim.Engine with workers) every logical shard gets a
// lane of its own, so concurrent handlers never share mutable state, and
// Sync — which the core engine calls after every drain — folds them into
// lane 0. There hop-delay draws also come from the acting node's private
// counter-based stream instead of the engine's shared source, making the
// draw sequence independent of scheduling interleave.
package overlay

import (
	"fmt"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/metrics"
	"rjoin/internal/obs"
	"rjoin/internal/sim"
)

// Message is an opaque payload delivered to a node's handler.
type Message interface{}

// Rekeyable is implemented by messages that can survive the death of
// their addressee: RingKey returns the ring identifier the message is
// semantically bound to (the index key of a tuple or query, the owner
// identifier of an answer), so an undeliverable copy can be bounced to
// the node currently responsible for that point of the ring. Messages
// without a RingKey are dropped when their recipient is gone.
type Rekeyable interface {
	RingKey() id.ID
}

// Handler consumes messages delivered to one node.
type Handler interface {
	HandleMessage(now sim.Time, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(now sim.Time, msg Message)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(now sim.Time, msg Message) { f(now, msg) }

// Config tunes the message-delay model and optimizations.
type Config struct {
	// MinHopDelay/MaxHopDelay bound the virtual-time delay of a single
	// hop. MaxHopDelay is the per-hop δ of the asynchronous model.
	MinHopDelay int64
	MaxHopDelay int64
	// Bounce re-routes undeliverable Rekeyable messages — sends whose
	// recipient left or crashed before delivery — to the node currently
	// responsible for the message's ring key, instead of dropping them.
	// Required under churn; in a static converged ring it never fires.
	// Off by default so failure-injection tests keep drop semantics.
	Bounce bool
	// Faults switches the network to unreliable mode: transmissions are
	// dropped, duplicated, delayed and partitioned per the plan, and
	// every keyed or direct send is masked by a retransmission ladder
	// drawn at send time (see faults.go). Requires Bounce — a ladder can
	// hold a message well past its receiver's departure, and the bounce
	// path is what carries it on to the key's new owner. Nil keeps the
	// exact reliable-network behavior.
	Faults *Faults
	// Obs, when non-nil, receives a record for the transport-level
	// activity the core layer cannot see: every routed send, hop and
	// delivery (the hop-count histogram and the per-tag and per-node rate
	// series), bounces of undeliverable messages, replication fan-out,
	// retransmissions and acknowledgments. NewNetwork binds it to the
	// event engine. Nil disables observability at zero cost.
	Obs *obs.Recorder
}

// DefaultConfig is a deterministic single-tick-per-hop network, the
// configuration the experiments run under.
func DefaultConfig() Config {
	return Config{MinHopDelay: 1, MaxHopDelay: 1}
}

// totals are the network-wide integer counts. Network embeds the
// aggregate instance, so they read as nw.MessagesSent and so on; every
// write goes through the acting lane's pointer to its own instance.
type totals struct {
	// MessagesSent counts every point-to-point transmission, i.e. the
	// network-wide total of the traffic metric.
	MessagesSent int64
	// Delivered counts end-to-end deliveries (one per Send/SendDirect,
	// one per target for MultiSend).
	Delivered int64
	// Bounced counts undeliverable messages re-routed to the current
	// owner of their ring key (see Config.Bounce).
	Bounced int64

	// Unreliable-mode transport accounting (zero when Faults is nil).
	// These count transport-level work and are deliberately kept out of
	// MessagesSent and the Traffic metric, so application-traffic
	// figures stay comparable across fault plans; FigLossy reports the
	// overhead from these counters explicitly.
	//
	// Dropped counts transmissions lost to the fault plan — drop draws
	// and partition windows.
	Dropped int64
	// Duplicated counts injected duplicate copies (charged, not
	// delivered: receiver-side dedup would absorb them).
	Duplicated int64
	// Retransmits counts retransmitted attempts.
	Retransmits int64
	// AckMessages counts coalesced acknowledgments: one per (receiver,
	// sender) ack window with a delivery in it.
	AckMessages int64
	// Abandoned counts messages given up on after exhausting every
	// retransmit ladder — zero in any run the exactness guarantees cover.
	Abandoned int64
}

// add accumulates o into t (the Sync merge; addition commutes).
func (t *totals) add(o *totals) {
	t.MessagesSent += o.MessagesSent
	t.Delivered += o.Delivered
	t.Bounced += o.Bounced
	t.Dropped += o.Dropped
	t.Duplicated += o.Duplicated
	t.Retransmits += o.Retransmits
	t.AckMessages += o.AckMessages
	t.Abandoned += o.Abandoned
}

// lane is one accounting context. Every mutation the message layer
// performs on behalf of an acting node — traffic charges, tag scoping,
// integer totals, lookup and grouped-send scratch — goes to that node's
// lane. Lane 0 aliases the network's aggregates and serves every node
// of a serial network; a parallel network adds one lane per logical
// shard, which the sub-round schedule guarantees is touched by at most
// one worker at a time.
type lane struct {
	traffic *metrics.Load
	tagged  map[string]*metrics.Load
	tot     *totals
	tag     string
	legs    []leg         // scratch for grouped multiSend, reused across calls
	path    []*chord.Node // scratch for one lookup's hop path, consumed by chargePath
}

// tagLoad returns the lane's counter for a traffic tag, creating it on
// first use.
func (l *lane) tagLoad(tag string) *metrics.Load {
	tl, ok := l.tagged[tag]
	if !ok {
		tl = metrics.NewLoad()
		l.tagged[tag] = tl
	}
	return tl
}

// charge attributes n sent messages to a node, and to the lane's active
// traffic tag if one is set.
func (l *lane) charge(node id.ID, n int64) {
	l.traffic.Add(node, n)
	if l.tag != "" {
		l.tagLoad(l.tag).Add(node, n)
	}
}

// peer is everything the network keeps for one ring identifier. shard,
// l, rng and frng derive from the identifier and never change; h is set
// and cleared by Attach and Detach. Records are never deleted: a
// departed node's in-flight messages still bounce through its record,
// drawing from its stream and counting in its lane.
type peer struct {
	h     Handler  // nil while detached
	shard int      // scheduling shard; sim.NoShard on a serial engine
	l     *lane    // accounting lane of that shard
	rng   *sim.RNG // hop-delay stream; nil on a serial network (the engine's shared source draws)
	frng  *sim.RNG // fault stream; nil unless Config.Faults
	// ackEnd is, per receiver, the end of the open ack-coalescing window
	// of this node's deliveries there; nil unless Config.Faults.
	ackEnd map[id.ID]sim.Time
}

// Network binds a Chord ring to the event engine and implements the
// messaging API.
type Network struct {
	Ring    *chord.Ring
	Engine  *sim.Engine
	Traffic *metrics.Load
	totals
	cfg Config

	peers map[id.ID]*peer
	lanes []lane // lanes[0] is the aggregate; lanes[s+1] belongs to shard s

	rto int64 // base retransmit timeout (faults.go); 0 when Faults is nil

	obs *obs.Recorder // Config.Obs; nil unless observability is on
}

// NewNetwork creates an overlay over an existing ring and engine. The
// delay bounds must satisfy 0 <= MinHopDelay <= MaxHopDelay; inverted
// or negative bounds are rejected, matching the public API's contract
// rather than silently repairing them.
func NewNetwork(ring *chord.Ring, engine *sim.Engine, cfg Config) (*Network, error) {
	if cfg.MinHopDelay < 0 || cfg.MaxHopDelay < 0 {
		return nil, fmt.Errorf("overlay: negative hop delay bound [%d, %d]",
			cfg.MinHopDelay, cfg.MaxHopDelay)
	}
	if cfg.MaxHopDelay < cfg.MinHopDelay {
		return nil, fmt.Errorf("overlay: MinHopDelay %d exceeds MaxHopDelay %d",
			cfg.MinHopDelay, cfg.MaxHopDelay)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(); err != nil {
			return nil, err
		}
		if !cfg.Bounce {
			return nil, fmt.Errorf("overlay: Faults requires the bounce path " +
				"(retransmit escalation re-routes by ring key); set Config.Bounce = true")
		}
	}
	nw := &Network{
		Ring:    ring,
		Engine:  engine,
		Traffic: metrics.NewLoad(),
		cfg:     cfg,
		peers:   make(map[id.ID]*peer),
		lanes:   make([]lane, 1),
		obs:     cfg.Obs,
	}
	nw.obs.Bind(engine)
	if engine.Workers() > 0 {
		nw.lanes = make([]lane, sim.ShardSlots)
	}
	nw.lanes[0] = lane{traffic: nw.Traffic, tagged: make(map[string]*metrics.Load), tot: &nw.totals}
	for i := range nw.lanes[1:] {
		nw.lanes[1+i] = lane{traffic: metrics.NewLoad(), tagged: make(map[string]*metrics.Load), tot: new(totals)}
	}
	if f := cfg.Faults; f != nil {
		// One full round trip at worst-case delay — outbound hop with a
		// spike, the coalescing window, the ack hop — plus slack.
		nw.rto = 2*(cfg.MaxHopDelay+f.SpikeMax) + ackDelay + 2
	}
	return nw, nil
}

// MustNetwork is NewNetwork that panics on error, for tests and
// harnesses whose configs are correct by construction.
func MustNetwork(ring *chord.Ring, engine *sim.Engine, cfg Config) *Network {
	nw, err := NewNetwork(ring, engine, cfg)
	if err != nil {
		panic(err)
	}
	return nw
}

// peerFor resolves the record of the node an operation acts as or
// delivers to. A node that was never Attached gets a handler-less record
// on first use (tests inject failures that way); that write is safe only
// from coordinator context, so on a parallel network every node must be
// Attached before it sends or receives — every ring node is.
func (nw *Network) peerFor(n id.ID) *peer {
	if p, ok := nw.peers[n]; ok {
		return p
	}
	return nw.newPeer(n)
}

// newPeer creates the record of an identifier: its shard and lane, and
// the streams that derive from (seed, identifier).
func (nw *Network) newPeer(n id.ID) *peer {
	p := &peer{shard: nw.Engine.ShardOf(uint64(n))}
	p.l = &nw.lanes[p.shard+1]
	if nw.Engine.Workers() > 0 {
		p.rng = sim.NewRNG(nw.Engine.Seed(), uint64(n), 0x0e7a)
	}
	if nw.cfg.Faults != nil {
		p.frng = sim.NewRNG(nw.Engine.Seed(), uint64(n), faultSalt)
		p.ackEnd = make(map[id.ID]sim.Time)
	}
	nw.peers[n] = p
	return p
}

// Attach registers the message handler for a node, creating its peer
// record — and with it the node's private streams — or reviving the one
// an earlier holder of the identifier left behind. A node without a
// handler silently drops deliveries (tests rely on this for failure
// injection).
func (nw *Network) Attach(n *chord.Node, h Handler) { nw.peerFor(n.ID()).h = h }

// Detach removes a node's handler. The rest of the record outlives it,
// so messages bounced off a departed node still draw deterministically.
func (nw *Network) Detach(n *chord.Node) {
	if p, ok := nw.peers[n.ID()]; ok {
		p.h = nil
	}
}

// hopDelay draws one hop's delay: from the acting node's private stream
// on a parallel network, from the engine's shared source otherwise.
func (nw *Network) hopDelay(rng *sim.RNG) int64 {
	if nw.cfg.MaxHopDelay == nw.cfg.MinHopDelay {
		return nw.cfg.MinHopDelay
	}
	spread := nw.cfg.MaxHopDelay - nw.cfg.MinHopDelay + 1
	if rng != nil {
		return nw.cfg.MinHopDelay + rng.Int63n(spread)
	}
	return nw.cfg.MinHopDelay + nw.Engine.Rand().Int63n(spread)
}

// chargePath charges one sent message to the origin and to every
// intermediate router on the path (the final element of path is the
// recipient, which receives rather than sends; an empty path is a local
// delivery with no transmission), and returns the total virtual delay
// of the walk.
func (nw *Network) chargePath(p *peer, from *chord.Node, path []*chord.Node) int64 {
	senders := int64(len(path)) // origin + intermediates
	p.l.tot.MessagesSent += senders
	if ob := nw.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{At: nw.Engine.Now(), Kind: obs.KindRoute, Key: p.l.tag, Arg: senders})
	}
	var delay int64
	if len(path) > 0 {
		p.l.charge(from.ID(), 1)
		delay += nw.hopDelay(p.rng)
		for _, hop := range path[:len(path)-1] {
			p.l.charge(hop.ID(), 1)
			delay += nw.hopDelay(p.rng)
		}
	}
	return delay
}

// chargeHop charges one single-hop transmission to node, on behalf of
// the acting peer.
func (nw *Network) chargeHop(p *peer, node id.ID) {
	p.l.charge(node, 1)
	p.l.tot.MessagesSent++
	if ob := nw.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{At: nw.Engine.Now(), Kind: obs.KindHop, Key: p.l.tag})
	}
}

// deliverEvent completes a delivery at its scheduled time. It is a
// package-level CtxFunc so scheduling a delivery allocates nothing —
// the network, recipient and payload ride in the event's inline Ctx.
// A recipient that died while the message was in flight triggers the
// bounce path; a recipient that is alive but detached (failure
// injection in tests) still drops the message silently.
func deliverEvent(now sim.Time, c sim.Ctx) {
	nw := c.A.(*Network)
	owner := c.B.(*chord.Node)
	p := nw.peerFor(owner.ID())
	if p.h != nil && owner.Alive() {
		nw.handOver(p, owner, now, c.C)
		return
	}
	if !owner.Alive() {
		nw.bounce(p, c.C)
	}
}

// handOver gives a delivered message to its recipient's handler: the
// end of every delivery.
func (nw *Network) handOver(p *peer, owner *chord.Node, now sim.Time, msg Message) {
	p.l.tot.Delivered++
	if ob := nw.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{At: now, Kind: obs.KindDeliver, Node: uint64(owner.ID())})
	}
	p.h.HandleMessage(now, msg)
}

// bounce re-routes an undeliverable message to the node currently
// responsible for its ring key — the departed recipient's next of kin
// under the successor rule. The recovery hop is charged to the new
// owner (it performs the fetch in a real deployment's key-handoff
// repair) and takes one hop delay. If the new owner also dies before
// delivery, the bounce repeats against fresh ground truth, so the
// message survives any churn that leaves the ring non-empty. The
// acting peer is the context the failure was discovered in (the dead
// recipient's record, or the sender's for an already-dead direct
// target).
func (nw *Network) bounce(p *peer, msg Message) {
	if !nw.cfg.Bounce {
		return
	}
	rk, ok := msg.(Rekeyable)
	if !ok {
		return
	}
	tgt := nw.Ring.Owner(rk.RingKey())
	if tgt == nil {
		return // ring is empty; nothing can take the message
	}
	p.l.tot.Bounced++
	nw.chargeHop(p, tgt.ID())
	if ob := nw.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{At: nw.Engine.Now(), Kind: obs.KindBounce, Node: uint64(tgt.ID()), Key: rk.RingKey().String()})
	}
	nw.deliver(p, tgt, nw.hopDelay(p.rng), msg)
}

// shardOf resolves the shard a node's events are scheduled on.
func (nw *Network) shardOf(n *chord.Node) int { return nw.Engine.ShardOf(uint64(n.ID())) }

// deliver schedules the completion of one delivery. The event is bound
// to the recipient's shard; the acting peer supplies the source shard
// the barrier merge orders by.
func (nw *Network) deliver(p *peer, owner *chord.Node, delay int64, msg Message) {
	nw.Engine.AfterCtxShard(delay, deliverEvent, sim.Ctx{A: nw, B: owner, C: msg}, p.shard, nw.shardOf(owner))
}

// deliverFrom is deliver with a known sender: in unreliable mode a
// remote delivery draws its fate from the sender's fault stream first
// (sendReliable); node-local deliveries and reliable networks take the
// plain path.
func (nw *Network) deliverFrom(p *peer, from, owner *chord.Node, delay int64, msg Message) {
	if nw.cfg.Faults != nil && owner != from {
		nw.sendReliable(p, from, owner, delay, msg)
		return
	}
	nw.deliver(p, owner, delay, msg)
}

// WithTag runs fn with every message the given node sends inside it
// additionally charged to the named traffic tag. The experiments use
// the tag "ric" to report the Request-RIC share of total traffic
// separately, as the figures do. The tag scopes to the acting node's
// lane — on a serial network, where there is one lane, to every send.
func (nw *Network) WithTag(n *chord.Node, tag string, fn func()) {
	withTag(nw.peerFor(n.ID()).l, tag, fn)
}

func withTag(l *lane, tag string, fn func()) {
	prev := l.tag
	l.tag = tag
	fn()
	l.tag = prev
}

// WithTagAll runs fn with the tag active on every lane. It is for
// coordinator-context sections (crash recovery) whose sends originate
// from many different nodes; it must never run while workers do, since
// it writes every shard's lane: its callers run between drains, with no
// handler in flight.
func (nw *Network) WithTagAll(tag string, fn func()) {
	prevs := make([]string, len(nw.lanes))
	for i := range nw.lanes {
		prevs[i] = nw.lanes[i].tag
		nw.lanes[i].tag = tag
	}
	fn()
	for i := range nw.lanes {
		nw.lanes[i].tag = prevs[i]
	}
}

// TaggedTraffic returns the per-node traffic charged under a tag (nil
// Load semantics: an unused tag returns an empty counter).
func (nw *Network) TaggedTraffic(tag string) *metrics.Load {
	if l, ok := nw.lanes[0].tagged[tag]; ok {
		return l
	}
	return metrics.NewLoad()
}

// Sync folds every shard lane's accounting deltas into lane 0, the
// public aggregate. The core engine calls it after each drain; a serial
// network has no shard lanes, so there it does nothing. Coordinator
// context only.
func (nw *Network) Sync() {
	agg := &nw.lanes[0]
	for i := range nw.lanes[1:] {
		l := &nw.lanes[1+i]
		l.traffic.DrainInto(agg.traffic)
		for tag, tl := range l.tagged {
			tl.DrainInto(agg.tagLoad(tag))
		}
		agg.tot.add(l.tot)
		*l.tot = totals{}
	}
}

// ResetTraffic zeroes all traffic accounting (total and tagged). The
// experiment harness calls it after warmup so measurements start clean.
func (nw *Network) ResetTraffic() {
	nw.Sync()
	nw.Traffic.Reset()
	for _, l := range nw.lanes[0].tagged {
		l.Reset()
	}
	nw.totals = totals{}
}

// Send routes msg from node "from" to Successor(key) through the DHT
// and returns the owner it was routed to; delivery is asynchronous.
func (nw *Network) Send(from *chord.Node, key id.ID, msg Message) *chord.Node {
	p := nw.peerFor(from.ID())
	owner, delay := nw.route(p, from, key)
	nw.deliverFrom(p, from, owner, delay, msg)
	return owner
}

// route looks key up from node from and charges the walk to the acting
// peer, returning the owner and the walk's total delay. The hop path
// lives in a scratch buffer owned by the acting lane: chargePath reads
// it and keeps nothing, so the next lookup may overwrite it.
func (nw *Network) route(p *peer, from *chord.Node, key id.ID) (*chord.Node, int64) {
	owner, path := from.LookupAppend(p.l.path[:0], key)
	p.l.path = path
	return owner, nw.chargePath(p, from, path)
}

// SendDirect delivers msg to a node whose address is already known, in a
// single hop (the paper's sendDirect(msg, addr)). A recipient that has
// already left the network loses the message, unless bouncing is
// enabled and the message carries a ring key to re-route by.
func (nw *Network) SendDirect(from *chord.Node, to id.ID, msg Message) {
	p := nw.peerFor(from.ID())
	owner := nw.Ring.Node(to)
	if owner == nil {
		nw.bounce(p, msg)
		return
	}
	var delay int64
	if owner != from {
		nw.chargeHop(p, from.ID())
		delay = nw.hopDelay(p.rng)
	}
	nw.deliverFrom(p, from, owner, delay, msg)
}

// Handoff charges one message of a state handoff: the synchronous
// transfer a departing or splitting node completes before responsibility
// for its keys moves on. Like ReplicateTo it only charges. The caller
// installs the state at its new owner itself, inside the membership
// change, so no message can observe the new owner before its state; the
// handoff is on the wire — counted in the traffic metric — it just
// cannot be overtaken.
func (nw *Network) Handoff(from *chord.Node) {
	nw.chargeHop(nw.peerFor(from.ID()), from.ID())
}

// TagRepl is the traffic tag replica-update fan-out is charged under,
// so the recovery experiment can report the durability overhead as its
// own share of total traffic, like "ric" does for placement polling.
const TagRepl = "repl"

// ReplicateTo charges the fan-out of one batch of state mutations to a
// replica group of n targets: one direct message per target, under
// TagRepl. It only charges. A primary-backup protocol acknowledges a
// mutation only once its backups hold it, so a backup's copy always
// equals its primary's state; the simulation keeps no copy (a crash
// promotes the primary's own state) and nothing is scheduled or
// delivered here. The copies are on the wire — one charged message per
// target — they just cannot be overtaken.
func (nw *Network) ReplicateTo(from *chord.Node, n int) {
	if n <= 0 {
		return
	}
	p := nw.peerFor(from.ID())
	if ob := nw.obs; ob != nil {
		ob.Emit(p.shard, obs.Rec{At: nw.Engine.Now(), Kind: obs.KindReplFanout, Node: uint64(from.ID()), Arg: int64(n)})
	}
	withTag(p.l, TagRepl, func() {
		for range n {
			nw.chargeHop(p, from.ID())
		}
	})
}

// MultiSend delivers msgs[j] to Successor(keys[j]) for every j (the
// paper's multiSend(M, I); multiSend(msg, I) is the same call with one
// message repeated). Rather than h independent O(log N) lookups (cost
// h*O(log N) as in Section 2), the deliveries are chained along the
// ring (Sections 2 and 7) so shared route prefixes are paid once.
func (nw *Network) MultiSend(from *chord.Node, msgs []Message, keys []id.ID) {
	if len(msgs) != len(keys) {
		panic(fmt.Sprintf("overlay: MultiSend length mismatch %d vs %d", len(msgs), len(keys)))
	}
	if len(msgs) == 0 {
		return
	}
	p := nw.peerFor(from.ID())
	if len(msgs) == 1 {
		owner, delay := nw.route(p, from, keys[0])
		nw.deliverFrom(p, from, owner, delay, msgs[0])
		return
	}
	// Visit owners in clockwise ring order starting at the
	// origin, each leg routed from the previous owner. The legs buffer
	// is scratch owned by the acting lane; deliveries copy what they
	// need before this function returns.
	legs := p.l.legs[:0]
	for j := range msgs {
		legs = append(legs, leg{id.Dist(from.ID(), keys[j]), keys[j], msgs[j]})
	}
	id.SortByDist(legs, func(lg *leg) uint64 { return lg.dist })
	cur := from
	var accumulated int64
	for _, lg := range legs {
		owner, delay := nw.route(p, cur, lg.key)
		accumulated += delay
		// Retransmission is end-to-end: the origin's fault stream draws
		// the ladder, even for legs forwarded along the ring.
		nw.deliverFrom(p, from, owner, accumulated, lg.msg)
		cur = owner
	}
	for j := range legs {
		legs[j].msg = nil // drop payload references until next use
	}
	p.l.legs = legs[:0]
}

// leg is one delivery of a grouped multiSend, with the clockwise
// distance from the origin to its key that orders the visit.
type leg struct {
	dist uint64
	key  id.ID
	msg  Message
}

// MaxDelta returns a safe upper bound Δ on end-to-end message delay:
// per-hop δ times the worst-case hop count of a Chord lookup plus
// slack, the quantity Section 4 uses to size the ALTT garbage-collection
// window. The bound uses the current network size.
func (nw *Network) MaxDelta() int64 {
	n := nw.Ring.Size()
	if n == 0 {
		return nw.cfg.MaxHopDelay
	}
	// Worst-case Chord lookup is O(log N) with high probability; use
	// 4*log2(N)+8 as a conservative hop bound.
	hops := int64(8)
	for s := 1; s < n; s *= 2 {
		hops += 4
	}
	delta := nw.cfg.MaxHopDelay * hops
	if f := nw.cfg.Faults; f != nil {
		if f.SpikeProb > 0 {
			delta += f.SpikeMax * hops
		}
		// A first transmission can only be lost to a drop draw or a
		// partition window; a plan with neither never needs retransmit
		// masking, and charging for it anyway would widen the ALTT
		// window — visibly changing retention — on a plan that is
		// supposed to be indistinguishable from faults-off.
		if f.DropProb > 0 || len(f.Partitions) > 0 {
			// A message masked by retransmission arrives late by at most
			// the full backoff ladder (retry k waits RTO<<k plus jitter
			// plus a retransmit hop), repeated for every escalation
			// round, plus the longest partition outage it rode out and a
			// delay spike per hop.
			rungs := int64(0)
			for k := 0; k <= maxRetries; k++ {
				rungs += nw.rto<<k + nw.rto/2 + nw.cfg.MaxHopDelay + f.SpikeMax
			}
			var outage int64
			for _, p := range f.Partitions {
				if span := int64(p.End - p.Start); span > outage {
					outage = span
				}
			}
			delta += int64(relMaxLadders+1)*rungs + outage
		}
	}
	return delta
}
