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
// On a parallel engine (sim.Engine with workers) the overlay keeps one
// accounting lane per logical shard: traffic counters, the active
// traffic tag, the grouped-send scratch buffer and the batching
// outboxes all live in the lane of the acting node, so concurrent
// handlers never share mutable state. Hop-delay draws come from the
// acting node's private counter-based stream instead of the engine's
// shared source, making the draw sequence independent of scheduling
// interleave. Lane deltas merge into the public aggregate counters at
// Sync, which the core engine calls after every drain.
package overlay

import (
	"fmt"
	"sort"

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
	// GroupMultiSend enables the Section 2/7 optimization where a batch
	// of keyed messages is routed as a chain along the ring instead of
	// as independent lookups.
	GroupMultiSend bool
	// BatchWindow enables the batch-routing optimization the paper
	// lists as future work (Section 10): a node buffers its outgoing
	// keyed messages for up to BatchWindow ticks and flushes them as
	// one grouped multiSend, so messages raised within the same window
	// share routing. Zero disables batching. Delivery is delayed by at
	// most BatchWindow; MaxDelta accounts for it, so the ALTT
	// completeness bound still holds.
	BatchWindow int64
	// Bounce re-routes undeliverable Rekeyable messages — sends whose
	// recipient left or crashed before delivery — to the node currently
	// responsible for the message's ring key, instead of dropping them.
	// Required under churn; in a static converged ring it never fires.
	// Off by default so failure-injection tests keep drop semantics.
	Bounce bool
	// Faults switches the network to unreliable mode: transmissions are
	// dropped, duplicated, delayed and partitioned per the plan, and
	// every keyed or direct send runs over an end-to-end reliable
	// channel that masks the injected faults (see faults.go). Requires
	// Bounce — retransmit-ladder exhaustion escalates into the bounce
	// path. Nil keeps the exact reliable-network behavior.
	Faults *Faults
	// Trace, when non-nil, receives annotation events for transport-level
	// activity the core layer cannot see: bounces of undeliverable
	// messages, replication fan-out, retransmissions and acknowledgments.
	// Nil disables tracing at zero cost.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives the hop-count and retransmit-round
	// histograms plus per-node delivery and per-tag send rate series.
	// Nil disables collection at zero cost.
	Metrics *obs.Metrics
}

// DefaultConfig is a deterministic single-tick-per-hop network with
// grouping enabled, the configuration the experiments run under.
func DefaultConfig() Config {
	return Config{MinHopDelay: 1, MaxHopDelay: 1, GroupMultiSend: true}
}

// lane is the per-shard accounting state of a parallel network. Every
// mutation the message layer performs while a handler runs — traffic
// charges, tag scoping, grouped-send scratch, outbox batching — goes to
// the lane of the acting node's shard, which the sub-round schedule
// guarantees is touched by at most one worker at a time.
type lane struct {
	traffic      *metrics.Load
	tagged       map[string]*metrics.Load
	tag          string
	legs         []leg
	path         []*chord.Node
	outboxes     map[id.ID]*outbox
	messagesSent int64
	delivered    int64
	bounced      int64
	dropped      int64
	duplicated   int64
	retransmits  int64
	ackMessages  int64
	abandoned    int64
}

// actor resolves the execution context of one overlay operation: the
// accounting lane, the hop-delay stream and the logical shard of the
// node performing it. On a serial network all three are zero values and
// the shared root fields are used instead.
type actor struct {
	l     *lane
	rng   *sim.RNG
	shard int
}

// Network binds a Chord ring to the event engine and implements the
// messaging API.
type Network struct {
	Ring    *chord.Ring
	Engine  *sim.Engine
	Traffic *metrics.Load
	cfg     Config

	handlers map[id.ID]Handler
	tagged   map[string]*metrics.Load
	tag      string
	outboxes map[id.ID]*outbox
	legs     []leg         // scratch for grouped multiSend, reused across calls
	path     []*chord.Node // scratch for one lookup's hop path, consumed by chargePath

	par   bool               // parallel engine: lane-per-shard accounting
	lanes []lane             // one per logical shard when par
	rngs  map[id.ID]*sim.RNG // per-node hop-delay streams when par

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
	// and partition windows, payload envelopes and acks alike.
	Dropped int64
	// Duplicated counts injected duplicate copies (all suppressed by
	// receiver-side dedup).
	Duplicated int64
	// Retransmits counts retransmitted payload envelopes.
	Retransmits int64
	// AckMessages counts coalesced acknowledgment messages emitted.
	AckMessages int64
	// Abandoned counts messages given up on after exhausting every
	// escalation round — zero in any run the exactness guarantees cover.
	Abandoned int64

	rel *relState // reliable-channel state; nil when Faults is nil

	trace *obs.Tracer  // nil unless Config.Trace is set
	obsM  *obs.Metrics // nil unless Config.Metrics is set
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
	if cfg.BatchWindow < 0 {
		return nil, fmt.Errorf("overlay: negative BatchWindow %d", cfg.BatchWindow)
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
		Ring:     ring,
		Engine:   engine,
		Traffic:  metrics.NewLoad(),
		cfg:      cfg,
		handlers: make(map[id.ID]Handler),
		tagged:   make(map[string]*metrics.Load),
		outboxes: make(map[id.ID]*outbox),
		trace:    cfg.Trace,
		obsM:     cfg.Metrics,
	}
	if engine.Workers() > 0 {
		nw.par = true
		nw.lanes = make([]lane, sim.Shards)
		for i := range nw.lanes {
			nw.lanes[i] = lane{
				traffic:  metrics.NewLoad(),
				tagged:   make(map[string]*metrics.Load),
				outboxes: make(map[id.ID]*outbox),
			}
		}
		nw.rngs = make(map[id.ID]*sim.RNG)
	}
	if cfg.Faults != nil {
		nw.initFaults()
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

// outbox buffers one node's outgoing keyed messages between batch
// flushes.
type outbox struct {
	msgs      []Message
	keys      []id.ID
	scheduled bool
}

// Config returns the network's configuration.
func (nw *Network) Config() Config { return nw.cfg }

// actorFor resolves the execution context of the given acting node.
// Must only be called with a node that has been Attached at some point
// (every ring node is), so its delay stream exists.
func (nw *Network) actorFor(n *chord.Node) actor {
	if !nw.par {
		return actor{shard: sim.NoShard}
	}
	s := sim.ShardOfID(uint64(n.ID()))
	return actor{l: &nw.lanes[s], rng: nw.rngs[n.ID()], shard: s}
}

// Attach registers the message handler for a node. A node without a
// handler silently drops deliveries (tests rely on this for failure
// injection). On a parallel network Attach also derives the node's
// private hop-delay stream; streams outlive Detach so messages bounced
// off a departed node still draw deterministically.
func (nw *Network) Attach(n *chord.Node, h Handler) {
	nw.handlers[n.ID()] = h
	if nw.par {
		if _, ok := nw.rngs[n.ID()]; !ok {
			nw.rngs[n.ID()] = sim.NewRNG(nw.Engine.Seed(), uint64(n.ID()), 0x0e7a)
		}
	}
	if nw.rel != nil {
		nw.relNodeFor(n.ID()) // derive the fault stream in coordinator context
	}
}

// Detach removes a node's handler.
func (nw *Network) Detach(n *chord.Node) {
	delete(nw.handlers, n.ID())
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
// recipient, which receives rather than sends), and returns the total
// virtual delay of the walk.
func (nw *Network) chargePath(a actor, from *chord.Node, path []*chord.Node) int64 {
	senders := 1 + len(path) - 1 // origin + intermediates
	if len(path) == 0 {
		senders = 0 // local delivery, no transmission
	}
	nw.addSent(a.l, int64(senders))
	if m := nw.obsM; m != nil {
		m.HopCount.Observe(int64(len(path)))
		nw.obsSent(a, int64(senders))
	}
	var delay int64
	if len(path) > 0 {
		nw.charge(a.l, from.ID(), 1)
		delay += nw.hopDelay(a.rng)
		for _, hop := range path[:len(path)-1] {
			nw.charge(a.l, hop.ID(), 1)
			delay += nw.hopDelay(a.rng)
		}
	}
	return delay
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
	a := nw.actorFor(owner)
	if h, ok := nw.handlers[owner.ID()]; ok && owner.Alive() {
		nw.addDelivered(a.l, 1)
		nw.obsM.IncNode(a.shard, int64(now), uint64(owner.ID()))
		h.HandleMessage(now, c.C)
		return
	}
	if !owner.Alive() {
		nw.bounce(a, c.C)
	}
}

// bounce re-routes an undeliverable message to the node currently
// responsible for its ring key — the departed recipient's next of kin
// under the successor rule. The recovery hop is charged to the new
// owner (it performs the fetch in a real deployment's key-handoff
// repair) and takes one hop delay. If the new owner also dies before
// delivery, the bounce repeats against fresh ground truth, so the
// message survives any churn that leaves the ring non-empty. The
// actor is the context the failure was discovered in (the dead
// recipient's shard, or the sender's for an already-dead direct
// target).
func (nw *Network) bounce(a actor, msg Message) {
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
	nw.addBounced(a.l, 1)
	nw.addSent(a.l, 1)
	nw.obsSent(a, 1)
	nw.charge(a.l, tgt.ID(), 1)
	if tr := nw.trace; tr != nil {
		tr.Emit(a.shard, obs.Event{
			At: int64(nw.Engine.Now()), Kind: obs.KindBounce,
			Node: uint64(tgt.ID()), Key: rk.RingKey().String(),
		})
	}
	nw.deliver(a, tgt, nw.hopDelay(a.rng), msg)
}

// deliver schedules the completion of one delivery. The event is bound
// to the recipient's shard; the actor supplies the source shard the
// barrier merge orders by.
func (nw *Network) deliver(a actor, owner *chord.Node, delay int64, msg Message) {
	dst := sim.NoShard
	if nw.par {
		dst = sim.ShardOfID(uint64(owner.ID()))
	}
	nw.Engine.AfterCtxShard(delay, deliverEvent, sim.Ctx{A: nw, B: owner, C: msg}, a.shard, dst)
}

// deliverFrom is deliver with a known sender: in unreliable mode a
// remote delivery runs over the (from → owner) reliable channel;
// node-local deliveries and reliable networks take the plain path.
// Transfer and ReplicateTo deliberately bypass this — their
// instantaneous-handoff semantics model an already-acknowledged
// primary-backup exchange.
func (nw *Network) deliverFrom(a actor, from, owner *chord.Node, delay int64, msg Message) {
	if nw.rel == nil || owner == from {
		nw.deliver(a, owner, delay, msg)
		return
	}
	nw.sendReliable(a, from, owner, delay, msg)
}

// charge attributes n sent messages to a node, in the lane's counters
// when a lane is given, in the root counters otherwise.
func (nw *Network) charge(l *lane, node id.ID, n int64) {
	if l == nil {
		nw.Traffic.Add(node, n)
		if nw.tag != "" {
			tl, ok := nw.tagged[nw.tag]
			if !ok {
				tl = metrics.NewLoad()
				nw.tagged[nw.tag] = tl
			}
			tl.Add(node, n)
		}
		return
	}
	l.traffic.Add(node, n)
	if l.tag != "" {
		tl, ok := l.tagged[l.tag]
		if !ok {
			tl = metrics.NewLoad()
			l.tagged[l.tag] = tl
		}
		tl.Add(node, n)
	}
}

// obsSent records n sent messages against the acting context's traffic
// tag in the metrics rate series (an empty tag maps to the "app" lane).
// Window attribution uses the current virtual time, so the series is
// schedule-independent. No-op when metrics are disabled.
func (nw *Network) obsSent(a actor, n int64) {
	if nw.obsM == nil || n == 0 {
		return
	}
	tag := nw.tag
	if a.l != nil {
		tag = a.l.tag
	}
	nw.obsM.IncTag(a.shard, int64(nw.Engine.Now()), tag, n)
}

func (nw *Network) addSent(l *lane, n int64) {
	if l == nil {
		nw.MessagesSent += n
	} else {
		l.messagesSent += n
	}
}

func (nw *Network) addDelivered(l *lane, n int64) {
	if l == nil {
		nw.Delivered += n
	} else {
		l.delivered += n
	}
}

func (nw *Network) addBounced(l *lane, n int64) {
	if l == nil {
		nw.Bounced += n
	} else {
		l.bounced += n
	}
}

func (nw *Network) addFaultDropped(l *lane, n int64) {
	if l == nil {
		nw.Dropped += n
	} else {
		l.dropped += n
	}
}

func (nw *Network) addDuplicated(l *lane, n int64) {
	if l == nil {
		nw.Duplicated += n
	} else {
		l.duplicated += n
	}
}

func (nw *Network) addRetransmits(l *lane, n int64) {
	if l == nil {
		nw.Retransmits += n
	} else {
		l.retransmits += n
	}
}

func (nw *Network) addAckMessages(l *lane, n int64) {
	if l == nil {
		nw.AckMessages += n
	} else {
		l.ackMessages += n
	}
}

func (nw *Network) addAbandoned(l *lane, n int64) {
	if l == nil {
		nw.Abandoned += n
	} else {
		l.abandoned += n
	}
}

// WithTag runs fn with every message the given node sends inside it
// additionally charged to the named traffic tag. The experiments use
// the tag "ric" to report the Request-RIC share of total traffic
// separately, as the figures do. The acting node names the lane the
// tag scopes to; on a serial network it is ignored.
func (nw *Network) WithTag(n *chord.Node, tag string, fn func()) {
	if !nw.par {
		prev := nw.tag
		nw.tag = tag
		fn()
		nw.tag = prev
		return
	}
	l := &nw.lanes[sim.ShardOfID(uint64(n.ID()))]
	prev := l.tag
	l.tag = tag
	fn()
	l.tag = prev
}

// WithTagAll runs fn with the tag active on every lane. It is for
// coordinator-context sections (crash recovery) whose sends originate
// from many different nodes; it must never run while workers do.
//
//lint:allow shardsafe coordinator-context by contract: callers run between drains with no handlers in flight
func (nw *Network) WithTagAll(tag string, fn func()) {
	if !nw.par {
		nw.WithTag(nil, tag, fn)
		return
	}
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
	if l, ok := nw.tagged[tag]; ok {
		return l
	}
	return metrics.NewLoad()
}

// TagTotals returns the network-wide message count charged under each
// traffic tag. It folds outstanding lane deltas first, so like Sync it
// must only be called from coordinator context.
func (nw *Network) TagTotals() map[string]int64 {
	nw.Sync()
	out := make(map[string]int64, len(nw.tagged))
	for tag, l := range nw.tagged {
		out[tag] = l.Total()
	}
	return out
}

// Sync folds every lane's accounting deltas into the public aggregate
// counters. The core engine calls it after each drain; it is a no-op on
// a serial network and must only run from coordinator context.
func (nw *Network) Sync() {
	for i := range nw.lanes {
		l := &nw.lanes[i]
		l.traffic.DrainInto(nw.Traffic)
		for tag, tl := range l.tagged {
			dst, ok := nw.tagged[tag]
			if !ok {
				dst = metrics.NewLoad()
				nw.tagged[tag] = dst
			}
			tl.DrainInto(dst)
		}
		nw.MessagesSent += l.messagesSent
		nw.Delivered += l.delivered
		nw.Bounced += l.bounced
		nw.Dropped += l.dropped
		nw.Duplicated += l.duplicated
		nw.Retransmits += l.retransmits
		nw.AckMessages += l.ackMessages
		nw.Abandoned += l.abandoned
		l.messagesSent, l.delivered, l.bounced = 0, 0, 0
		l.dropped, l.duplicated, l.retransmits, l.ackMessages, l.abandoned = 0, 0, 0, 0, 0
	}
}

// RenameNode transfers a node's accumulated traffic accounting to a new
// identifier (identifier movement keeps the physical node). Reliable
// channels do not follow: they are keyed by ring identifier on both
// ends, which is why the core engine refuses identifier movement on a
// network with Faults.
func (nw *Network) RenameNode(old, new id.ID) {
	nw.Sync()
	nw.Traffic.Rename(old, new)
	for _, l := range nw.tagged {
		l.Rename(old, new)
	}
	if nw.par {
		if rng, ok := nw.rngs[old]; ok {
			nw.rngs[new] = rng
		}
	}
}

// ResetTraffic zeroes all traffic accounting (total and tagged). The
// experiment harness calls it after warmup so measurements start clean.
func (nw *Network) ResetTraffic() {
	nw.Sync()
	nw.Traffic.Reset()
	for _, l := range nw.tagged {
		l.Reset()
	}
	nw.MessagesSent = 0
	nw.Delivered = 0
	nw.Bounced = 0
	nw.Dropped = 0
	nw.Duplicated = 0
	nw.Retransmits = 0
	nw.AckMessages = 0
	nw.Abandoned = 0
}

// Send routes msg from node "from" to Successor(key) through the DHT
// and returns the owner it was routed to. With batch routing enabled
// the message is buffered instead and the return value is nil (the
// owner is resolved at flush time); delivery is asynchronous either
// way.
func (nw *Network) Send(from *chord.Node, key id.ID, msg Message) *chord.Node {
	a := nw.actorFor(from)
	if nw.cfg.BatchWindow > 0 {
		nw.enqueue(a, from, key, msg)
		return nil
	}
	return nw.sendNow(a, from, key, msg)
}

// sendNow performs an immediate routed delivery, bypassing batching.
func (nw *Network) sendNow(a actor, from *chord.Node, key id.ID, msg Message) *chord.Node {
	owner, delay := nw.route(a, from, key)
	nw.deliverFrom(a, from, owner, delay, msg)
	return owner
}

// route looks key up from node from and charges the walk, returning the
// owner and the walk's total delay. The hop path lives in a scratch
// buffer owned by the acting lane: chargePath reads it and keeps
// nothing, so the next lookup may overwrite it.
func (nw *Network) route(a actor, from *chord.Node, key id.ID) (*chord.Node, int64) {
	scratch := &nw.path
	if a.l != nil {
		scratch = &a.l.path
	}
	owner, path := from.LookupAppend((*scratch)[:0], key)
	*scratch = path
	return owner, nw.chargePath(a, from, path)
}

// outboxFor returns the acting context's outbox map.
func (nw *Network) outboxFor(a actor, node id.ID) *outbox {
	boxes := nw.outboxes
	if a.l != nil {
		boxes = a.l.outboxes
	}
	ob, ok := boxes[node]
	if !ok {
		ob = &outbox{}
		boxes[node] = ob
	}
	return ob
}

// enqueue buffers a keyed message in the sender's outbox and schedules
// a flush at the end of the current batch window.
func (nw *Network) enqueue(a actor, from *chord.Node, key id.ID, msg Message) {
	ob := nw.outboxFor(a, from.ID())
	ob.msgs = append(ob.msgs, msg)
	ob.keys = append(ob.keys, key)
	if !ob.scheduled {
		ob.scheduled = true
		nw.Engine.AfterCtxShard(nw.cfg.BatchWindow, flushEvent, sim.Ctx{A: nw, B: from}, a.shard, a.shard)
	}
}

// flushEvent is the batch-window expiry callback; see deliverEvent for
// why it is a package-level CtxFunc. It executes in the sending node's
// shard.
func flushEvent(_ sim.Time, c sim.Ctx) {
	nw := c.A.(*Network)
	from := c.B.(*chord.Node)
	nw.flush(nw.actorFor(from), from)
}

// flush sends a node's buffered messages as one grouped multiSend.
func (nw *Network) flush(a actor, from *chord.Node) {
	boxes := nw.outboxes
	if a.l != nil {
		boxes = a.l.outboxes
	}
	ob, ok := boxes[from.ID()]
	if !ok || len(ob.msgs) == 0 {
		return
	}
	msgs, keys := ob.msgs, ob.keys
	ob.msgs, ob.keys, ob.scheduled = nil, nil, false
	if !from.Alive() {
		return // sender failed before the window closed
	}
	nw.multiSendNow(a, from, msgs, keys)
}

// SendDirect delivers msg to a node whose address is already known, in a
// single hop (the paper's sendDirect(msg, addr)). A recipient that has
// already left the network loses the message, unless bouncing is
// enabled and the message carries a ring key to re-route by.
func (nw *Network) SendDirect(from *chord.Node, to id.ID, msg Message) {
	a := nw.actorFor(from)
	owner := nw.Ring.Node(to)
	if owner == nil {
		nw.bounce(a, msg)
		return
	}
	var delay int64
	if owner != from {
		nw.charge(a.l, from.ID(), 1)
		nw.addSent(a.l, 1)
		nw.obsSent(a, 1)
		delay = nw.hopDelay(a.rng)
	}
	nw.deliverFrom(a, from, owner, delay, msg)
}

// Transfer delivers msg to a known alive recipient at the current
// instant, charging one message: the synchronous state handoff a
// departing or splitting node completes before responsibility for its
// keys moves on. The handoff is on the wire like any message — and
// counted in the traffic metric — but delivery is instantaneous, so no
// regular (≥ one hop delay) message can observe the new owner before
// its state has arrived. It reports whether the recipient accepted.
func (nw *Network) Transfer(from *chord.Node, to id.ID, msg Message) bool {
	a := nw.actorFor(from)
	owner := nw.Ring.Node(to)
	if owner == nil {
		nw.bounce(a, msg)
		return false
	}
	if owner != from {
		nw.charge(a.l, from.ID(), 1)
		nw.addSent(a.l, 1)
		nw.obsSent(a, 1)
	}
	nw.deliver(a, owner, 0, msg)
	return true
}

// FlushNode immediately flushes a node's batched outbox. A node about
// to leave gracefully empties its buffers first so batching cannot turn
// a clean departure into message loss.
func (nw *Network) FlushNode(from *chord.Node) { nw.flush(nw.actorFor(from), from) }

// TagRepl is the traffic tag replica-update fan-out is charged under,
// so the recovery experiment can report the durability overhead as its
// own share of total traffic, like "ric" does for placement polling.
const TagRepl = "repl"

// ReplicateTo fans one batch of state mutations out to a replica group:
// mk builds the per-target copy (each recipient needs its own message —
// streams are versioned per link), and every copy is delivered as a
// direct, instantaneous transfer charged under TagRepl. Delivery is
// Transfer-like by design: a primary-backup protocol acknowledges a
// mutation only once its backups hold it, which the simulation models
// as the mirror being current before any ≥ one-hop message can observe
// the effects of the mutation. The copies are on the wire — one charged
// message per target — they just cannot be overtaken.
func (nw *Network) ReplicateTo(from *chord.Node, targets []id.ID, mk func(target id.ID) Message) {
	if len(targets) == 0 {
		return
	}
	if tr := nw.trace; tr != nil {
		tr.Emit(nw.actorFor(from).shard, obs.Event{
			At: int64(nw.Engine.Now()), Kind: obs.KindReplFanout,
			Node: uint64(from.ID()), Arg: int64(len(targets)),
		})
	}
	nw.WithTag(from, TagRepl, func() {
		for _, t := range targets {
			nw.Transfer(from, t, mk(t))
		}
	})
}

// MultiSend delivers msgs[j] to Successor(keys[j]) for every j. With
// grouping disabled each delivery is an independent O(log N) lookup
// (cost h*O(log N) as in Section 2); with grouping enabled deliveries
// are chained along the ring so shared route prefixes are paid once.
func (nw *Network) MultiSend(from *chord.Node, msgs []Message, keys []id.ID) {
	if len(msgs) != len(keys) {
		panic(fmt.Sprintf("overlay: MultiSend length mismatch %d vs %d", len(msgs), len(keys)))
	}
	if len(msgs) == 0 {
		return
	}
	a := nw.actorFor(from)
	if nw.cfg.BatchWindow > 0 {
		for j := range msgs {
			nw.enqueue(a, from, keys[j], msgs[j])
		}
		return
	}
	nw.multiSendNow(a, from, msgs, keys)
}

// leg is one delivery of a grouped multiSend.
type leg struct {
	key id.ID
	msg Message
}

// multiSendNow performs the actual delivery for MultiSend and for batch
// flushes.
func (nw *Network) multiSendNow(a actor, from *chord.Node, msgs []Message, keys []id.ID) {
	if !nw.cfg.GroupMultiSend || len(msgs) == 1 {
		for j := range msgs {
			nw.sendNow(a, from, keys[j], msgs[j])
		}
		return
	}
	// Grouped: visit owners in clockwise ring order starting at the
	// origin, each leg routed from the previous owner. The legs buffer
	// is scratch owned by the acting lane; deliveries copy what they
	// need before this function returns.
	scratch := &nw.legs
	if a.l != nil {
		scratch = &a.l.legs
	}
	legs := (*scratch)[:0]
	for j := range msgs {
		legs = append(legs, leg{keys[j], msgs[j]})
	}
	sort.Slice(legs, func(i, j int) bool {
		return id.Dist(from.ID(), legs[i].key) < id.Dist(from.ID(), legs[j].key)
	})
	cur := from
	var accumulated int64
	for _, lg := range legs {
		owner, delay := nw.route(a, cur, lg.key)
		accumulated += delay
		// The reliable channel is end-to-end: the origin retains and
		// retransmits, even for legs forwarded along the ring.
		nw.deliverFrom(a, from, owner, accumulated, lg.msg)
		cur = owner
	}
	for j := range legs {
		legs[j].msg = nil // drop payload references until next use
	}
	*scratch = legs[:0]
}

// Broadcast delivers one message to every key in keys (the paper's
// multiSend(msg, I) form).
func (nw *Network) Broadcast(from *chord.Node, keys []id.ID, msg Message) {
	msgs := make([]Message, len(keys))
	for i := range keys {
		msgs[i] = msg
	}
	nw.MultiSend(from, msgs, keys)
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
	// A query transmission traverses at most a handful of batch
	// buffers (the RIC walk legs plus the final send).
	delta := nw.cfg.MaxHopDelay*hops + 8*nw.cfg.BatchWindow
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
			ladder := int64(0)
			for k := 0; k <= nw.rel.maxRetries; k++ {
				ladder += nw.rel.rto<<k + nw.rel.rto/2 + nw.cfg.MaxHopDelay + f.SpikeMax
			}
			var outage int64
			for _, p := range f.Partitions {
				if span := int64(p.End - p.Start); span > outage {
					outage = span
				}
			}
			delta += int64(relMaxLadders+1)*ladder + outage
		}
	}
	return delta
}
