package overlay

import (
	"fmt"
	"math/rand"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/sim"
)

// The differential oracle for the one accounting path: a random script
// of every overlay operation runs once with sub-rounds run inline and
// once on two workers, whose handlers send from worker goroutines into
// their shards' lanes. The two must agree on every count, the per-tag
// split included.

// scriptMsg is the script's payload. Its ring key lets it bounce; a
// positive ttl makes the receiving handler forward it, under the tag it
// carries, so sends also originate from handler (worker) context.
type scriptMsg struct {
	key id.ID
	ttl int
	tag Tag
}

func (m *scriptMsg) RingKey() id.ID { return m.key }

// scriptNode is one node of the script: its ring handle and how many
// messages its handler consumed.
type scriptNode struct {
	node *chord.Node
	got  int64
}

var scriptTags = []Tag{TagApp, TagRIC, TagAgg, TagChurn, TagRepl}

// runPeerScript executes the seed's script on a fresh 48-node network
// and returns the totals after Run and Sync. Every decision depends
// only on the seeded source and on ring membership, which the script
// itself drives, so equal seeds yield equal scripts on any engine.
func runPeerScript(t *testing.T, seed int64, workers int) totals {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ring := chord.NewRing()
	engine := sim.NewEngine(seed)
	engine.SetWorkers(workers)
	cfg := Config{MinHopDelay: 1, MaxHopDelay: 1, Bounce: true}
	nw := MustNetwork(ring, engine, cfg)

	byID := map[id.ID]*scriptNode{} // ring identifier → its node
	var everID []id.ID
	var all []*scriptNode
	handler := func(sn *scriptNode) Handler {
		return HandlerFunc(func(_ sim.Time, msg Message) {
			sn.got++
			m := msg.(*scriptMsg)
			if m.ttl == 0 {
				return
			}
			fwd := &scriptMsg{key: m.key*0x9E3779B97F4A7C15 + id.ID(m.ttl), ttl: m.ttl - 1, tag: m.tag}
			nw.WithTag(sn.node, fwd.tag, func() { nw.Send(sn.node, fwd.key, fwd) })
		})
	}
	join := func() {
		n, err := ring.Join(id.ID(rng.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		ring.BuildPerfect()
		sn := &scriptNode{node: n}
		byID[n.ID()], all, everID = sn, append(all, sn), append(everID, n.ID())
		nw.Attach(n, handler(sn))
	}
	for i := 0; i < 48; i++ {
		join()
	}
	pick := func() *chord.Node { nodes := ring.Nodes(); return nodes[rng.Intn(len(nodes))] }
	msg := func() *scriptMsg {
		return &scriptMsg{key: id.ID(rng.Uint64()), ttl: rng.Intn(3), tag: scriptTags[rng.Intn(len(scriptTags))]}
	}
	var detached []*chord.Node
	// send performs one random operation as node from (nil: any node). A
	// WithTag scope holds only its own node's sends — the contract that
	// makes the tag's lane scoping invisible — WithTagAll any node's.
	var send func(depth int, from *chord.Node)
	send = func(depth int, from *chord.Node) {
		if from == nil {
			from = pick()
		}
		switch op := rng.Intn(8); {
		case op == 0:
			m := msg()
			nw.Send(from, m.key, m)
		case op == 1:
			n := 1 + rng.Intn(6)
			msgs, keys := make([]Message, n), make([]id.ID, n)
			for i := range msgs {
				m := msg()
				msgs[i], keys[i] = m, m.key
			}
			nw.MultiSend(from, msgs, keys)
		case op == 2:
			nw.SendDirect(from, everID[rng.Intn(len(everID))], msg()) // sometimes a departed address
		case op == 3:
			nw.Handoff(from)
		case op == 4:
			nw.ReplicateTo(from, 1+rng.Intn(3))
		case op == 5 && depth < 3:
			nw.WithTag(from, scriptTags[rng.Intn(len(scriptTags))], func() {
				for i := rng.Intn(3); i >= 0; i-- {
					send(depth+1, from)
				}
			})
		case op == 6 && depth == 0:
			nw.WithTagAll(scriptTags[1+rng.Intn(len(scriptTags)-1)], func() {
				for i := rng.Intn(4); i >= 0; i-- {
					send(depth+1, nil)
				}
			})
		default:
			m := msg()
			nw.Send(from, m.key, m)
		}
	}
	for step := 0; step < 200; step++ {
		switch op := rng.Intn(20); {
		case op == 0: // black-hole a live node for a while
			n := pick()
			nw.Detach(n)
			detached = append(detached, n)
		case op == 1 && len(detached) > 0:
			n := detached[0]
			detached = detached[1:]
			if n.Alive() {
				nw.Attach(n, handler(byID[n.ID()]))
			}
		case op == 2 && ring.Size() > 24: // crash with a message to the victim in flight
			victim := pick()
			m := msg()
			m.key = victim.ID()
			nw.Send(pick(), m.key, m)
			ring.Fail(victim)
			ring.BuildPerfect()
		case op == 3: // graceful leave and a join elsewhere, as core.MoveNode drives them
			n := pick()
			nw.Detach(n)
			ring.Leave(n)
			join()
		case op == 4:
			nw.ResetTraffic()
			for _, sn := range all {
				sn.got = 0
			}
		case op == 5 && ring.Size() < 48:
			join()
		case op < 9:
			engine.RunUntil(engine.Now() + sim.Time(1+rng.Intn(3)))
		default:
			send(0, nil)
		}
	}
	engine.Run()
	nw.Sync()

	label := fmt.Sprintf("seed %d workers %d", seed, workers)
	var got, tagSum int64
	for _, sn := range all {
		got += sn.got
	}
	if got != nw.Delivered {
		t.Fatalf("%s: handlers consumed %d messages, Delivered = %d", label, got, nw.Delivered)
	}
	for _, n := range nw.ByTag {
		tagSum += n
	}
	if tagSum != nw.MessagesSent {
		t.Fatalf("%s: ByTag %v sums to %d of %d messages", label, nw.ByTag, tagSum, nw.MessagesSent)
	}
	return nw.totals
}

func TestPeerAccountingDifferential(t *testing.T) {
	var sent, tagged int64
	for seed := int64(1); seed <= 40; seed++ {
		inline := runPeerScript(t, seed, 0)
		parallel := runPeerScript(t, seed, 2)
		if inline != parallel {
			t.Fatalf("seed %d: totals differ\ninline   %+v\nparallel %+v", seed, inline, parallel)
		}
		sent += inline.MessagesSent
		tagged += inline.MessagesSent - inline.ByTag[TagApp]
	}
	if sent == 0 || tagged == 0 {
		t.Fatalf("the scripts exercised too little: %d messages, %d tagged", sent, tagged)
	}
}

// TestPeerUnattachedNodes: the failure-injection idiom — a node that was
// never Attached — keeps working: it can send, its
// sends are charged, and deliveries to it are dropped without a trace.
func TestPeerUnattachedNodes(t *testing.T) {
	ring := chord.NewRing()
	for i := 0; i < 16; i++ {
		if _, err := ring.Join(id.HashKey(fmt.Sprint("n", i))); err != nil {
			t.Fatal(err)
		}
	}
	ring.BuildPerfect()
	engine := sim.NewEngine(1)
	nw := MustNetwork(ring, engine, Config{MinHopDelay: 1, MaxHopDelay: 3})
	nodes := ring.Nodes()
	from, to := nodes[0], nodes[5]
	var got int
	nw.Attach(to, HandlerFunc(func(sim.Time, Message) { got++ }))
	nw.Send(from, to.ID(), "routed")                      // unattached sender
	nw.SendDirect(from, to.ID(), "direct")                // unattached sender
	nw.SendDirect(to, from.ID(), "lost")                  // unattached recipient: dropped
	nw.WithTag(from, TagRIC, func() { nw.Handoff(from) }) // unattached sender, charge only
	engine.Run()
	nw.Sync()
	if got != 2 || nw.Delivered != 2 {
		t.Fatalf("attached recipient got %d messages, Delivered = %d, want 2 and 2", got, nw.Delivered)
	}
	if nw.MessagesSent < 3 || nw.ByTag[TagRIC] != 1 {
		t.Fatalf("unattached sender charged %d (ric %d)", nw.MessagesSent, nw.ByTag[TagRIC])
	}
}
