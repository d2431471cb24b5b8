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
// of every overlay operation runs once on a serial network (one lane,
// aliasing the aggregates) and once on a parallel one (a lane per
// shard, merged at Sync). Hop delays are unit, so no draw is taken and
// the two must agree on every count. Even seeds group multiSends along
// the ring, odd seeds route each leg alone.

// scriptMsg is the script's payload. Its ring key lets it bounce; a
// positive ttl makes the receiving handler forward it, under the tag it
// carries, so sends also originate from handler (worker) context.
type scriptMsg struct {
	key id.ID
	ttl int
	tag string
}

func (m *scriptMsg) RingKey() id.ID { return m.key }

// scriptNode is one node of the script: its ring handle and how many
// messages its handler consumed.
type scriptNode struct {
	node *chord.Node
	got  int64
}

// peerAccounts is everything the two runs must agree on.
type peerAccounts struct {
	totals  totals
	traffic map[id.ID]int64
	tagged  map[string]map[id.ID]int64
	tagSum  int64
}

var scriptTags = []string{"", "ric", "agg", "churn", TagRepl}

// runPeerScript executes the seed's script on a fresh 48-node network
// and returns the accounts after Run and Sync. Every decision depends
// only on the seeded source and on ring membership, which the script
// itself drives, so equal seeds yield equal scripts on any engine.
func runPeerScript(t *testing.T, seed int64, workers int) peerAccounts {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ring := chord.NewRing()
	engine := sim.NewEngine(seed)
	engine.SetWorkers(workers)
	cfg := Config{MinHopDelay: 1, MaxHopDelay: 1, GroupMultiSend: seed%2 == 0, Bounce: true}
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
	acc := peerAccounts{totals: nw.totals, traffic: map[id.ID]int64{}, tagged: map[string]map[id.ID]int64{}}
	if nw.Traffic.Total() != nw.MessagesSent {
		t.Fatalf("%s: Traffic.Total %d != MessagesSent %d", label, nw.Traffic.Total(), nw.MessagesSent)
	}
	var got, tagSum int64
	for _, sn := range all {
		got += sn.got
	}
	if got != nw.Delivered {
		t.Fatalf("%s: handlers consumed %d messages, Delivered = %d", label, got, nw.Delivered)
	}
	for _, nid := range everID {
		acc.traffic[nid] = nw.Traffic.Get(nid)
	}
	for _, tag := range scriptTags[1:] {
		tl := nw.TaggedTraffic(tag)
		tagSum += tl.Total()
		acc.tagged[tag] = map[id.ID]int64{}
		for _, nid := range everID {
			acc.tagged[tag][nid] = tl.Get(nid)
		}
	}
	if tagSum > nw.MessagesSent {
		t.Fatalf("%s: tagged loads sum to %d of %d messages", label, tagSum, nw.MessagesSent)
	}
	acc.tagSum = tagSum
	return acc
}

func TestPeerAccountingDifferential(t *testing.T) {
	var sent, tagged int64
	for seed := int64(1); seed <= 40; seed++ {
		serial := runPeerScript(t, seed, 0)
		parallel := runPeerScript(t, seed, 2)
		if serial.totals != parallel.totals {
			t.Fatalf("seed %d: totals differ\nserial   %+v\nparallel %+v", seed, serial.totals, parallel.totals)
		}
		for nid, want := range serial.traffic {
			if got := parallel.traffic[nid]; got != want {
				t.Fatalf("seed %d: traffic of %s: serial %d, parallel %d", seed, nid, want, got)
			}
		}
		for tag, loads := range serial.tagged {
			for nid, want := range loads {
				if got := parallel.tagged[tag][nid]; got != want {
					t.Fatalf("seed %d: %q traffic of %s: serial %d, parallel %d", seed, tag, nid, want, got)
				}
			}
		}
		sent += serial.totals.MessagesSent
		tagged += serial.tagSum
	}
	if sent == 0 || tagged == 0 {
		t.Fatalf("the scripts exercised too little: %d messages, %d tagged", sent, tagged)
	}
}

// TestPeerUnattachedNodes: the failure-injection idiom — a node that was
// never Attached — keeps working on a serial network: it can send, its
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
	nw.Send(from, to.ID(), "routed")                     // unattached sender
	nw.SendDirect(from, to.ID(), "direct")               // unattached sender
	nw.SendDirect(to, from.ID(), "lost")                 // unattached recipient: dropped
	nw.WithTag(from, "ric", func() { nw.Handoff(from) }) // unattached sender, charge only
	engine.Run()
	if got != 2 || nw.Delivered != 2 {
		t.Fatalf("attached recipient got %d messages, Delivered = %d, want 2 and 2", got, nw.Delivered)
	}
	if nw.Traffic.Get(from.ID()) < 3 || nw.TaggedTraffic("ric").Get(from.ID()) != 1 {
		t.Fatalf("unattached sender charged %d (ric %d)", nw.Traffic.Get(from.ID()), nw.TaggedTraffic("ric").Get(from.ID()))
	}
	if nw.Traffic.Total() != nw.MessagesSent {
		t.Fatalf("Traffic.Total %d != MessagesSent %d", nw.Traffic.Total(), nw.MessagesSent)
	}
}
