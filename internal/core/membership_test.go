package core

import (
	"fmt"
	"slices"
	"testing"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/sqlparse"
)

// This file is the bounded-exhaustive membership checker: instead of
// hoping a random seed lands a joiner next to a loaded node, it
// enumerates every short sequence of membership operations on a small
// ring that holds one entry of every state class, and checks after each
// that nothing was lost, no replica op was left uncharged, every keyed
// entry sits at its key's ground-truth owner, and state only moved. It
// runs each script drained and bare: with Run() after every operation,
// and with the operations back to back and messages in flight across
// all of them.

// memOp is one membership operation, named by ring position at the
// time it runs so a script replays on a fresh world.
type memOp struct {
	kind string // "join": at the midpoint of the gap after node i; "leave", "crash": node i; "move": node i into the gap after its successor
	i    int
}

func (o memOp) String() string { return fmt.Sprintf("%s %d", o.kind, o.i) }

// gapMid returns the identifier halfway between the g-th node of the
// ring and the one after it.
func gapMid(nodes []*chord.Node, g int) id.ID {
	a, b := nodes[g%len(nodes)].ID(), nodes[(g+1)%len(nodes)].ID()
	return a + (b-a)/2 // modular: the gap across zero works out too
}

func (o memOp) apply(eng *Engine) error {
	nodes := eng.Ring().Nodes()
	switch o.kind {
	case "join":
		_, err := eng.JoinNode(gapMid(nodes, o.i))
		return err
	case "leave":
		return eng.LeaveNode(nodes[o.i])
	case "crash":
		return eng.CrashNode(nodes[o.i])
	}
	_, err := eng.MoveNode(nodes[o.i], gapMid(nodes, o.i+1))
	return err
}

// memAlphabet is every operation legal on a ring of n nodes.
func memAlphabet(n int, withMove bool) []memOp {
	kinds := []string{"join", "leave", "crash", "move"}
	if !withMove {
		kinds = kinds[:3]
	}
	var out []memOp
	for _, kind := range kinds {
		for i := 0; i < n; i++ {
			out = append(out, memOp{kind, i})
		}
	}
	return out
}

// memWorld builds the checker's world: a converged 5-node ring, a plain,
// a GROUP BY and a windowed join, a sliding and a tumbling windowed
// GROUP BY, and 12 tuples, drained. No tuple is published after it, so
// the windowed rewrites and aggregate epochs outlive every script, while
// the ALTT entries lapse as the scripts' drains move the clock.
func memWorld(t *testing.T, rf int) *Engine {
	eng, nodes := testNet(t, 5, 11, replCfg(rf), churnNetCfg())
	for i, sql := range []string{
		"select R.B, S.B from R,S where R.A=S.A",
		"select R.A, count(*) from R,S where R.A=S.A group by R.A",
		"select R.C, S.C from R,S where R.A=S.A within 8 tuples",
		"select R.A, sum(S.B) from R,S where R.A=S.A group by R.A within 4 tuples",
		"select R.A, sum(S.B) from R,S where R.A=S.A group by R.A within 4 tuples tumbling",
	} {
		if _, err := eng.SubmitQuery(nodes[i], sqlparse.MustParse(sql, testCat)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for i := 0; i < 6; i++ {
		eng.PublishTuple(nodes[i%5], mkTuple("R", int64(i%3), int64(i), 0))
		eng.PublishTuple(nodes[(i+2)%5], mkTuple("S", int64(i%3), int64(10+i), 0))
	}
	eng.Run()
	return eng
}

// memCounts sums state.counts() over the live nodes, ALTT aside (its
// entries lapse on their own).
func memCounts(eng *Engine) (c stateCounts) {
	for _, p := range eng.procs {
		pc := p.st.counts()
		c.queries += pc.queries
		c.tuples += pc.tuples
		c.aggEpochs += pc.aggEpochs
		c.pending += pc.pending
	}
	return c
}

func memLost(eng *Engine) int64 {
	c := &eng.Counters
	return c.QueriesLost + c.RewritesLost + c.TuplesLost + c.AggStateLost
}

// memInvariants names the checker's five invariants, in the order
// memCheck reports them.
var memInvariants = [5]string{
	"I1 nothing counted lost",
	"I2 no replica op left uncharged",
	"I3 every keyed entry at its ring owner",
	"I4 stored-entry totals conserved, nothing left waiting or dead",
	"I5 the records list exactly the entries the states hold, each held once",
}

// memCheck evaluates the five invariants on a drained engine: nil where
// one holds.
func memCheck(eng *Engine, base stateCounts) (errs [5]error) {
	if lost := memLost(eng); lost != 0 {
		c := &eng.Counters
		errs[0] = fmt.Errorf("%d queries, %d rewrites, %d tuples, %d aggregate epochs counted lost",
			c.QueriesLost, c.RewritesLost, c.TuplesLost, c.AggStateLost)
	}
	errs[1] = nothingUncharged(eng)
	errs[2] = keyedAtOwners(eng)
	if got := memCounts(eng); got != base {
		errs[3] = fmt.Errorf("live nodes hold %+v, the world started with %+v", got, base)
	}
	// Drained means placed: base counts no pending placement, so the
	// comparison above already says none is left; the index derived from
	// them must be empty with them.
	for _, n := range eng.Ring().Nodes() {
		if st := eng.procs[n.ID()].st; errs[3] == nil && len(st.waiting) != 0 {
			errs[3] = fmt.Errorf("drained, yet %s indexes %d waiting keys", n.ID(), len(st.waiting))
		}
	}
	if errs[3] == nil {
		errs[3] = deadErr(eng)
	}
	if errs[4] = ownershipErr(eng); errs[4] == nil {
		errs[4] = storedOnce(eng)
	}
	return errs
}

// memSweep enumerates scripts depth-first and tallies, per invariant,
// how many violate it; a script is judged on the state its last
// operation leaves (its prefixes are scripts of their own).
type memSweep struct {
	t     *testing.T
	rf    int
	depth int     // longest script; one containing a move stops at 2
	mode  memMode // what runs between two operations

	scripts  int
	failed   [5]int     // scripts violating each invariant
	why      [5]error   // what the first shortest of them violated
	shortest [5][]memOp // and its script
}

func (s *memSweep) explore(script []memOp, moved, crashOnly bool) {
	errs, ringSize := s.run(script, crashOnly)
	s.scripts++
	for i, err := range errs {
		if err == nil {
			continue
		}
		s.failed[i]++
		if s.why[i] == nil || len(script) < len(s.shortest[i]) {
			s.why[i], s.shortest[i] = err, slices.Clone(script)
		}
	}
	if crashOnly {
		return
	}
	limit := s.depth
	if moved {
		limit = min(limit, 2)
	}
	for _, next := range memAlphabet(ringSize, len(script) < 2) {
		if len(script) < limit {
			s.explore(append(script, next), moved || next.kind == "move", false)
		} else if len(script) <= 2 && next.kind == "crash" {
			// Nothing extends this script: any single further crash
			// must still lose nothing.
			s.explore(append(script, next), moved, true)
		}
	}
}

// memMode is what the checker runs between two operations of a script.
// Every mode drains once at the end.
type memMode string

const (
	// memDrained is Run() after every operation.
	memDrained memMode = "drained"
	// memUndrained delivers one pending event after every operation, so
	// the next one lands with the previous one's messages part-delivered.
	memUndrained memMode = "undrained"
	// memBare issues the operations back to back with nothing in between,
	// what the Options.Churn trial loop does when two draws hit one tick.
	memBare memMode = "bare"
)

// run replays a script on a fresh world and returns the violated
// invariants and the ring size it ends with; crashOnly asks for I1 and
// I5 alone.
//
// Every mode asserts all five invariants on every script: replica
// updates are charged where their primary mutates, and every membership
// operation installs the state it moves at its ground-truth owner, and
// leaves every routing pointer exact, before returning, so none can find
// another's move half done.
func (s *memSweep) run(script []memOp, crashOnly bool) ([5]error, int) {
	eng := memWorld(s.t, s.rf)
	base := memCounts(eng)
	for _, o := range script {
		if err := o.apply(eng); err != nil {
			s.t.Fatalf("%v: %s: %v", script, o, err)
		}
		switch s.mode {
		case memDrained:
			eng.Run()
		case memUndrained:
			if eng.Sim().PendingForeground() > 0 {
				eng.Sim().Step()
			}
		}
	}
	eng.Run()
	errs := memCheck(eng, base)
	if crashOnly {
		errs[1], errs[2], errs[3] = nil, nil, nil
	}
	return errs, eng.Ring().Size()
}

func (s *memSweep) report() {
	s.t.Logf("%s rf=%d: %d scripts; failing I1 %d, I2 %d, I3 %d, I4 %d, I5 %d",
		s.mode, s.rf, s.scripts, s.failed[0], s.failed[1], s.failed[2], s.failed[3], s.failed[4])
	for i, err := range s.why {
		if err != nil {
			s.t.Errorf("%s rf=%d: %s: shortest failing script %v: %v", s.mode, s.rf, memInvariants[i], s.shortest[i], err)
		}
	}
}

// TestMembershipExhaustive runs every script of at most three
// operations from {join at each gap, leave i, crash i} (plus MoveNode,
// in scripts of at most two: it is leave + join, so depth three already
// covers its halves) at ReplicationFactor 2 and 3 — depth two under
// -short — in all three modes.
func TestMembershipExhaustive(t *testing.T) {
	eng := memWorld(t, 2)
	var rewrites, altt, ct int
	for _, p := range eng.procs {
		for _, list := range p.st.queries {
			for _, sq := range list {
				if sq.q.Depth > 0 {
					rewrites++
				}
			}
		}
		altt += p.st.counts().altt
		ct += p.st.ct.size()
	}
	if c := memCounts(eng); rewrites == 0 || c.queries == rewrites || c.tuples == 0 || c.aggEpochs == 0 || altt == 0 || ct == 0 {
		t.Fatalf("world too weak: %+v, %d rewrites, %d ALTT, %d candidate-table entries", c, rewrites, altt, ct)
	}
	depth := 3
	if testing.Short() {
		depth = 2
	}
	for _, mode := range []memMode{memDrained, memUndrained, memBare} {
		for _, rf := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/rf=%d", mode, rf), func(t *testing.T) {
				t.Parallel()
				s := &memSweep{t: t, rf: rf, depth: depth, mode: mode}
				s.explore(nil, false, false)
				s.report()
			})
		}
	}
}
