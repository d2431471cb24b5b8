// Negative cases: the lane-access discipline the engine actually
// uses. Nothing in this file may be flagged.
package obs

import "rjoin/internal/sim"

// Handler context: index derived from sim.ShardOfID via a local.
func (t *tracer) emit(node uint64, v int) {
	s := sim.ShardOfID(node)
	t.slots[s] = append(t.slots[s], v)
}

// Handler context: ShardOfID call used inline as the index.
func (t *tracer) emitInline(node uint64, v int) {
	t.slots[sim.ShardOfID(node)] = append(t.slots[sim.ShardOfID(node)], v)
}

// Conventionally named shard-index parameter.
func (t *tracer) emitNamed(slot, v int) {
	t.slots[slot] = append(t.slots[slot], v)
}

// Barrier function: the Sync/merge family may do cross-slot work.
func (t *tracer) flushMerge() []int {
	var out []int
	for i := range t.slots {
		out = append(out, t.slots[i]...)
		t.slots[i] = t.slots[i][:0]
	}
	return out
}

// make-allocated lanes: writes in the allocating function are init.
type net struct {
	byShard []int
}

func newNet() *net {
	n := &net{}
	n.byShard = make([]int, sim.Shards)
	for i := range n.byShard {
		n.byShard[i] = i
	}
	return n
}

// Aggregate-first layout: slot 0 is the aggregate (NoShard is -1), shard
// s counts in slot s+1 — a shard-derived index offset by exactly one.
type acct struct {
	byShard []int
}

func newAcct() *acct {
	a := &acct{}
	a.byShard = make([]int, sim.ShardSlots)
	return a
}

func (a *acct) count(shard int) {
	a.byShard[shard+1]++
}

func (a *acct) countAt(e *sim.Engine, node uint64) {
	a.byShard[e.ShardOf(node)+1]++
}
