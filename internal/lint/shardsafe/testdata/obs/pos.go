// Positive cases: per-shard lane writes outside the discipline. Every
// marked line must be flagged.
package obs

import "rjoin/internal/sim"

type tracer struct {
	slots [sim.ShardSlots][]int
}

// Arbitrary index in handler context: not derived from a shard.
func (t *tracer) emitWrong(i, v int) {
	t.slots[i] = append(t.slots[i], v) // want `write to per-shard lane slots indexed by i`
}

// Cross-slot loop outside a barrier function.
func (t *tracer) stealAll(v int) {
	for i := range t.slots { // want `cross-slot write loop over per-shard lane slots`
		t.slots[i] = append(t.slots[i], v)
	}
}

// Writing through the range value variable is still a lane write.
type gauges struct {
	lanes [sim.Shards]counter
}

type counter struct{ n int }

func (g *gauges) bumpAll() {
	for i, c := range g.lanes { // want `cross-slot write loop over per-shard lane lanes`
		c.n++
		g.lanes[i] = c
	}
}

// The +1 offset of the aggregate-first layout excuses nothing by
// itself: the operand must still be shard-derived, and the offset one.
func (t *tracer) emitOffsetWrong(i, shard, v int) {
	t.slots[i+1] = append(t.slots[i+1], v)         // want `write to per-shard lane slots indexed by i \+ 1`
	t.slots[shard+2] = append(t.slots[shard+2], v) // want `write to per-shard lane slots indexed by shard \+ 2`
}
