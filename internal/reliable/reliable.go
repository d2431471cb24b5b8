// Package reliable implements the sequence-number bookkeeping of a
// channel that must pass each message exactly once over a transport
// that drops, duplicates and reorders: Dedup, an unordered duplicate
// filter, and Inbox, an ordered, generation-versioned batch stream.
//
// Nothing in the engine calls it. Replica mirrors stopped using Inbox
// when they became synchronous (internal/core/replicate.go), and the
// overlay stopped using Dedup when its fault layer began drawing each
// send's retransmission ladder at send time (internal/overlay/faults.go);
// the type docs below describe the channels they served. The package is
// kept, with its tests, only because the frozen perfbench/layers.go
// still times Dedup.Mark and Inbox.Offer (reliable.dedup_mark_ns,
// reliable.inbox_offer_ns); it goes when perfbench is unfrozen (ROADMAP
// "Unfreeze perfbench/", part (g) "The notes").
package reliable

// Delivery is one batch released by an Inbox for application, in order.
// Reset marks the first batch of a new generation: the caller must
// discard the origin's mirrored state before applying the payload (it
// is the head of a full snapshot).
type Delivery struct {
	Reset   bool
	Payload any
}

// pendingBatch is a buffered out-of-order batch.
type pendingBatch struct {
	gen     int64
	reset   bool
	first   int64
	count   int
	payload any
}

// Inbox is the replica-side state of one incoming origin stream. It
// admits each operation exactly once no matter how batches are
// duplicated or reordered, releasing them strictly in (generation,
// sequence) order.
type Inbox struct {
	gen     int64
	applied int64 // ops applied in the current generation
	open    bool
	pending []pendingBatch

	// Stale counts batches dropped as replays or superseded
	// generations — the idempotency machinery's visible work.
	Stale int64
}

// NewInbox returns an inbox that accepts the first generation offered.
func NewInbox() *Inbox { return &Inbox{} }

// Offer hands the inbox one received batch: generation gen, snapshot
// head if reset, operations [first, first+count). It returns the
// batches this makes applicable, in application order — usually just
// the offered one, but a batch that fills a buffered gap releases its
// followers too, and a stale or replayed batch releases nothing.
func (b *Inbox) Offer(gen int64, reset bool, first int64, count int, payload any) []Delivery {
	if gen < b.gen || (gen == b.gen && !b.open) {
		b.Stale++ // superseded generation, or a batch before any snapshot
		return nil
	}
	if gen == b.gen && b.open && first+int64(count) <= b.applied+1 {
		b.Stale++ // pure replay of an applied range
		return nil
	}
	b.pending = append(b.pending, pendingBatch{gen: gen, reset: reset, first: first, count: count, payload: payload})

	var out []Delivery
	for {
		idx := -1
		for i, p := range b.pending {
			ready := (p.gen == b.gen && b.open && p.first == b.applied+1) ||
				(p.reset && p.first == 1 && p.gen > b.gen)
			if ready && (idx < 0 || p.gen < b.pending[idx].gen ||
				(p.gen == b.pending[idx].gen && p.first < b.pending[idx].first)) {
				idx = i
			}
		}
		if idx < 0 {
			return out
		}
		p := b.pending[idx]
		b.pending = append(b.pending[:idx], b.pending[idx+1:]...)
		if p.reset && (p.gen > b.gen || !b.open) {
			b.gen, b.applied, b.open = p.gen, 0, true
			// Older-generation stragglers can never apply now.
			kept := b.pending[:0]
			for _, q := range b.pending {
				if q.gen >= b.gen {
					kept = append(kept, q)
				} else {
					b.Stale++
				}
			}
			b.pending = kept
			out = append(out, Delivery{Reset: true, Payload: p.payload})
		} else {
			out = append(out, Delivery{Payload: p.payload})
		}
		b.applied = p.first + int64(p.count) - 1
	}
}

// Dedup is the receiver-side duplicate filter of one unordered reliable
// channel: a cumulative watermark plus a sparse set of seen sequence
// numbers above it. Unlike Inbox it imposes no delivery order — the
// overlay's end-to-end channels deliver messages as they arrive and only
// need each sequence number to pass exactly once; ordering, where it
// matters, is the application layer's business (version counters,
// commutative folds).
type Dedup struct {
	cum    uint64 // every sequence number <= cum has been seen
	sparse map[uint64]struct{}
}

// Seen reports whether seq has already passed the filter.
func (d *Dedup) Seen(seq uint64) bool {
	if seq <= d.cum {
		return true
	}
	_, ok := d.sparse[seq]
	return ok
}

// Mark records seq as seen and reports whether this was its first
// passage (false = duplicate, the caller must drop the delivery). The
// watermark advances over any contiguous run the sparse set completes.
func (d *Dedup) Mark(seq uint64) bool {
	if d.Seen(seq) {
		return false
	}
	if seq == d.cum+1 {
		d.cum = seq
		for {
			if _, ok := d.sparse[d.cum+1]; !ok {
				break
			}
			d.cum++
			delete(d.sparse, d.cum)
		}
		return true
	}
	if d.sparse == nil {
		d.sparse = make(map[uint64]struct{})
	}
	d.sparse[seq] = struct{}{}
	return true
}
