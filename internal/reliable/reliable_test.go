package reliable

import (
	"reflect"
	"testing"
)

func payloads(ds []Delivery) []any {
	out := make([]any, len(ds))
	for i, d := range ds {
		out[i] = d.Payload
	}
	return out
}

// TestInboxInOrder: the common case — a snapshot head followed by
// incremental batches applies in order, once each.
func TestInboxInOrder(t *testing.T) {
	b := NewInbox()
	if got := b.Offer(1, true, 1, 2, "snap"); !reflect.DeepEqual(payloads(got), []any{"snap"}) || !got[0].Reset {
		t.Fatalf("snapshot head: %v", got)
	}
	if got := b.Offer(1, false, 3, 1, "a"); !reflect.DeepEqual(payloads(got), []any{"a"}) || got[0].Reset {
		t.Fatalf("first increment: %v", got)
	}
	if got := b.Offer(1, false, 4, 3, "b"); !reflect.DeepEqual(payloads(got), []any{"b"}) {
		t.Fatalf("second increment: %v", got)
	}
	if got := b.Offer(1, false, 7, 1, "c"); !reflect.DeepEqual(payloads(got), []any{"c"}) {
		t.Fatalf("the batch after six applied ops: %v", got)
	}
}

// TestInboxReplayIdempotent: redelivering any already-applied batch
// releases nothing and counts as stale.
func TestInboxReplayIdempotent(t *testing.T) {
	b := NewInbox()
	b.Offer(1, true, 1, 1, "snap")
	b.Offer(1, false, 2, 2, "a")
	for i := 0; i < 3; i++ {
		if got := b.Offer(1, false, 2, 2, "a"); len(got) != 0 {
			t.Fatalf("replay %d released %v", i, got)
		}
		if got := b.Offer(1, true, 1, 1, "snap"); len(got) != 0 {
			t.Fatalf("snapshot replay %d released %v", i, got)
		}
	}
	if b.Stale != 6 {
		t.Fatalf("stale count %d, want 6", b.Stale)
	}
	if got := b.Offer(1, false, 4, 1, "b"); !reflect.DeepEqual(payloads(got), []any{"b"}) {
		t.Fatalf("the batch after three applied ops: %v", got)
	}
}

// TestInboxReorderBuffers: a batch arriving before its predecessor is
// buffered and released in order once the gap fills — including the
// snapshot head arriving after its followers.
func TestInboxReorderBuffers(t *testing.T) {
	b := NewInbox()
	if got := b.Offer(1, false, 4, 2, "c"); len(got) != 0 {
		t.Fatalf("gap batch released early: %v", got)
	}
	if got := b.Offer(1, false, 3, 1, "b"); len(got) != 0 {
		t.Fatalf("gap batch released early: %v", got)
	}
	got := b.Offer(1, true, 1, 2, "snap")
	if !reflect.DeepEqual(payloads(got), []any{"snap", "b", "c"}) {
		t.Fatalf("fill released %v, want [snap b c]", payloads(got))
	}
	if !got[0].Reset || got[1].Reset || got[2].Reset {
		t.Fatalf("reset flags %v %v %v", got[0].Reset, got[1].Reset, got[2].Reset)
	}
}

// TestInboxGenerationSupersedes: a new generation's snapshot discards
// the old stream; stragglers of the old generation are dropped whether
// they arrive before or after it.
func TestInboxGenerationSupersedes(t *testing.T) {
	b := NewInbox()
	b.Offer(1, true, 1, 1, "old-snap")
	b.Offer(1, false, 2, 1, "old-a")
	if got := b.Offer(3, true, 1, 1, "new-snap"); !reflect.DeepEqual(payloads(got), []any{"new-snap"}) || !got[0].Reset {
		t.Fatalf("new generation snapshot: %v", got)
	}
	if got := b.Offer(1, false, 3, 1, "old-b"); len(got) != 0 {
		t.Fatalf("old-generation straggler released %v", got)
	}
	// Old straggler buffered before the new snapshot is purged by it.
	b2 := NewInbox()
	b2.Offer(1, true, 1, 1, "s1")
	if got := b2.Offer(1, false, 5, 1, "late"); len(got) != 0 {
		t.Fatal("gap released early")
	}
	if got := b2.Offer(2, true, 1, 1, "s2"); !reflect.DeepEqual(payloads(got), []any{"s2"}) {
		t.Fatalf("second snapshot: %v", got)
	}
	if got := b2.Offer(1, false, 2, 3, "fill"); len(got) != 0 {
		t.Fatalf("filling a purged gap released %v", got)
	}
}
