package profile_test

import (
	"reflect"
	"testing"

	"rjoin/internal/obs"
	"rjoin/internal/obs/profile"
	"rjoin/internal/sim"
)

// recording returns a profiler behind a recorder: the profiler is
// written by the recorder's fold and by nothing else.
func recording(interval int64) (*obs.Recorder, *profile.Profiler) {
	p := profile.New(interval)
	return obs.NewRecorder(obs.Views{Profile: p}), p
}

// TestCounterMerge: records emitted from different shards for the same
// (query, key, metric) must fold into one sum at Flush, regardless of
// which shard contributed what.
func TestCounterMerge(t *testing.T) {
	rec, p := recording(0)
	rec.Emit(0, obs.Rec{Kind: obs.KindStateStore, QID: "q1", Key: "R+A", N: 2})
	rec.Emit(1, obs.Rec{Kind: obs.KindStateStore, QID: "q1", Key: "R+A", N: 3})
	rec.Emit(sim.NoShard, obs.Rec{Kind: obs.KindStateStore, QID: "q1", Key: "R+A", N: 1})
	rec.Emit(0, obs.Rec{Kind: obs.KindStateStore, QID: "q2", Key: "R+A", N: 7}) // different query: separate counter
	rec.Emit(0, obs.Rec{Kind: obs.KindEval, QID: "q1", Key: "S+B"})             // different key and metric
	if got := p.Count("q1", "R+A", profile.StateBytes); got != 0 {
		t.Fatalf("pre-Flush count leaked: %d", got)
	}
	rec.Flush()
	if got := p.Count("q1", "R+A", profile.StateBytes); got != 6 {
		t.Fatalf("merged count = %d, want 6", got)
	}
	if got := p.Count("q1", "R+A", profile.StoredQueries); got != 3 {
		t.Fatalf("stored copies = %d, want 3", got)
	}
	if got := p.Count("q2", "R+A", profile.StateBytes); got != 7 {
		t.Fatalf("q2 count = %d, want 7", got)
	}
	if got := p.Count("q1", "S+B", profile.Evals); got != 1 {
		t.Fatalf("eval count = %d, want 1", got)
	}
	// Flush drains: a second Flush must not double anything.
	rec.Flush()
	if got := p.Count("q1", "R+A", profile.StateBytes); got != 6 {
		t.Fatalf("second Flush changed count to %d", got)
	}
}

// TestKeysSorted: Keys returns every placement key attributed under a
// query, sorted, and excludes the key-less query-level counters.
func TestKeysSorted(t *testing.T) {
	rec, p := recording(0)
	rec.Emit(0, obs.Rec{Kind: obs.KindEval, QID: "q", Key: "S+B"})
	rec.Emit(0, obs.Rec{Kind: obs.KindTrigger, QID: "q", Key: "R+A", Arg: 2})
	rec.Emit(0, obs.Rec{Kind: obs.KindEval, QID: "q", Key: "R+A"}) // same key twice: no duplicate
	rec.Emit(0, obs.Rec{Kind: obs.KindFanoutRow, QID: "q", Key: "ignored"})
	rec.Emit(0, obs.Rec{Kind: obs.KindEval, QID: "other", Key: "Z+Z"})
	rec.Flush()
	if got := p.Keys("q"); !reflect.DeepEqual(got, []string{"R+A", "S+B"}) {
		t.Fatalf("Keys = %v", got)
	}
	if got := p.Count("q", "", profile.FanoutRows); got != 1 {
		t.Fatalf("fan-out rows = %d, want 1 under the empty key", got)
	}
}

// TestStateSeries: state deltas bucket into interval-aligned windows by
// record time, merge across shards, and SeriesFor reports the running
// footprint in window order.
func TestStateSeries(t *testing.T) {
	rec, p := recording(10)
	rec.Emit(0, obs.Rec{At: 3, Kind: obs.KindStateStore, QID: "q", N: 100})   // window 0
	rec.Emit(1, obs.Rec{At: 7, Kind: obs.KindStateStore, QID: "q", N: 50})    // window 0, different shard: merged
	rec.Emit(0, obs.Rec{At: 25, Kind: obs.KindStateDrop, QID: "q", N: -30})   // window 20
	rec.Emit(0, obs.Rec{At: 14, Kind: obs.KindStateStore, QID: "q2", N: 999}) // other query: invisible to q
	rec.Flush()
	got := p.SeriesFor("q")
	want := []profile.StatePoint{{Win: 0, Bytes: 150}, {Win: 20, Bytes: 120}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SeriesFor = %+v, want %+v", got, want)
	}
}

// TestReset: Reset discards both folded and still-buffered attribution.
func TestReset(t *testing.T) {
	rec, p := recording(0)
	rec.Emit(0, obs.Rec{Kind: obs.KindEval, QID: "q", Key: "k"})
	rec.Flush()
	rec.Emit(1, obs.Rec{Kind: obs.KindEval, QID: "q", Key: "k"}) // unfolded at Reset time
	rec.Reset()
	rec.Flush()
	if got := p.Count("q", "k", profile.Evals); got != 0 {
		t.Fatalf("count after Reset = %d", got)
	}
}
