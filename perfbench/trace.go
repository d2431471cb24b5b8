package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName identifies a harness span. Spans are recorded from outside
// the program, around the calls into each layer; spans inside the
// program are a later change.
type spanName uint8

const (
	spanOp spanName = iota
	spanPublish
	spanDrain
	spanSweep
	spanSubscribe
	spanUnsubscribe
	spanMembership
	numSpans
)

var spanNames = [numSpans]string{
	"op", "core.publish", "core.drain", "core.sweep_altt", "rjoin.subscribe", "rjoin.unsubscribe", "rjoin.membership",
}

// span is one timed interval. parent indexes the enclosing span (-1 for
// a root); spans of one op share its op id.
type span struct {
	name       spanName
	parent     int32
	op         int64
	start, end time.Duration // since recorder start
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced run pays one nil check per site.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name spanName, op int64) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: parent, op: op, start: time.Since(r.t0)})
	r.stack = append(r.stack, i)
	return i
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = time.Since(r.t0)
	r.stack = r.stack[:len(r.stack)-1]
}

// spanTotals is the count and summed self time of one span name, self
// time being a span's duration minus its children's.
type spanTotals struct {
	calls int64
	self  time.Duration
}

func (r *recorder) totals() [numSpans]spanTotals {
	var out [numSpans]spanTotals
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		out[s.name].calls++
		out[s.name].self += s.end - s.start - child[i]
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load at
// ui.perfetto.dev).
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range r.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%d}}",
			spanNames[s.name], float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op, s.parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
