package rjoin

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
)

// TestAnswersLogView pins the contract of the answer reads over the
// owner's answer log. Answers, AnswersSince and Count are views built on
// demand, so the test holds them to what the engine delivered — the
// rows, in delivery order, with their query, values, delivery time and
// lineage, digested and pinned with and without Provenance, at every
// worker count, to the digests of the []Answer log that the flat value
// log and then the byte log replaced (re-pinned once, when the serial
// heap gave way to the one sub-round schedule) — and to the rules a view
// must keep: a slice returned earlier is never changed by later
// deliveries, appending to a returned Row never writes the next row,
// AnswersSince(c) is Answers()[c:], Count is len(Answers()), an
// unsubscribed subscription reads empty everywhere, and DISTINCT still
// drops repeat rows. The workload shares pipelines (a permuted
// duplicate, a residual filter and a containment child), so the rows
// reach the log through the fan-out's per-slot scratch too, from worker
// context when several workers run.
func TestAnswersLogView(t *testing.T) {
	for _, tc := range []struct {
		prov   bool
		digest string
	}{
		{false, "80a35b49958a2ffc"},
		{true, "2427402ff0891a53"},
	} {
		for _, w := range goldenWorkers(Options{}) {
			t.Run(fmt.Sprintf("provenance=%v/workers=%d", tc.prov, w), func(t *testing.T) {
				testAnswersLogView(t, Options{Nodes: 48, Seed: 23, Sharing: true, Provenance: tc.prov, Workers: w}, tc.digest)
			})
		}
	}
}

// testAnswersLogView runs the workload under opts and holds its answer
// log to digest and to the rules a view must keep.
func testAnswersLogView(t *testing.T, opts Options, digest string) {
	net := MustNetwork(opts)
	net.MustDefineRelation("R", "A", "B")
	net.MustDefineRelation("S", "A", "B")
	net.MustDefineRelation("T", "A", "B")
	subs := []*Subscription{
		net.MustSubscribe("select R.B, S.B from R,S where R.A=S.A"),
		net.MustSubscribe("select S.B, R.B from S,R where S.A=R.A"),
		net.MustSubscribe("select S.B from S,R where R.A=S.A and 3=R.A"),
		net.MustSubscribe("select R.B, T.B from R,S,T where R.A=S.A and S.B=T.B"),
		net.MustSubscribe("select distinct S.B from R,S where R.A=S.A"),
	}
	distinct := subs[4]
	net.Run()
	skew := []int{0, 0, 3, 1, 1, 2, 3, 4}
	publish := func(from, to int) {
		for i := from; i < to; i++ {
			net.MustPublish("R", skew[i%8], i)
			net.MustPublish("S", skew[(i+1)%8], i%5)
			if i%3 == 0 {
				net.MustPublish("T", skew[i%8], (i+2)%5)
			}
			net.Run()
		}
	}

	publish(0, 12)
	early := make([][]Answer, len(subs))
	kept := make([][]Answer, len(subs))
	for i, sub := range subs {
		early[i] = sub.Answers()
		kept[i] = deepAnswers(early[i])
		if len(early[i]) == 0 {
			t.Fatalf("%s: no answers after the first half", sub.SQL)
		}
	}
	publish(12, 24)

	d := fnv.New64a()
	for i, sub := range subs {
		all := sub.Answers()
		if !answersEqual(early[i], kept[i]) {
			t.Fatalf("%s: a slice returned earlier changed under later deliveries", sub.SQL)
		}
		if i == 0 && len(all) == len(kept[i]) {
			t.Fatalf("%s: nothing delivered after the first half", sub.SQL)
		}
		if len(all) < len(kept[i]) || !answersEqual(all[:len(kept[i])], kept[i]) {
			t.Fatalf("%s: the earlier %d rows are not a prefix of the %d now", sub.SQL, len(kept[i]), len(all))
		}
		if n := sub.Count(); n != len(all) {
			t.Fatalf("%s: Count %d, len(Answers()) %d", sub.SQL, n, len(all))
		}
		for c := -1; c <= len(all)+1; c++ {
			want := all[min(max(c, 0), len(all)):]
			if got := sub.AnswersSince(c); !answersEqual(got, want) {
				t.Fatalf("%s: AnswersSince(%d) is not Answers()[%d:]", sub.SQL, c, c)
			}
		}
		for j := 0; j+1 < len(all); j++ {
			next := slices.Clone(all[j+1].Row)
			_ = append(all[j].Row, all[j].Row...)
			if !slices.Equal(all[j+1].Row, next) {
				t.Fatalf("%s: appending to row %d overwrote row %d", sub.SQL, j, j+1)
			}
		}
		if opts.Provenance != (all[0].Lineage != nil) {
			t.Fatalf("%s: lineage %v with Provenance %v", sub.SQL, all[0].Lineage, opts.Provenance)
		}
		fmt.Fprintf(d, "[%s]", sub.ID)
		for _, a := range all {
			if a.Query != sub.ID {
				t.Fatalf("%s: answer of query %s", sub.SQL, a.Query)
			}
			fmt.Fprintf(d, "%d:", a.At)
			for _, v := range a.Row {
				fmt.Fprintf(d, "%d/%d/%q,", v.Kind, v.Int, v.Str)
			}
			for _, s := range a.Lineage {
				fmt.Fprintf(d, "<%d.%d@%d>", s.Pub, s.Seq, s.Node)
			}
			fmt.Fprint(d, ";")
		}
	}
	if got := fmt.Sprintf("%016x", d.Sum64()); got != digest {
		t.Errorf("answer log digest %s, want %s", got, digest)
	}

	seen := map[string]bool{}
	for _, a := range distinct.Answers() {
		k := fmt.Sprint(a.Row)
		if seen[k] {
			t.Fatalf("DISTINCT delivered %v twice", a.Row)
		}
		seen[k] = true
	}
	if len(seen) == 0 || len(seen) >= subs[0].Count() {
		t.Fatalf("DISTINCT kept %d of %d rows: the workload repeats none", len(seen), subs[0].Count())
	}

	for _, sub := range subs[:2] {
		if err := sub.Unsubscribe(); err != nil {
			t.Fatal(err)
		}
		if a, s, c := sub.Answers(), sub.AnswersSince(0), sub.Count(); a != nil || s != nil || c != 0 {
			t.Fatalf("%s: unsubscribed, reads Answers %v, AnswersSince(0) %v, Count %d", sub.SQL, a, s, c)
		}
	}
}

// deepAnswers copies answers, rows and lineage included.
func deepAnswers(as []Answer) []Answer {
	out := make([]Answer, len(as))
	for i, a := range as {
		out[i] = Answer{Query: a.Query, Row: slices.Clone(a.Row), At: a.At, Lineage: slices.Clone(a.Lineage)}
	}
	return out
}

// answersEqual compares two answer lists element by element.
func answersEqual(a, b []Answer) bool {
	return slices.EqualFunc(a, b, func(x, y Answer) bool {
		return x.Query == y.Query && x.At == y.At && slices.Equal(x.Row, y.Row) && slices.Equal(x.Lineage, y.Lineage)
	})
}
