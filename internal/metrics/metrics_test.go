package metrics

import (
	"encoding/csv"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rjoin/internal/id"
)

func TestLoadAddGetTotal(t *testing.T) {
	l := NewLoad()
	l.Add(1, 5)
	l.Add(2, 3)
	l.Add(1, 2)
	if l.Get(1) != 7 || l.Get(2) != 3 || l.Get(3) != 0 {
		t.Fatalf("unexpected per-node loads: %d %d %d", l.Get(1), l.Get(2), l.Get(3))
	}
	if l.Total() != 10 {
		t.Fatalf("total = %d, want 10", l.Total())
	}
	if l.PerNode(5) != 2.0 {
		t.Fatalf("per-node = %f, want 2", l.PerNode(5))
	}
}

func TestPerNodeEmptyNetwork(t *testing.T) {
	l := NewLoad()
	if l.PerNode(0) != 0 {
		t.Fatal("PerNode(0) must be 0")
	}
}

func TestParticipantsAndMax(t *testing.T) {
	l := NewLoad()
	l.Add(1, 4)
	l.Add(2, 0)
	l.Add(3, 9)
	if l.Participants() != 2 {
		t.Fatalf("participants = %d, want 2", l.Participants())
	}
	if l.Max() != 9 {
		t.Fatalf("max = %d, want 9", l.Max())
	}
}

func TestRankedSortedDescending(t *testing.T) {
	l := NewLoad()
	for i, v := range []int64{3, 9, 1, 7} {
		l.Add(id.ID(i), v)
	}
	r := l.Ranked()
	if !sort.SliceIsSorted(r, func(i, j int) bool { return r[i] > r[j] }) {
		t.Fatalf("ranked not descending: %v", r)
	}
	if len(r) != 4 || r[0] != 9 {
		t.Fatalf("ranked = %v", r)
	}
}

func TestReset(t *testing.T) {
	a := NewLoad()
	a.Add(1, 2)
	a.Add(2, 4)
	a.Reset()
	if a.Total() != 0 || a.Participants() != 0 {
		t.Fatal("reset incomplete")
	}
}

// Property: Total always equals the sum of the ranked distribution.
func TestTotalMatchesRankedSumProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		l := NewLoad()
		for i, v := range vals {
			l.Add(id.ID(i), int64(v))
		}
		var sum int64
		for _, v := range l.Ranked() {
			sum += v
		}
		return sum == l.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteness(t *testing.T) {
	exp := map[string]int64{"a": 2, "b": 1, "c": 1}
	got := map[string]int64{"a": 1, "b": 3, "d": 1}
	c := CompareMultisets(exp, got)
	if c.Expected != 4 || c.Delivered != 5 {
		t.Fatalf("totals wrong: %+v", c)
	}
	if c.Lost != 2 { // one "a" and the "c"
		t.Fatalf("Lost = %d, want 2", c.Lost)
	}
	if c.Duplicated != 3 { // two extra "b", one unexpected "d"
		t.Fatalf("Duplicated = %d, want 3", c.Duplicated)
	}
	if c.Exact() {
		t.Fatal("mismatching multisets reported exact")
	}
	if got := c.Recall(); got != 0.5 {
		t.Fatalf("Recall = %v, want 0.5", got)
	}
}

func TestCompletenessExact(t *testing.T) {
	m := map[string]int64{"x": 2, "y": 1}
	c := CompareMultisets(m, m)
	if !c.Exact() || c.Recall() != 1 {
		t.Fatalf("identical multisets not exact: %+v", c)
	}
	empty := CompareMultisets(nil, nil)
	if !empty.Exact() || empty.Recall() != 1 {
		t.Fatalf("empty comparison not exact: %+v", empty)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "Demo", Headers: []string{"k", "value"}}
	tab.AddRow("a", "1")
	tab.AddRow("b", "2.35")
	out := tab.String()
	if !strings.Contains(out, "## Demo") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "2.35") {
		t.Fatalf("missing second row: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("unexpected line count %d: %q", len(lines), out)
	}
}

func TestTableAddInts(t *testing.T) {
	tab := &Table{Headers: []string{"k", "a", "b"}}
	tab.AddInts("row", 7, -3)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	want := []string{"row", "7", "-3"}
	for i, c := range tab.Rows[0] {
		if c != want[i] {
			t.Fatalf("cell %d = %q, want %q", i, c, want[i])
		}
	}
}

func TestRenameTransfersLoad(t *testing.T) {
	l := NewLoad()
	l.Add(1, 5)
	l.Add(2, 3)
	l.Rename(1, 9)
	if l.Get(1) != 0 || l.Get(9) != 5 || l.Total() != 8 {
		t.Fatalf("rename wrong: old=%d new=%d total=%d", l.Get(1), l.Get(9), l.Total())
	}
	// Renaming onto an existing id merges.
	l.Rename(9, 2)
	if l.Get(2) != 8 {
		t.Fatalf("merge rename wrong: %d", l.Get(2))
	}
	// Self-rename and missing-id rename are no-ops.
	l.Rename(2, 2)
	l.Rename(42, 43)
	if l.Get(2) != 8 || l.Total() != 8 {
		t.Fatal("no-op renames changed state")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{
		Title:   "ignored in CSV",
		Headers: []string{"mode", "value"},
	}
	tab.AddRow("plain", "1")
	tab.AddRow(`quoted,"cell"`, "2")
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "mode,value\nplain,1\n\"quoted,\"\"cell\"\"\",2\n"
	if got != want {
		t.Fatalf("CSV rendering wrong:\ngot  %q\nwant %q", got, want)
	}
	r := csv.NewReader(strings.NewReader(got))
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[2][0] != `quoted,"cell"` {
		t.Fatalf("CSV did not round-trip: %v", rows)
	}
}
