package experiments

import (
	"encoding/csv"
	"strings"
	"testing"
)

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
