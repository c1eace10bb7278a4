package trace

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Results", "name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Results" {
		t.Fatalf("title line = %q", lines[0])
	}
	// All data lines must have equal rendered width.
	if len(lines) < 4 {
		t.Fatalf("too few lines: %v", lines)
	}
	w := len(lines[1])
	for _, l := range lines[2:] {
		if len(l) != w {
			t.Fatalf("misaligned line %q (want width %d)", l, w)
		}
	}
	if !strings.Contains(out, "name") || !strings.Contains(out, "longer-name") {
		t.Fatal("content missing")
	}
}

func TestTableSeparatorAndExtraColumns(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("1", "2", "3") // extra cell beyond headers
	tb.Separator()
	tb.AddRow("x")
	out := tb.String()
	if !strings.Contains(out, "3") {
		t.Fatal("extra column dropped")
	}
	if !strings.Contains(out, "---") {
		t.Fatal("separator missing")
	}
}

func TestPct(t *testing.T) {
	if got := Pct(113.43, 100); got != "+13.43%" {
		t.Fatalf("Pct = %q", got)
	}
	if got := Pct(90, 100); got != "-10.00%" {
		t.Fatalf("Pct = %q", got)
	}
	if got := Pct(1, 0); got != "n/a" {
		t.Fatalf("Pct(_, 0) = %q", got)
	}
}

func TestComma(t *testing.T) {
	cases := map[uint64]string{
		0:       "0",
		999:     "999",
		1000:    "1,000",
		12895:   "12,895",
		1234567: "1,234,567",
		21530:   "21,530",
	}
	for in, want := range cases {
		if got := Comma(in); got != want {
			t.Errorf("Comma(%d) = %q, want %q", in, got, want)
		}
	}
}
