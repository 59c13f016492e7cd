package trace

import (
	"strings"
	"testing"
	"time"
)

func TestTableAlignment(t *testing.T) {
	tbl := New("Title", "Name", "Value")
	tbl.Row("a", 1)
	tbl.Row("longer-name", 22)
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "Title" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Name") || !strings.Contains(lines[1], "Value") {
		t.Errorf("header = %q", lines[1])
	}
	// Column alignment: "Value" column starts at the same offset everywhere.
	idx := strings.Index(lines[1], "Value")
	if got := strings.Index(lines[3], "1"); got != idx {
		t.Errorf("value misaligned: header col %d, row col %d\n%s", idx, got, out)
	}
}

func TestFormatters(t *testing.T) {
	cases := []struct{ got, want string }{
		{Seconds(2500 * time.Millisecond), "2.50s"},
		{Millis(1500 * time.Microsecond), "1.5ms"},
		{Bytes(512), "512B"},
		{Bytes(2 * 1024), "2.0KiB"},
		{Bytes(3 * 1024 * 1024), "3.0MiB"},
		{Bytes(5 << 30), "5.00GiB"},
		{Speedup(6.28), "6.3x"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestBarChartRendering(t *testing.T) {
	c := NewBarChart("Checkpoint breakdown", "s", "pause", "capture")
	c.Bar("SS", []float64{4.8, 1.1}, "")
	c.Bar("MC", []float64{0.05, 0.3}, "(fastest)")
	out := c.String()
	if !strings.Contains(out, "Checkpoint breakdown") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "key: █ pause ▓ capture") {
		t.Errorf("missing key:\n%s", out)
	}
	if !strings.Contains(out, "5.90s") {
		t.Errorf("missing total:\n%s", out)
	}
	if !strings.Contains(out, "(fastest)") {
		t.Error("missing note")
	}
	// The longest bar belongs to SS.
	lines := strings.Split(out, "\n")
	var ssBlocks, mcBlocks int
	for _, l := range lines {
		if strings.Contains(l, "SS") {
			ssBlocks = strings.Count(l, "█") + strings.Count(l, "▓")
		}
		if strings.Contains(l, "MC") {
			mcBlocks = strings.Count(l, "█") + strings.Count(l, "▓")
		}
	}
	if ssBlocks <= mcBlocks {
		t.Errorf("SS bar (%d cells) should dwarf MC (%d)", ssBlocks, mcBlocks)
	}
	// Tiny non-zero segments still show at least one cell.
	if mcBlocks < 2 {
		t.Errorf("MC segments collapsed: %d cells", mcBlocks)
	}
}
