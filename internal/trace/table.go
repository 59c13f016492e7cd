// Package trace renders the benchmark harness's tables and bar-style
// figures as text, in the spirit of the paper's tables and figures.
package trace

import (
	"fmt"
	"strings"

	"snapify/internal/simclock"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// New returns a table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(values ...any) *Table {
	row := make([]string, len(values))
	for i, v := range values {
		row[i] = fmt.Sprint(v)
	}
	t.rows = append(t.rows, row)
	return t
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], v)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// Seconds formats a virtual duration as seconds with two decimals.
func Seconds(d simclock.Duration) string {
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// Millis formats a virtual duration as milliseconds.
func Millis(d simclock.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// Bytes formats a byte count with a binary unit.
func Bytes(n int64) string {
	switch {
	case n >= simclock.GiB:
		return fmt.Sprintf("%.2fGiB", float64(n)/float64(simclock.GiB))
	case n >= simclock.MiB:
		return fmt.Sprintf("%.1fMiB", float64(n)/float64(simclock.MiB))
	case n >= simclock.KiB:
		return fmt.Sprintf("%.1fKiB", float64(n)/float64(simclock.KiB))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Speedup formats a ratio like "6.3x".
func Speedup(v float64) string { return fmt.Sprintf("%.1fx", v) }
