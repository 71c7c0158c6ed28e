// Package metrics renders experiment results as aligned text tables —
// the rows and series EXPERIMENTS.md records, printed identically by
// the benchmarks and the cmd/simdisco experiment runner.
//
// It is the end-of-run reporting layer, not runtime instrumentation:
// live counters, gauges and latency histograms (what a running
// registryd exposes over -http) live in internal/obs. A table
// here summarizes an experiment after it finished; an obs metric ticks
// while the process runs.
package metrics

import (
	"fmt"
	"strings"
)

// Table is a titled, column-aligned result table.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
	notes  []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; cells are formatted with %v, floats with 3
// significant decimals.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a free-text footnote rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns row i (for assertions in tests).
func (t *Table) Row(i int) []string { return t.rows[i] }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("== " + t.Title + " ==\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	for _, n := range t.notes {
		b.WriteString("  note: " + n + "\n")
	}
	return b.String()
}

// CSV renders the table as RFC 4180 CSV (header row first, notes
// omitted) for plotting pipelines.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Header)
	for _, r := range t.rows {
		writeCSVRow(&b, r)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// Ratio formats a/b as "x.xx×", guarding division by zero.
func Ratio(a, b float64) string {
	if b == 0 {
		return "∞"
	}
	return fmt.Sprintf("%.2f×", a/b)
}

// KB formats a byte count as kilobytes with one decimal.
func KB(bytes uint64) string {
	return fmt.Sprintf("%.1fkB", float64(bytes)/1024)
}
