package sweep

import (
	"fmt"
	"strings"
)

// Table is a titled grid of cells that renders as aligned text,
// GitHub-flavoured markdown, or CSV rows: the sweep's strategy×scenario
// matrices, the live harness's sim-vs-live diff and the paper claims of
// `emucast reproduce` all print through it.
type Table struct {
	// Title is printed above the grid.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the cell grids; short rows render with trailing blanks.
	Rows [][]string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// widths returns the maximum cell width per column.
func (t *Table) widths() []int {
	w := make([]int, len(t.Header))
	grow := func(row []string) {
		for i, c := range row {
			for len(w) <= i {
				w = append(w, 0)
			}
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	grow(t.Header)
	for _, r := range t.Rows {
		grow(r)
	}
	return w
}

// at returns row cell i, or "" past the end.
func at(row []string, i int) string {
	if i < len(row) {
		return row[i]
	}
	return ""
}

// String renders the table as aligned text: the first column left-aligned
// (labels), the rest right-aligned (figures).
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	w := t.widths()
	writeRow := func(row []string) {
		for i := range w {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", w[i], at(row, i))
			} else {
				fmt.Fprintf(&b, "%*s", w[i], at(row, i))
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table, with
// the title as a bold caption line.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	n := len(t.widths())
	writeRow := func(row []string) {
		b.WriteString("|")
		for i := 0; i < n; i++ {
			b.WriteString(" " + strings.ReplaceAll(at(row, i), "|", "\\|") + " |")
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	b.WriteString("|")
	for i := 0; i < n; i++ {
		if i == 0 {
			b.WriteString(" --- |")
		} else {
			b.WriteString(" ---: |")
		}
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders header and rows as CSV.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(row []string) {
		for i := range row {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(CSVEscape(row[i]))
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSVEscape quotes a CSV field when it contains separators, quotes or
// newlines.
func CSVEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
