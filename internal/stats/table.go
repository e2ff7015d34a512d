package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders them with aligned columns: the
// plain-text form of every experiment table cmd/dqbench prints.
type Table struct {
	// Title is printed above the table; Note, when non-empty, below it.
	Title string
	Note  string

	columns []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, columns: append([]string(nil), columns...)}
}

// AddRow appends one row; missing cells render empty, extra cells are an
// error.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) > len(t.columns) {
		return fmt.Errorf("stats: row has %d cells, table has %d columns", len(cells), len(t.columns))
	}
	row := make([]string, len(t.columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
	return nil
}

// MustAddRow is AddRow for programmatically-correct callers; it panics on
// arity mismatch, which is a bug in the experiment driver, not an input
// error.
func (t *Table) MustAddRow(cells ...string) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.columns))
	for i, c := range t.columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}

	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.columns)
	rule := make([]string, len(t.columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// Markdown renders the table as a GitHub-flavored markdown table (the
// output of dqbench -markdown).
func (t *Table) Markdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.columns, " | "))
	seps := make([]string, len(t.columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Note)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}
