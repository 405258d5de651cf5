package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// table is a small helper for paper-style text tables.
type table struct {
	title  string
	header []string
	rows   [][]string
	notes  []string
}

func newTable(title string, header ...string) *table {
	return &table{title: title, header: header}
}

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) rowf(format string, args ...any) {
	t.rows = append(t.rows, strings.Split(fmt.Sprintf(format, args...), "\t"))
}

func (t *table) note(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// WriteCSV writes the table as CSV: a comment row with the title, the
// header, then the data rows (notes are omitted).
func (t *table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"# " + t.title}); err != nil {
		return err
	}
	if len(t.header) > 0 {
		if err := cw.Write(t.header); err != nil {
			return err
		}
	}
	for _, r := range t.rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// TableJSON is a table's machine-readable form, the payload of
// mlpexp -format json. Schema: "mlpcache.table/v1".
type TableJSON struct {
	Schema string     `json:"schema"`
	Title  string     `json:"title"`
	Header []string   `json:"header,omitempty"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// TableSchema identifies the JSON table format.
const TableSchema = "mlpcache.table/v1"

// WriteJSON writes the table as one JSON object including the notes.
func (t *table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(TableJSON{
		Schema: TableSchema,
		Title:  t.title,
		Header: t.header,
		Rows:   t.rows,
		Notes:  t.notes,
	})
}

// WriteText writes the paper-style text table.
func (t *table) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "== %s ==\n", t.title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(t.header) > 0 {
		fmt.Fprintln(tw, strings.Join(t.header, "\t"))
	}
	for _, r := range t.rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pct(v float64) string { return fmt.Sprintf("%+.1f%%", v) }

// sameSign reports whether two percentage deltas agree in direction,
// treating anything inside the dead band as neutral (matching either
// sign). It is the "shape holds" criterion EXPERIMENTS.md records.
func sameSign(measured, paper, deadBand float64) bool {
	if measured > -deadBand && measured < deadBand {
		return true
	}
	if paper > -deadBand && paper < deadBand {
		return true
	}
	return (measured > 0) == (paper > 0)
}
