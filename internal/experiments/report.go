package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Report is everything an experiment prints: its figures, then its tables.
// Every driver's output has this one shape and Write is its one printer.
type Report struct {
	Figures []*Figure
	Tables  []*Table
}

// Table is a titled list of rows. A Verbose table prints only under -v.
type Table struct {
	Title   string
	Verbose bool
	Rows    []Row
}

// Row is one table line, printed as its fields separated by single spaces,
// plus detail lines printed beneath it under -v.
type Row struct {
	Fields []Field
	Detail []string
}

// Field is one value of a row. Key names it (tests look values up by it);
// Verb prints it, label included ("comp=%-4d"), in fmt syntax.
type Field struct {
	Key  string
	Verb string
	Val  any
}

// Write prints the report: each figure followed by a blank line, then each
// table's title and rows. verbose adds the Verbose tables and every row's
// detail lines.
func (r *Report) Write(w io.Writer, verbose bool) {
	for _, f := range r.Figures {
		fmt.Fprintln(w, f)
	}
	for _, t := range r.Tables {
		if t.Verbose && !verbose {
			continue
		}
		if t.Title != "" {
			fmt.Fprintln(w, t.Title)
		}
		for _, row := range t.Rows {
			parts := make([]string, len(row.Fields))
			for i, f := range row.Fields {
				parts[i] = fmt.Sprintf(f.Verb, f.Val)
			}
			fmt.Fprintf(w, "  %s\n", strings.Join(parts, " "))
			if verbose {
				for _, d := range row.Detail {
					fmt.Fprintf(w, "      %s\n", d)
				}
			}
		}
	}
}

// outOf is a count printed against its total, n/of, both parts in the
// field's verb: "%-3d" prints 7 of 9 as "7  /9  ".
type outOf [2]int64

func (o outOf) Format(f fmt.State, verb rune) {
	s := fmt.FormatString(f, verb)
	fmt.Fprintf(f, s+"/"+s, o[0], o[1])
}

// Lift turns a driver that returns a figure, the Figure 9 example or
// ablation rows into one that returns the common report.
func Lift[T *Figure | *Fig9Result | []AblationResult](run func(Config) (T, error)) func(Config) (*Report, error) {
	return func(c Config) (*Report, error) {
		res, err := run(c)
		if err != nil {
			return nil, err
		}
		switch res := any(res).(type) {
		case *Figure:
			return &Report{Figures: []*Figure{res}}, nil
		case *Fig9Result:
			return res.report(), nil
		default:
			return ablationReport(res.([]AblationResult)), nil
		}
	}
}
