package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// Plot renders the table's numeric columns as an ASCII chart, one line
// per row, with proportional bars — enough to eyeball the shape of a
// figure in a terminal without gnuplot. Non-numeric
// cells (e.g. the "converged" row label) are passed through.
func (t *Table) Plot() string {
	if len(t.Rows) == 0 || len(t.Header) < 2 {
		return t.String()
	}
	const barWidth = 40

	// Column-wise max over numeric cells (columns 1..).
	numCols := len(t.Header) - 1
	maxVal := make([]float64, numCols)
	vals := make([][]float64, len(t.Rows))
	okRow := make([][]bool, len(t.Rows))
	for i, row := range t.Rows {
		vals[i] = make([]float64, numCols)
		okRow[i] = make([]bool, numCols)
		for c := 0; c < numCols && c+1 < len(row); c++ {
			x, err := strconv.ParseFloat(row[c+1], 64)
			if err != nil || x < 0 {
				continue
			}
			vals[i][c] = x
			okRow[i][c] = true
			if x > maxVal[c] {
				maxVal[c] = x
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	labelWidth := len(t.Header[0])
	for _, row := range t.Rows {
		if len(row[0]) > labelWidth {
			labelWidth = len(row[0])
		}
	}
	for c := 0; c < numCols; c++ {
		fmt.Fprintf(&b, "\n%s (max %.4g)\n", t.Header[c+1], maxVal[c])
		for i, row := range t.Rows {
			fmt.Fprintf(&b, "  %-*s |", labelWidth, row[0])
			if !okRow[i][c] {
				b.WriteString(" -\n")
				continue
			}
			n := 0
			if maxVal[c] > 0 {
				n = int(vals[i][c] / maxVal[c] * barWidth)
			}
			b.WriteString(strings.Repeat("#", n))
			fmt.Fprintf(&b, " %s\n", row[c+1])
		}
	}
	return b.String()
}
