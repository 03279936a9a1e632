// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the synthetic Twitter-like and Flickr-like graphs.
// Each experiment returns a Table whose rows correspond to the points of
// the paper's plot; cmd/experiments prints them (DESIGN.md §4 indexes
// the experiments).
package experiments

import (
	"fmt"
	"strings"

	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/workload"
)

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Scale sizes an experiment run. The paper uses the full crawls and a
// 1500-core cluster; these run on one machine.
type Scale struct {
	FlickrNodes       int // Flickr-like generator size
	TwitterNodes      int // Twitter-like generator size
	SampleEdges       int // sample size for the Fig. 9 CHITCHAT comparison
	SampleCount       int // samples averaged per point (paper: 5)
	PrototypeRequests int // requests per Fig. 6 measurement point
	PrototypeClients  int // client goroutines for Fig. 6
	Workers           int // solver parallelism, read by PARALLELNOSY, the sharded solver and CHITCHAT (its seed phase only); 0 = all cores
	ZooOps            int // churn trace length per zoo scenario; 0 means 1200
	Seed              int64
}

// Quick is sized for tests and smoke runs (seconds).
var Quick = Scale{
	FlickrNodes:       400,
	TwitterNodes:      600,
	SampleEdges:       2500,
	SampleCount:       2,
	PrototypeRequests: 4000,
	PrototypeClients:  4,
	ZooOps:            600,
	Seed:              1,
}

// Default is sized for a full regeneration of the tables (minutes).
var Default = Scale{
	FlickrNodes:       3000,
	TwitterNodes:      5000,
	SampleEdges:       20000,
	SampleCount:       3,
	PrototypeRequests: 30000,
	PrototypeClients:  8,
	ZooOps:            2000,
	Seed:              1,
}

// flickr builds the Flickr-like graph with its reference workload.
func (sc Scale) flickr() (*graph.Graph, *workload.Rates) {
	g := graphgen.Social(graphgen.FlickrLike(sc.FlickrNodes, sc.Seed))
	return g, workload.LogDegree(g, workload.DefaultReadWriteRatio)
}

// twitter builds the Twitter-like graph with its reference workload.
func (sc Scale) twitter() (*graph.Graph, *workload.Rates) {
	g := graphgen.Social(graphgen.TwitterLike(sc.TwitterNodes, sc.Seed))
	return g, workload.LogDegree(g, workload.DefaultReadWriteRatio)
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func d(x int) string      { return fmt.Sprintf("%d", x) }
func e2(x float64) string { return fmt.Sprintf("%.2e", x) }
