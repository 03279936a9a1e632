// Command experiments regenerates the paper's tables and figures
// (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	experiments -exp all -scale default
//	experiments -exp fig4,fig7 -scale quick
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"piggyback/internal/experiments"
)

func main() {
	var (
		expFlag = flag.String("exp", "all", "comma-separated: datasets,algos,zoo,fig4,fig5,fig6,fig7,fig8,fig9a,fig9b or all")
		scale   = flag.String("scale", "default", "scale preset: quick | default")
		seed    = flag.Int64("seed", 0, "override scale seed (0 keeps preset)")
		workers = flag.Int("workers", 0, "solver parallelism for PARALLELNOSY and the other parallel solvers (0 = all cores; CHITCHAT uses them for its seed phase only)")
		plot    = flag.Bool("plot", false, "render ASCII bar charts instead of tables")
	)
	flag.Parse()

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "default":
		sc = experiments.Default
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scale)
		os.Exit(1)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	sc.Workers = *workers

	runs := map[string]func(experiments.Scale) *experiments.Table{
		"datasets": experiments.Datasets,
		"algos":    experiments.Algorithms,
		"zoo":      experiments.Zoo,
		"fig4":     experiments.Fig4,
		"fig5":     experiments.Fig5,
		"fig6":     experiments.Fig6,
		"fig7":     experiments.Fig7,
		"fig8":     experiments.Fig8,
		"fig9a": func(s experiments.Scale) *experiments.Table {
			return experiments.Fig9(s, experiments.RandomWalkSampling)
		},
		"fig9b": func(s experiments.Scale) *experiments.Table {
			return experiments.Fig9(s, experiments.BFSSampling)
		},
	}
	order := []string{"datasets", "algos", "zoo", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9a", "fig9b"}

	want := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		want = order
	}
	for _, name := range want {
		name = strings.TrimSpace(name)
		run, ok := runs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(1)
		}
		start := time.Now()
		table := run(sc)
		if *plot {
			fmt.Println(table.Plot())
		} else {
			fmt.Println(table.String())
		}
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
