package main

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"piggyback/internal/graphgen"
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

// TestPrintProgressLines pins the -progress lines of a real solve per
// solver family: CHITCHAT's final sampled commit line, NOSY's first
// round, and one line per solved shard.
func TestPrintProgressLines(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(300, 1))
	r := workload.LogDegree(g, workload.DefaultReadWriteRatio)
	run := func(name string, opts solver.Options) []string {
		t.Helper()
		var buf bytes.Buffer
		opts.Progress = func(ev solver.ProgressEvent) { printProgress(&buf, ev) }
		sv, err := solver.New(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sv.Solve(context.Background(), solver.Problem{Graph: g, Rates: r}); err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	}
	// One worker: shards report in completion order, which is then
	// shard order.
	for _, tc := range []struct {
		name string
		opts solver.Options
		pick func([]string) []string
		want []string
	}{
		{solver.ChitChat, solver.Options{}, func(l []string) []string { return l[len(l)-1:] },
			[]string{"commit    1725: covered=10792 remaining=0"}},
		{solver.Nosy, solver.Options{}, func(l []string) []string { return l[:1] },
			[]string{"iteration   1: dirty=10792 candidates=10629 commits=1+3 covered=186 cost=52211.5"}},
		{solver.Shard, solver.Options{Shards: 2, Workers: 1}, func(l []string) []string { return l },
			[]string{"shard 1/2: edges=6106 cost=9367.6", "shard 2/2: edges=570 cost=2430.7"}},
	} {
		if got := tc.pick(run(tc.name, tc.opts)); !slices.Equal(got, tc.want) {
			t.Errorf("%s progress lines = %q, want %q", tc.name, got, tc.want)
		}
	}
}
