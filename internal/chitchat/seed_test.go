package chitchat

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"piggyback/internal/bitset"
	"piggyback/internal/core"
	"piggyback/internal/pq"
)

// The seed phase allocates per hub, not per graph edge: a solve of the
// stall region cancelled at its first commit stays under 14 allocations a
// hub (an instance's arrays, its oracle's result) plus the solve's own. With
// one growing slice per graph edge behind the inverted index it made 148k.
func TestSeedPhaseAllocations(t *testing.T) {
	sub, r := stallRegion(t)
	hubs := sub.G.NumNodes()
	allocs := testing.AllocsPerRun(3, func() {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := SolveCtx(ctx, sub.G, r, Config{Workers: 1, OnProgress: func(Progress) { cancel() }})
		if err == nil {
			t.Fatal("the solve was not cut at its first commit")
		}
	})
	if limit := float64(14*hubs + 64); allocs > limit {
		t.Errorf("seed phase of %d hubs made %.0f allocations, limit %.0f", hubs, allocs, limit)
	}
}

// The flat inverted index holds, per graph edge, the (hub, element) pairs
// the per-edge appends of the seed loop it replaced produced, in their
// order — so coverEdge removes the same elements in the same sequence — at
// every seed worker count, and the workers leave every hub's oracle output
// as the serial seed does.
func TestSeedIndexMatchesAppendReference(t *testing.T) {
	fourProcs(t)
	sub, r := stallRegion(t)
	g := sub.G
	n, m := g.NumNodes(), g.NumEdges()
	var serial []hubEval
	for _, workers := range seedWorkers {
		sv := &solver{
			g: g, r: r, cfg: Config{MaxCrossEdges: DefaultMaxCrossEdges, Workers: workers}, s: core.NewSchedule(g),
			n: n, uncovered: bitset.New(m), remaining: m, q: pq.New(n + m),
			sc:    scratch{yMark: make([]int64, n), yPos: make([]int32, n)},
			insts: make([]*hubInstance, n), evals: make([]hubEval, n),
		}
		sv.seed()

		want := make([][]invEntry, m)
		kept, elems := 0, 0
		for w, hi := range sv.insts {
			if hi == nil {
				continue
			}
			kept++
			for ei, e := range hi.gid {
				want[e] = append(want[e], invEntry{int32(w), int32(ei)})
				elems++
			}
		}
		if kept == 0 || sv.q.Len() != kept {
			t.Fatalf("workers=%d: %d hubs kept, %d queued", workers, kept, sv.q.Len())
		}
		if len(sv.invAt) != m+1 || sv.invAt[0] != 0 || sv.invAt[m] != elems || len(sv.inv) != elems {
			t.Fatalf("workers=%d: %d offsets ending at %d over %d entries, want %d ending at %d", workers, len(sv.invAt), sv.invAt[m], len(sv.inv), m+1, elems)
		}
		for e := range want {
			if got := sv.inv[sv.invAt[e]:sv.invAt[e+1]]; !slices.Equal(got, want[e]) {
				t.Fatalf("workers=%d edge %d: bucket %v, appends gave %v", workers, e, got, want[e])
			}
		}
		if serial == nil {
			serial = sv.evals
		} else if !reflect.DeepEqual(sv.evals, serial) {
			t.Errorf("workers=%d: oracle outputs differ from the serial seed's", workers)
		}
	}
}
