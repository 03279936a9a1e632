package chitchat_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

// errHubBroke is the typed panic value the test's seed observer raises.
var errHubBroke = errors.New("hub broke")

// A panic while a seed worker builds a hub must surface on the goroutine
// that called Solve, where a caller can recover it — on a spawned
// goroutine it would kill the process. Two hubs panic, in blocks far
// apart; the lower one's value is what comes back, typed or not,
// whichever worker met it first.
func TestSeedWorkerPanicReachesTheCaller(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g := graphgen.Social(graphgen.FlickrLike(300, 5))
	p := solver.Problem{Graph: g, Rates: workload.LogDegree(g, 5)}
	defer chitchat.SetSeedObserver(nil)
	for _, workers := range []int{1, 2, 3} {
		sv, err := solver.New(solver.ChitChat, solver.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var res *solver.Result
		solve := func() (r any) {
			defer func() { r = recover() }()
			res, err = sv.Solve(context.Background(), p)
			return nil
		}

		chitchat.SetSeedObserver(func(w graph.NodeID) {
			if w == 40 || w == 250 {
				panic(fmt.Errorf("hub %d: %w", w, errHubBroke))
			}
		})
		raised := solve()
		if e, ok := raised.(error); !ok || !errors.Is(e, errHubBroke) || !strings.HasPrefix(e.Error(), "hub 40:") {
			t.Errorf("workers=%d, typed panic: raised %v, res=%v err=%v", workers, raised, res, err)
		}

		chitchat.SetSeedObserver(func(w graph.NodeID) {
			if w == 40 || w == 250 {
				panic(fmt.Sprintf("hub %d broke", w))
			}
		})
		if raised = solve(); raised != "hub 40 broke" {
			t.Errorf("workers=%d, untyped panic: raised %v, res=%v err=%v", workers, raised, res, err)
		}

		chitchat.SetSeedObserver(nil)
		if res, err = sv.Solve(context.Background(), p); err != nil || res.Schedule.Validate() != nil {
			t.Errorf("workers=%d, after the panics: err=%v", workers, err)
		}
	}
}
