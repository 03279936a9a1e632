package chitchat_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/densest"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

// A panic while a seed worker builds a hub must surface on the goroutine
// that called Solve, where solver.guard turns a typed one into an error
// and a caller can recover any other — on a spawned goroutine it would
// kill the process. Two hubs panic, in blocks far apart; the lower one's
// value is what comes back, typed or not, whichever worker met it first.
func TestSeedWorkerPanicReachesTheCaller(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g := graphgen.Social(graphgen.FlickrLike(300, 5))
	p := solver.Problem{Graph: g, Rates: workload.LogDegree(g, 5)}
	defer chitchat.SetSeedObserver(nil)
	for _, workers := range []int{1, 2, 3} {
		sv := solver.NewChitChat(chitchat.Config{Workers: workers})

		chitchat.SetSeedObserver(func(w graph.NodeID) {
			if w == 40 || w == 250 {
				panic(fmt.Errorf("hub %d: %w", w, densest.ErrInstanceTooLarge))
			}
		})
		res, err := sv.Solve(context.Background(), p)
		if res != nil || !errors.Is(err, densest.ErrInstanceTooLarge) || !strings.Contains(err.Error(), "hub 40:") {
			t.Errorf("workers=%d, typed panic: res=%v err=%v", workers, res, err)
		}

		chitchat.SetSeedObserver(func(w graph.NodeID) {
			if w == 40 || w == 250 {
				panic(fmt.Sprintf("hub %d broke", w))
			}
		})
		raised := func() (r any) {
			defer func() { r = recover() }()
			res, err = sv.Solve(context.Background(), p)
			return nil
		}()
		if raised != "hub 40 broke" {
			t.Errorf("workers=%d, untyped panic: raised %v, res=%v err=%v", workers, raised, res, err)
		}

		chitchat.SetSeedObserver(nil)
		if res, err = sv.Solve(context.Background(), p); err != nil || res.Schedule.Validate() != nil {
			t.Errorf("workers=%d, after the panics: err=%v", workers, err)
		}
	}
}
