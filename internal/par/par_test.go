package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// Every item of [0, n) lands in exactly one span, each span is block-aligned
// and at most block long, and worker ids stay below nw.
func TestBlocksCoversEverySpanOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for nw := 1; nw <= 4; nw++ {
		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			const block = 64
			hits := make([]atomic.Int32, n)
			Blocks(nw, n, block, func(lo, hi, wk int) {
				if lo%block != 0 || hi-lo > block || hi > n || lo >= hi || wk < 0 || wk >= nw {
					t.Errorf("nw=%d n=%d: span [%d, %d) on worker %d", nw, n, lo, hi, wk)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("nw=%d n=%d: item %d covered %d times", nw, n, i, c)
				}
			}
		}
	}
}

var errSpan = errors.New("span broke")

// A panic in fn comes back on the caller, and it is the lowest raising
// span's value, typed or not, at every worker count.
func TestBlocksPanicReachesTheCaller(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	run := func(nw int, raise func(lo int)) (r any) {
		defer func() { r = recover() }()
		Blocks(nw, 1000, 16, func(lo, hi, _ int) {
			if lo == 32 || lo == 800 {
				raise(lo)
			}
		})
		return nil
	}
	for nw := 1; nw <= 4; nw++ {
		raised := run(nw, func(lo int) { panic(fmt.Errorf("span %d: %w", lo, errSpan)) })
		if e, ok := raised.(error); !ok || !errors.Is(e, errSpan) || e.Error() != "span 32: span broke" {
			t.Errorf("nw=%d, typed panic: raised %v", nw, raised)
		}
		if raised = run(nw, func(lo int) { panic(fmt.Sprintf("span %d broke", lo)) }); raised != "span 32 broke" {
			t.Errorf("nw=%d, untyped panic: raised %v", nw, raised)
		}
	}
}

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ requested, items, share, want int }{
		{0, 1 << 30, 1, procs},
		{3, 100, 10, 3},
		{8, 100, 25, 4},
		{4, 10, 64, 1},
		{-1, 0, 1, 1},
	} {
		if got := Workers(tc.requested, tc.items, tc.share); got != tc.want {
			t.Errorf("Workers(%d, %d, %d) = %d, want %d", tc.requested, tc.items, tc.share, got, tc.want)
		}
	}
}
