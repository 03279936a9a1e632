// Package par is the one data-parallel fan-out behind the solvers and the
// throughput harness (DESIGN.md §14): spans of [0, n) taken off a shared
// cursor by a fixed set of workers, the caller among them, and a worker's
// panic re-raised on the caller.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the worker-count rule: requested, where 0 (or less) means
// GOMAXPROCS, capped at items/share so that every worker is handed at
// least share items, and never below 1.
func Workers(requested, items, share int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return max(1, min(requested, items/share))
}

// Blocks runs fn over [0, n) on nw workers, the caller being worker 0:
// fn(lo, hi, wk) processes items [lo, hi) on worker wk, where lo is a
// multiple of block and hi−lo ≤ block. Spans come off an atomic cursor in
// ascending order, so fn must write its results to storage indexed by
// item, span or worker for them not to depend on scheduling. No worker
// beyond the span count is started.
//
// A panic in fn stops the handing out of spans; once every worker has
// returned, Blocks re-raises on the caller the panic of the lowest span
// that raised one. Spans are taken in order, so every span below it was
// run, and which value comes back does not depend on nw.
func Blocks(nw, n, block int, fn func(lo, hi, wk int)) {
	nw = min(nw, (n+block-1)/block)
	if nw <= 1 {
		for lo := 0; lo < n; lo += block {
			fn(lo, min(lo+block, n), 0)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		fault   any // panic value of the lowest span that raised one
		faultAt = n
	)
	work := func(wk int) {
		lo := 0
		defer func() {
			if p := recover(); p != nil {
				next.Store(int64(n))
				mu.Lock()
				if lo < faultAt {
					fault, faultAt = p, lo
				}
				mu.Unlock()
			}
		}()
		for {
			lo = int(next.Add(int64(block))) - block
			if lo >= n {
				return
			}
			fn(lo, min(lo+block, n), wk)
		}
	}
	wg.Add(nw - 1)
	for wk := 1; wk < nw; wk++ {
		go func(wk int) {
			defer wg.Done()
			work(wk)
		}(wk)
	}
	work(0)
	wg.Wait()
	if faultAt < n {
		panic(fault)
	}
}
