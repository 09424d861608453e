package scenario

import "sync"

// Ordered runs job(w, i) for every index i in 0..n-1, handing the indices
// out in order to at most workers goroutines; w (from 0) names the worker
// that runs the job, for state a worker keeps across its jobs. With
// workers <= 1 the same loop runs on the caller's goroutine. It is the one
// pool behind sweep cells (runEngine), fuzz runs (Fuzz) and nfsbench's
// registry loop.
//
// A job fails by returning true (a stop) or by panicking, and the rule for
// both is the same: no index above the lowest failed one is dispatched.
// Every index below it has run by the time Ordered returns, which is
// exactly the set of jobs an in-line loop that quits at its first failure
// would have run; indices above it that were already out when it failed
// finish and are ignored. Ordered returns the lowest failed index (n when
// nothing failed). If that failure was a panic, the pool drains and the
// panic is raised again on the caller with its own value; on the in-line
// path it simply propagates.
func Ordered(n, workers int, job func(w, i int) (stop bool)) int {
	var (
		mu       sync.Mutex
		next     int
		low      = n // the lowest failed index
		lowPanic any // its panic value; nil for a stop
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || next > low {
			return -1
		}
		next++
		return next - 1
	}
	fail := func(i int, r any) {
		mu.Lock()
		defer mu.Unlock()
		if i < low {
			low, lowPanic = i, r
		}
	}
	pooled := workers > 1 && n > 1
	work := func(w int) {
		i := -1
		if pooled {
			defer func() {
				if r := recover(); r != nil {
					fail(i, r)
				}
			}()
		}
		for i = claim(); i >= 0; i = claim() {
			if job(w, i) {
				fail(i, nil)
			}
		}
	}
	if !pooled {
		work(0)
		return low
	}
	var wg sync.WaitGroup
	for w := range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
	if lowPanic != nil {
		panic(lowPanic)
	}
	return low
}
