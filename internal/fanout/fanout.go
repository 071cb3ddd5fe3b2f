// Package fanout runs n independent calls on a bounded set of goroutines:
// the one worker loop behind pair training, candidate-pair screening and
// Detect's per-relationship scoring.
package fanout

import (
	"context"
	"runtime"
	"sync"
)

// Each calls fn(i) for i = 0..n−1 on at most workers goroutines (workers ≤ 0
// means GOMAXPROCS), handing the indices out in order and no more once ctx is
// done. It returns once every call it started has returned, with the number
// it started: the indices from there on were never handed out. A started call
// runs to its end, so fn checks ctx itself where it should stop early. fn
// runs concurrently with itself; callers keep their results per index.
func Each(ctx context.Context, n, workers int, fn func(i int)) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	started := 0
feed:
	for ; started < n && ctx.Err() == nil; started++ {
		select {
		case jobs <- started:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return started
}
