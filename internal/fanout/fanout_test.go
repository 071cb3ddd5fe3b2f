package fanout

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

func TestEachCallsEveryIndexOnceWithinTheWorkerBound(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 50} {
		const n = 40
		var calls [n]atomic.Int32
		var running, peak atomic.Int32
		started := Each(context.Background(), n, workers, func(i int) {
			if r := running.Add(1); r > peak.Load() {
				peak.Store(r)
			}
			calls[i].Add(1)
			running.Add(-1)
		})
		if started != n {
			t.Fatalf("workers=%d: started %d of %d", workers, started, n)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d called %d times", workers, i, c)
			}
		}
		if workers > 0 && int(peak.Load()) > workers {
			t.Fatalf("workers=%d: %d calls ran at once", workers, peak.Load())
		}
	}
	if got := Each(context.Background(), 0, 4, func(int) { t.Fatal("called with n = 0") }); got != 0 {
		t.Fatalf("n = 0 started %d", got)
	}
}

// TestEachStopsHandingOutOnCancel cancels from inside call 4 on one worker:
// indices go out in order, so 0..4 ran, and at most one more (index 5 may be
// offered while call 4 cancels), and Each reports as many started as ran.
func TestEachStopsHandingOutOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var ran []int
	started := Each(ctx, 100, 1, func(i int) {
		mu.Lock()
		ran = append(ran, i)
		mu.Unlock()
		if i == 4 {
			cancel()
		}
	})
	if started < 5 || started > 6 || len(ran) != started {
		t.Fatalf("started %d, ran %v; want 0..4 and at most index 5 more", started, ran)
	}
	for i, v := range ran {
		if v != i {
			t.Fatalf("indices out of order: %v", ran)
		}
	}
	if got := Each(ctx, 10, 2, func(int) { t.Fatal("called on a done context") }); got != 0 {
		t.Fatalf("done context started %d", got)
	}
}
