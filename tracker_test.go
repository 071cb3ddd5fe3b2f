package mdes

import (
	"math/rand"
	"sort"
	"testing"
)

// TestTrainTrackerIncrementalStats checks the sorted-insert tracker against a
// naive re-sort at every step, including duplicate scores and both parities.
func TestTrainTrackerIncrementalStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tk := &trainTracker{total: 100}
	var naive []float64
	for i := 0; i < 100; i++ {
		b := float64(rng.Intn(20)) / 20 // coarse grid forces duplicates
		tk.done++
		tk.addBLEU(b)
		naive = append(naive, b)

		if !sort.Float64sAreSorted(tk.bleus) {
			t.Fatalf("step %d: tracker bleus not sorted: %v", i, tk.bleus)
		}

		sorted := append([]float64(nil), naive...)
		sort.Float64s(sorted)
		var sum float64
		for _, v := range sorted {
			sum += v
		}
		n := len(sorted)
		median := sorted[n/2]
		if n%2 == 0 {
			median = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		want := BLEUStats{Min: sorted[0], Median: median, Mean: sum / float64(n), Max: sorted[n-1]}

		got := tk.snapshot("a", "b", b).BLEUs
		if got.Min != want.Min || got.Max != want.Max || got.Median != want.Median {
			t.Fatalf("step %d: stats = %+v, want %+v", i, got, want)
		}
		if diff := got.Mean - want.Mean; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("step %d: mean = %v, want %v", i, got.Mean, want.Mean)
		}
	}
}

func TestTrainTrackerEmptySnapshot(t *testing.T) {
	tk := &trainTracker{total: 3}
	p := tk.snapshot("", "", 0)
	if p.BLEUs != (BLEUStats{}) {
		t.Fatalf("empty tracker produced non-zero stats: %+v", p.BLEUs)
	}
}
