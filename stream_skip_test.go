package mdes

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestSkipEmitKeepsRestoreInvariant exercises the degraded-tick accounting:
// when an emission fails (scorer outage) the caller answers out-of-band and
// calls SkipEmit. The skipped point must consume exactly one emission index,
// later points must keep the reference numbering and scores, and — the part
// that breaks if the counter drifts — Snapshot/RestoreStream must keep
// working on a stream that skipped points.
func TestSkipEmitKeepsRestoreInvariant(t *testing.T) {
	model := trainTiny(t)
	rng := rand.New(rand.NewSource(66))
	ds := coupledDataset(rng, 120)

	// Reference: the same ticks through a healthy stream.
	ref := pushAll(t, model.NewStream(), ds, 0, ds.Ticks())

	// The outage sits in the scorer, which only a window with a score-memo
	// miss reaches — and the reference run has just memoised these windows.
	// With caching off every window misses, so every outage emission fails.
	model.SetTranslationCaching(false)
	stream := model.NewStream()
	down := errors.New("scoring backend down")
	failing := func(jobs []ScoreJob, row []float64) error { return down }

	var got []Point
	skipped := map[int]bool{}
	for tick := 0; tick < ds.Ticks(); tick++ {
		// Outage for the middle third of the run.
		if tick == 40 {
			stream.SetScorer(failing)
		}
		if tick == 80 {
			stream.SetScorer(nil)
		}
		reading := make(map[string]string, len(ds.Sequences))
		for _, s := range ds.Sequences {
			reading[s.Sensor] = s.Events[tick]
		}
		p, err := stream.Push(reading)
		if err != nil {
			if !errors.Is(err, down) {
				t.Fatal(err)
			}
			idx := stream.SkipEmit()
			if skipped[idx] {
				t.Fatalf("emission index %d skipped twice", idx)
			}
			skipped[idx] = true
			// A second call without a new pending point must not consume
			// another index.
			if again := stream.SkipEmit(); again != idx+1 {
				t.Fatalf("idle SkipEmit returned %d, want next index %d", again, idx+1)
			}
			continue
		}
		if p != nil {
			got = append(got, *p)
		}
	}

	if len(skipped) == 0 {
		t.Fatal("outage window produced no skipped emissions; test exercised nothing")
	}
	if len(got)+len(skipped) != len(ref) {
		t.Fatalf("%d scored + %d skipped emissions, reference has %d", len(got), len(skipped), len(ref))
	}
	// Every surviving point keeps its reference index and score: skips
	// consumed their indexes without renumbering anything after them.
	for _, p := range got {
		if skipped[p.T] {
			t.Fatalf("point %d both scored and skipped", p.T)
		}
		refP := ref[p.T]
		if refP.T != p.T || math.Abs(refP.Score-p.Score) > 1e-12 {
			t.Fatalf("point %d: score %v, reference %v", p.T, p.Score, refP.Score)
		}
	}
	if stream.Emitted() != len(ref) {
		t.Fatalf("emitted counter = %d, want %d", stream.Emitted(), len(ref))
	}

	// The invariant SkipEmit exists to protect: a stream that skipped points
	// must still snapshot and restore.
	restored, err := model.RestoreStream(stream.Snapshot())
	if err != nil {
		t.Fatalf("restore after skips: %v", err)
	}
	if restored.Ticks() != stream.Ticks() || restored.Emitted() != stream.Emitted() {
		t.Fatalf("restored counters = (%d, %d), want (%d, %d)",
			restored.Ticks(), restored.Emitted(), stream.Ticks(), stream.Emitted())
	}
}
