package serve

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mdes"
)

// quantizedCopy clones the shared test model (which other tests use at
// float64) and publishes it at precision p. The clone is cold: its
// translation caches and score memos are empty, whatever the shared model's
// have seen.
func quantizedCopy(t testing.TB, prec mdes.Precision) *mdes.Model {
	var buf bytes.Buffer
	if err := testModel(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := mdes.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Quantize(prec); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScorePoolMatchesSoloStream is the pool's one load-bearing property:
// sharing it is invisible. Four concurrent tenant streams scoring through one
// pool get, at every precision, bit-identical points to a solo stream scoring
// in line — same jobs, same Run, only the goroutine differs. The pooled
// streams run on their own cold clone, so their windows are not all answered
// by a memo the reference run warmed: every relationship score is either a
// pool job or a memo hit, and both kinds must occur.
func TestScorePoolMatchesSoloStream(t *testing.T) {
	ds := coupledDataset(rand.New(rand.NewSource(321)), 200)
	readings := ticksOf(ds, 0, ds.Ticks())
	run := func(s *mdes.Stream) ([]mdes.Point, error) {
		var points []mdes.Point
		for _, r := range readings {
			pt, err := s.Push(r)
			if err != nil {
				return nil, err
			}
			if pt != nil {
				points = append(points, *pt)
			}
		}
		return points, nil
	}

	for _, prec := range []mdes.Precision{mdes.PrecisionF64, mdes.PrecisionF32, mdes.PrecisionInt8} {
		t.Run(prec.String(), func(t *testing.T) {
			ref, err := run(quantizedCopy(t, prec).NewStream()) // in-line scorer, no pool
			if err != nil {
				t.Fatal(err)
			}
			if len(ref) == 0 {
				t.Fatal("reference stream emitted nothing")
			}

			var met metrics
			met.scoreLatency = newHistogram(scoreBuckets)
			p := newScorePool(2, &met)
			defer p.close()

			const tenants = 4
			model := quantizedCopy(t, prec)
			points := make([][]mdes.Point, tenants)
			errs := make([]error, tenants)
			streams := make([]*mdes.Stream, tenants)
			var wg sync.WaitGroup
			for i := 0; i < tenants; i++ {
				stream := model.NewStream()
				stream.SetScorer(p.score)
				streams[i] = stream
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					points[i], errs[i] = run(stream)
				}(i)
			}
			wg.Wait()

			for i := 0; i < tenants; i++ {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if len(points[i]) != len(ref) {
					t.Fatalf("tenant %d: %d points, reference %d", i, len(points[i]), len(ref))
				}
				for j := range ref {
					if math.Float64bits(points[i][j].Score) != math.Float64bits(ref[j].Score) {
						t.Fatalf("tenant %d point %d: pooled score %v != reference %v",
							i, j, points[i][j].Score, ref[j].Score)
					}
				}
			}
			pooled, memo := met.scoreLatency.n.Load(), int64(0)
			for _, stream := range streams {
				memo += int64(stream.MemoHits())
			}
			if want := int64(tenants * len(ref) * model.Detector().NumValid()); pooled+memo != want {
				t.Fatalf("%d pool jobs + %d memo hits, want %d relationship scores", pooled, memo, want)
			}
			if pooled == 0 || memo == 0 {
				t.Fatalf("%d pool jobs, %d memo hits: both paths must be exercised", pooled, memo)
			}
		})
	}
}

// poolGoroutines counts the live goroutines newScorePool started.
func poolGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by mdes/internal/serve.newScorePool")
}

// TestScorePoolGoroutines pins the pool's shape: newScorePool(n) starts n
// goroutines — the workers, nothing in front of them — and close leaves none.
func TestScorePoolGoroutines(t *testing.T) {
	base := poolGoroutines()
	for _, n := range []int{0, 1, 3} {
		var met metrics
		met.scoreLatency = newHistogram(scoreBuckets)
		p := newScorePool(n, &met)
		if got := poolGoroutines() - base; got != n {
			t.Errorf("newScorePool(%d) started %d goroutines", n, got)
		}
		p.close()
		// close returns once every worker has signalled its WaitGroup; the
		// goroutine itself is gone a moment after that.
		deadline := time.Now().Add(5 * time.Second)
		for poolGoroutines() != base && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if got := poolGoroutines() - base; got != 0 {
			t.Errorf("close left %d of %d pool goroutines running", got, n)
		}
	}
}

// BenchmarkScorePoolThroughput measures end-to-end stream scoring through the
// shared pool at each serving precision: ticks in, points out, the scoring
// fan-out live (caching off, so every relationship of every window is a pool
// job that decodes). The headline metric is ns/point — one fully scored sentence
// window across every relationship.
func BenchmarkScorePoolThroughput(b *testing.B) {
	ds := coupledDataset(rand.New(rand.NewSource(99)), 4000)
	readings := ticksOf(ds, 0, ds.Ticks())

	for _, prec := range []mdes.Precision{mdes.PrecisionF64, mdes.PrecisionF32, mdes.PrecisionInt8} {
		b.Run(prec.String(), func(b *testing.B) {
			model := quantizedCopy(b, prec)
			model.SetTranslationCaching(false)
			var met metrics
			met.scoreLatency = newHistogram(scoreBuckets)
			p := newScorePool(2, &met)
			defer p.close()
			stream := model.NewStream()
			stream.SetScorer(p.score)

			points := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pt, err := stream.Push(readings[i%len(readings)])
				if err != nil {
					b.Fatal(err)
				}
				if pt != nil {
					points++
				}
			}
			b.StopTimer()
			if points > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
			}
		})
	}
}
