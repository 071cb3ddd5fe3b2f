package mdes

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mdes/internal/seqio"
)

// memoTraffic is the traffic the score memo is judged on: a 60-tick period
// (twelve sentence strides, so every lap lands on the same windows) replayed,
// with perturbed laps in between — a share of b's readings flipped, and a
// few events no language has seen, so novel windows and <unk> masking sit
// between the memo hits.
func memoTraffic(seed int64) *seqio.Dataset {
	rng := rand.New(rand.NewSource(seed))
	period := coupledDataset(rng, 60)
	out := &seqio.Dataset{}
	for _, s := range period.Sequences {
		out.Sequences = append(out.Sequences, seqio.Sequence{Sensor: s.Sensor})
	}
	for lap := 0; lap < 8; lap++ {
		perturbed := lap == 3 || lap == 5
		for i, s := range period.Sequences {
			events := append([]string(nil), s.Events...)
			if perturbed && s.Sensor == "b" {
				for t := range events {
					switch r := rng.Float64(); {
					case r < 0.05:
						events[t] = "NEVER-SEEN"
					case r < 0.4:
						events[t] = []string{"ON", "OFF"}[rng.Intn(2)]
					}
				}
			}
			out.Sequences[i].Events = append(out.Sequences[i].Events, events...)
		}
	}
	return out
}

// coldClone round-trips m through its serialised form and publishes the copy
// at prec: same weights, empty caches.
func coldClone(t *testing.T, m *Model, prec Precision) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.Quantize(prec); err != nil {
		t.Fatal(err)
	}
	return clone
}

func samePoints(t *testing.T, label string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%s: %d points, reference %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.T != w.T || g.Valid != w.Valid || math.Float64bits(g.Score) != math.Float64bits(w.Score) || len(g.Broken) != len(w.Broken) {
			t.Fatalf("%s point %d: %+v, reference %+v", label, i, g, w)
		}
		for k := range w.Broken {
			ga, wa := g.Broken[k], w.Broken[k]
			if ga.Src != wa.Src || ga.Tgt != wa.Tgt ||
				math.Float64bits(ga.TrainScore) != math.Float64bits(wa.TrainScore) ||
				math.Float64bits(ga.TestScore) != math.Float64bits(wa.TestScore) {
				t.Fatalf("%s point %d alert %d: %+v, reference %+v", label, i, k, ga, wa)
			}
		}
	}
}

// TestScoreMemoIsInvisible is the memo's one load-bearing property: switching
// it on changes no output bit. At every precision, a Stream, Detect and the
// full f(i,j) matrix over replayed and perturbed traffic are compared between
// a memoising model and an uncached clone of it; then two streams share one
// memoising model concurrently (the race detector watches the memo's lock)
// and must each still match the uncached reference.
func TestScoreMemoIsInvisible(t *testing.T) {
	base := trainTiny(t)
	ds, other := memoTraffic(31), memoTraffic(32)
	ctx := context.Background()
	for _, prec := range []Precision{PrecisionF64, PrecisionF32, PrecisionInt8} {
		t.Run(prec.String(), func(t *testing.T) {
			off := coldClone(t, base, prec)
			off.SetTranslationCaching(false)
			on := coldClone(t, base, prec)

			refStream := off.NewStream()
			want := pushAll(t, refStream, ds, 0, ds.Ticks())
			onStream := on.NewStream()
			samePoints(t, "stream", pushAll(t, onStream, ds, 0, ds.Ticks()), want)
			// Six of eight laps replay the period: the memo must have carried
			// most of the run, and the uncached reference none of it.
			scored := len(want) * on.Detector().NumValid()
			if hits := onStream.MemoHits(); hits < scored/3 || refStream.MemoHits() != 0 {
				t.Fatalf("memo answered %d of %d scores (uncached reference: %d)", hits, scored, refStream.MemoHits())
			}

			wantScores, err := off.TestScores(ctx, ds)
			if err != nil {
				t.Fatal(err)
			}
			wantDetect, err := off.Detect(ctx, ds)
			if err != nil {
				t.Fatal(err)
			}
			// Twice: the first pass meets the memo the stream left, the second
			// the one Detect's own stores completed.
			for pass := 0; pass < 2; pass++ {
				gotScores, err := on.TestScores(ctx, ds)
				if err != nil {
					t.Fatal(err)
				}
				for ti := range wantScores {
					for k := range wantScores[ti] {
						if math.Float64bits(gotScores[ti][k]) != math.Float64bits(wantScores[ti][k]) {
							t.Fatalf("pass %d: f[%d][%d] = %v memoised, %v computed", pass, ti, k, gotScores[ti][k], wantScores[ti][k])
						}
					}
				}
				gotDetect, err := on.Detect(ctx, ds)
				if err != nil {
					t.Fatal(err)
				}
				samePoints(t, "detect", gotDetect, wantDetect)
			}

			// Two tenants on one cold memoising model, concurrently.
			shared := coldClone(t, base, prec)
			traffic := []*seqio.Dataset{ds, other}
			got := make([][]Point, len(traffic))
			var wg sync.WaitGroup
			for i, d := range traffic {
				stream := shared.NewStream()
				wg.Add(1)
				go func(i int, d *seqio.Dataset) {
					defer wg.Done()
					for tick := 0; tick < d.Ticks(); tick++ {
						reading := make(map[string]string, len(d.Sequences))
						for _, s := range d.Sequences {
							reading[s.Sensor] = s.Events[tick]
						}
						p, err := stream.Push(reading)
						if err != nil {
							t.Error(err)
							return
						}
						if p != nil {
							got[i] = append(got[i], *p)
						}
					}
				}(i, d)
			}
			wg.Wait()
			samePoints(t, "concurrent stream 0", got[0], want)
			samePoints(t, "concurrent stream 1", got[1], pushAll(t, off.NewStream(), other, 0, other.Ticks()))
		})
	}
}
