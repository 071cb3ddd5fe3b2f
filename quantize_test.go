package mdes

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestQuantizeDetectParity quantizes a trained model to float32 and int8 and
// checks the anomaly signal survives: the decoupled half of the test window
// still scores above the coupled half, the broken pair still alerts, and
// per-point scores stay close to the float64 reference. Quantize(F64) must
// restore bit-identical float64 scoring.
func TestQuantizeDetectParity(t *testing.T) {
	model := trainTiny(t)

	// Same shape as TestDetectFlagsDecoupledWindow: coupled first half,
	// b decoupled in the second half.
	rng := rand.New(rand.NewSource(77))
	ds := coupledDataset(rng, 400)
	for t2 := 200; t2 < 400; t2++ {
		if rng.Float64() < 0.5 {
			ds.Sequences[1].Events[t2] = "ON"
		} else {
			ds.Sequences[1].Events[t2] = "OFF"
		}
	}

	ref, err := model.Detect(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("no detection points")
	}
	if model.ScorePrecision() != PrecisionF64 {
		t.Fatalf("fresh model precision = %v, want f64", model.ScorePrecision())
	}

	check := func(t *testing.T, points []Point, tol float64) {
		if len(points) != len(ref) {
			t.Fatalf("point counts differ: %d vs %d", len(points), len(ref))
		}
		var maxDiff float64
		for i := range ref {
			if d := math.Abs(points[i].Score - ref[i].Score); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > tol {
			t.Fatalf("max |score diff| vs float64 = %v, want <= %v", maxDiff, tol)
		}
		mid := len(points) / 2
		var early, late float64
		for i, p := range points {
			if i < mid {
				early += p.Score
			} else {
				late += p.Score
			}
		}
		early /= float64(mid)
		late /= float64(len(points) - mid)
		if late <= early {
			t.Fatalf("decoupled half score %v <= coupled half %v", late, early)
		}
		var sawAB bool
		for _, p := range points[mid:] {
			for _, a := range p.Broken {
				if (a.Src == "a" && a.Tgt == "b") || (a.Src == "b" && a.Tgt == "a") {
					sawAB = true
				}
			}
		}
		if !sawAB {
			t.Fatal("broken a<->b relationship never alerted")
		}
	}

	for _, tc := range []struct {
		name string
		prec Precision
		tol  float64
	}{
		// Scores are BLEU-derived anomaly scores in [0, 1]. float32 tracks
		// float64 to rounding noise; int8 adds quantization error but must
		// stay well inside the coupled/decoupled separation.
		{"f32", PrecisionF32, 0.02},
		{"int8", PrecisionInt8, 0.10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := model.Quantize(tc.prec); err != nil {
				t.Fatal(err)
			}
			if got := model.ScorePrecision(); got != tc.prec {
				t.Fatalf("precision = %v, want %v", got, tc.prec)
			}
			points, err := model.Detect(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			check(t, points, tc.tol)
		})
	}

	// Back to float64: scoring must be bit-identical to the reference run.
	if err := model.Quantize(PrecisionF64); err != nil {
		t.Fatal(err)
	}
	again, err := model.Detect(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(ref) {
		t.Fatalf("point counts differ after restore: %d vs %d", len(again), len(ref))
	}
	for i := range ref {
		if again[i].Score != ref[i].Score {
			t.Fatalf("point %d: restored f64 score %v != reference %v", i, again[i].Score, ref[i].Score)
		}
	}
}

// TestQuantizedStreamMatchesDetect pins the batch==single invariant end to
// end: a quantized model's online stream must emit bit-identical scores to
// its batched Detect, exactly as the float64 path does.
func TestQuantizedStreamMatchesDetect(t *testing.T) {
	model := trainTiny(t)
	if err := model.Quantize(PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	ds := coupledDataset(rng, 240)

	batch, err := model.Detect(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	stream := model.NewStream()
	var streamed []Point
	for tick := 0; tick < ds.Ticks(); tick++ {
		reading := make(map[string]string, len(ds.Sequences))
		for _, s := range ds.Sequences {
			reading[s.Sensor] = s.Events[tick]
		}
		p, err := stream.Push(reading)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			streamed = append(streamed, *p)
		}
	}
	if len(streamed) != len(batch) {
		t.Fatalf("stream emitted %d points, batch %d", len(streamed), len(batch))
	}
	for i := range batch {
		if streamed[i].Score != batch[i].Score {
			t.Fatalf("point %d: stream %v vs batch %v", i, streamed[i].Score, batch[i].Score)
		}
	}
}

// TestQuantizedSaveLoadRoundTrip saves a published (quantized) model and
// checks the load restores the precision and the frozen weights exactly:
// detection after the round trip is bit-identical (int8 scoring is
// bit-deterministic; float32 is deterministic within a process).
func TestQuantizedSaveLoadRoundTrip(t *testing.T) {
	model := trainTiny(t)
	rng := rand.New(rand.NewSource(5))
	ds := coupledDataset(rng, 200)

	for _, prec := range []Precision{PrecisionF32, PrecisionInt8} {
		t.Run(prec.String(), func(t *testing.T) {
			if err := model.Quantize(prec); err != nil {
				t.Fatal(err)
			}
			p1, err := model.Detect(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := model.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := loaded.ScorePrecision(); got != prec {
				t.Fatalf("loaded precision = %v, want %v", got, prec)
			}
			p2, err := loaded.Detect(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			if len(p1) != len(p2) {
				t.Fatalf("point counts differ: %d vs %d", len(p1), len(p2))
			}
			for i := range p1 {
				if p1[i].Score != p2[i].Score {
					t.Fatalf("point %d: %v vs %v after round trip", i, p1[i].Score, p2[i].Score)
				}
			}
		})
	}
	if err := model.Quantize(PrecisionF64); err != nil {
		t.Fatal(err)
	}
}

// TestPairModelBytesShrink checks the published inference weights are the
// advertised fraction of the float64 training weights: float32 half, int8
// roughly a quarter (codes plus per-row scales and float32 biases).
func TestPairModelBytesShrink(t *testing.T) {
	model := trainTiny(t)
	f64 := model.PairModelBytes()
	if f64 <= 0 {
		t.Fatalf("f64 bytes = %d", f64)
	}
	if err := model.Quantize(PrecisionF32); err != nil {
		t.Fatal(err)
	}
	f32 := model.PairModelBytes()
	if err := model.Quantize(PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	i8 := model.PairModelBytes()
	if err := model.Quantize(PrecisionF64); err != nil {
		t.Fatal(err)
	}
	if !(i8 < f32 && f32 < f64) {
		t.Fatalf("bytes not shrinking: int8 %d, f32 %d, f64 %d", i8, f32, f64)
	}
	if f32 > f64/2+f64/10 {
		t.Fatalf("f32 bytes %d, want about half of %d", f32, f64)
	}
	if i8 > f64/3 {
		t.Fatalf("int8 bytes %d, want well under a third of %d", i8, f64)
	}
	if model.PairModelBytes() != f64 {
		t.Fatal("restoring f64 did not restore the byte count")
	}
}

// TestParsePrecision covers the flag-value aliases and rejections.
func TestParsePrecision(t *testing.T) {
	for in, want := range map[string]Precision{
		"f64": PrecisionF64, "float64": PrecisionF64,
		"f32": PrecisionF32, "float32": PrecisionF32,
		"int8": PrecisionInt8, "q8": PrecisionInt8,
	} {
		got, err := ParsePrecision(in)
		if err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Error("ParsePrecision accepted f16")
	}
}

// TestQuantizeReachesLiveStreams pins Quantize's promise to streams that
// already exist: one created at float64 scores with the frozen weights of a
// later Quantize(F32) and with the float64 weights again after
// Quantize(F64), and its points equal a fresh stream's at each precision.
func TestQuantizeReachesLiveStreams(t *testing.T) {
	model := trainTiny(t)
	ds := coupledDataset(rand.New(rand.NewSource(71)), 150)
	var seen []Precision // the precision each scored job ran at
	hook := func(jobs []ScoreJob, row []float64) error {
		for i := range jobs {
			seen = append(seen, jobs[i].BatchModel().Precision())
			row[jobs[i].Index()] = jobs[i].Run()
		}
		return nil
	}
	live := model.NewStream()
	live.SetScorer(hook)
	from := 0
	for phase, prec := range []Precision{PrecisionF64, PrecisionF32, PrecisionF64} {
		if err := model.Quantize(prec); err != nil {
			t.Fatal(err)
		}
		to := from + 50
		seen = seen[:0]
		got := pushAll(t, live, ds, from, to)
		fresh := pushAll(t, model.NewStream(), ds, 0, to)
		samePoints(t, prec.String(), got, fresh[len(fresh)-len(got):])
		if len(seen) == 0 {
			t.Fatalf("phase %d: no job reached the scorer", phase)
		}
		for _, p := range seen {
			if p != prec {
				t.Fatalf("phase %d: a live stream scored at %v after Quantize(%v)", phase, p, prec)
			}
		}
		from = to
	}
}
