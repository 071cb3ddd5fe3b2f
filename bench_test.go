// Benchmarks: one per table and figure of the paper (regenerating the
// artefact from the shared quick-scale artifacts), plus the core kernels the
// pipeline spends its time in. Run with:
//
//	go test -bench=. -benchmem
package mdes_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"mdes"
	"mdes/internal/bleu"
	"mdes/internal/community"
	"mdes/internal/experiments"
	"mdes/internal/graph"
	"mdes/internal/lang"
	"mdes/internal/nmt"
	"mdes/internal/seqio"
)

func plantArtifacts(b *testing.B) *experiments.PlantArtifacts {
	b.Helper()
	p, err := experiments.QuickPlant()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func hddArtifacts(b *testing.B) *experiments.HDDArtifacts {
	b.Helper()
	h, err := experiments.QuickHDD()
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func benchReport(b *testing.B, run func() experiments.Report) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := run()
		if r.ID == "" {
			b.Fatal("empty report")
		}
	}
}

// --- one benchmark per paper artefact --------------------------------------

func BenchmarkFig2SensorTraces(b *testing.B) {
	p := plantArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Fig2(p) })
}

func BenchmarkFig3Cardinality(b *testing.B) {
	p := plantArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Fig3(p) })
}

func BenchmarkFig4RuntimeBLEU(b *testing.B) {
	p := plantArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Fig4(p) })
}

func BenchmarkTable1Subgraphs(b *testing.B) {
	p := plantArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Table1(p) })
}

func BenchmarkFig5DegreeCDF(b *testing.B) {
	p := plantArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Fig5(p) })
}

func BenchmarkFig6GlobalSubgraph(b *testing.B) {
	p := plantArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Fig6(p) })
}

func BenchmarkFig7LocalSubgraphs(b *testing.B) {
	p := plantArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Fig7(p) })
}

// Fig 8 re-runs full Algorithm 2 detection over the test split at two BLEU
// bands, so this is the heaviest per-iteration benchmark.
func BenchmarkFig8AnomalyDetection(b *testing.B) {
	p := plantArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Fig8(p) })
}

func BenchmarkFig9FaultDiagnosis(b *testing.B) {
	p := plantArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Fig9(p) })
}

func BenchmarkFig10Discretization(b *testing.B) {
	h := hddArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Fig10(h) })
}

func BenchmarkTable2Baselines(b *testing.B) {
	h := hddArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Table2(h) })
}

func BenchmarkFig11FeatureImportance(b *testing.B) {
	h := hddArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Fig11(h) })
}

func BenchmarkFig12DiskTrajectories(b *testing.B) {
	h := hddArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Fig12(h) })
}

func BenchmarkTable3TopFeatures(b *testing.B) {
	h := hddArtifacts(b)
	benchReport(b, func() experiments.Report { return experiments.Table3(h) })
}

// --- pipeline kernels -------------------------------------------------------

// BenchmarkAlgorithm1PairTraining trains one directional pair model per
// iteration on a small aligned corpus — the unit of work Algorithm 1 fans
// out across all sensor pairs.
func BenchmarkAlgorithm1PairTraining(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, tgt := benchCorpus(rng, 64, 6, 6)
	cfg := nmt.Config{
		SrcVocab: 9, TgtVocab: 9,
		Embed: 16, Hidden: 16, Layers: 1,
		LearningRate: 5e-3, ClipNorm: 5,
		TrainSteps: 30, BatchSize: 8, MaxDecodeLen: 10,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := nmt.NewModel(cfg, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Train(src, tgt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithm2Detection scores one timestamp across every valid
// relationship — the unit of work of online detection.
func BenchmarkAlgorithm2Detection(b *testing.B) {
	p := plantArtifacts(b)
	ctx := context.Background()
	// One sentence worth of test data per sensor.
	oneSentence := p.Tst.Slice(0, p.Scale.PlantLang.Span())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Model.Detect(ctx, oneSentence); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNMTTranslate measures greedy decoding of one sentence.
func BenchmarkNMTTranslate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	src, tgt := benchCorpus(rng, 48, 8, 6)
	cfg := nmt.Config{
		SrcVocab: 9, TgtVocab: 9,
		Embed: 16, Hidden: 16, Layers: 2,
		LearningRate: 5e-3, ClipNorm: 5,
		TrainSteps: 40, BatchSize: 8, MaxDecodeLen: 12,
	}
	m, err := nmt.NewModel(cfg, 3)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Train(src, tgt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := m.Decode(src[i%len(src)]); len(out) == 0 {
			b.Fatal("empty translation")
		}
	}
}

// BenchmarkBLEUSentence measures the smoothed sentence BLEU used per
// timestamp per pair during detection.
func BenchmarkBLEUSentence(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ref := randWords(rng, 20, 30)
	hyp := append(append([]string(nil), ref[:15]...), randWords(rng, 5, 30)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := bleu.Sentence(ref, hyp, 4, bleu.SmoothAddOne); s <= 0 {
			b.Fatal("unexpected zero BLEU")
		}
	}
}

// BenchmarkBLEUCorpus measures corpus BLEU over a dev-sized corpus.
func BenchmarkBLEUCorpus(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	refs := make([][]string, 50)
	hyps := make([][]string, 50)
	for i := range refs {
		refs[i] = randWords(rng, 20, 30)
		hyps[i] = append(append([]string(nil), refs[i][:18]...), randWords(rng, 2, 30)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := bleu.Corpus(refs, hyps, 4); s <= 0 {
			b.Fatal("unexpected zero BLEU")
		}
	}
}

// BenchmarkLanguageEncode measures the sensor-encryption and word/sentence
// pipeline over one day of 1-minute samples.
func BenchmarkLanguageEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	events := make([]string, 1440)
	state := "ON"
	for i := range events {
		if rng.Float64() < 0.1 {
			if state == "ON" {
				state = "OFF"
			} else {
				state = "ON"
			}
		}
		events[i] = state
	}
	seq := seqio.Sequence{Sensor: "s", Events: events}
	cfg := lang.PlantConfig()
	l, err := lang.Build(seq, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.SentencesFor(seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalktrap measures community detection on a clustered graph.
func BenchmarkWalktrap(b *testing.B) {
	g := graph.New()
	rng := rand.New(rand.NewSource(7))
	const clusters, per = 6, 8
	for c := 0; c < clusters; c++ {
		for i := 0; i < per; i++ {
			for j := 0; j < per; j++ {
				if i != j && rng.Float64() < 0.7 {
					g.AddEdge(node(c, i), node(c, j), 85)
				}
			}
		}
	}
	for c := 0; c < clusters-1; c++ {
		g.AddEdge(node(c, 0), node(c+1, 0), 85)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := community.Walktrap(g, community.DefaultSteps)
		if len(res.Communities) == 0 {
			b.Fatal("no communities")
		}
	}
}

// BenchmarkGraphBandStats measures Table I-style band analysis on a dense
// relationship graph.
func BenchmarkGraphBandStats(b *testing.B) {
	g := graph.New()
	rng := rand.New(rand.NewSource(8))
	const n = 64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.AddEdge(node(0, i), node(0, j), rng.Float64()*100)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stats := g.BandStats(graph.PaperRanges(), 30); len(stats) != 5 {
			b.Fatal("bad stats")
		}
	}
}

// BenchmarkModelSaveLoad measures full model persistence round trips.
func BenchmarkModelSaveLoad(b *testing.B) {
	p := plantArtifacts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf discardCounter
		if err := p.Model.Save(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf))
	}
}

type discardCounter int

func (d *discardCounter) Write(p []byte) (int, error) {
	*d += discardCounter(len(p))
	return len(p), nil
}

// --- helpers -----------------------------------------------------------------

func benchCorpus(rng *rand.Rand, n, length, alphabet int) (src, tgt [][]int) {
	src = make([][]int, n)
	tgt = make([][]int, n)
	for i := 0; i < n; i++ {
		s := make([]int, length)
		for j := range s {
			s[j] = 3 + rng.Intn(alphabet)
		}
		src[i] = s
		tgt[i] = append([]int(nil), s...)
	}
	return src, tgt
}

func randWords(rng *rand.Rand, n, vocab int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + rng.Intn(vocab)%26))
	}
	return out
}

func node(c, i int) string {
	return string(rune('A'+c)) + string(rune('a'+i))
}

// benchStreamModel caches one trained tiny model for the streaming benchmarks.
var benchStreamOnce struct {
	sync.Once
	model *mdes.Model
	err   error
}

func benchStreamSetup(b *testing.B) (*mdes.Model, []map[string]string) {
	b.Helper()
	benchStreamOnce.Do(func() {
		rng := rand.New(rand.NewSource(17))
		ticks := 500
		a := make([]string, ticks)
		bb := make([]string, ticks)
		c := make([]string, ticks)
		state := "ON"
		for i := 0; i < ticks; i++ {
			if rng.Float64() < 0.15 {
				if state == "ON" {
					state = "OFF"
				} else {
					state = "ON"
				}
			}
			a[i] = state
			if i == 0 {
				bb[i] = state
			} else {
				bb[i] = a[i-1]
			}
			if rng.Float64() < 0.5 {
				c[i] = "ON"
			} else {
				c[i] = "OFF"
			}
		}
		ds := &seqio.Dataset{Sequences: []seqio.Sequence{
			{Sensor: "a", Events: a}, {Sensor: "b", Events: bb}, {Sensor: "c", Events: c},
		}}
		train, dev, _, err := ds.Split(380, 120)
		if err != nil {
			benchStreamOnce.err = err
			return
		}
		fw, err := mdes.New(mdes.Config{
			Language: mdes.LanguageConfig{WordLen: 4, WordStride: 1, SentenceLen: 5, SentenceStride: 5},
			NMT: mdes.NMTConfig{
				Embed: 16, Hidden: 16, Layers: 1,
				LearningRate: 5e-3, ClipNorm: 5,
				TrainSteps: 60, BatchSize: 8, MaxDecodeLen: 10,
			},
			ValidRange:      mdes.Range{Lo: 50, Hi: 100},
			PopularInDegree: 3,
			Seed:            1,
		})
		if err != nil {
			benchStreamOnce.err = err
			return
		}
		benchStreamOnce.model, benchStreamOnce.err = fw.Train(context.Background(), train, dev)
	})
	if benchStreamOnce.err != nil {
		b.Fatal(benchStreamOnce.err)
	}
	ticks := []map[string]string{
		{"a": "ON", "b": "ON", "c": "OFF"},
		{"a": "ON", "b": "ON", "c": "ON"},
		{"a": "OFF", "b": "ON", "c": "OFF"},
		{"a": "OFF", "b": "OFF", "c": "ON"},
		{"a": "ON", "b": "OFF", "c": "OFF"},
	}
	return benchStreamOnce.model, ticks
}

// BenchmarkStreamPush measures the full online hot path — window rotation,
// sentence encoding, pairwise scoring, Algorithm 2 — and pins its steady-state
// allocation count: with allocs/op above ~0.5 (two escaping allocations per
// five-tick emission cycle), the zero-alloc Push path has regressed.
func BenchmarkStreamPush(b *testing.B) {
	model, ticks := benchStreamSetup(b)
	stream := model.NewStream()
	// Fill the window so every measured Push is steady-state.
	for i := 0; i < 2*stream.SentenceSpan(); i++ {
		if _, err := stream.Push(ticks[i%len(ticks)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.Push(ticks[i%len(ticks)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPushNoScore isolates Push bookkeeping (window rotation and
// validation) from NMT scoring: only the ticks that complete no sentence.
func BenchmarkStreamPushNoScore(b *testing.B) {
	model, ticks := benchStreamSetup(b)
	stream := model.NewStream()
	stream.SetScorer(func(jobs []mdes.ScoreJob, row []float64) error {
		for i := range jobs {
			row[i] = 100
		}
		return nil
	})
	for i := 0; i < 2*stream.SentenceSpan(); i++ {
		if _, err := stream.Push(ticks[i%len(ticks)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.Push(ticks[i%len(ticks)]); err != nil {
			b.Fatal(err)
		}
	}
}
