package mdes

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"mdes/internal/graph"
	"mdes/internal/nmt"
	"mdes/internal/seqio"
)

// tinyTestConfig keeps end-to-end runs fast: short words/sentences and a
// small 1-layer NMT.
func tinyTestConfig() Config {
	return Config{
		Language: LanguageConfig{
			WordLen: 4, WordStride: 1, SentenceLen: 5, SentenceStride: 5,
		},
		NMT: NMTConfig{
			Embed: 16, Hidden: 16, Layers: 1,
			Dropout: 0, LearningRate: 5e-3, ClipNorm: 5,
			TrainSteps: 150, BatchSize: 8, MaxDecodeLen: 10,
		},
		ValidRange:      Range{Lo: 50, Hi: 100},
		PopularInDegree: 3,
		Seed:            1,
	}
}

// coupledDataset builds four sensors: a and b strongly coupled (b lags a by
// one tick), c independent noise, d constant (must be filtered).
func coupledDataset(rng *rand.Rand, ticks int) *seqio.Dataset {
	a := make([]string, ticks)
	b := make([]string, ticks)
	c := make([]string, ticks)
	d := make([]string, ticks)
	state := "ON"
	for t := 0; t < ticks; t++ {
		if rng.Float64() < 0.15 {
			if state == "ON" {
				state = "OFF"
			} else {
				state = "ON"
			}
		}
		a[t] = state
		if t == 0 {
			b[t] = state
		} else {
			b[t] = a[t-1]
		}
		if rng.Float64() < 0.5 {
			c[t] = "ON"
		} else {
			c[t] = "OFF"
		}
		d[t] = "IDLE"
	}
	return &seqio.Dataset{Sequences: []seqio.Sequence{
		{Sensor: "a", Events: a},
		{Sensor: "b", Events: b},
		{Sensor: "c", Events: c},
		{Sensor: "d", Events: d},
	}}
}

func trainTiny(t *testing.T) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	full := coupledDataset(rng, 500)
	train, dev, _, err := full.Split(380, 120)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(tinyTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	model, err := fw.Train(context.Background(), train, dev)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Language.WordLen = 0
	if _, err := New(bad); err == nil {
		t.Fatal("invalid language config accepted")
	}
	bad = DefaultConfig()
	bad.NMT.LearningRate = -1
	if _, err := New(bad); err == nil {
		t.Fatal("invalid NMT config accepted")
	}
	bad = DefaultConfig()
	bad.PopularInDegree = -1
	if _, err := New(bad); err == nil {
		t.Fatal("negative popular threshold accepted")
	}
}

func TestTrainBuildsGraphAndFilters(t *testing.T) {
	model := trainTiny(t)
	if got := model.DroppedSensors(); len(got) != 1 || got[0] != "d" {
		t.Fatalf("dropped = %v, want [d]", got)
	}
	g := model.Graph()
	if g.NumNodes() != 3 || g.NumEdges() != 6 {
		t.Fatalf("graph = %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	ab, ok := g.Score("a", "b")
	if !ok {
		t.Fatal("missing a->b edge")
	}
	ac, _ := g.Score("a", "c")
	if ab <= ac {
		t.Fatalf("coupled BLEU %v <= noise BLEU %v", ab, ac)
	}
	if ab < 60 {
		t.Fatalf("coupled pair BLEU = %v, want >= 60", ab)
	}
	// Runtimes recorded for every pair.
	if len(model.PairRuntimes()) != 6 {
		t.Fatalf("runtimes = %d", len(model.PairRuntimes()))
	}
	// Languages exist for modelled sensors only.
	if len(model.languages) != 3 || model.languages["a"].VocabularySize() == 0 {
		t.Fatalf("languages = %v", model.languages)
	}
}

func TestDetectFlagsDecoupledWindow(t *testing.T) {
	model := trainTiny(t)

	// Build a test set: first 200 ticks coupled as trained, last 200 ticks
	// with b replaced by independent noise (relationship broken).
	rng := rand.New(rand.NewSource(77))
	ds := coupledDataset(rng, 400)
	for t2 := 200; t2 < 400; t2++ {
		if rng.Float64() < 0.5 {
			ds.Sequences[1].Events[t2] = "ON"
		} else {
			ds.Sequences[1].Events[t2] = "OFF"
		}
	}
	points, err := model.Detect(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no detection points")
	}
	// Average anomaly score across the decoupled half must exceed the
	// coupled half.
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
	// Alerts must carry the broken pair.
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

func TestSaveLoadRoundTrip(t *testing.T) {
	model := trainTiny(t)
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Graph preserved.
	for _, e := range model.Graph().Edges() {
		s, ok := loaded.Graph().Score(e.Src, e.Tgt)
		if !ok || math.Abs(s-e.Score) > 1e-9 {
			t.Fatalf("edge %s->%s lost or changed: %v vs %v", e.Src, e.Tgt, s, e.Score)
		}
	}
	// Detection identical on the same test data.
	rng := rand.New(rand.NewSource(5))
	ds := coupledDataset(rng, 200)
	p1, err := model.Detect(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := loaded.Detect(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p2) {
		t.Fatalf("point counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if math.Abs(p1[i].Score-p2[i].Score) > 1e-9 {
			t.Fatalf("scores differ at %d: %v vs %v", i, p1[i].Score, p2[i].Score)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	fw, err := New(tinyTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Empty dataset.
	if _, err := fw.Train(ctx, &seqio.Dataset{}, &seqio.Dataset{}); err == nil {
		t.Fatal("empty train accepted")
	}
	// All-constant dataset.
	constant := &seqio.Dataset{Sequences: []seqio.Sequence{
		{Sensor: "x", Events: repeat("A", 100)},
		{Sensor: "y", Events: repeat("B", 100)},
	}}
	if _, err := fw.Train(ctx, constant, constant); err == nil {
		t.Fatal("all-constant train accepted")
	}
	// Dev missing a sensor.
	rng := rand.New(rand.NewSource(9))
	train := coupledDataset(rng, 200)
	devShort := &seqio.Dataset{Sequences: train.Sequences[:1]}
	if _, err := fw.Train(ctx, train, devShort); err == nil {
		t.Fatal("misaligned dev accepted")
	}
}

func TestDetectErrors(t *testing.T) {
	model := trainTiny(t)
	ctx := context.Background()
	// Test set missing a modelled sensor.
	rng := rand.New(rand.NewSource(3))
	ds := coupledDataset(rng, 200)
	ds.Sequences = ds.Sequences[:2]
	if _, err := model.Detect(ctx, ds); err == nil {
		t.Fatal("missing sensor accepted")
	}
	// Cancelled context surfaces.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	full := coupledDataset(rng, 200)
	if _, err := model.Detect(cctx, full); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestKnowledgeDiscoveryAccessors(t *testing.T) {
	model := trainTiny(t)
	r := Range{Lo: 0, Hi: 100}
	sub := model.GlobalSubgraph(r)
	if sub.NumEdges() != 6 {
		t.Fatalf("full-range subgraph edges = %d", sub.NumEdges())
	}
	// With threshold 3 and 3 nodes, nobody reaches in-degree 3.
	if pop := model.PopularSensors(r); len(pop) != 0 {
		t.Fatalf("popular = %v", pop)
	}
	local := model.LocalSubgraph(r)
	if local.NumEdges() != 6 {
		t.Fatalf("local subgraph edges = %d", local.NumEdges())
	}
	comms := model.Communities(r)
	var members int
	for _, c := range comms.Communities {
		members += len(c)
	}
	if members != 3 {
		t.Fatalf("communities cover %d sensors", members)
	}
	if stats := model.BandStats(); len(stats) != 5 {
		t.Fatalf("band stats rows = %d", len(stats))
	}
	edges := model.SortedEdges()
	for i := 1; i < len(edges); i++ {
		if edges[i].Score > edges[i-1].Score {
			t.Fatal("SortedEdges not descending")
		}
	}
	// Diagnosis runs end to end on a synthetic point.
	diag := model.Diagnose(Point{Broken: []Alert{{Src: "a", Tgt: "b"}}})
	if len(diag.Clusters) == 0 {
		t.Fatal("diagnosis returned no clusters")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"pairs":{"no-separator":{"config":{}}}}`))); err == nil {
		t.Fatal("malformed pair key accepted")
	}
}

func TestReexportedHelpers(t *testing.T) {
	// The re-exported aliases must interoperate with internal packages.
	var g *Graph = graph.New()
	g.AddEdge("x", "y", 85)
	if _, ok := g.Score("x", "y"); !ok {
		t.Fatal("alias Graph broken")
	}
	var cfg NMTConfig = nmt.DefaultConfig()
	if cfg.Layers != 2 {
		t.Fatal("alias NMTConfig broken")
	}
}

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}
