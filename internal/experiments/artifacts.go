// Package experiments regenerates every table and figure of the paper's
// evaluation (§III plant case study, §IV Backblaze case study) on the
// synthetic substitutes, and reports paper-vs-measured comparisons.
//
// Heavy artifacts — generated datasets, the pairwise-trained relationship
// graphs, detection runs — are built once per scale and shared by all
// experiment runners.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"mdes"
	"mdes/internal/anomaly"
	"mdes/internal/plantgen"
	"mdes/internal/seqio"
)

// Scale selects how much compute an experiment run spends. Quick is sized
// for unit tests and benchmarks; Full approximates the paper's setting on a
// laptop budget (a representative sensor subset, as §III-A2 licenses).
type Scale struct {
	Name string

	// Plant case study.
	Plant       plantgen.Config
	PlantSubset int // sensors carried into pairwise training
	PlantLang   mdes.LanguageConfig
	PlantNMT    mdes.NMTConfig
	// Screen, when enabled, restricts NMT training to the top candidate
	// pairs (used by ScreenScale; zero for the exhaustive paper sweep).
	Screen          mdes.ScreenConfig
	TrainDays       int
	DevDays         int
	PopularInDegree int

	// HDD case study.
	HDD     HDDScale
	ValidLo float64
	ValidHi float64
	Workers int
	Seed    int64
}

// QuickScale is small enough for go test; the shapes (who wins, where the
// spikes are) already hold at this size.
func QuickScale() Scale {
	plant := plantgen.Default()
	plant.Sensors = 24
	plant.Days = 8
	plant.MinutesPerDay = 360
	plant.Clusters = 2
	plant.Popular = 2
	plant.RareEventFrac = 0.10
	plant.ConstantFrac = 0.05
	plant.Anomalies = []plantgen.AnomalySpec{
		{Day: 6, Severity: 1.0},
		{Day: 8, Severity: 1.0},
	}
	plant.Precursors = []int{5}
	return Scale{
		Name:        "quick",
		Plant:       plant,
		PlantSubset: 8,
		PlantLang: mdes.LanguageConfig{
			WordLen: 4, WordStride: 1, SentenceLen: 8, SentenceStride: 8,
			MaxVocab: 64,
		},
		PlantNMT: mdes.NMTConfig{
			Embed: 16, Hidden: 16, Layers: 1,
			Dropout: 0, LearningRate: 5e-3, ClipNorm: 5,
			TrainSteps: 300, BatchSize: 8, MaxDecodeLen: 12,
		},
		TrainDays:       3,
		DevDays:         1,
		PopularInDegree: 4,
		HDD:             quickHDD(),
		ValidLo:         80,
		ValidHi:         96,
		Seed:            11,
	}
}

// FullScale mirrors the paper's parameters where affordable: the paper's
// word/sentence windows, its 10/3/17-day split, 2-layer NMT with dropout
// 0.2, and the [80,90) valid band over a 16-sensor representative subset.
func FullScale() Scale {
	plant := plantgen.Default()
	return Scale{
		Name:        "full",
		Plant:       plant,
		PlantSubset: 16,
		PlantLang: mdes.LanguageConfig{
			WordLen: 10, WordStride: 1, SentenceLen: 20, SentenceStride: 20,
			MaxVocab: 1024,
		},
		// 1000 training steps is the paper's own setting (§III-A2) and,
		// empirically, what the 10-char-word / 20-word-sentence scale needs
		// to converge (dev BLEU ~72 at 1000 steps on a coupled pair, ~20 at
		// 200). At ~11 s/pair on one core (DESIGN §9) a 16-sensor sweep
		// takes most of an hour; spread it across cores with Workers.
		PlantNMT: mdes.NMTConfig{
			Embed: 32, Hidden: 32, Layers: 2,
			Dropout: 0.2, LearningRate: 2e-3, ClipNorm: 5,
			TrainSteps: 1000, BatchSize: 8, MaxDecodeLen: 26,
		},
		TrainDays:       10,
		DevDays:         3,
		PopularInDegree: 8,
		HDD:             fullHDD(),
		ValidLo:         80,
		ValidHi:         90,
		Seed:            11,
	}
}

// ValidRange returns the detection band of the scale.
func (s Scale) ValidRange() mdes.Range { return mdes.Range{Lo: s.ValidLo, Hi: s.ValidHi} }

// PlantArtifacts bundles everything the plant experiments consume.
type PlantArtifacts struct {
	Scale   Scale
	Config  plantgen.Config
	Dataset *seqio.Dataset // all sensors, full horizon
	GT      *plantgen.GroundTruth

	// Subset carried through pairwise training.
	Subset          []string
	Train, Dev, Tst *seqio.Dataset
	Model           *mdes.Model
	Points          []mdes.Point // detection over the test split
	// SentencesPerDay converts sentence timestamps to days.
	SentencesPerDay int
	// TestStartDay is the 1-based first day of the test split.
	TestStartDay int
}

// BuildPlant generates the plant dataset, trains the pairwise models on a
// representative subset, and runs detection over the test split. A
// PlantSubset of at least the plant's sensor count keeps every sensor in
// dataset order: the whole plant goes through language building and
// screening (Scale.Screen), and only the screened candidates get NMT models.
func BuildPlant(ctx context.Context, sc Scale) (*PlantArtifacts, error) {
	ds, gt, err := plantgen.Generate(sc.Plant)
	if err != nil {
		return nil, err
	}
	var subset []string
	if sc.PlantSubset >= len(ds.Sequences) {
		for _, seq := range ds.Sequences {
			subset = append(subset, seq.Sensor)
		}
	} else {
		subset = pickSubset(ds, gt, sc.PlantSubset)
	}
	sub := &seqio.Dataset{}
	for _, name := range subset {
		seq, ok := ds.Find(name)
		if !ok {
			return nil, fmt.Errorf("experiments: subset sensor %q missing", name)
		}
		sub.Sequences = append(sub.Sequences, seq)
	}
	trainTicks := sc.TrainDays * sc.Plant.MinutesPerDay
	devTicks := sc.DevDays * sc.Plant.MinutesPerDay
	train, dev, tst, err := sub.Split(trainTicks, devTicks)
	if err != nil {
		return nil, err
	}

	cfg := mdes.Config{
		Language:        sc.PlantLang,
		NMT:             sc.PlantNMT,
		Screen:          sc.Screen,
		ValidRange:      sc.ValidRange(),
		PopularInDegree: sc.PopularInDegree,
		Workers:         sc.Workers,
		Seed:            sc.Seed,
	}
	fw, err := mdes.New(cfg)
	if err != nil {
		return nil, err
	}
	model, err := fw.Train(ctx, train, dev)
	if err != nil {
		return nil, err
	}
	points, err := model.Detect(ctx, tst)
	if err != nil {
		return nil, err
	}
	return &PlantArtifacts{
		Scale: sc, Config: sc.Plant, Dataset: ds, GT: gt,
		Subset: subset, Train: train, Dev: dev, Tst: tst,
		Model: model, Points: points,
		SentencesPerDay: sc.PlantLang.NumSentences(sc.Plant.MinutesPerDay),
		TestStartDay:    sc.TrainDays + sc.DevDays + 1,
	}, nil
}

// pickSubset selects a representative sensor subset: every popular sensor,
// then plain sensors round-robin across clusters (skipping constants), as
// §III-A2 suggests redundant sensors can be filtered.
func pickSubset(ds *seqio.Dataset, gt *plantgen.GroundTruth, n int) []string {
	var out []string
	seen := make(map[string]struct{})
	add := func(name string) bool {
		if len(out) >= n {
			return false
		}
		if _, dup := seen[name]; dup {
			return true
		}
		seen[name] = struct{}{}
		out = append(out, name)
		return true
	}
	for _, p := range gt.Popular {
		if !add(p) {
			return out
		}
	}
	// Skip constants (filtered anyway) and the rare-event/multi-state
	// specialists: the pairwise sweep runs on representative plain sensors
	// (§III-A2 notes redundant/unrepresentative sensors can be filtered).
	skip := make(map[string]struct{})
	for _, list := range [][]string{gt.Constant, gt.RareEvent, gt.MultiState} {
		for _, name := range list {
			skip[name] = struct{}{}
		}
	}
	// Round-robin over clusters by scanning sensors in name order.
	byCluster := map[int][]string{}
	var clusters []int
	for _, seq := range ds.Sequences {
		c := gt.ClusterOf[seq.Sensor]
		if c < 0 {
			continue
		}
		if _, banned := skip[seq.Sensor]; banned {
			continue
		}
		if len(byCluster[c]) == 0 {
			clusters = append(clusters, c)
		}
		byCluster[c] = append(byCluster[c], seq.Sensor)
	}
	for round := 0; len(out) < n; round++ {
		progressed := false
		for _, c := range clusters {
			if round < len(byCluster[c]) {
				progressed = true
				if !add(byCluster[c][round]) {
					return out
				}
			}
		}
		if !progressed {
			break
		}
	}
	return out
}

// DetectWithRange re-runs detection over the test split with an alternative
// valid band (Fig 8(b)).
func (p *PlantArtifacts) DetectWithRange(r mdes.Range) ([]mdes.Point, error) {
	return p.Model.DetectWithRange(context.Background(), p.Tst, r)
}

// DayOfPoint converts a detection point index to the 1-based plant day via
// the tick the sentence's midpoint falls on (sentences are generated over
// the continuous test split, so they drift across day boundaries).
func (p *PlantArtifacts) DayOfPoint(t int) int {
	lc := p.Scale.PlantLang
	mid := t*lc.Stride() + lc.Span()/2
	return p.TestStartDay + mid/p.Config.MinutesPerDay
}

// DayScores averages anomaly scores per day over the test split.
func (p *PlantArtifacts) DayScores(points []anomaly.Point) map[int]float64 {
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for i, pt := range points {
		d := p.DayOfPoint(i)
		sums[d] += pt.Score
		counts[d]++
	}
	out := make(map[int]float64, len(sums))
	for d, s := range sums {
		out[d] = s / float64(counts[d])
	}
	return out
}

// Memoised quick artifacts shared by tests and benchmarks.
var (
	quickPlantOnce sync.Once
	quickPlant     *PlantArtifacts
	quickPlantErr  error

	quickHDDOnce sync.Once
	quickHDDArt  *HDDArtifacts
	quickHDDErr  error
)

// QuickPlant builds (once) and returns the quick-scale plant artifacts.
func QuickPlant() (*PlantArtifacts, error) {
	quickPlantOnce.Do(func() {
		quickPlant, quickPlantErr = BuildPlant(context.Background(), QuickScale())
	})
	return quickPlant, quickPlantErr
}

// QuickHDD builds (once) and returns the quick-scale HDD artifacts.
func QuickHDD() (*HDDArtifacts, error) {
	quickHDDOnce.Do(func() {
		quickHDDArt, quickHDDErr = BuildHDD(context.Background(), QuickScale())
	})
	return quickHDDArt, quickHDDErr
}
