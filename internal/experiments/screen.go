package experiments

import (
	"context"
	"sync"

	"mdes"
	"mdes/internal/plantgen"
)

// ScreenScale sizes the candidate-pair screening validation: a plant an
// order of magnitude past FullScale's sensor count, where the exhaustive
// O(N²) pair sweep (249,500 ordered pairs at 500 sensors) is the wall
// screening exists to break. Every sensor is carried into training — no
// representative subset — and Screen.TopK keeps the NMT budget at well
// under 10% of the pairs.
func ScreenScale() Scale {
	plant := plantgen.Default()
	plant.Sensors = 500
	plant.Days = 8
	plant.MinutesPerDay = 240
	plant.Clusters = 8
	plant.Popular = 4
	plant.MultiStateFrac = 0.02
	plant.ConstantFrac = 0.04
	plant.RareEventFrac = 0.10
	// Test horizon: day 6 normal, day 7 precursor, day 8 full anomaly.
	plant.Anomalies = []plantgen.AnomalySpec{{Day: 8, Severity: 1.0}}
	plant.Precursors = []int{7}
	plant.PrecursorSeverity = 0.5
	return Scale{
		Name:        "screen",
		Plant:       plant,
		PlantSubset: plant.Sensors,
		PlantLang: mdes.LanguageConfig{
			WordLen: 4, WordStride: 1, SentenceLen: 8, SentenceStride: 8,
			MaxVocab: 64,
		},
		PlantNMT: mdes.NMTConfig{
			Embed: 12, Hidden: 12, Layers: 1,
			Dropout: 0, LearningRate: 5e-3, ClipNorm: 5,
			TrainSteps: 100, BatchSize: 8, MaxDecodeLen: 12,
		},
		Screen:          mdes.ScreenConfig{TopK: 600},
		TrainDays:       4,
		DevDays:         1,
		PopularInDegree: 50,
		HDD:             quickHDD(),
		ValidLo:         50,
		ValidHi:         100,
		Seed:            11,
	}
}

// Memoised screen-scale artifacts: the 500-sensor build is the most
// expensive fixture in the suite, shared by the validation test and the
// experiment report.
var (
	screenPlantOnce sync.Once
	screenPlant     *PlantArtifacts
	screenPlantErr  error
)

// ScreenPlant builds (once) and returns the screen-scale plant artifacts.
func ScreenPlant() (*PlantArtifacts, error) {
	screenPlantOnce.Do(func() {
		screenPlant, screenPlantErr = BuildPlant(context.Background(), ScreenScale())
	})
	return screenPlant, screenPlantErr
}
