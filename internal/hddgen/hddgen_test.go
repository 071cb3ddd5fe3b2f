package hddgen

import (
	"testing"

	"mdes/internal/discretize"
	"mdes/internal/stats"
)

func smallConfig() Config {
	cfg := Default()
	cfg.Drives = 30
	cfg.Days = 60
	cfg.DegradationLead = 14
	return cfg
}

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default invalid: %v", err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Drives = 0 },
		func(c *Config) { c.Days = 1 },
		func(c *Config) { c.FailureRate = 1.2 },
		func(c *Config) { c.DegradationLead = 0 },
		func(c *Config) { c.DegradationLead = c.Days },
		func(c *Config) { c.DetectableFrac = -0.1 },
	}
	for i, mutate := range bads {
		cfg := Default()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := smallConfig()
	fleet, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Drives) != cfg.Drives {
		t.Fatalf("drives = %d", len(fleet.Drives))
	}
	wantFailed := int(float64(cfg.Drives)*cfg.FailureRate + 0.5)
	if got := len(fleet.FailedDrives()); got != wantFailed {
		t.Fatalf("failed drives = %d, want %d", got, wantFailed)
	}
	if len(fleet.HealthyDrives())+len(fleet.FailedDrives()) != cfg.Drives {
		t.Fatal("healthy+failed != total")
	}
	for _, d := range fleet.Drives {
		if len(d.Features) != len(RawFeatures) {
			t.Fatalf("drive %s has %d features", d.ID, len(d.Features))
		}
		for f, series := range d.Features {
			if len(series) != cfg.Days {
				t.Fatalf("drive %s feature %s has %d days", d.ID, f, len(series))
			}
		}
	}
}

func TestCumulativeFeaturesMonotone(t *testing.T) {
	fleet, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Drives[:5] {
		for _, f := range Cumulative {
			if !discretize.IsCumulative(d.Features[f]) {
				t.Fatalf("drive %s feature %s not monotone", d.ID, f)
			}
		}
	}
}

func TestNearConstantFeaturesBarelyChange(t *testing.T) {
	fleet, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Drives[:5] {
		for _, f := range NearConstant {
			if sd := stats.StdDev(d.Features[f]); sd > 1e-9 {
				t.Fatalf("near-constant feature %s has stddev %v", f, sd)
			}
		}
	}
}

func TestErrorCountersZeroDominatedOnHealthy(t *testing.T) {
	fleet, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.HealthyDrives()[:5] {
		deltas := diff(d.Features["smart_187"])
		if zf := discretize.ZeroFraction(deltas); zf < 0.8 {
			t.Fatalf("healthy smart_187 deltas only %.2f zero", zf)
		}
	}
}

func TestDegradationInflatesPredictiveFeatures(t *testing.T) {
	fleet, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sick *Drive
	for _, d := range fleet.FailedDrives() {
		if d.DegradationOnset > 0 {
			sick = d
			break
		}
	}
	if sick == nil {
		t.Fatal("no detectable failing drive generated")
	}
	for _, f := range []string{"smart_187", "smart_198", "smart_5"} {
		series := sick.Features[f]
		before := series[sick.DegradationOnset-1]
		after := series[len(series)-1]
		if after <= before {
			t.Fatalf("%s did not grow after onset: %v -> %v", f, before, after)
		}
	}
	// Pending sectors (gauge, not cumulative) should be elevated late.
	pend := sick.Features["smart_197"]
	if stats.Mean(pend[sick.DegradationOnset:]) <= stats.Mean(pend[:sick.DegradationOnset]) {
		t.Fatal("smart_197 not elevated after onset")
	}
}

func TestAbruptFailuresExist(t *testing.T) {
	cfg := smallConfig()
	cfg.DetectableFrac = 0.5
	fleet, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var abrupt, detectable int
	for _, d := range fleet.FailedDrives() {
		if d.DegradationOnset < 0 {
			abrupt++
		} else {
			detectable++
		}
	}
	if abrupt == 0 || detectable == 0 {
		t.Fatalf("want a mix of abrupt (%d) and detectable (%d) failures", abrupt, detectable)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Drives {
		for f, series := range a.Drives[i].Features {
			for day, v := range series {
				if b.Drives[i].Features[f][day] != v {
					t.Fatalf("non-deterministic at drive %d %s day %d", i, f, day)
				}
			}
		}
	}
}

func TestTabularSamples(t *testing.T) {
	cfg := smallConfig()
	fleet, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := fleet.TabularSamples()
	if len(samples) != cfg.Drives*cfg.Days {
		t.Fatalf("samples = %d, want %d", len(samples), cfg.Drives*cfg.Days)
	}
	names := FeatureVector()
	if len(names) != len(RawFeatures)+len(Cumulative) {
		t.Fatalf("feature vector = %d names", len(names))
	}
	var positives int
	for _, s := range samples {
		if len(s.X) != len(names) {
			t.Fatalf("sample width = %d, want %d", len(s.X), len(names))
		}
		if s.Failure {
			positives++
			if s.Day != cfg.Days-1 {
				t.Fatalf("failure sample on day %d, want last day", s.Day)
			}
		}
	}
	if positives != len(fleet.FailedDrives()) {
		t.Fatalf("positives = %d, want %d", positives, len(fleet.FailedDrives()))
	}
}
