package experiments

import (
	"strings"
	"testing"
)

func TestAblationValidBandPrefersMidBand(t *testing.T) {
	p, err := QuickPlant()
	if err != nil {
		t.Fatal(err)
	}
	r := AblationValidBand(p)
	if !r.Pass {
		t.Fatalf("band ablation shape failed: %s", r.Measured)
	}
	// The report must cover all five paper bands.
	for _, band := range []string{"[0, 60)", "[60, 70)", "[70, 80)", "[80, 90)", "[90, 100]"} {
		if !strings.Contains(r.Body, band) {
			t.Fatalf("band %s missing from body:\n%s", band, r.Body)
		}
	}
}

func TestAblationWordLengthVocabGrows(t *testing.T) {
	p, err := QuickPlant()
	if err != nil {
		t.Fatal(err)
	}
	r := AblationWordLength(p)
	if !r.Pass {
		t.Fatalf("word-length ablation failed: %s", r.Measured)
	}
	if !strings.Contains(r.Body, "dev BLEU") {
		t.Fatalf("missing BLEU column:\n%s", r.Body)
	}
}

// TestCoupledPairIsFixed: abl-word retrains the pair coupledPair picks, so
// the pick must not depend on map iteration order, or the quick report's
// vocabulary figures change from run to run.
func TestCoupledPairIsFixed(t *testing.T) {
	p, err := QuickPlant()
	if err != nil {
		t.Fatal(err)
	}
	src, tgt, ok := p.coupledPair()
	if !ok {
		t.Fatal("no coupled pair in the quick plant")
	}
	for i := 0; i < 64; i++ {
		if s, g, _ := p.coupledPair(); s != src || g != tgt {
			t.Fatalf("call %d picked %s->%s, the first %s->%s", i, s, g, src, tgt)
		}
	}
	c := p.GT.ClusterOf[src]
	if p.GT.ClusterOf[tgt] != c {
		t.Fatalf("%s and %s are in clusters %d and %d", src, tgt, c, p.GT.ClusterOf[tgt])
	}
	n := map[int]int{}
	for _, name := range p.Model.Sensors() {
		if k := p.GT.ClusterOf[name]; k > c {
			if n[k]++; n[k] >= 2 {
				t.Fatalf("cluster %d has two modelled sensors but the pick is from cluster %d", k, c)
			}
		}
	}
}

func TestAblationSentenceStride(t *testing.T) {
	p, err := QuickPlant()
	if err != nil {
		t.Fatal(err)
	}
	r := AblationSentenceStride(p)
	if !r.Pass {
		t.Fatalf("stride ablation failed: %s", r.Measured)
	}
	// Stride 1 must yield at least SentenceLen times minus-epsilon more
	// sentences than the non-overlapping stride.
	if !strings.Contains(r.Body, "1 min") {
		t.Fatalf("per-minute granularity row missing:\n%s", r.Body)
	}
}

func TestAblationPropagationTracks(t *testing.T) {
	p, err := QuickPlant()
	if err != nil {
		t.Fatal(err)
	}
	r := AblationPropagation(p)
	if !r.Pass {
		t.Fatalf("propagation ablation failed: %s", r.Measured)
	}
	if !strings.Contains(r.Body, "front=") {
		t.Fatalf("missing propagation front:\n%s", r.Body)
	}
}

func TestAblationsBundle(t *testing.T) {
	p, err := QuickPlant()
	if err != nil {
		t.Fatal(err)
	}
	all := Ablations(p)
	if len(all) != 4 {
		t.Fatalf("ablations = %d, want 4", len(all))
	}
	ids := map[string]bool{}
	for _, r := range all {
		ids[r.ID] = true
	}
	for _, want := range []string{"abl-band", "abl-word", "abl-stride", "abl-prop"} {
		if !ids[want] {
			t.Fatalf("missing ablation %s", want)
		}
	}
}
