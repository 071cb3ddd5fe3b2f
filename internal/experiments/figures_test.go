package experiments

import (
	"encoding/xml"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFigures(t *testing.T) {
	p, err := QuickPlant()
	if err != nil {
		t.Fatal(err)
	}
	h, err := QuickHDD()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	written, err := WriteFigures(dir, append(PlantReports(p), HDDReports(h)...))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fig3a_cardinality_cdf.svg", "fig3b_vocabulary_cdf.svg",
		"fig4a_runtime_cdf.svg", "fig4b_bleu_histogram.svg",
		"fig5_degree_cdfs.svg", "fig8_anomaly_timeline.svg",
		"fig6_global_subgraph.dot",
		"fig10_discretization_cdfs.svg", "fig12_disk_trajectories.svg",
	}
	if len(written) != len(want) {
		t.Fatalf("wrote %d figures, want %d: %v", len(written), len(want), written)
	}
	for _, name := range want {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("figure %s missing: %v", name, err)
		}
		content := string(raw)
		if strings.HasSuffix(name, ".svg") {
			if !strings.HasPrefix(content, "<svg") {
				t.Fatalf("%s is not an SVG", name)
			}
			if strings.Contains(content, "NaN") {
				t.Fatalf("%s contains NaN coordinates", name)
			}
			dec := xml.NewDecoder(strings.NewReader(content))
			for {
				if _, err := dec.Token(); err != nil {
					if err.Error() == "EOF" {
						break
					}
					t.Fatalf("%s invalid XML: %v", name, err)
				}
			}
		} else if !strings.HasPrefix(content, "digraph") {
			t.Fatalf("%s is not DOT", name)
		}
	}
	// The anomaly timeline must mark the injected anomaly days.
	raw, _ := os.ReadFile(filepath.Join(dir, "fig8_anomaly_timeline.svg"))
	if !strings.Contains(string(raw), "anomaly day") {
		t.Fatal("fig8 missing anomaly-day marks")
	}
}

func TestWriteFiguresPartialInputs(t *testing.T) {
	h, err := QuickHDD()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	written, err := WriteFigures(dir, HDDReports(h))
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 2 {
		t.Fatalf("hdd-only figures = %v", written)
	}
}
