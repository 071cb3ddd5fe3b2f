package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"mdes"
	"mdes/internal/graph"
	"mdes/internal/lang"
	"mdes/internal/stats"
	"mdes/internal/svgplot"
)

// WriteFigures renders the paper's plot-style figures as SVG files into dir:
// fig3 (cardinality/vocabulary CDFs), fig4 (runtime CDF + BLEU histogram),
// fig5 (degree CDFs), fig8 (anomaly timelines per band), fig10 (feature
// CDFs), fig12 (disk trajectories), and fig6 as Graphviz DOT. It returns the
// written file names.
func WriteFigures(dir string, p *PlantArtifacts, h *HDDArtifacts) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	write := func(name, content string) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", name, err)
		}
		written = append(written, name)
		return nil
	}

	if p != nil {
		if err := write("fig3a_cardinality_cdf.svg", plantCardinalityCDF(p)); err != nil {
			return written, err
		}
		if err := write("fig3b_vocabulary_cdf.svg", plantVocabularyCDF(p)); err != nil {
			return written, err
		}
		if err := write("fig4a_runtime_cdf.svg", plantRuntimeCDF(p)); err != nil {
			return written, err
		}
		if err := write("fig4b_bleu_histogram.svg", plantBLEUHistogram(p)); err != nil {
			return written, err
		}
		if err := write("fig5_degree_cdfs.svg", plantDegreeCDFs(p)); err != nil {
			return written, err
		}
		if err := write("fig8_anomaly_timeline.svg", plantAnomalyTimeline(p)); err != nil {
			return written, err
		}
		sub := p.Model.GlobalSubgraph(p.Scale.ValidRange())
		if err := write("fig6_global_subgraph.dot",
			sub.DOT("global", p.Model.PopularSensors(p.Scale.ValidRange()))); err != nil {
			return written, err
		}
	}
	if h != nil {
		if err := write("fig10_discretization_cdfs.svg", hddDiscretizationCDF(h)); err != nil {
			return written, err
		}
		if err := write("fig12_disk_trajectories.svg", hddTrajectories(h)); err != nil {
			return written, err
		}
	}
	return written, nil
}

func cdfSeries(name string, sample []float64, points int) svgplot.Series {
	pts := stats.NewECDF(sample).Points(points)
	s := svgplot.Series{Name: name}
	for _, pt := range pts {
		s.X = append(s.X, pt[0])
		s.Y = append(s.Y, pt[1])
	}
	return s
}

func plantCardinalityCDF(p *PlantArtifacts) string {
	filtered, _ := p.Dataset.FilterConstant()
	cards := make([]float64, 0, len(filtered.Sequences))
	for _, s := range filtered.Sequences {
		cards = append(cards, float64(s.Cardinality()))
	}
	return svgplot.Line("Fig 3(a): CDF of sensor cardinality", "cardinality", "P(X<=x)",
		[]svgplot.Series{cdfSeries("sensors", cards, 20)}, nil, 640, 360)
}

func plantVocabularyCDF(p *PlantArtifacts) string {
	filtered, _ := p.Dataset.FilterConstant()
	var vocabs []float64
	trainTicks := p.Scale.TrainDays * p.Config.MinutesPerDay
	for _, s := range filtered.Sequences {
		l, err := lang.Build(s.Slice(0, trainTicks), lang.Config(p.Scale.PlantLang))
		if err != nil {
			continue
		}
		vocabs = append(vocabs, float64(l.VocabularySize()))
	}
	return svgplot.Line("Fig 3(b): CDF of vocabulary size", "vocabulary size", "P(X<=x)",
		[]svgplot.Series{cdfSeries("sensors", vocabs, 30)}, nil, 640, 360)
}

func plantRuntimeCDF(p *PlantArtifacts) string {
	var secs []float64
	for _, r := range p.Model.PairRuntimes() {
		secs = append(secs, r.Runtime.Seconds())
	}
	return svgplot.Line("Fig 4(a): CDF of pair-model runtime", "seconds", "P(X<=x)",
		[]svgplot.Series{cdfSeries("pair models", secs, 30)}, nil, 640, 360)
}

func plantBLEUHistogram(p *PlantArtifacts) string {
	var scores []float64
	for _, e := range p.Model.Graph().Edges() {
		scores = append(scores, e.Score)
	}
	h := stats.NewHistogram(scores, 0, 100, 10)
	labels := make([]string, len(h.Counts))
	values := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		labels[i] = h.BinLabel(i)
		values[i] = float64(c)
	}
	return svgplot.Bars("Fig 4(b): histogram of training BLEU scores", "relationships",
		labels, values, 640, 360)
}

func plantDegreeCDFs(p *PlantArtifacts) string {
	var ins, outs []float64
	for _, r := range graph.PaperRanges() {
		sub := p.Model.GlobalSubgraph(mdes.Range(r))
		for _, d := range sub.InDegrees() {
			ins = append(ins, float64(d))
		}
		for _, d := range sub.OutDegrees() {
			outs = append(outs, float64(d))
		}
	}
	return svgplot.Line("Fig 5: degree CDFs across band subgraphs", "degree", "P(X<=x)",
		[]svgplot.Series{cdfSeries("in-degree", ins, 20), cdfSeries("out-degree", outs, 20)},
		nil, 640, 360)
}

func plantAnomalyTimeline(p *PlantArtifacts) string {
	valid := svgplot.Series{Name: p.Scale.ValidRange().String()}
	for i, pt := range p.Points {
		valid.X = append(valid.X, float64(i))
		valid.Y = append(valid.Y, pt.Score)
	}
	series := []svgplot.Series{valid}
	if top := p.TopBandPoints(); len(top) > 0 {
		s := svgplot.Series{Name: "[90, 100]"}
		for i, pt := range top {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, pt.Score)
		}
		series = append(series, s)
	}
	var marks []svgplot.VLine
	seen := map[int]bool{}
	for i := range p.Points {
		d := p.DayOfPoint(i)
		if seen[d] {
			continue
		}
		if containsInt(p.GT.AnomalyDays, d) {
			marks = append(marks, svgplot.VLine{X: float64(i), Label: fmt.Sprintf("anomaly day %d", d)})
			seen[d] = true
		} else if containsInt(p.GT.PrecursorDays, d) {
			marks = append(marks, svgplot.VLine{X: float64(i), Label: fmt.Sprintf("precursor day %d", d)})
			seen[d] = true
		}
	}
	return svgplot.Line("Fig 8: anomaly scores over the test split", "sentence timestamp", "a_t",
		series, marks, 800, 400)
}

func hddDiscretizationCDF(h *HDDArtifacts) string {
	var series []svgplot.Series
	for _, f := range []string{"smart_187", "smart_194"} {
		if _, ok := h.Schemes[f]; !ok {
			continue
		}
		var pool []float64
		for _, d := range h.Fleet.Drives[:min(8, len(h.Fleet.Drives))] {
			pool = append(pool, featureSeries(d, f)[:h.HS.TrainDays]...)
		}
		series = append(series, cdfSeries(f+" ("+h.Schemes[f].Name()+")", pool, 30))
	}
	return svgplot.Line("Fig 10: feature CDFs and their discretisation schemes", "value", "P(X<=x)",
		series, nil, 640, 360)
}

func hddTrajectories(h *HDDArtifacts) string {
	var series []svgplot.Series
	var detected, missed int
	for _, o := range h.Outcomes {
		if !o.Failed {
			continue
		}
		var name string
		if o.Detected && detected < 3 {
			detected++
			name = o.ID + " (detected)"
		} else if !o.Detected && missed < 3 {
			missed++
			name = o.ID + " (missed)"
		} else {
			continue
		}
		s := svgplot.Series{Name: name}
		for t, v := range o.Scores {
			s.X = append(s.X, float64(t))
			s.Y = append(s.Y, v)
		}
		series = append(series, s)
	}
	return svgplot.Line("Fig 12: anomaly-score trajectories before disk failure", "test timestamp", "a_t",
		series, nil, 800, 400)
}
