package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"mdes/internal/stats"
	"mdes/internal/svgplot"
)

// Figure is one plot file of a report, rendered from the samples the report
// computed for its Body: an SVG chart, or Graphviz DOT for fig6.
type Figure struct {
	Name    string // file name, e.g. "fig3a_cardinality_cdf.svg"
	Content string
}

// WriteFigures writes every figure the reports carry into dir and returns
// the written file names in report order.
func WriteFigures(dir string, reports []Report) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	for _, r := range reports {
		for _, f := range r.Figures {
			if err := os.WriteFile(filepath.Join(dir, f.Name), []byte(f.Content), 0o644); err != nil {
				return written, fmt.Errorf("write %s: %w", f.Name, err)
			}
			written = append(written, f.Name)
		}
	}
	return written, nil
}

// cdfFigure renders CDF series as a 640x360 line chart.
func cdfFigure(name, title, xLabel string, series ...svgplot.Series) Figure {
	return Figure{Name: name, Content: svgplot.Line(title, xLabel, "P(X<=x)", series, nil, 640, 360)}
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

// indexSeries plots ys against their index: one score per timestamp.
func indexSeries(name string, ys []float64) svgplot.Series {
	s := svgplot.Series{Name: name, Y: ys}
	for i := range ys {
		s.X = append(s.X, float64(i))
	}
	return s
}
