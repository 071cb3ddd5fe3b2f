package experiments

import (
	"fmt"
	"sort"
	"strings"

	"mdes"
	"mdes/internal/anomaly"
	"mdes/internal/graph"
	"mdes/internal/stats"
	"mdes/internal/svgplot"
)

// toGraphRange converts the re-exported alias (identical underlying type).
func toGraphRange(r mdes.Range) graph.Range { return graph.Range(r) }

// Fig10 shows the two discretisation schemes on representative features.
func Fig10(h *HDDArtifacts) Report {
	var sb strings.Builder
	schemeOf := map[string]string{}
	for _, f := range h.HS.Features {
		s := h.Schemes[f]
		schemeOf[f] = s.Name()
		fmt.Fprintf(&sb, "%-10s -> %-8s (%d levels)\n", f, s.Name(), len(s.Levels()))
	}
	// Render the two paper examples as CDFs of the analysed series.
	var series []svgplot.Series
	for _, f := range []string{"smart_187", "smart_194"} {
		if _, ok := h.Schemes[f]; !ok {
			continue
		}
		var pool []float64
		for _, d := range h.Fleet.Drives[:min(8, len(h.Fleet.Drives))] {
			pool = append(pool, featureSeries(d, f)[:h.HS.TrainDays]...)
		}
		fmt.Fprintf(&sb, "CDF of %s training values (scheme %s):\n", f, schemeOf[f])
		sb.WriteString(stats.ASCIICDF(stats.NewECDF(pool).Points(5), 30))
		series = append(series, cdfSeries(f+" ("+schemeOf[f]+")", pool, 30))
	}
	pass := schemeOf["smart_187"] == "binary" && schemeOf["smart_194"] == "quantile"
	return Report{
		ID:    "fig10",
		Title: "Feature discretisation schemes",
		Paper: "zero-dominated features (e.g. SMART 187) get a binary zero/non-zero indicator; smooth features (e.g. SMART 9) use 20/40/60/80th-percentile bands",
		Measured: fmt.Sprintf("smart_187 -> %s, smart_194 -> %s; %d features discretised",
			schemeOf["smart_187"], schemeOf["smart_194"], len(h.HS.Features)),
		Pass: pass,
		Body: sb.String(),
		Figures: []Figure{cdfFigure("fig10_discretization_cdfs.svg",
			"Fig 10: feature CDFs and their discretisation schemes", "value", series...)},
	}
}

// Table2 compares the three models.
func Table2(h *HDDArtifacts) Report {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %12s %12s %10s %8s %12s\n",
		"Model", "Unsupervised", "FeatureEng", "Ranking", "Recall", "DiscreteSeq")
	recall := map[string]float64{}
	for _, b := range h.Baselines {
		recall[b.Name] = b.Recall
		fmt.Fprintf(&sb, "%-8s %12s %12s %10s %7.0f%% %12s\n",
			b.Name, yn(b.Unsupervised), yn(b.FeatureEngineering), yn(b.FeatureRanking),
			100*b.Recall, yn(b.Applicable))
	}
	pass := recall["RF"] >= recall["OC-SVM"] &&
		recall["OC-SVM"]+0.15 >= recall["Ours"] &&
		recall["Ours"] >= 0.3
	return Report{
		ID:    "tab2",
		Title: "Model comparison on the HDD dataset",
		Paper: "RF (supervised, feature-engineered) 70-80% recall; OC-SVM (unsupervised, feature-engineered) ~60%; ours (unsupervised, no feature engineering, works on discrete sequences) 58%",
		Measured: fmt.Sprintf("RF %.0f%%, OC-SVM %.0f%%, ours %.0f%%",
			100*recall["RF"], 100*recall["OC-SVM"], 100*recall["Ours"]),
		Pass: pass,
		Body: sb.String(),
	}
}

// Fig11 compares graph-based feature importance against the RF ranking.
func Fig11(h *HDDArtifacts) Report {
	top := h.TopGraphFeatures(h.ValidRange())
	k := min(5, len(top))
	graphTop := top[:k]

	// RF ranking: collapse raw and differenced variants to the base name.
	type imp struct {
		name string
		v    float64
	}
	byBase := map[string]float64{}
	for name, v := range h.RFImportances {
		byBase[strings.TrimSuffix(name, "_diff")] += v
	}
	ranked := make([]imp, 0, len(byBase))
	for n, v := range byBase {
		ranked = append(ranked, imp{n, v})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].v != ranked[j].v {
			return ranked[i].v > ranked[j].v
		}
		return ranked[i].name < ranked[j].name
	})

	var sb strings.Builder
	sb.WriteString("(a) top graph features by in-degree in the valid band:\n")
	sub := h.Graph.Subgraph(toGraphRange(h.ValidRange()))
	in := sub.InDegrees()
	for _, f := range graphTop {
		fmt.Fprintf(&sb, "  %-10s in-degree %d\n", f, in[f])
	}
	sb.WriteString("(b) top-10 RF importances (raw+diff collapsed):\n")
	for i, r := range ranked[:min(10, len(ranked))] {
		fmt.Fprintf(&sb, "  %2d. %-10s %.3f\n", i+1, r.name, r.v)
	}

	predictive := map[string]bool{}
	for _, f := range []string{"smart_192", "smart_187", "smart_198", "smart_197", "smart_5"} {
		predictive[f] = true
	}
	var graphHits, rfHits int
	for _, f := range graphTop {
		if predictive[f] {
			graphHits++
		}
	}
	for _, r := range ranked[:min(10, len(ranked))] {
		if predictive[r.name] {
			rfHits++
		}
	}
	return Report{
		ID:    "fig11",
		Title: "Feature importance: graph in-degree vs Random Forest",
		Paper: "the 5 degradation attributes (192/187/198/197/5) dominate the [80,90) subgraph and all appear in the RF top-10",
		Measured: fmt.Sprintf("%d/5 graph-top features and %d/5 predictive attributes in the RF top-10 are degradation-linked",
			graphHits, rfHits),
		Pass: graphHits >= 3 && rfHits >= 3,
		Body: sb.String(),
	}
}

// Fig12 renders anomaly-score trajectories for detected and undetected
// failed drives.
func Fig12(h *HDDArtifacts) Report {
	// The SVG plots the first three drives of each kind in Outcomes order.
	var detected, missed []DriveOutcome
	var series []svgplot.Series
	for _, o := range h.Outcomes {
		if !o.Failed {
			continue
		}
		if o.Detected {
			detected = append(detected, o)
			if len(detected) <= 3 {
				series = append(series, indexSeries(o.ID+" (detected)", o.Scores))
			}
		} else {
			missed = append(missed, o)
			if len(missed) <= 3 {
				series = append(series, indexSeries(o.ID+" (missed)", o.Scores))
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("(a) detected failed drives (sharp increase before failure):\n")
	for _, o := range detected[:min(3, len(detected))] {
		fmt.Fprintf(&sb, "%s (jump at t=%d):\n%s", o.ID, o.JumpAt,
			stats.ASCIISeries(o.Scores, 30, map[int]string{o.JumpAt: "jump"}))
	}
	sb.WriteString("(b) undetected failed drives (flat trajectories):\n")
	for _, o := range missed[:min(3, len(missed))] {
		fmt.Fprintf(&sb, "%s:\n%s", o.ID, stats.ASCIISeries(o.Scores, 30, nil))
	}

	// Detected drives must jump; missed ones must be comparatively flat.
	flatMissed := 0
	for _, o := range missed {
		if _, jumped := anomaly.SharpIncrease(o.Scores, h.HS.Jump); !jumped {
			flatMissed++
		}
	}
	return Report{
		ID:    "fig12",
		Title: "Per-drive anomaly-score trajectories before failure",
		Paper: "detected disks show a >0.5 jump right before the failure date; undetected disks stay flat (whether high or low)",
		Measured: fmt.Sprintf("%d detected with jumps, %d undetected (all flat by construction of the criterion); recall %.0f%%",
			len(detected), len(missed), 100*h.RecallOurs),
		Pass: len(detected) > 0,
		Body: sb.String(),
		Figures: []Figure{{Name: "fig12_disk_trajectories.svg", Content: svgplot.Line(
			"Fig 12: anomaly-score trajectories before disk failure", "test timestamp", "a_t", series, nil, 800, 400)}},
	}
}

// Table3 lists the top-5 graph features with degrees and descriptions.
func Table3(h *HDDArtifacts) Report {
	sub := h.Graph.Subgraph(toGraphRange(h.ValidRange()))
	in := sub.InDegrees()
	out := sub.OutDegrees()
	top := h.TopGraphFeatures(h.ValidRange())
	k := min(5, len(top))

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %9s %10s  %s\n", "Feature", "in-deg", "out-deg", "Description")
	predictive := map[string]bool{
		"smart_192": true, "smart_187": true, "smart_198": true,
		"smart_197": true, "smart_5": true,
	}
	hits := 0
	for _, f := range top[:k] {
		desc := SMARTDescriptions[f]
		if desc == "" {
			desc = "—"
		}
		fmt.Fprintf(&sb, "%-10s %9d %10d  %s\n", f, in[f], out[f], desc)
		if predictive[f] {
			hits++
		}
	}
	return Report{
		ID:       "tab3",
		Title:    "Top-5 most important SMART features by subgraph in-degree",
		Paper:    "192, 187, 198, 197, and 5 — all I/O-failure indicators — top the in-degree ranking",
		Measured: fmt.Sprintf("%d/%d of the top features are degradation-linked", hits, k),
		Pass:     hits >= 3,
		Body:     sb.String(),
	}
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
