package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mdes"
	"mdes/internal/anomaly"
	"mdes/internal/graph"
	"mdes/internal/lang"
	"mdes/internal/seqio"
	"mdes/internal/stats"
	"mdes/internal/svgplot"
)

// Fig2 renders representative discrete event sequences — a periodic sensor
// and a mostly-OFF sensor — on one normal and one anomalous day.
func Fig2(p *PlantArtifacts) Report {
	periodic := firstPlainBinary(p)
	rare := ""
	if len(p.GT.RareEvent) > 0 {
		rare = p.GT.RareEvent[0]
	}
	normalDay := 2
	anomalyDay := p.GT.AnomalyDays[len(p.GT.AnomalyDays)-1]

	var sb strings.Builder
	transitions := map[string]map[int]int{}
	offFrac := map[string]float64{}
	for _, name := range []string{periodic, rare} {
		if name == "" {
			continue
		}
		seq, _ := p.Dataset.Find(name)
		transitions[name] = map[int]int{}
		for _, day := range []int{normalDay, anomalyDay} {
			ev := dayEvents(p, seq, day)
			transitions[name][day] = countTransitions(ev)
			fmt.Fprintf(&sb, "%s day %d (%s): %s\n", name, day, dayLabel(p, day), runLength(ev, 60))
		}
		full := seq.Events
		var off int
		for _, e := range full {
			if e == "OFF" {
				off++
			}
		}
		offFrac[name] = float64(off) / float64(len(full))
	}

	pass := transitions[periodic][normalDay] > 4 && offFrac[rare] > 0.7
	return Report{
		ID:    "fig2",
		Title: "Representative discrete event sequences (normal vs abnormal day)",
		Paper: "sensor #4 switches state periodically; sensor #91 is mostly OFF with occasional ON; normal and abnormal days are visually indistinguishable",
		Measured: fmt.Sprintf("periodic sensor %s: %d transitions on a normal day; rare-event sensor %s: %.0f%% OFF overall",
			periodic, transitions[periodic][normalDay], rare, 100*offFrac[rare]),
		Pass: pass,
		Body: sb.String(),
	}
}

// Fig3 renders the cardinality and vocabulary-size CDFs.
func Fig3(p *PlantArtifacts) Report {
	filtered, _ := p.Dataset.FilterConstant()
	cards := make([]float64, 0, len(filtered.Sequences))
	binary := 0
	maxCard := 0
	for _, s := range filtered.Sequences {
		c := s.Cardinality()
		cards = append(cards, float64(c))
		if c == 2 {
			binary++
		}
		if c > maxCard {
			maxCard = c
		}
	}
	// Vocabulary sizes over every sensor (paper Fig 3(b) covers the fleet),
	// using the same language config as training.
	var vocabs []float64
	for _, s := range filtered.Sequences {
		l, err := lang.Build(s.Slice(0, p.Scale.TrainDays*p.Config.MinutesPerDay), lang.Config(p.Scale.PlantLang))
		if err != nil {
			continue
		}
		vocabs = append(vocabs, float64(l.VocabularySize()))
	}
	meanCard := stats.Mean(cards)
	binFrac := float64(binary) / float64(len(cards))

	var sb strings.Builder
	sb.WriteString("(a) CDF of sensor cardinality\n")
	sb.WriteString(stats.ASCIICDF(stats.NewECDF(cards).Points(6), 40))
	sb.WriteString("(b) CDF of vocabulary size\n")
	sb.WriteString(stats.ASCIICDF(stats.NewECDF(vocabs).Points(8), 40))

	pass := binFrac > 0.9 && maxCard <= 7 && stats.Mean(vocabs) > 1
	return Report{
		ID:    "fig3",
		Title: "CDF of sensor cardinality and vocabulary size",
		Paper: "mean cardinality 2.07, 97.6% binary, max 7; ~40% of vocabularies < 13 words, <20% > 100, mean 707",
		Measured: fmt.Sprintf("mean cardinality %.2f, %.1f%% binary, max %d; vocab mean %.0f, median %.0f",
			meanCard, 100*binFrac, maxCard, stats.Mean(vocabs), stats.Percentile(vocabs, 50)),
		Pass: pass,
		Body: sb.String(),
		Figures: []Figure{
			cdfFigure("fig3a_cardinality_cdf.svg", "Fig 3(a): CDF of sensor cardinality", "cardinality",
				cdfSeries("sensors", cards, 20)),
			cdfFigure("fig3b_vocabulary_cdf.svg", "Fig 3(b): CDF of vocabulary size", "vocabulary size",
				cdfSeries("sensors", vocabs, 30)),
		},
	}
}

// Fig4 renders the per-pair model runtime CDF and the BLEU histogram.
func Fig4(p *PlantArtifacts) Report {
	runtimes := make([]float64, 0, len(p.Model.PairRuntimes()))
	for _, r := range p.Model.PairRuntimes() {
		runtimes = append(runtimes, r.Runtime.Seconds())
	}
	scores := make([]float64, 0, p.Model.Graph().NumEdges())
	var above60 int
	for _, e := range p.Model.Graph().Edges() {
		scores = append(scores, e.Score)
		if e.Score > 60 {
			above60++
		}
	}
	frac60 := float64(above60) / float64(len(scores))
	hist := stats.NewHistogram(scores, 0, 100, 10)
	labels := make([]string, len(hist.Counts))
	counts := make([]float64, len(hist.Counts))
	for i, c := range hist.Counts {
		labels[i] = hist.BinLabel(i)
		counts[i] = float64(c)
	}

	var sb strings.Builder
	sb.WriteString("(a) CDF of per-pair model runtime (seconds)\n")
	sb.WriteString(stats.ASCIICDF(stats.NewECDF(runtimes).Points(6), 40))
	sb.WriteString("(b) Histogram of training BLEU scores\n")
	sb.WriteString(hist.ASCIIBars(40))

	return Report{
		ID:    "fig4",
		Title: "Model runtime CDF and BLEU score histogram",
		Paper: "mean runtime 2.5 min/pair on the authors' setup; 89.4% of BLEU scores > 60",
		Measured: fmt.Sprintf("mean runtime %v/pair (pure Go, scaled model); %.1f%% of BLEU scores > 60",
			time.Duration(stats.Mean(runtimes)*float64(time.Second)).Round(time.Millisecond), 100*frac60),
		// The paper sees 89.4% above 60 on a plant with heavy sensor
		// redundancy; our subset deliberately spans weakly-coupled
		// clusters, so the bar is that a solid plurality still clears 60.
		Pass: frac60 > 0.4,
		Body: sb.String(),
		Figures: []Figure{
			cdfFigure("fig4a_runtime_cdf.svg", "Fig 4(a): CDF of pair-model runtime", "seconds",
				cdfSeries("pair models", runtimes, 30)),
			{Name: "fig4b_bleu_histogram.svg", Content: svgplot.Bars("Fig 4(b): histogram of training BLEU scores",
				"relationships", labels, counts, 640, 360)},
		},
	}
}

// Table1 renders per-band global subgraph statistics.
func Table1(p *PlantArtifacts) Report {
	rows := p.Model.BandStats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %8s %8s %10s %14s\n", "BLEU range", "% rels", "sensors", "popular", "rels w/o pop")
	nonEmpty := 0
	for _, r := range rows {
		if r.TotalEdgesInSubgraph > 0 {
			nonEmpty++
		}
		fmt.Fprintf(&sb, "%-12s %7.1f%% %8d %10d %14d\n",
			r.Range.String(), r.PctRelationships, r.NumSensors, r.NumPopular, r.EdgesWithoutPopular)
	}
	return Report{
		ID:       "tab1",
		Title:    "Global subgraph statistics per BLEU range",
		Paper:    "relationships spread across all five bands (10.6/12.8/28.8/17.8/29.9%), popular sensors present in each",
		Measured: fmt.Sprintf("%d of 5 bands populated; percentages as printed below", nonEmpty),
		Pass:     nonEmpty >= 3,
		Body:     sb.String(),
	}
}

// Fig5 renders in-/out-degree CDFs of the global subgraphs.
func Fig5(p *PlantArtifacts) Report {
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
	var sb strings.Builder
	sb.WriteString("(a) in-degree CDF across band subgraphs\n")
	sb.WriteString(stats.ASCIICDF(stats.NewECDF(ins).Points(6), 40))
	sb.WriteString("(b) out-degree CDF across band subgraphs\n")
	sb.WriteString(stats.ASCIICDF(stats.NewECDF(outs).Points(6), 40))

	inSpread := stats.StdDev(ins)
	outSpread := stats.StdDev(outs)
	return Report{
		ID:    "fig5",
		Title: "Degree CDFs of global subgraphs",
		Paper: "20-25% of sensors are popular (in-degree >= 100) while most have in-degree ~10; out-degree spreads evenly between 10 and 35",
		Measured: fmt.Sprintf("in-degree max %.0f (std %.1f) vs out-degree max %.0f (std %.1f): in-degree is the more skewed axis",
			stats.NewECDF(ins).Max(), inSpread, stats.NewECDF(outs).Max(), outSpread),
		Pass: inSpread >= outSpread,
		Body: sb.String(),
		Figures: []Figure{cdfFigure("fig5_degree_cdfs.svg", "Fig 5: degree CDFs across band subgraphs", "degree",
			cdfSeries("in-degree", ins, 20), cdfSeries("out-degree", outs, 20))},
	}
}

// Fig6 renders the valid-band global subgraph with popular sensors marked.
func Fig6(p *PlantArtifacts) Report {
	r := p.Scale.ValidRange()
	sub := p.Model.GlobalSubgraph(r)
	popular := p.Model.PopularSensors(r)
	dot := sub.DOT("global_"+p.Scale.Name, popular)
	return Report{
		ID:    "fig6",
		Title: fmt.Sprintf("Global subgraph at %s", r.String()),
		Paper: "a dense directed graph; larger nodes are popular sensors with in-degree >= threshold",
		Measured: fmt.Sprintf("%d sensors, %d relationships, %d popular (threshold %d)",
			sub.NumNodes(), sub.NumEdges(), len(popular), p.Scale.PopularInDegree),
		Pass: sub.NumEdges() > 0,
		Body: dot,
		// The file keeps the scale-free graph name the checked-in figure has.
		Figures: []Figure{{Name: "fig6_global_subgraph.dot", Content: sub.DOT("global", popular)}},
	}
}

// Fig7 renders local subgraphs and their community structure, checked
// against the generator's ground-truth clusters.
func Fig7(p *PlantArtifacts) Report {
	r := p.Scale.ValidRange()
	local := p.Model.LocalSubgraph(r)
	comms := p.Model.Communities(r)

	var sb strings.Builder
	fmt.Fprintf(&sb, "local subgraph at %s: %d sensors, %d edges, modularity %.3f\n",
		r.String(), local.NumNodes(), local.NumEdges(), comms.Modularity)
	for i, c := range comms.Communities {
		fmt.Fprintf(&sb, "  community %d: %s\n", i, strings.Join(c, " "))
	}
	purity := clusterPurity(comms.Communities, p.GT.ClusterOf)
	fmt.Fprintf(&sb, "ground-truth purity: %.2f\n", purity)

	return Report{
		ID:    "fig7",
		Title: "Local subgraphs reveal sensor clusters",
		Paper: "removing popular sensors leaves several mostly isolated clusters that map to system components (confirmed by domain experts)",
		Measured: fmt.Sprintf("%d communities, purity %.2f against generator clusters",
			len(comms.Communities), purity),
		Pass: len(comms.Communities) >= 2 && purity >= 0.6,
		Body: sb.String(),
	}
}

// Fig8 renders anomaly-score timelines for the valid band and the [90,100]
// band, and checks that only the former separates the anomalies.
func Fig8(p *PlantArtifacts) Report {
	valid := p.Points
	// Re-evaluate with the strongest band to reproduce Fig 8(b).
	topDet := p.TopBandPoints()

	// The text marks every point of an anomaly or precursor day; the SVG
	// draws one vertical line at each such day's first point.
	marks := map[int]string{}
	var dayLines []svgplot.VLine
	for i := range valid {
		d := p.DayOfPoint(i)
		if containsInt(p.GT.AnomalyDays, d) {
			marks[i] = fmt.Sprintf("anomaly day %d", d)
		} else if containsInt(p.GT.PrecursorDays, d) {
			marks[i] = fmt.Sprintf("precursor day %d", d)
		} else {
			continue
		}
		if i == 0 || p.DayOfPoint(i-1) != d {
			dayLines = append(dayLines, svgplot.VLine{X: float64(i), Label: marks[i]})
		}
	}
	validScores, topScores := anomaly.Scores(valid), anomaly.Scores(topDet)
	var sb strings.Builder
	fmt.Fprintf(&sb, "(a) valid band %s\n", p.Scale.ValidRange().String())
	sb.WriteString(stats.ASCIISeries(validScores, 40, marks))
	sb.WriteString("(b) band [90, 100]\n")
	sb.WriteString(stats.ASCIISeries(topScores, 40, marks))
	series := []svgplot.Series{indexSeries(p.Scale.ValidRange().String(), validScores)}
	if len(topScores) > 0 {
		series = append(series, indexSeries("[90, 100]", topScores))
	}

	sepValid := p.separation(valid)
	sepTop := p.separation(topDet)
	return Report{
		ID:    "fig8",
		Title: "Anomaly detection timelines per BLEU band",
		Paper: "the [80,90) band detects both anomalies (score ~0.8) with precursor spikes; the [90,100] band stays flat and fails",
		Measured: fmt.Sprintf("valid band separation (anomaly-day mean minus normal-day mean) %.3f; [90,100] separation %.3f",
			sepValid, sepTop),
		Pass: sepValid > 0.1 && sepValid > sepTop,
		Body: sb.String(),
		Figures: []Figure{{Name: "fig8_anomaly_timeline.svg", Content: svgplot.Line(
			"Fig 8: anomaly scores over the test split", "sentence timestamp", "a_t", series, dayLines, 800, 400)}},
	}
}

// TopBandPoints re-runs Algorithm 2 using only [90,100] relationships.
func (p *PlantArtifacts) TopBandPoints() []mdes.Point {
	pts, err := p.DetectWithRange(mdes.Range{Lo: 90, Hi: 100})
	if err != nil {
		return nil
	}
	return pts
}

// separation is mean anomaly-day score minus mean normal-day score.
func (p *PlantArtifacts) separation(points []mdes.Point) float64 {
	var anomSum, anomN, normSum, normN float64
	for i, pt := range points {
		d := p.DayOfPoint(i)
		if containsInt(p.GT.AnomalyDays, d) {
			anomSum += pt.Score
			anomN++
		} else if !containsInt(p.GT.PrecursorDays, d) {
			normSum += pt.Score
			normN++
		}
	}
	if anomN == 0 || normN == 0 {
		return 0
	}
	return anomSum/anomN - normSum/normN
}

// Fig9 diagnoses each anomaly day and compares severities.
func Fig9(p *PlantArtifacts) Report {
	var sb strings.Builder
	brokenFrac := map[int]float64{}
	for _, day := range p.GT.AnomalyDays {
		pt, ok := p.worstPointOfDay(day)
		if !ok {
			continue
		}
		diag := p.Model.Diagnose(pt)
		var broken, total int
		for _, c := range diag.Clusters {
			broken += c.BrokenEdges
			total += c.TotalEdges
		}
		if pt.Valid > 0 {
			brokenFrac[day] = float64(len(pt.Broken)) / float64(pt.Valid)
		}
		fmt.Fprintf(&sb, "day %d: anomaly score %.2f, %d/%d broken relationships, %d faulty clusters\n",
			day, pt.Score, len(pt.Broken), pt.Valid, len(diag.Faulty))
		for _, c := range diag.Faulty {
			fmt.Fprintf(&sb, "  faulty cluster (%d/%d broken): %s\n",
				c.BrokenEdges, c.TotalEdges, strings.Join(c.Members, " "))
		}
	}
	days := p.GT.AnomalyDays
	pass := len(days) >= 2 && brokenFrac[days[len(days)-1]] >= brokenFrac[days[0]] &&
		brokenFrac[days[len(days)-1]] > 0
	return Report{
		ID:    "fig9",
		Title: "Fault diagnosis on anomalous days",
		Paper: "broken edges localise faulty clusters; the 11-28 anomaly breaks almost all relationships (more severe than 11-21)",
		Measured: fmt.Sprintf("broken-relationship fraction per anomaly day: %s",
			formatDayFracs(days, brokenFrac)),
		Pass: pass,
		Body: sb.String(),
	}
}

// worstPointOfDay returns the highest-score detection point of a plant day.
func (p *PlantArtifacts) worstPointOfDay(day int) (mdes.Point, bool) {
	var best mdes.Point
	found := false
	for i, pt := range p.Points {
		if p.DayOfPoint(i) != day {
			continue
		}
		if !found || pt.Score > best.Score {
			best = pt
			found = true
		}
	}
	return best, found
}

// --- helpers ---

func firstPlainBinary(p *PlantArtifacts) string {
	skip := make(map[string]struct{})
	for _, lists := range [][]string{p.GT.Popular, p.GT.Constant, p.GT.RareEvent, p.GT.MultiState} {
		for _, n := range lists {
			skip[n] = struct{}{}
		}
	}
	for _, s := range p.Dataset.Sequences {
		if _, banned := skip[s.Sensor]; !banned {
			return s.Sensor
		}
	}
	return p.Dataset.Sequences[0].Sensor
}

func dayEvents(p *PlantArtifacts, seq seqio.Sequence, day int) []string {
	from := (day - 1) * p.Config.MinutesPerDay
	to := day * p.Config.MinutesPerDay
	return seq.Events[from:to]
}

func dayLabel(p *PlantArtifacts, day int) string {
	if containsInt(p.GT.AnomalyDays, day) {
		return "abnormal"
	}
	return "normal"
}

func countTransitions(events []string) int {
	var n int
	for i := 1; i < len(events); i++ {
		if events[i] != events[i-1] {
			n++
		}
	}
	return n
}

// runLength compresses an event sequence into a run-length string capped at
// maxRuns runs.
func runLength(events []string, maxRuns int) string {
	var sb strings.Builder
	runs := 0
	i := 0
	for i < len(events) && runs < maxRuns {
		j := i
		for j < len(events) && events[j] == events[i] {
			j++
		}
		fmt.Fprintf(&sb, "%s×%d ", events[i], j-i)
		i = j
		runs++
	}
	if i < len(events) {
		sb.WriteString("…")
	}
	return strings.TrimSpace(sb.String())
}

func containsInt(list []int, v int) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

// clusterPurity scores how well detected communities match ground-truth
// clusters: the weighted mean, over communities, of the share of members
// from the community's majority ground-truth cluster.
func clusterPurity(comms [][]string, truth map[string]int) float64 {
	var weighted, total float64
	for _, c := range comms {
		counts := map[int]int{}
		for _, m := range c {
			counts[truth[m]]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		weighted += float64(best)
		total += float64(len(c))
	}
	if total == 0 {
		return 0
	}
	return weighted / total
}

func formatDayFracs(days []int, fracs map[int]float64) string {
	parts := make([]string, 0, len(days))
	sorted := append([]int(nil), days...)
	sort.Ints(sorted)
	for _, d := range sorted {
		parts = append(parts, fmt.Sprintf("day %d: %.2f", d, fracs[d]))
	}
	return strings.Join(parts, ", ")
}
