package experiments

import (
	"fmt"
	"strings"
	"time"

	"mdes"
	"mdes/internal/anomaly"
	"mdes/internal/lang"
	"mdes/internal/nmt"
	"mdes/internal/seqio"
)

// Ablations run the design-choice studies DESIGN.md calls out: the
// BLEU-band sensitivity behind the paper's footnote 2 ("models with BLEU
// scores in the [80, 90) range are best for anomaly detection"), the word
// length trade-off of §III-A1, and the sentence-stride/detection-granularity
// trade-off of §II-A2.
func Ablations(p *PlantArtifacts) []Report {
	return []Report{
		AblationValidBand(p),
		AblationWordLength(p),
		AblationSentenceStride(p),
		AblationPropagation(p),
	}
}

// AblationValidBand re-runs Algorithm 2 with each BLEU band as the valid
// range and measures separation (anomaly minus normal day means) and the
// normal-day false-alarm floor.
func AblationValidBand(p *PlantArtifacts) Report {
	type row struct {
		band        mdes.Range
		valid       int
		separation  float64
		normalFloor float64
	}
	bands := []mdes.Range{
		{Lo: 0, Hi: 60}, {Lo: 60, Hi: 70}, {Lo: 70, Hi: 80},
		{Lo: 80, Hi: 90}, {Lo: 90, Hi: 100},
	}
	var rows []row
	best := -1
	for _, band := range bands {
		det := p.Model.DetectorFor(band)
		r := row{band: band, valid: det.NumValid()}
		if det.NumValid() > 0 {
			points, err := p.DetectWithRange(band)
			if err == nil {
				r.separation = p.separation(points)
				r.normalFloor = p.normalFloor(points)
			}
		}
		rows = append(rows, r)
		if best < 0 || r.separation > rows[best].separation {
			best = len(rows) - 1
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %8s %12s %14s\n", "band", "models", "separation", "normal floor")
	for i, r := range rows {
		marker := ""
		if i == best {
			marker = "  <-- best separation"
		}
		fmt.Fprintf(&sb, "%-12s %8d %12.3f %14.3f%s\n",
			r.band.String(), r.valid, r.separation, r.normalFloor, marker)
	}
	// The paper's claim: a strong-but-not-trivial mid band wins; the
	// [90,100] band of easily-translatable targets does not.
	top := rows[len(rows)-1]
	pass := best >= 0 && rows[best].band.Lo >= 60 && rows[best].band.Lo < 90 &&
		rows[best].separation > top.separation
	return Report{
		ID:    "abl-band",
		Title: "Ablation: valid-model BLEU band sensitivity",
		Paper: "footnote 2: [80,90) detects best; weaker bands detect but with more false positives; [90,100] fails",
		Measured: fmt.Sprintf("best separation in %s (%.3f); [90,100] separation %.3f",
			rows[best].band.String(), rows[best].separation, top.separation),
		Pass: pass,
		Body: sb.String(),
	}
}

// normalFloor is the mean anomaly score over normal (non-anomaly,
// non-precursor) days — the false-alarm pressure an operator would live with.
func (p *PlantArtifacts) normalFloor(points []mdes.Point) float64 {
	var sum float64
	var n int
	for i, pt := range points {
		d := p.DayOfPoint(i)
		if containsInt(p.GT.AnomalyDays, d) || containsInt(p.GT.PrecursorDays, d) {
			continue
		}
		sum += pt.Score
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AblationWordLength retrains one strongly-coupled sensor pair at several
// word lengths and reports vocabulary size, training time, and dev BLEU —
// the §III-A1 trade-off ("longer words result in a larger vocabulary size,
// passing more information to the translation model. Yet, the larger the
// vocabulary size, the longer the training time").
func AblationWordLength(p *PlantArtifacts) Report {
	src, tgt, ok := p.coupledPair()
	if !ok {
		return Report{ID: "abl-word", Title: "Ablation: word length",
			Paper: "§III-A1 trade-off", Measured: "no coupled pair available", Pass: false}
	}
	type row struct {
		wordLen  int
		vocab    int
		bleu     float64
		duration time.Duration
	}
	var rows []row
	base := p.Scale.PlantLang
	for _, wl := range []int{2, base.WordLen, base.WordLen + 3} {
		lc := base
		lc.WordLen = wl
		r := row{wordLen: wl}
		var err error
		r.vocab, r.bleu, r.duration, err = p.trainPairWith(src, tgt, lc)
		if err != nil {
			continue
		}
		rows = append(rows, r)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %8s %10s %12s\n", "word len", "vocab", "dev BLEU", "train time")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10d %8d %10.1f %12v\n", r.wordLen, r.vocab, r.bleu, r.duration.Round(time.Millisecond))
	}
	pass := len(rows) >= 2 && rows[len(rows)-1].vocab >= rows[0].vocab
	return Report{
		ID:    "abl-word",
		Title: "Ablation: word length vs vocabulary, BLEU, and training time",
		Paper: "longer words -> larger vocabulary and more information but slower training; 10 characters struck the paper's balance",
		Measured: fmt.Sprintf("vocab grows %d -> %d across word lengths; BLEU and runtime as below",
			rows[0].vocab, rows[len(rows)-1].vocab),
		Pass: pass,
		Body: sb.String(),
	}
}

// AblationSentenceStride compares sentence strides: overlap multiplies the
// corpus (finer detection granularity) at proportional cost (§II-A2: "the
// parameter n essentially controls the trade-off of the granularity of
// detection and training time").
func AblationSentenceStride(p *PlantArtifacts) Report {
	base := p.Scale.PlantLang
	ticks := p.Scale.TrainDays * p.Scale.Plant.MinutesPerDay
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %12s %20s\n", "stride", "sentences", "detection period")
	type row struct{ stride, sentences int }
	var rows []row
	for _, stride := range []int{base.SentenceLen, base.SentenceLen / 2, 1} {
		if stride < 1 {
			stride = 1
		}
		lc := base
		lc.SentenceStride = stride
		n := lc.NumSentences(ticks)
		rows = append(rows, row{stride, n})
		fmt.Fprintf(&sb, "%-14d %12d %17d min\n", stride, n, stride*lc.WordStride)
	}
	pass := len(rows) == 3 && rows[2].sentences > rows[0].sentences
	return Report{
		ID:    "abl-stride",
		Title: "Ablation: sentence stride vs corpus size and detection granularity",
		Paper: "stride 20 detects every 20 minutes; stride 1 detects every minute at ~20x the corpus (and training) cost",
		Measured: fmt.Sprintf("stride %d -> %d sentences; stride 1 -> %d sentences over the training split",
			rows[0].stride, rows[0].sentences, rows[2].sentences),
		Pass: pass,
		Body: sb.String(),
	}
}

// AblationPropagation runs the finer-granularity fault-propagation trace the
// paper describes at the end of §III-C.
func AblationPropagation(p *PlantArtifacts) Report {
	window := p.SentencesPerDay / 4
	if window < 1 {
		window = 1
	}
	trace := anomaly.Propagation(p.Points, window)
	fresh := anomaly.NewlyImplicated(trace)
	var sb strings.Builder
	var spreadEvents int
	for i, step := range trace {
		if len(fresh[i]) > 0 {
			spreadEvents++
		}
		fmt.Fprintf(&sb, "t=[%3d,%3d) mean=%.2f peak=%.2f front=%v new=%v\n",
			step.FromT, step.ToT, step.MeanScore, step.PeakScore,
			firstN(step.Implicated, 4), fresh[i])
	}
	return Report{
		ID:    "abl-prop",
		Title: "Extension: fault propagation at finer granularity",
		Paper: "§III-C: per-hour diagnosis figures visually present how faults propagate through sensors over time",
		Measured: fmt.Sprintf("%d windows, %d of them expanded the implicated-sensor front",
			len(trace), spreadEvents),
		Pass: spreadEvents > 0,
		Body: sb.String(),
	}
}

// coupledPair returns a strongly-coupled (same ground-truth cluster) sensor
// pair from the modelled subset: from the highest-numbered such cluster, so
// every run retrains the same pair.
func (p *PlantArtifacts) coupledPair() (src, tgt string, ok bool) {
	byCluster, best := map[int][]string{}, -1
	for _, name := range p.Model.Sensors() {
		if c := p.GT.ClusterOf[name]; c >= 0 {
			if byCluster[c] = append(byCluster[c], name); len(byCluster[c]) >= 2 {
				best = max(best, c)
			}
		}
	}
	if best < 0 {
		return "", "", false
	}
	return byCluster[best][0], byCluster[best][1], true
}

// trainPairWith retrains a single directional pair with an alternative
// language config and returns the source vocabulary size, dev BLEU, and
// training duration.
func (p *PlantArtifacts) trainPairWith(src, tgt string, lc mdes.LanguageConfig) (int, float64, time.Duration, error) {
	build := func(name string) (*lang.Language, [][]int, [][]int, error) {
		seqTrain, ok := p.Train.Find(name)
		if !ok {
			return nil, nil, nil, fmt.Errorf("sensor %q missing", name)
		}
		seqDev, _ := p.Dev.Find(name)
		l, err := lang.Build(seqTrain, lang.Config(lc))
		if err != nil {
			return nil, nil, nil, err
		}
		trainSents, err := l.SentencesFor(seqTrain)
		if err != nil {
			return nil, nil, nil, err
		}
		devSents, err := l.SentencesFor(seqio.Sequence{Sensor: name, Events: seqDev.Events})
		if err != nil {
			return nil, nil, nil, err
		}
		return l, trainSents, devSents, nil
	}
	ls, trS, dvS, err := build(src)
	if err != nil {
		return 0, 0, 0, err
	}
	lt, trT, dvT, err := build(tgt)
	if err != nil {
		return 0, 0, 0, err
	}
	cfg := nmt.Config(p.Scale.PlantNMT)
	cfg.SrcVocab = ls.Vocab.Size()
	cfg.TgtVocab = lt.Vocab.Size()
	cfg.TrainSteps /= 2 // the ablation compares trends, not absolute quality
	start := time.Now()
	res := nmt.TrainPair(cfg, nmt.PairData{
		Src: src, Tgt: tgt,
		TrainSrc: trS, TrainTgt: trT,
		DevSrc: dvS, DevTgt: dvT,
		SrcVocab: cfg.SrcVocab, TgtVocab: cfg.TgtVocab,
	}, p.Scale.Seed)
	if res.Err != nil {
		return 0, 0, 0, res.Err
	}
	return ls.Vocab.WordCount(), res.BLEU, time.Since(start), nil
}

func firstN(list []string, n int) []string {
	if len(list) <= n {
		return list
	}
	return list[:n]
}
