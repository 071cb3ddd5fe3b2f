// Package mdes implements the analytics framework of "Mining Multivariate
// Discrete Event Sequences for Knowledge Discovery and Anomaly Detection"
// (Nie et al., DSN 2020): discrete event sequences from many sensors are
// turned into per-sensor "languages", a neural machine translation model is
// trained for every ordered sensor pair, the resulting BLEU scores form a
// multivariate relationship graph used for knowledge discovery (popular
// sensors, component clusters), and broken pairwise relationships at test
// time yield anomaly scores and fault diagnoses.
//
// Typical usage:
//
//	fw, _ := mdes.New(mdes.DefaultConfig())
//	model, _ := fw.Train(ctx, trainSet, devSet)
//	points, _ := model.Detect(ctx, testSet)
//
// The heavy lifting lives in internal packages (lang, nmt, bleu, graph,
// community, anomaly); this package wires them together and re-exports the
// types a downstream user needs.
package mdes

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mdes/internal/anomaly"
	"mdes/internal/checkpoint"
	"mdes/internal/faultfs"
	"mdes/internal/graph"
	"mdes/internal/infer"
	"mdes/internal/lang"
	"mdes/internal/nmt"
	"mdes/internal/pairmine"
	"mdes/internal/seqio"
)

// Re-exported types, so downstream users rarely need the internal packages.
type (
	// Sequence is one sensor's discrete event sequence.
	Sequence = seqio.Sequence
	// Dataset is an aligned multivariate collection of sequences.
	Dataset = seqio.Dataset
	// Range is a BLEU score band such as the paper's [80, 90).
	Range = graph.Range
	// Graph is the multivariate relationship graph.
	Graph = graph.Graph
	// Point is one timestamp's detection output (anomaly score a_t, alert
	// status W_t).
	Point = anomaly.Point
	// Alert is one broken pairwise relationship.
	Alert = anomaly.Alert
	// Relationship is one valid directional model with its training BLEU.
	Relationship = anomaly.Relationship
	// Diagnosis attributes an anomaly to sensor clusters.
	Diagnosis = anomaly.Diagnosis
	// LanguageConfig controls word and sentence generation.
	LanguageConfig = lang.Config
	// NMTConfig controls the pairwise translation models.
	NMTConfig = nmt.Config
	// ScreenConfig controls candidate-pair screening before NMT training.
	ScreenConfig = pairmine.Config
	// PairScore is one ordered pair's screening outcome.
	PairScore = pairmine.PairScore
)

// Config assembles the framework's tunables.
type Config struct {
	// Language controls sensor-language generation (word/sentence windows).
	Language LanguageConfig
	// NMT controls the pairwise seq2seq models; vocabulary sizes are
	// filled per pair automatically.
	NMT NMTConfig
	// ValidRange selects which trained relationships count as valid
	// models for detection (paper: [80, 90) works best).
	ValidRange Range
	// PopularInDegree is the in-degree threshold marking popular sensors
	// (paper: 100 for the 128-sensor plant). Scale it with sensor count.
	PopularInDegree int
	// Screen, when enabled (TopK or Threshold set), ranks every ordered
	// pair by a cheap co-occurrence score before any NMT training and
	// trains only the selected candidates. The zero value keeps the
	// paper's exact train-every-pair behaviour.
	Screen ScreenConfig
	// Workers bounds parallel pair training; <= 0 uses GOMAXPROCS.
	Workers int
	// Seed makes the whole pipeline reproducible.
	Seed int64
}

// DefaultConfig mirrors the paper's settings with NMT sizes scaled for
// pure-Go sweeps (§III-A: word length 10, stride 1; sentence length 20,
// stride 20; NMT 2 layers with dropout 0.2; valid range [80, 90)).
func DefaultConfig() Config {
	return Config{
		Language:        lang.PlantConfig(),
		NMT:             nmt.DefaultConfig(),
		ValidRange:      graph.BestRange(),
		PopularInDegree: 100,
		Seed:            1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Language.Validate(); err != nil {
		return err
	}
	// NMT vocab sizes are per-pair; validate the rest using placeholders.
	probe := c.NMT
	probe.SrcVocab, probe.TgtVocab = 3, 3
	if err := probe.Validate(); err != nil {
		return err
	}
	if c.PopularInDegree < 0 {
		return fmt.Errorf("mdes: popular in-degree %d negative", c.PopularInDegree)
	}
	if err := c.Screen.Validate(); err != nil {
		return err
	}
	return nil
}

// Framework trains models from datasets.
type Framework struct {
	cfg Config
}

// New constructs a framework after validating the configuration.
func New(cfg Config) (*Framework, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Framework{cfg: cfg}, nil
}

// Errors surfaced by training.
var (
	ErrTooFewSensors = errors.New("mdes: need at least two non-constant sensors")
	ErrMisaligned    = errors.New("mdes: train and dev datasets disagree on sensors")
	// ErrNoPairModel reports a valid relationship whose pair model is absent
	// from the loaded model — a corrupt or hand-edited model file. Serving
	// layers match it with errors.Is to answer degraded instead of failing.
	ErrNoPairModel = errors.New("mdes: no model for valid pair")
)

// PairRuntime records one pair model's wall-clock cost (Fig 4(a)).
type PairRuntime struct {
	Src, Tgt string
	Runtime  time.Duration
}

// Model is the trained framework state: the relationship graph, the
// per-sensor languages, and the per-pair NMT models.
type Model struct {
	cfg       Config
	graph     *graph.Graph
	languages map[string]*lang.Language
	pairs     map[[2]string]*nmt.Model
	dropped   []string
	runtimes  []PairRuntime
	screen    ScreenSummary

	// Per-pair scoring engines at prec, built by Quantize (which Train and
	// Load end with): every pair scores through its engine.
	engines map[[2]string]*infer.Model
	prec    Precision
	// quantized counts Quantize calls, so a stream that resolved its pair
	// engines before the latest one resolves them again.
	quantized int

	layoutOnce sync.Once
	lay        *sensorLayout // see layout
}

// ScreenSummary records the candidate-pair screening decision of a training
// run; it survives Save/Load. Selected+Skipped equals the full N·(N−1) pair
// count of the run. The screening configuration itself lives in
// Config.Screen.
type ScreenSummary struct {
	// Enabled reports whether screening ran at all.
	Enabled bool `json:"enabled"`
	// Selected counts the pairs that passed screening and were trained.
	Selected int `json:"selected"`
	// Skipped counts the pairs pruned before any NMT training.
	Skipped int `json:"skipped"`
}

// BLEUStats summarises the dev-BLEU distribution over finished pairs.
type BLEUStats struct {
	Min, Median, Mean, Max float64
}

// TrainProgress is one progress report from a checkpointed training run.
// Reports are delivered serially, once per finished pair, plus one initial
// report (with empty Src/Tgt) when a resume restores pairs from the journal.
type TrainProgress struct {
	// Done counts finished pairs, including pairs restored on resume; Total
	// is the full pair count for the run.
	Done, Total int
	// Resumed counts pairs restored from the checkpoint journal.
	Resumed int
	// TornTail is set on the initial resume report when opening the journal
	// found — and dropped — a torn final record from a crash mid-append.
	TornTail bool
	// Src, Tgt and BLEU identify the pair that just finished (empty on the
	// initial resume report).
	Src, Tgt string
	BLEU     float64
	// BLEUs is the rolling distribution over every finished pair so far.
	// Wall-clock elapsed time and ETA are the caller's to measure: the
	// training library reads no clock for its reports.
	BLEUs BLEUStats
}

// TrainOptions controls checkpointing, resumption, and progress reporting of
// the offline phase.
type TrainOptions struct {
	// Checkpoint is the path of an append-only journal; every finished pair
	// is persisted (weights included) as soon as it completes. Empty
	// disables checkpointing.
	Checkpoint string
	// Resume replays the Checkpoint journal and skips pairs it already
	// holds. Restored pairs keep their journaled BLEU and weights, so a
	// resumed run reproduces an uninterrupted run with the same seed bit
	// for bit. Pairs whose journaled configuration no longer matches the
	// current one are retrained.
	Resume bool
	// Progress, if non-nil, receives serialised TrainProgress reports.
	Progress func(TrainProgress)
	// FS overrides the filesystem the checkpoint journal lives on. The
	// fault-injection harness (internal/chaos) passes a faultfs.InjectFS to
	// prove crash-safety; nil selects the real filesystem.
	FS faultfs.FS
}

// trainTracker accumulates progress state. TrainPairsOpts serialises
// OnResult calls and the restore scan happens before workers start, so no
// locking is needed.
type trainTracker struct {
	total, done, resumed int
	// bleus is kept sorted by addBLEU and bleuSum is maintained incrementally,
	// so each snapshot computes its stats in O(1) instead of copying and
	// re-sorting every finished pair's score on every progress report
	// (O(n² log n) over a large run).
	bleus      []float64
	bleuSum    float64
	journalErr error
}

// addBLEU inserts b into the sorted score list and updates the running sum.
func (tk *trainTracker) addBLEU(b float64) {
	i := sort.SearchFloat64s(tk.bleus, b)
	tk.bleus = append(tk.bleus, 0)
	copy(tk.bleus[i+1:], tk.bleus[i:])
	tk.bleus[i] = b
	tk.bleuSum += b
}

func (tk *trainTracker) snapshot(src, tgt string, bleu float64) TrainProgress {
	p := TrainProgress{
		Done: tk.done, Total: tk.total, Resumed: tk.resumed,
		Src: src, Tgt: tgt, BLEU: bleu,
	}
	if n := len(tk.bleus); n > 0 {
		median := tk.bleus[n/2]
		if n%2 == 0 {
			median = (tk.bleus[n/2-1] + tk.bleus[n/2]) / 2
		}
		p.BLEUs = BLEUStats{Min: tk.bleus[0], Median: median, Mean: tk.bleuSum / float64(n), Max: tk.bleus[n-1]}
	}
	return p
}

// Train runs the offline phase (Algorithm 1): sequence filtering, language
// construction from the training split, pairwise NMT training, and dev-split
// BLEU scoring into the multivariate relationship graph.
func (f *Framework) Train(ctx context.Context, train, dev *seqio.Dataset) (*Model, error) {
	return f.TrainWithOptions(ctx, train, dev, TrainOptions{})
}

// TrainWithOptions is Train with checkpointing, resumption, and progress
// reporting. With a Checkpoint path set, every finished pair is journaled
// durably as it completes, so a crashed or cancelled run loses at most the
// pairs still in flight; re-running with Resume retrains only the missing
// pairs.
func (f *Framework) TrainWithOptions(ctx context.Context, train, dev *seqio.Dataset, opts TrainOptions) (*Model, error) {
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("mdes: train set: %w", err)
	}
	if err := dev.Validate(); err != nil {
		return nil, fmt.Errorf("mdes: dev set: %w", err)
	}
	filtered, dropped := train.FilterConstant()
	if len(filtered.Sequences) < 2 {
		return nil, ErrTooFewSensors
	}

	m := &Model{
		cfg:       f.cfg,
		graph:     graph.New(),
		languages: make(map[string]*lang.Language, len(filtered.Sequences)),
		pairs:     make(map[[2]string]*nmt.Model),
		dropped:   dropped,
	}

	// Build per-sensor languages and encode both splits; the training
	// split is encrypted once, for its language, its sentences and screening.
	trainChars := make(map[string][]byte, len(filtered.Sequences))
	trainSents := make(map[string][][]int, len(filtered.Sequences))
	devSents := make(map[string][][]int, len(filtered.Sequences))
	for _, seq := range filtered.Sequences {
		l, chars, ts, err := lang.Learn(seq, f.cfg.Language)
		if err != nil {
			return nil, fmt.Errorf("mdes: sensor %q: %w", seq.Sensor, err)
		}
		devSeq, ok := dev.Find(seq.Sensor)
		if !ok {
			return nil, fmt.Errorf("%w: %q missing from dev", ErrMisaligned, seq.Sensor)
		}
		ds, err := l.SentencesFor(devSeq)
		if err != nil {
			return nil, fmt.Errorf("mdes: sensor %q dev sentences: %w", seq.Sensor, err)
		}
		m.languages[seq.Sensor] = l
		trainChars[seq.Sensor] = chars
		trainSents[seq.Sensor] = ts
		devSents[seq.Sensor] = ds
	}

	// Candidate-pair screening: rank every ordered pair by co-occurrence
	// association over the training split and keep only the selected
	// candidates. Disabled (the default) trains all N·(N−1) pairs exactly
	// as the paper does.
	sensors := filtered.Sensors()
	allPairs := len(sensors) * (len(sensors) - 1)
	var selected map[[2]string]bool
	if f.cfg.Screen.Enabled() {
		screenIn := make([]pairmine.Sensor, 0, len(filtered.Sequences))
		for _, seq := range filtered.Sequences {
			screenIn = append(screenIn, pairmine.Sensor{Name: seq.Sensor, Chars: trainChars[seq.Sensor]})
		}
		res, err := pairmine.Screen(ctx, screenIn, f.cfg.Screen, f.cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("mdes: screening: %w", err)
		}
		selected = res.SelectedSet()
		if len(selected) == 0 {
			return nil, fmt.Errorf("mdes: screening selected 0 of %d pairs; lower Screen.Threshold or raise Screen.TopK", allPairs)
		}
		m.screen = ScreenSummary{Enabled: true, Selected: len(selected), Skipped: allPairs - len(selected)}
	}

	// The ordered pairs carried into NMT training (all of them, or the
	// screened candidates).
	pairs := make([]nmt.PairData, 0, allPairs)
	for _, src := range sensors {
		for _, tgt := range sensors {
			if src == tgt {
				continue
			}
			if selected != nil && !selected[[2]string{src, tgt}] {
				continue
			}
			pairs = append(pairs, nmt.PairData{
				Src: src, Tgt: tgt,
				TrainSrc: trainSents[src], TrainTgt: trainSents[tgt],
				DevSrc: devSents[src], DevTgt: devSents[tgt],
				SrcVocab: m.languages[src].Vocab.Size(),
				TgtVocab: m.languages[tgt].Vocab.Size(),
			})
		}
	}

	var journal *checkpoint.Journal
	var prior map[[2]string]checkpoint.PairRecord
	if opts.Checkpoint != "" {
		fsys := opts.FS
		if fsys == nil {
			fsys = faultfs.OS
		}
		j, err := checkpoint.OpenFS(fsys, opts.Checkpoint)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		if recs := j.Records(); len(recs) > 0 && !opts.Resume {
			return nil, fmt.Errorf("mdes: checkpoint %s already holds %d pairs; set Resume to continue it or remove the file", opts.Checkpoint, len(recs))
		}
		journal = j
		if opts.Resume {
			prior = j.Pairs()
		}
	} else if opts.Resume {
		return nil, errors.New("mdes: Resume requires a Checkpoint path")
	}

	tracker := &trainTracker{total: len(pairs)}

	// Restore journaled pairs whose configuration still matches this run;
	// anything that drifted (different vocabulary, architecture, windows)
	// is retrained from scratch.
	restored := make(map[int]nmt.PairResult)
	for i, pd := range pairs {
		rec, ok := prior[[2]string{pd.Src, pd.Tgt}]
		if !ok {
			continue
		}
		want := f.cfg.NMT
		want.SrcVocab, want.TgtVocab = pd.SrcVocab, pd.TgtVocab
		if rec.State.Config != want {
			continue
		}
		pairModel, err := nmt.LoadModel(rec.State)
		if err != nil {
			continue
		}
		restored[i] = nmt.PairResult{
			Src: pd.Src, Tgt: pd.Tgt, Model: pairModel, BLEU: rec.BLEU, Runtime: rec.Runtime,
		}
		tracker.done++
		tracker.resumed++
		tracker.addBLEU(rec.BLEU)
	}
	// Restoration (journal replay, weight deserialisation for potentially
	// thousands of pairs) is over and live training is about to start: a
	// caller timing the run anchors its rate at this report.
	if opts.Progress != nil && (tracker.resumed > 0 || (journal != nil && journal.Torn())) {
		p := tracker.snapshot("", "", 0)
		p.TornTail = journal != nil && journal.Torn()
		opts.Progress(p)
	}

	// A journal write failure cancels the run: grinding on for hours while
	// silently not persisting would defeat the point of checkpointing.
	runCtx := ctx
	var cancelRun context.CancelCauseFunc
	if journal != nil {
		runCtx, cancelRun = context.WithCancelCause(ctx)
		defer cancelRun(nil)
	}

	popts := nmt.PairsOptions{}
	if len(restored) > 0 {
		popts.Completed = func(i int) (nmt.PairResult, bool) {
			r, ok := restored[i]
			return r, ok
		}
	}
	if journal != nil || opts.Progress != nil {
		popts.OnResult = func(i int, r nmt.PairResult) {
			if r.Err != nil {
				return
			}
			if journal != nil && tracker.journalErr == nil {
				err := journal.Append(checkpoint.PairRecord{
					Src: r.Src, Tgt: r.Tgt, BLEU: r.BLEU, Runtime: r.Runtime,
					State: r.Model.State(),
				})
				if err != nil {
					tracker.journalErr = err
					cancelRun(err)
					return
				}
			}
			tracker.done++
			tracker.addBLEU(r.BLEU)
			if opts.Progress != nil {
				opts.Progress(tracker.snapshot(r.Src, r.Tgt, r.BLEU))
			}
		}
	}

	results := nmt.TrainPairsOpts(runCtx, f.cfg.NMT, pairs, f.cfg.Workers, f.cfg.Seed, popts)
	if tracker.journalErr != nil {
		return nil, tracker.journalErr
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("mdes: pair %s->%s: %w", r.Src, r.Tgt, r.Err)
		}
		if err := m.graph.AddEdgeChecked(r.Src, r.Tgt, r.BLEU); err != nil {
			return nil, err
		}
		m.pairs[[2]string{r.Src, r.Tgt}] = r.Model
		m.runtimes = append(m.runtimes, PairRuntime{Src: r.Src, Tgt: r.Tgt, Runtime: r.Runtime})
	}
	return m, m.Quantize(PrecisionF64)
}
