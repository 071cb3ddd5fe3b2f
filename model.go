package mdes

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"mdes/internal/anomaly"
	"mdes/internal/community"
	"mdes/internal/fanout"
	"mdes/internal/graph"
	"mdes/internal/lang"
	"mdes/internal/nmt"
	"mdes/internal/seqio"
)

// Graph returns the multivariate relationship graph.
func (m *Model) Graph() *graph.Graph { return m.graph }

// Config returns the configuration the model was trained with.
func (m *Model) Config() Config { return m.cfg }

// DroppedSensors lists the constant sensors removed by sequence filtering.
func (m *Model) DroppedSensors() []string { return append([]string(nil), m.dropped...) }

// Screen reports the candidate-pair screening decision of the training run
// (zero value when screening was disabled). The counts survive Save/Load.
func (m *Model) Screen() ScreenSummary { return m.screen }

// Sensors lists the modelled (non-constant) sensors.
func (m *Model) Sensors() []string { return m.graph.Nodes() }

// PairRuntimes reports per-pair training+scoring wall-clock times (Fig 4(a)).
func (m *Model) PairRuntimes() []PairRuntime {
	return append([]PairRuntime(nil), m.runtimes...)
}

// GlobalSubgraph returns the global subgraph for a BLEU band (§III-B1).
func (m *Model) GlobalSubgraph(r Range) *graph.Graph { return m.graph.Subgraph(r) }

// PopularSensors returns the popular sensors of a band's global subgraph
// using the configured in-degree threshold.
func (m *Model) PopularSensors(r Range) []string {
	return m.graph.Subgraph(r).PopularSensors(m.cfg.PopularInDegree)
}

// LocalSubgraph removes the popular sensors from a band's global subgraph
// (§III-B2).
func (m *Model) LocalSubgraph(r Range) *graph.Graph {
	return m.graph.LocalSubgraph(r, m.cfg.PopularInDegree)
}

// Communities clusters the local subgraph of a band with random-walk
// community detection (Pons & Latapy), returning sensor clusters that map to
// system components.
func (m *Model) Communities(r Range) community.Result {
	return community.Walktrap(m.LocalSubgraph(r), community.DefaultSteps)
}

// Detector builds the Algorithm 2 detector over the configured valid range.
func (m *Model) Detector() *anomaly.Detector {
	return anomaly.NewDetector(m.graph, m.cfg.ValidRange)
}

// DetectorFor builds an Algorithm 2 detector over an arbitrary valid band.
func (m *Model) DetectorFor(r Range) *anomaly.Detector {
	return anomaly.NewDetector(m.graph, r)
}

// TestScores computes the f(i,j) matrix for a test dataset: for each
// timestamp (sentence index) and each valid relationship, the smoothed
// sentence BLEU of the model's translation against the observed target
// sentence. Rows are timestamps, columns follow Detector().Relationships().
func (m *Model) TestScores(ctx context.Context, test *seqio.Dataset) ([][]float64, error) {
	return m.testScores(ctx, test, m.Detector())
}

// ctxCheckStride is how many timestamps of one relationship a worker scores
// in one ScoreBatch call, between context checks.
const ctxCheckStride = 64

func (m *Model) testScores(ctx context.Context, test *seqio.Dataset, det *anomaly.Detector) ([][]float64, error) {
	rels := det.Relationships()
	sents, err := m.encodeAll(test)
	if err != nil {
		return nil, err
	}
	// Every sensor must agree on the sentence count; a mismatch would index
	// past the shorter side below.
	steps := -1
	for name, s := range sents {
		if steps == -1 {
			steps = len(s)
			continue
		}
		if len(s) != steps {
			return nil, fmt.Errorf("%w: sensor %q yields %d sentences, others %d", ErrMisaligned, name, len(s), steps)
		}
	}
	if steps < 0 {
		steps = 0
	}

	scores := make([][]float64, steps)
	for t := range scores {
		scores[t] = make([]float64, len(rels))
	}

	errs := make([]error, len(rels))
	started := fanout.Each(ctx, len(rels), m.cfg.Workers, func(k int) {
		rel := rels[k]
		im := m.engines[[2]string{rel.Src, rel.Tgt}]
		if im == nil {
			errs[k] = fmt.Errorf("%w %s->%s", ErrNoPairModel, rel.Src, rel.Tgt)
			return
		}
		// One ScoreBatch per chunk of timestamps: one relationship can cover
		// thousands, and checking the context between chunks keeps Detect
		// cancellation prompt.
		src, tgt := sents[rel.Src], sents[rel.Tgt]
		buf := make([]float64, min(ctxCheckStride, steps))
		for t0 := 0; t0 < steps; t0 += ctxCheckStride {
			if errs[k] = ctx.Err(); errs[k] != nil {
				return
			}
			hi := min(t0+ctxCheckStride, steps)
			im.ScoreBatch(src[t0:hi], tgt[t0:hi], buf[:hi-t0])
			for i, v := range buf[:hi-t0] {
				scores[t0+i][k] = v
			}
		}
	})
	if started < len(rels) {
		return nil, ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return scores, nil
}

// Detect runs online anomaly detection (Algorithm 2) over a test dataset,
// returning one Point per sentence timestamp.
func (m *Model) Detect(ctx context.Context, test *seqio.Dataset) ([]Point, error) {
	return m.DetectWithRange(ctx, test, m.cfg.ValidRange)
}

// DetectWithRange runs Algorithm 2 with an alternative valid band — used to
// compare bands as in the paper's Fig 8.
func (m *Model) DetectWithRange(ctx context.Context, test *seqio.Dataset, r Range) ([]Point, error) {
	det := m.DetectorFor(r)
	scores, err := m.testScores(ctx, test, det)
	if err != nil {
		return nil, err
	}
	return det.Evaluate(scores)
}

// Diagnose attributes one detected anomaly to clusters of the valid-range
// local subgraph (Fig 9).
func (m *Model) Diagnose(p Point) Diagnosis {
	comms := m.Communities(m.cfg.ValidRange)
	return anomaly.Diagnose(m.LocalSubgraph(m.cfg.ValidRange), comms.Communities, p.Broken)
}

// encodeAll converts each modelled sensor's test sequence into encoded
// sentences using its trained language; unknown events become <unk>.
func (m *Model) encodeAll(test *seqio.Dataset) (map[string][][]int, error) {
	if err := test.Validate(); err != nil {
		return nil, fmt.Errorf("mdes: test set: %w", err)
	}
	out := make(map[string][][]int, len(m.languages))
	for name, l := range m.languages {
		seq, ok := test.Find(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q missing from test", ErrMisaligned, name)
		}
		sents, err := l.SentencesFor(seq)
		if err != nil {
			return nil, fmt.Errorf("mdes: sensor %q test sentences: %w", name, err)
		}
		out[name] = sents
	}
	return out, nil
}

// persistedModel is the JSON wire format of a trained model.
type persistedModel struct {
	Config    Config                   `json:"config"`
	Dropped   []string                 `json:"dropped,omitempty"`
	Languages map[string]persistedLang `json:"languages"`
	Edges     []graph.Edge             `json:"edges"`
	Pairs     map[string]nmt.State     `json:"pairs"`
	Runtimes  []PairRuntime            `json:"runtimes,omitempty"`
	Screen    ScreenSummary            `json:"screen,omitempty"`
	Quant     *persistedQuant          `json:"quant,omitempty"`
}

// persistedQuant records the reduced precision a model was published at. The
// frozen weights themselves are a deterministic function of the float64 pair
// weights (infer.FromState), so Load derives them again with Quantize rather
// than reading a second copy of every pair.
type persistedQuant struct {
	Precision string `json:"precision"`
}

type persistedLang struct {
	Sensor   string      `json:"sensor"`
	Alphabet []string    `json:"alphabet"`
	Words    []string    `json:"words"` // vocabulary words in id order (reserved excluded)
	Config   lang.Config `json:"config"`
}

// pairKeySep joins the two sensor names of a pair key in the JSON wire
// format. Sensor names must not contain it, or the key could not be split
// back unambiguously.
const pairKeySep = '\x1f'

// Save serialises the model (graph, languages, NMT weights) as JSON.
func (m *Model) Save(w io.Writer) error {
	for name := range m.languages {
		if strings.ContainsRune(name, pairKeySep) {
			return fmt.Errorf("mdes: sensor name %q contains the reserved pair separator %q", name, pairKeySep)
		}
	}
	for key := range m.pairs {
		if strings.ContainsRune(key[0], pairKeySep) || strings.ContainsRune(key[1], pairKeySep) {
			return fmt.Errorf("mdes: pair %q->%q contains the reserved pair separator %q", key[0], key[1], pairKeySep)
		}
	}
	p := persistedModel{
		Config:    m.cfg,
		Dropped:   m.dropped,
		Languages: make(map[string]persistedLang, len(m.languages)),
		Edges:     m.graph.Edges(),
		Pairs:     make(map[string]nmt.State, len(m.pairs)),
		Runtimes:  m.runtimes,
		Screen:    m.screen,
	}
	for name, l := range m.languages {
		words := make([]string, 0, l.Vocab.WordCount())
		for id := 3; id < l.Vocab.Size(); id++ {
			words = append(words, l.Vocab.Word(id))
		}
		p.Languages[name] = persistedLang{
			Sensor: l.Sensor, Alphabet: l.Alphabet, Words: words, Config: l.Config,
		}
	}
	for key, model := range m.pairs {
		p.Pairs[key[0]+string(pairKeySep)+key[1]] = model.State()
	}
	if m.prec != PrecisionF64 {
		p.Quant = &persistedQuant{Precision: m.prec.String()}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(p)
}

// ErrCorruptModel reports a model file that decodes as JSON but fails
// structural validation: a missing or invalid configuration, a language with
// an unrepresentable alphabet, or edges/pairs referencing sensors with no
// language. Rejecting these at Load turns what would otherwise be deferred
// panics (e.g. NewStream computing a zero sentence stride from a zero
// config, then Push dividing by it) into immediate, matchable errors.
var ErrCorruptModel = errors.New("mdes: corrupt model")

// Load reconstructs a model saved with Save. A file that decodes but fails
// validation returns an error matching ErrCorruptModel.
func Load(r io.Reader) (*Model, error) {
	var p persistedModel
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("mdes: decode model: %w", err)
	}
	// A truncated or hand-edited file with a missing/zero config would
	// load fine and only blow up later (NewStream's stride arithmetic,
	// Detect's window math); validate everything up front instead.
	if err := p.Config.Validate(); err != nil {
		return nil, fmt.Errorf("%w: config: %v", ErrCorruptModel, err)
	}
	m := &Model{
		cfg:       p.Config,
		graph:     graph.New(),
		languages: make(map[string]*lang.Language, len(p.Languages)),
		pairs:     make(map[[2]string]*nmt.Model, len(p.Pairs)),
		dropped:   p.Dropped,
		runtimes:  p.Runtimes,
		screen:    p.Screen,
	}
	for name, pl := range p.Languages {
		if err := pl.Config.Validate(); err != nil {
			return nil, fmt.Errorf("%w: language %q: %v", ErrCorruptModel, name, err)
		}
		if len(pl.Alphabet) > lang.MaxAlphabet {
			return nil, fmt.Errorf("%w: language %q: alphabet holds %d events, max %d",
				ErrCorruptModel, name, len(pl.Alphabet), lang.MaxAlphabet)
		}
		m.languages[name] = &lang.Language{
			Sensor:   pl.Sensor,
			Alphabet: pl.Alphabet,
			Vocab:    lang.VocabFromWords(pl.Words),
			Config:   pl.Config,
		}
	}
	for _, e := range p.Edges {
		// An edge over a sensor with no language cannot be encoded at
		// detection time; surface the inconsistency now.
		if m.languages[e.Src] == nil || m.languages[e.Tgt] == nil {
			return nil, fmt.Errorf("%w: edge %s->%s references a sensor with no language", ErrCorruptModel, e.Src, e.Tgt)
		}
		if err := m.graph.AddEdgeChecked(e.Src, e.Tgt, e.Score); err != nil {
			return nil, err
		}
	}
	for key, st := range p.Pairs {
		var src, tgt string
		for i := 0; i < len(key); i++ {
			if key[i] == pairKeySep {
				src, tgt = key[:i], key[i+1:]
				break
			}
		}
		// Both halves must be non-empty: "\x1fX", "A\x1f", and keys with no
		// separator at all are malformed, not pairs with a nameless sensor.
		if src == "" || tgt == "" {
			return nil, fmt.Errorf("%w: malformed pair key %q", ErrCorruptModel, key)
		}
		if m.languages[src] == nil || m.languages[tgt] == nil {
			return nil, fmt.Errorf("%w: pair %s->%s references a sensor with no language", ErrCorruptModel, src, tgt)
		}
		model, err := nmt.LoadModel(st)
		if err != nil {
			return nil, fmt.Errorf("mdes: pair %s->%s: %w", src, tgt, err)
		}
		m.pairs[[2]string{src, tgt}] = model
	}
	prec := PrecisionF64
	if p.Quant != nil {
		var err error
		prec, err = ParsePrecision(p.Quant.Precision)
		if err != nil || prec == PrecisionF64 {
			return nil, fmt.Errorf("%w: quant section precision %q", ErrCorruptModel, p.Quant.Precision)
		}
	}
	if err := m.Quantize(prec); err != nil {
		return nil, err
	}
	return m, nil
}

// RestoreStream rebuilds an online detector from a snapshot taken with
// Stream.Snapshot. The snapshot must belong to a stream of this model (or a
// model with identical sensors and language configuration): every modelled
// sensor must be present with a window consistent with the tick counter. The
// restored stream emits exactly the points the snapshotted stream would have
// emitted had it never stopped.
func (m *Model) RestoreStream(snap StreamSnapshot) (*Stream, error) {
	s := m.NewStream()
	if snap.Ticks < 0 {
		return nil, fmt.Errorf("mdes: restore stream: negative tick count %d", snap.Ticks)
	}
	wantLen := min(snap.Ticks, s.span)
	if len(snap.Windows) != len(s.lay.names) {
		return nil, fmt.Errorf("mdes: restore stream: snapshot has %d sensors, model has %d", len(snap.Windows), len(s.lay.names))
	}
	for i, name := range s.lay.names {
		w, ok := snap.Windows[name]
		if !ok {
			return nil, fmt.Errorf("mdes: restore stream: sensor %q missing from snapshot", name)
		}
		if len(w) != wantLen {
			return nil, fmt.Errorf("mdes: restore stream: sensor %q window holds %d ticks, want %d", name, len(w), wantLen)
		}
		slot := s.win[(i+1)*s.span-wantLen : (i+1)*s.span]
		for j, ev := range w {
			slot[j] = lang.Rank(s.lay.langs[i].Alphabet, ev)
		}
	}
	if wantEmitted := m.cfg.Language.NumSentences(snap.Ticks); snap.Emitted != wantEmitted {
		return nil, fmt.Errorf("mdes: restore stream: %d points emitted after %d ticks, want %d", snap.Emitted, snap.Ticks, wantEmitted)
	}
	s.ticks, s.emitted = snap.Ticks, snap.Emitted
	return s, nil
}

// BandStats returns Table I's per-band statistics of the full graph.
func (m *Model) BandStats() []graph.Stats {
	return m.graph.BandStats(graph.PaperRanges(), m.cfg.PopularInDegree)
}

// SortedEdges returns all relationship edges sorted by descending score.
func (m *Model) SortedEdges() []graph.Edge {
	edges := m.graph.Edges()
	sort.Slice(edges, func(i, j int) bool { return edges[i].Score > edges[j].Score })
	return edges
}
