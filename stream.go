package mdes

import (
	"errors"
	"fmt"

	"mdes/internal/anomaly"
	"mdes/internal/infer"
	"mdes/internal/lang"
)

// Stream is an online detector: it consumes one tick of sensor readings at a
// time and emits a detection Point whenever enough ticks have accumulated to
// form the next sentence for every sensor. This is the deployment mode the
// paper describes in §II-A2 — "with a per minute sampling granularity and
// n = 1, detection can be performed every minute" — without having to
// re-batch the whole test log.
//
// A Stream is not safe for concurrent use; callers that multiplex tenants
// (see internal/serve) must serialise Push per stream.
type Stream struct {
	model *Model
	lay   *sensorLayout
	det   *anomaly.Detector
	rels  []anomaly.Relationship
	pairs []streamPair // per relationship, resolved once

	lc   lang.Config
	span int // ticks covered by one sentence: lc.Span()

	// win holds each modelled sensor's last span ticks as encrypted chars,
	// sensor i (in sorted order) at win[i*span:(i+1)*span], oldest first.
	// Until span ticks have arrived, they sit at the end of each slot.
	win []byte

	ticks    int // total ticks consumed
	emitted  int // points emitted so far
	memoHits int // relationship scores answered from the score memo

	// Per-push scratch, reused across pushes so the steady state allocates
	// nothing beyond the detection outputs that escape to the caller.
	tick    *Row    // Push's tick map, laid out by sensor
	sent    [][]int // per-sensor encoded sentence
	jobs    []ScoreJob
	row     []float64
	rowWrap [][]float64

	quantized int // the model's Quantize count pairs[].inf was resolved at

	scorer func(jobs []ScoreJob, row []float64) error
}

// streamPair is one relationship's sensors and scoring engine.
type streamPair struct {
	src, tgt int          // sensor indices
	inf      *infer.Model // nil when the model lacks the pair: emit fails with ErrNoPairModel
}

// NewStream creates an online detector over the model's configured valid
// range.
func (m *Model) NewStream() *Stream {
	lc := m.cfg.Language
	det := m.Detector()
	rels := det.Relationships()
	lay := m.layout()
	span := lc.Span()
	s := &Stream{
		model: m,
		lay:   lay,
		det:   det,
		rels:  rels,
		pairs: make([]streamPair, len(rels)),
		lc:    lc,
		span:  span,
		win:   make([]byte, len(lay.names)*span),
		tick:  m.NewRow(),
		sent:  make([][]int, len(lay.names)),
		jobs:  make([]ScoreJob, 0, len(rels)),
		row:   make([]float64, len(rels)),
	}
	for i := range s.sent {
		s.sent[i] = make([]int, 0, lc.SentenceLen)
	}
	for k, rel := range rels {
		s.pairs[k] = streamPair{src: lay.index[rel.Src], tgt: lay.index[rel.Tgt]}
	}
	s.resolveEngines()
	s.rowWrap = [][]float64{s.row}
	return s
}

// resolveEngines points every relationship at the engine of the model's
// latest Quantize.
func (s *Stream) resolveEngines() {
	for k, rel := range s.rels {
		s.pairs[k].inf = s.model.engines[[2]string{rel.Src, rel.Tgt}]
	}
	s.quantized = s.model.quantized
}

// SentenceSpan returns how many ticks one detection window covers.
func (s *Stream) SentenceSpan() int { return s.span }

// ScoreJob is one pairwise relationship-scoring task produced by a completed
// sentence window: translate the source sensor's sentence with the pair's
// engine and score it against the observed target sentence.
type ScoreJob struct {
	k        int
	inf      *infer.Model
	src, tgt []int
}

// Index returns the job's column in the detection row; a custom scorer must
// store the job's score at this index.
func (j *ScoreJob) Index() int { return j.k }

// BatchModel returns the job's scoring engine. Jobs sharing a BatchModel —
// across streams and tenants — can be packed into one ScoreBatch call; each
// score is bit-identical to Run on the same job, so batching is invisible to
// detection verdicts.
func (j *ScoreJob) BatchModel() *infer.Model { return j.inf }

// Sentences returns the job's encoded source and observed-target sentences
// (stream-owned scratch — valid only while the job is).
func (j *ScoreJob) Sentences() (src, tgt []int) { return j.src, j.tgt }

// Run computes the job's score f(i,j) — the smoothed sentence BLEU of the
// model's translation against the observed target sentence. Run is safe to
// call from any goroutine; distinct jobs may run concurrently.
func (j *ScoreJob) Run() float64 { return j.inf.ScoreSentence(j.src, j.tgt) }

// SetScorer replaces the stream's serial relationship scorer. The function
// must fill row[j.Index()] = j.Run() (or an equivalent score) for every job
// before returning; it may fan jobs out across goroutines. The jobs and row
// slices are scratch owned by the stream — valid only for the duration of the
// call, never to be retained. A nil fn restores serial scoring.
//
// The jobs are the window's score-memo misses only: relationships whose
// (source, target) sentence pair the model has scored before are already
// filled into row when fn runs — so fn must write nothing but its jobs'
// columns — and a window with no misses does not call fn at all.
//
// This is the hook internal/serve uses to share one bounded scoring pool
// across many tenant streams.
func (s *Stream) SetScorer(fn func(jobs []ScoreJob, row []float64) error) { s.scorer = fn }

// Push consumes one tick of readings (sensor name -> event). Sensors the
// model does not know are ignored; modelled sensors missing from the tick
// are an error. When a full new sentence is available, Push returns the
// detection Point for it; otherwise it returns nil.
//
//mdes:noalloc
func (s *Stream) Push(tick map[string]string) (*Point, error) {
	r := s.tick
	r.Reset()
	for i, name := range s.lay.names {
		if ev, ok := tick[name]; ok {
			r.setRank(i, lang.Rank(s.lay.langs[i].Alphabet, ev))
		}
	}
	return s.PushRow(r)
}

// errForeignRow reports a row made by another model.
var errForeignRow = errors.New("mdes: row belongs to another model")

// PushRow is Push for a tick already laid out by sensor (see Row). The row
// is read, not retained or reset.
//
//mdes:noalloc
func (s *Stream) PushRow(r *Row) (*Point, error) {
	if r.lay != s.lay {
		return nil, errForeignRow
	}
	// Validate the whole tick before touching the window: a tick missing one
	// modelled sensor must leave the stream state untouched.
	if i := r.missing(); i >= 0 {
		//mdes:allow(noalloc) cold error path: a malformed tick aborts the push
		return nil, fmt.Errorf("%w: %q missing from tick %d", ErrMisaligned, s.lay.names[i], s.ticks)
	}
	// One move shifts every sensor's window down a tick. The byte each slot
	// takes in from the next sensor's oldest lands in its newest position,
	// which the new tick then overwrites.
	if len(s.win) > 0 { // a loaded model may have no sensors at all
		copy(s.win, s.win[1:])
	}
	for i, c := range r.chars {
		s.win[(i+1)*s.span-1] = c
	}
	s.ticks++

	if !s.completed() {
		return nil, nil
	}
	return s.emit()
}

// completed reports whether the last tick completed a sentence window: the
// first ends at tick Span(), the next ones every Stride() ticks.
func (s *Stream) completed() bool {
	return s.ticks >= s.span && (s.ticks-s.span)%s.lc.Stride() == 0
}

// emit encodes the current window into one sentence per sensor, scores every
// valid relationship, and evaluates Algorithm 2 for the timestamp.
//
//mdes:noalloc
func (s *Stream) emit() (*Point, error) {
	for i, l := range s.lay.langs {
		s.sent[i] = l.Sentence(s.sent[i], s.win[i*s.span:(i+1)*s.span])
	}
	if s.quantized != s.model.quantized {
		s.resolveEngines()
	}

	// Probe each relationship's score memo first: f(i,j) is a pure function of
	// (pair weights, source sentence, observed target sentence), so a window
	// this model has scored before is answered in place and only the misses
	// become jobs. An emit with no misses never reaches the scorer.
	jobs := s.jobs[:0]
	for k := range s.pairs {
		p := &s.pairs[k]
		if p.inf == nil {
			//mdes:allow(noalloc) cold error path: a missing pair model is a corrupt-model condition
			return nil, fmt.Errorf("%w %s->%s", ErrNoPairModel, s.rels[k].Src, s.rels[k].Tgt)
		}
		src, tgt := s.sent[p.src], s.sent[p.tgt]
		if score, hit := p.inf.CachedScore(src, tgt); hit {
			s.row[k] = score
			s.memoHits++
			continue
		}
		jobs = append(jobs, ScoreJob{k: k, inf: p.inf, src: src, tgt: tgt})
	}
	s.jobs = jobs
	if len(jobs) > 0 && s.scorer != nil {
		if err := s.scorer(jobs, s.row); err != nil {
			//mdes:allow(noalloc) cold error path: scorer failure aborts the point
			return nil, fmt.Errorf("mdes: stream scorer: %w", err)
		}
	} else {
		for i := range jobs {
			s.row[jobs[i].k] = jobs[i].Run()
		}
	}

	points, err := s.det.Evaluate(s.rowWrap)
	if err != nil {
		return nil, err
	}
	p := points[0]
	p.T = s.emitted
	s.emitted++
	return &p, nil
}

// SkipEmit records that the detection point due at the current tick was
// answered out-of-band (internal/serve's degraded mode: a scoring deadline
// miss or missing pair model) and advances the emitted-point counter past
// it, returning the index the skipped point would have carried. Keeping the
// counter in step is what keeps Snapshot/RestoreStream's tick↔emission
// invariant intact, so a degraded session still snapshots and restores.
// SkipEmit only advances when a point is actually pending — i.e. the last
// Push completed a sentence window but its emit failed; calling it at any
// other time returns the next point index without consuming it.
func (s *Stream) SkipEmit() int {
	if s.completed() && s.emitted < s.lc.NumSentences(s.ticks) {
		s.emitted++
		return s.emitted - 1
	}
	return s.emitted
}

// Ticks returns how many ticks have been consumed.
func (s *Stream) Ticks() int { return s.ticks }

// Emitted returns how many detection points have been produced.
func (s *Stream) Emitted() int { return s.emitted }

// MemoHits returns how many relationship scores this stream has answered
// from its model's score memo instead of handing them to the scorer.
func (s *Stream) MemoHits() int { return s.memoHits }

// StreamSnapshot is the JSON-serialisable durable state of a Stream: the
// rolling event windows plus the tick/emission counters. Restoring it with
// Model.RestoreStream on the same model yields a stream that continues
// bit-for-bit where the snapshot was taken.
type StreamSnapshot struct {
	Ticks   int                 `json:"ticks"`
	Emitted int                 `json:"emitted"`
	Windows map[string][]string `json:"windows"`
}

// Snapshot captures the stream's durable state. The returned snapshot owns
// its window copies, so it stays valid as the stream keeps consuming ticks.
// Windows hold each char's event from the sensor's alphabet, and for an
// unknown char an event outside it, which ranks back to the same char.
func (s *Stream) Snapshot() StreamSnapshot {
	n := min(s.ticks, s.span)
	w := make(map[string][]string, len(s.lay.names))
	for i, name := range s.lay.names {
		var events []string // before the first tick: null, as the format has it
		if n > 0 {
			events = make([]string, n)
		}
		for j, c := range s.win[(i+1)*s.span-n : (i+1)*s.span] {
			events[j] = s.lay.event(i, c)
		}
		w[name] = events
	}
	return StreamSnapshot{Ticks: s.ticks, Emitted: s.emitted, Windows: w}
}
