package mdes

import (
	"fmt"
	"sort"

	"mdes/internal/anomaly"
	"mdes/internal/infer"
	"mdes/internal/lang"
	"mdes/internal/nmt"
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
	det   *anomaly.Detector
	rels  []anomaly.Relationship

	span   int // ticks covered by one sentence
	stride int // ticks between consecutive sentences

	names []string            // modelled sensors in sorted order
	win   map[string][]string // rolling window of the last `span` ticks

	ticks    int // total ticks consumed
	emitted  int // points emitted so far
	memoHits int // relationship scores answered from the score memo

	// Per-push scratch, reused across pushes so the steady state allocates
	// nothing beyond the detection outputs that escape to the caller.
	ranks   map[string]map[string]byte // per-sensor event -> encrypted char
	chars   []byte                     // encrypted window of one sensor
	sent    map[string][]int           // per-sensor encoded sentence
	jobs    []ScoreJob
	row     []float64
	rowWrap [][]float64

	scorer func(jobs []ScoreJob, row []float64) error
}

// NewStream creates an online detector over the model's configured valid
// range.
func (m *Model) NewStream() *Stream {
	lc := m.cfg.Language
	det := m.Detector()
	s := &Stream{
		model:  m,
		det:    det,
		rels:   det.Relationships(),
		span:   lc.WordLen + (lc.SentenceLen-1)*lc.WordStride,
		stride: lc.SentenceStride * lc.WordStride,
		win:    make(map[string][]string, len(m.languages)),
		ranks:  make(map[string]map[string]byte, len(m.languages)),
		sent:   make(map[string][]int, len(m.languages)),
	}
	for name, l := range m.languages {
		s.names = append(s.names, name)
		s.win[name] = make([]string, 0, s.span)
		rank := make(map[string]byte, len(l.Alphabet))
		for i, e := range l.Alphabet {
			rank[e] = byte('a' + i)
		}
		s.ranks[name] = rank
		s.sent[name] = make([]int, 0, lc.SentenceLen)
	}
	sort.Strings(s.names)
	s.chars = make([]byte, 0, s.span)
	s.jobs = make([]ScoreJob, 0, len(s.rels))
	s.row = make([]float64, len(s.rels))
	s.rowWrap = [][]float64{s.row}
	return s
}

// SentenceSpan returns how many ticks one detection window covers.
func (s *Stream) SentenceSpan() int { return s.span }

// ScoreJob is one pairwise relationship-scoring task produced by a completed
// sentence window: translate the source sensor's sentence with the pair's NMT
// model and score it against the observed target sentence.
type ScoreJob struct {
	k                int
	model            *nmt.Model
	inf              *infer.Model
	src, tgt         []int
	srcName, tgtName string
}

// Index returns the job's column in the detection row; a custom scorer must
// store the job's score at this index.
func (j *ScoreJob) Index() int { return j.k }

// Pair returns the sensor names of the relationship being scored.
func (j *ScoreJob) Pair() (src, tgt string) { return j.srcName, j.tgtName }

// BatchModel returns the job's frozen inference model, or nil when the model
// scores at float64. Jobs sharing a BatchModel — across streams and tenants —
// can be packed into one ScoreBatch call; each score is bit-identical to
// Run on the same job, so batching is invisible to detection verdicts.
func (j *ScoreJob) BatchModel() *infer.Model { return j.inf }

// Sentences returns the job's encoded source and observed-target sentences
// (stream-owned scratch — valid only while the job is).
func (j *ScoreJob) Sentences() (src, tgt []int) { return j.src, j.tgt }

// Run computes the job's score f(i,j) — the smoothed sentence BLEU of the
// model's translation against the observed target sentence. Run is safe to
// call from any goroutine; distinct jobs may run concurrently.
func (j *ScoreJob) Run() float64 {
	if j.inf != nil {
		return j.inf.ScoreSentence(j.src, j.tgt)
	}
	return nmt.ScoreSentence(j.model, j.src, j.tgt)
}

// cached probes the score memo of the model Run would score with. It
// allocates nothing.
func (j *ScoreJob) cached() (float64, bool) {
	if j.inf != nil {
		return j.inf.CachedScore(j.src, j.tgt)
	}
	return j.model.CachedScore(j.src, j.tgt)
}

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
	// Validate the whole tick before touching any buffer: a tick missing one
	// modelled sensor must leave the stream state untouched, not advance the
	// sensors iterated before the error was noticed.
	for _, name := range s.names {
		if _, ok := tick[name]; !ok {
			//mdes:allow(noalloc) cold error path: a malformed tick aborts the push
			return nil, fmt.Errorf("%w: %q missing from tick %d", ErrMisaligned, name, s.ticks)
		}
	}
	for _, name := range s.names {
		w := s.win[name]
		if len(w) < s.span {
			//mdes:allow(noalloc) warm-up only: the window was sized to span in NewStream, so this append never grows it
			s.win[name] = append(w, tick[name])
		} else {
			// Shift down in place instead of append-and-reslice: the window
			// stays at its original capacity forever, so the steady state
			// never reallocates.
			copy(w, w[1:])
			w[s.span-1] = tick[name]
		}
	}
	s.ticks++

	// The first sentence completes at tick == span; subsequent ones every
	// stride ticks.
	if s.ticks < s.span || (s.ticks-s.span)%s.stride != 0 {
		return nil, nil
	}
	return s.emit()
}

// emit encodes the current window into one sentence per sensor, scores every
// valid relationship, and evaluates Algorithm 2 for the timestamp.
//
//mdes:noalloc
func (s *Stream) emit() (*Point, error) {
	lc := s.model.cfg.Language
	for _, name := range s.names {
		l := s.model.languages[name]
		rank := s.ranks[name]
		chars := s.chars[:0]
		for _, ev := range s.win[name] {
			c, ok := rank[ev]
			if !ok {
				c = lang.UnknownChar
			}
			chars = append(chars, c)
		}
		// A full window yields exactly SentenceLen words — one sentence —
		// so the word window encodes straight into token ids without
		// materialising word strings (IDBytes keeps the lookup alloc-free).
		ids := s.sent[name][:0]
		for i := 0; i+lc.WordLen <= len(chars); i += lc.WordStride {
			ids = append(ids, l.Vocab.IDBytes(chars[i:i+lc.WordLen]))
		}
		s.chars = chars
		s.sent[name] = ids
	}

	// Probe each relationship's score memo first: f(i,j) is a pure function of
	// (pair weights, source sentence, observed target sentence), so a window
	// this model has scored before is answered in place and only the misses
	// become jobs. An emit with no misses never reaches the scorer.
	jobs := s.jobs[:0]
	for k, rel := range s.rels {
		key := [2]string{rel.Src, rel.Tgt}
		m := s.model.pairs[key]
		if m == nil {
			//mdes:allow(noalloc) cold error path: a missing pair model is a corrupt-model condition
			return nil, fmt.Errorf("%w %s->%s", ErrNoPairModel, rel.Src, rel.Tgt)
		}
		job := ScoreJob{
			k: k, model: m, inf: s.model.inferFor(key),
			src: s.sent[rel.Src], tgt: s.sent[rel.Tgt],
			srcName: rel.Src, tgtName: rel.Tgt,
		}
		if score, hit := job.cached(); hit {
			s.row[k] = score
			s.memoHits++
			continue
		}
		jobs = append(jobs, job)
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
	if s.ticks >= s.span && (s.ticks-s.span)%s.stride == 0 {
		if due := (s.ticks-s.span)/s.stride + 1; s.emitted < due {
			s.emitted++
			return s.emitted - 1
		}
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
func (s *Stream) Snapshot() StreamSnapshot {
	w := make(map[string][]string, len(s.names))
	for _, name := range s.names {
		w[name] = append([]string(nil), s.win[name]...)
	}
	return StreamSnapshot{Ticks: s.ticks, Emitted: s.emitted, Windows: w}
}
