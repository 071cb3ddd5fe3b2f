package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"mdes"
	"mdes/internal/anomaly"
	"mdes/internal/bleu"
	"mdes/internal/cluster"
	"mdes/internal/nmt"
	"mdes/internal/serve"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the trace epoch; Parent is the ID of the span that caused
// it (0 for a root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Req: req, Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.epoch)) }

// selfTimes returns each span's self time, in the order given: its duration
// minus the part of its interval its direct children cover (children are
// clipped to the parent and overlapping children are not counted twice). IDs
// must be unique within spans.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i, s := range spans {
		covered := int64(0)
		// Children were appended in start order by the single recording
		// goroutine; sweep them, merging overlaps.
		cur := s.Start
		for _, k := range children[s.ID] {
			lo, hi := k.Start, k.End
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// memResponse is an in-memory http.ResponseWriter that admits the full-duplex
// streaming the tick handler insists on, so Server.ServeHTTP can be timed
// with no socket underneath.
type memResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *memResponse) Header() http.Header { return w.header }
func (w *memResponse) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *memResponse) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(p)
}
func (w *memResponse) FlushError() error       { return nil }
func (w *memResponse) EnableFullDuplex() error { return nil }

// passResult is what one traced pass yields: per-tenant points for the
// cross-pass agreement check, and its spans.
type passResult struct {
	points [][]pointDigest
	spans  []span
}

// passInputs fixes the requests every pass replays: `warm` untraced requests
// of tenant 0's traffic under a separate warm-up session, then perTenant
// traced requests for each tenant, round-robin, single-goroutine.
type passInputs struct {
	tr        *traffic
	warm      int
	perTenant int
}

const warmTenant = "warm"

// clientPass is pass 1: client.request spans around serve.Client.PushTicks
// over loopback against a fresh system built on a cold clone of the model.
func clientPass(ctx context.Context, spec workloadSpec, model *mdes.Model, in passInputs, tmpRoot string) (*passResult, error) {
	clone, err := cloneModel(model)
	if err != nil {
		return nil, err
	}
	stateDir, err := os.MkdirTemp(tmpRoot, "pass-")
	if err != nil {
		return nil, err
	}
	spec.scoreWorkers = 1
	sys, err := startSystem(spec, clone, stateDir, 1)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	ticks := newTickMaps(strideTicks, len(in.tr.log.sensors))
	for i := 0; i < in.warm; i++ {
		in.tr.fill(ticks, 0, i*strideTicks)
		if _, err := sys.client.PushTicksRetry(ctx, warmTenant, ticks); err != nil {
			return nil, fmt.Errorf("client pass warm-up: %w", err)
		}
	}
	tc := &tracer{epoch: time.Now()}
	res := &passResult{points: make([][]pointDigest, len(in.tr.names))}
	req := 0
	for i := 0; i < in.perTenant; i++ {
		for t, name := range in.tr.names {
			in.tr.fill(ticks, t, i*strideTicks)
			id := tc.begin("client.request", 0, req)
			points, err := sys.client.PushTicks(ctx, name, ticks)
			tc.end(id)
			if err != nil {
				return nil, fmt.Errorf("client pass: %w", err)
			}
			for _, p := range points {
				res.points[t] = append(res.points[t], digestOf(p))
			}
			req++
		}
	}
	res.spans = tc.spans
	return res, nil
}

// handlerPass is pass 2: serve.handler spans around Server.ServeHTTP called
// directly with an in-memory response. In cluster mode each request goes to
// the tenant's ring owner, as the routing client would send it.
func handlerPass(ctx context.Context, spec workloadSpec, model *mdes.Model, in passInputs, tmpRoot string) (*passResult, error) {
	clone, err := cloneModel(model)
	if err != nil {
		return nil, err
	}
	stateDir, err := os.MkdirTemp(tmpRoot, "pass-")
	if err != nil {
		return nil, err
	}
	spec.scoreWorkers = 1
	sys, err := startSystem(spec, clone, stateDir, 1)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	var ring *cluster.Ring
	if len(sys.replicas) > 1 {
		if ring, err = cluster.NewRing(sys.client.Peers, 0); err != nil {
			return nil, err
		}
	}
	target := func(tenant string) (*replica, error) {
		if ring == nil {
			return sys.replicas[0], nil
		}
		owner := ring.Owner(tenant)
		for _, r := range sys.replicas {
			if r.url == owner {
				return r, nil
			}
		}
		return nil, fmt.Errorf("owner %s of %s is not a replica", owner, tenant)
	}
	call := func(tenant string, body []byte, tc *tracer, req int) ([]serve.WirePoint, error) {
		r, err := target(tenant)
		if err != nil {
			return nil, err
		}
		hr := httptest.NewRequest(http.MethodPost, r.url+"/v1/streams/"+tenant+"/ticks", bytes.NewReader(body)).WithContext(ctx)
		w := &memResponse{header: http.Header{}}
		if tc != nil {
			id := tc.begin("serve.handler", 0, req)
			r.srv.ServeHTTP(w, hr)
			tc.end(id)
		} else {
			r.srv.ServeHTTP(w, hr)
		}
		// A request that completes no sentence writes nothing: an implicit 200.
		if w.code != 0 && w.code != http.StatusOK {
			return nil, fmt.Errorf("handler pass: tenant %s: status %d: %s", tenant, w.code, bytes.TrimSpace(w.body.Bytes()))
		}
		var points []serve.WirePoint
		dec := json.NewDecoder(&w.body)
		for dec.More() {
			var p serve.WirePoint
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			points = append(points, p)
		}
		return points, nil
	}
	for i := 0; i < in.warm; i++ {
		if _, err := call(warmTenant, in.tr.body(0, i*strideTicks, strideTicks), nil, 0); err != nil {
			return nil, err
		}
	}
	tc := &tracer{epoch: time.Now()}
	res := &passResult{points: make([][]pointDigest, len(in.tr.names))}
	req := 0
	for i := 0; i < in.perTenant; i++ {
		for t, name := range in.tr.names {
			points, err := call(name, in.tr.body(t, i*strideTicks, strideTicks), tc, req)
			if err != nil {
				return nil, err
			}
			for _, p := range points {
				res.points[t] = append(res.points[t], digestOf(p))
			}
			req++
		}
	}
	res.spans = tc.spans
	return res, nil
}

// streamStats is what only the stream pass can see: it sits where the jobs
// are handed out. Times are medians, which a stall in a few pushes does not
// move.
type streamStats struct {
	jobs, points int
	repeats      int     // jobs whose source sentence this relationship had already scored
	workingSet   int     // most distinct source sentences seen by one relationship
	requestUs    float64 // all of one request's pushes
	pushNs       float64 // one push that completes no sentence
	emitUs       float64 // one push that emits a point
	emitSelfUs   float64 // the same, minus its score.job children
	translateUs  float64 // one infer.Model.Translate call (0 at float64)
	evaluateNs   float64 // Algorithm 2 on one score row
}

// streamPass is pass 3: stream.push spans on bare mdes.Streams over a cold
// clone, with a scorer hook that opens one score.job child span per
// relationship. Reduced-precision jobs are scored the way the pool's workers
// score them — infer.Model.Translate, then smoothed sentence BLEU — so the
// translate share is visible; float64 jobs call ScoreJob.Run.
func streamPass(model *mdes.Model, in passInputs) (*passResult, *streamStats, error) {
	clone, err := cloneModel(model)
	if err != nil {
		return nil, nil, err
	}
	tc := &tracer{epoch: time.Now()}
	st := &streamStats{}
	scorer := bleu.NewScorer()
	seen := map[int]map[string]struct{}{}
	var rows [][]float64
	var masked []int
	var translateUs []float64
	cur, curReq := 0, 0 // the stream.push span jobs hang under
	traced := false
	hook := func(jobs []mdes.ScoreJob, row []float64) error {
		for i := range jobs {
			j := &jobs[i]
			src, ref := j.Sentences()
			id := 0
			if traced {
				id = tc.begin("score.job", cur, curReq)
			}
			if inf := j.BatchModel(); inf != nil {
				t0 := time.Now()
				hyp := inf.Translate(src)
				if traced {
					translateUs = append(translateUs, float64(time.Since(t0))/1e3)
				}
				row[j.Index()] = sentenceScore(scorer, &masked, ref, hyp)
			} else {
				row[j.Index()] = j.Run()
			}
			if traced {
				tc.end(id)
				st.jobs++
			}
			// The warm-up's sentences count as seen, as they are in the
			// translation cache; only traced jobs count as repeats.
			set := seen[j.Index()]
			if set == nil {
				set = map[string]struct{}{}
				seen[j.Index()] = set
			}
			key := fmt.Sprint(src)
			if _, ok := set[key]; ok && traced {
				st.repeats++
			}
			set[key] = struct{}{}
		}
		if traced {
			rows = append(rows, append([]float64(nil), row...))
		}
		return nil
	}
	newStream := func() *mdes.Stream {
		s := clone.NewStream()
		s.SetScorer(hook)
		return s
	}
	ticks := newTickMaps(strideTicks, len(in.tr.log.sensors))
	warm := newStream()
	for i := 0; i < in.warm; i++ {
		in.tr.fill(ticks, 0, i*strideTicks)
		for _, tick := range ticks {
			if _, err := warm.Push(tick); err != nil {
				return nil, nil, err
			}
		}
	}
	traced = true
	streams := make([]*mdes.Stream, len(in.tr.names))
	for t := range streams {
		streams[t] = newStream()
	}
	res := &passResult{points: make([][]pointDigest, len(in.tr.names))}
	var requestUs, pushNs []float64
	var emitIDs []int
	req := 0
	for i := 0; i < in.perTenant; i++ {
		for t := range in.tr.names {
			in.tr.fill(ticks, t, i*strideTicks)
			var sum int64
			for _, tick := range ticks {
				cur, curReq = tc.begin("stream.push", 0, req), req
				p, err := streams[t].Push(tick)
				tc.end(cur)
				if err != nil {
					return nil, nil, err
				}
				sp := tc.spans[cur-1]
				sum += sp.End - sp.Start
				if p != nil {
					st.points++
					emitIDs = append(emitIDs, cur)
					res.points[t] = append(res.points[t], digestOf(serve.PointWire(*p)))
				} else {
					pushNs = append(pushNs, float64(sp.End-sp.Start))
				}
			}
			requestUs = append(requestUs, float64(sum)/1e3)
			req++
		}
	}
	for _, set := range seen {
		st.workingSet = max(st.workingSet, len(set))
	}
	// An emitting push's self time is its span minus its score.job children.
	self := selfTimes(tc.spans)
	var emitUs, emitSelfUs []float64
	for _, id := range emitIDs {
		sp := tc.spans[id-1]
		emitUs = append(emitUs, float64(sp.End-sp.Start)/1e3)
		emitSelfUs = append(emitSelfUs, float64(self[id-1])/1e3)
	}
	st.requestUs, st.pushNs = median(requestUs), median(pushNs)
	st.emitUs, st.emitSelfUs, st.translateUs = median(emitUs), median(emitSelfUs), median(translateUs)
	// Algorithm 2 runs inside Push where no outside span can reach it, so it
	// is re-run on the recorded score rows and its time subtracted from the
	// stream's self time.
	if len(rows) > 0 {
		det := anomaly.NewDetectorFromRelationships(clone.Detector().Relationships())
		var evalErr error
		st.evaluateNs = timeEach(len(rows), func(i int) {
			if _, err := det.Evaluate([][]float64{rows[i%len(rows)]}); err != nil {
				evalErr = err
			}
		})
		if evalErr != nil {
			return nil, nil, evalErr
		}
	}
	res.spans = tc.spans
	return res, st, nil
}

// sentenceScore is f(i,j) given the translation: smoothed sentence BLEU of
// hyp against ref with <unk> reference tokens masked so they never match —
// the same arithmetic infer.Model.ScoreSentence applies, which the
// three-pass agreement check verifies on every traced run.
func sentenceScore(scorer *bleu.Scorer, masked *[]int, ref, hyp []int) float64 {
	if len(ref) == 0 || len(hyp) == 0 {
		return 0
	}
	m := append((*masked)[:0], ref...)
	for i, t := range m {
		if t == nmt.UnkID {
			m[i] = -(i + 1)
		}
	}
	*masked = m
	return scorer.SentenceIDs(m, hyp, bleu.MaxOrder, bleu.SmoothAddOne)
}

// agree reports the first difference between two passes' points.
func agree(a, b *passResult, an, bn string) error {
	for t := range a.points {
		if len(a.points[t]) != len(b.points[t]) {
			return fmt.Errorf("passes %s and %s: tenant %d: %d vs %d points", an, bn, t, len(a.points[t]), len(b.points[t]))
		}
		for i := range a.points[t] {
			if a.points[t][i] != b.points[t][i] {
				return fmt.Errorf("passes %s and %s: tenant %d point %d differs: %+v vs %+v", an, bn, t, i, a.points[t][i], b.points[t][i])
			}
		}
	}
	return nil
}

// medianSpanUs is the median duration of the named spans, in microseconds.
func medianSpanUs(spans []span, name string) float64 {
	var us []float64
	for _, s := range spans {
		if s.Name == name {
			us = append(us, float64(s.End-s.Start)/1e3)
		}
	}
	return median(us)
}

// traceFile is the shape of trace.json.
type traceFile struct {
	runInfo
	Passes map[string][]span `json:"passes"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		_ = f.Close() // the encode error is the one reported
		return err
	}
	return f.Close()
}
