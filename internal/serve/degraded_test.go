package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mdes"
)

// TestScoreWithinDeadlineMiss drives the deadline path deterministically: a
// pool with zero workers never drains its (unbuffered) job channel, so
// submission blocks until the timer fires. The caller's row must stay
// untouched — the degraded tick repeats the previous score, it does not leak
// a half-scored window.
func TestScoreWithinDeadlineMiss(t *testing.T) {
	var met metrics
	met.scoreLatency = newHistogram(scoreBuckets)
	p := newScorePool(0, &met)
	defer p.close()

	jobs := make([]mdes.ScoreJob, 3)
	row := []float64{1, 2, 3}
	err := p.scoreWithin(jobs, row, 10*time.Millisecond)
	if err != ErrScoreDeadline {
		t.Fatalf("err = %v, want ErrScoreDeadline", err)
	}
	if row[0] != 1 || row[1] != 2 || row[2] != 3 {
		t.Fatalf("row mutated on deadline miss: %v", row)
	}
}

// TestDegradedModeServing wraps the server's scorer with a switchable
// failure and checks the full degraded contract: ticks keep answering (last
// valid score + degraded flag) instead of stalling the NDJSON stream, the
// emission cadence stays aligned with a healthy stream, the degraded
// counters show up on /metrics, and once scoring heals the stream continues
// with bit-identical scores — including across a snapshot restart. The
// failure sits in the scorer, which only a window with a score-memo miss
// reaches, so the server gets an uncached clone: every window misses.
func TestDegradedModeServing(t *testing.T) {
	m := testModel(t)
	dir := t.TempDir()
	ds := coupledDataset(rand.New(rand.NewSource(909)), 120)

	srv, hs, client := newTestServer(t, Options{
		Models:      map[string]*mdes.Model{"default": uncachedCopy(t)},
		SnapshotDir: dir, ScoreDeadline: time.Hour,
	})
	var degrade atomic.Bool
	real := srv.scorer
	srv.scorer = func(jobs []mdes.ScoreJob, row []float64) error {
		if degrade.Load() {
			return ErrScoreDeadline
		}
		return real(jobs, row)
	}

	want := standalonePoints(t, m, ticksOf(ds, 0, ds.Ticks()))

	// Phase 1: scoring is down. Every due emission must still answer, flagged
	// degraded, repeating the last valid score (none yet, so zero).
	degrade.Store(true)
	sick, err := client.PushTicks(context.Background(), "plant", ticksOf(ds, 0, 60))
	if err != nil {
		t.Fatal(err)
	}
	if len(sick) == 0 {
		t.Fatal("no points emitted while degraded; the stream stalled")
	}
	for i, p := range sick {
		if !p.Degraded {
			t.Fatalf("point %d not flagged degraded: %+v", i, p)
		}
		if p.Score != 0 {
			t.Fatalf("point %d: degraded score %v, want 0 (no valid score yet)", i, p.Score)
		}
		if p.T != want[i].T {
			t.Fatalf("point %d: t=%d, want %d — degradation desynced the cadence", i, p.T, want[i].T)
		}
		if len(p.Broken) != 0 {
			t.Fatalf("point %d: degraded point carries alerts: %+v", i, p.Broken)
		}
	}

	body := scrape(t, hs.URL)
	for _, want := range []string{"mdes_serve_degraded_ticks_total", "mdes_serve_score_deadline_misses_total"} {
		if !hasPositiveMetric(body, want) {
			t.Fatalf("metric %s not positive after degraded ticks:\n%s", want, body)
		}
	}

	// Phase 2: scoring heals mid-session. Degraded ticks still advanced the
	// rolling windows, so from here on scores must match the healthy
	// reference exactly.
	degrade.Store(false)
	healed, err := client.PushTicks(context.Background(), "plant", ticksOf(ds, 60, 90))
	if err != nil {
		t.Fatal(err)
	}
	checkHealedTail(t, healed, want, len(sick), "after heal")

	// Phase 3: the degraded session's snapshot must restart cleanly — the
	// skip-emit accounting has to keep satisfying RestoreStream's invariant.
	hs.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, _, client2 := newTestServer(t, Options{SnapshotDir: dir, ScoreDeadline: time.Hour})
	rest, err := client2.PushTicks(context.Background(), "plant", ticksOf(ds, 90, ds.Ticks()))
	if err != nil {
		t.Fatal(err)
	}
	checkHealedTail(t, rest, want, len(sick)+len(healed), "after restart")
}

// uncachedCopy clones the shared test model with its translation caches and
// score memos off, so every window's relationships reach the scorer — where
// the degraded-mode tests inject their failure.
func uncachedCopy(t testing.TB) *mdes.Model {
	m := quantizedCopy(t, mdes.PrecisionF64)
	m.SetTranslationCaching(false)
	return m
}

// TestMemoAnsweredWindowCannotMissDeadline pins the other half of the
// degraded contract: the deadline bounds the pool, and a window answered
// wholly from the score memo never goes there. A tenant replays one period
// until every window is memoised; then scoring goes down, and the replay
// still answers with real scores while novel traffic degrades as before.
func TestMemoAnsweredWindowCannotMissDeadline(t *testing.T) {
	period := ticksOf(coupledDataset(rand.New(rand.NewSource(5)), 60), 0, 60) // 12 strides
	novel := ticksOf(coupledDataset(rand.New(rand.NewSource(6)), 60), 0, 60)

	srv, hs, client := newTestServer(t, Options{
		Models:        map[string]*mdes.Model{"default": quantizedCopy(t, mdes.PrecisionF64)},
		ScoreDeadline: time.Hour,
	})
	var degrade atomic.Bool
	real := srv.scorer
	srv.scorer = func(jobs []mdes.ScoreJob, row []float64) error {
		if degrade.Load() {
			return ErrScoreDeadline
		}
		return real(jobs, row)
	}

	// A window is memoised at its second sighting, and the window that wraps
	// from one lap into the next is first seen on lap 2: four healthy laps
	// leave every window of the fifth a hit.
	var warm []WirePoint
	for lap := 0; lap < 4; lap++ {
		var err error
		if warm, err = client.PushTicks(context.Background(), "plant", period); err != nil {
			t.Fatal(err)
		}
	}
	degrade.Store(true)
	replay, err := client.PushTicks(context.Background(), "plant", period)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(warm) || len(replay) == 0 {
		t.Fatalf("replayed lap emitted %d points, the lap before it %d", len(replay), len(warm))
	}
	for i, p := range replay {
		if p.Degraded || math.Float64bits(p.Score) != math.Float64bits(warm[i].Score) || p.Valid != warm[i].Valid {
			t.Fatalf("memoised window %d answered %+v with scoring down, want the healthy %+v", i, p, warm[i])
		}
	}
	body := scrape(t, hs.URL)
	if hasPositiveMetric(body, "mdes_serve_degraded_ticks_total") || !hasPositiveMetric(body, "mdes_serve_score_memo_hits_total") {
		t.Fatalf("want memo hits and no degraded tick after a memoised lap with scoring down:\n%s", body)
	}
	// The legacy batch counters count every relationship score, pool-run or
	// memo-answered: pool calls + memo hits.
	want := srv.met.scoreLatency.n.Load() + srv.met.scoreMemoHits.Load()
	for _, name := range []string{"mdes_serve_score_batches_total", "mdes_serve_score_batch_jobs_total"} {
		if line := fmt.Sprintf("%s %d\n", name, want); !strings.Contains(body, line) {
			t.Fatalf("missing %q in:\n%s", line, body)
		}
	}

	// Windows the model has not scored before still need the pool, and
	// degrade exactly as they did without a memo.
	fresh, err := client.PushTicks(context.Background(), "plant", novel)
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for _, p := range fresh {
		if p.Degraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatalf("novel windows with scoring down: none of %d points degraded", len(fresh))
	}
}

// scrape fetches /metrics.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// checkHealedTail compares post-degradation points against the healthy
// reference starting at offset.
func checkHealedTail(t *testing.T, got []WirePoint, want []mdes.Point, offset int, label string) {
	t.Helper()
	for i, p := range got {
		ref := want[offset+i]
		if p.Degraded {
			t.Fatalf("%s: point %d still degraded: %+v", label, i, p)
		}
		if p.T != ref.T || math.Abs(p.Score-ref.Score) > 1e-12 {
			t.Fatalf("%s: point %d = {t:%d score:%v}, want {t:%d score:%v}", label, i, p.T, p.Score, ref.T, ref.Score)
		}
	}
}

// TestMissingPairModelDegraded serves a model whose serialised form lost one
// pair (a partial write of the model file that still parses, or a model
// edited by hand). Strict mode fails the tick; with a deadline configured
// the server answers degraded and counts the missing model.
func TestMissingPairModelDegraded(t *testing.T) {
	broken := modelMissingOnePair(t)
	ds := coupledDataset(rand.New(rand.NewSource(909)), 60)
	ticks := ticksOf(ds, 0, ds.Ticks())

	// Strict server: the tick errors and the batch aborts.
	_, _, strict := newTestServer(t, Options{Models: map[string]*mdes.Model{"default": broken}})
	if _, err := strict.PushTicks(context.Background(), "plant", ticks); err == nil {
		t.Fatal("strict server scored a window with a missing pair model")
	}

	// Degraded server: every emission answers, flagged, and the metric moves.
	_, hs, soft := newTestServer(t, Options{
		Models:        map[string]*mdes.Model{"default": broken},
		ScoreDeadline: time.Hour,
	})
	got, err := soft.PushTicks(context.Background(), "plant", ticks)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no points emitted")
	}
	for i, p := range got {
		if !p.Degraded {
			t.Fatalf("point %d not degraded: %+v", i, p)
		}
	}
	if body := scrape(t, hs.URL); !hasPositiveMetric(body, "mdes_serve_missing_model_ticks_total") {
		t.Fatalf("mdes_serve_missing_model_ticks_total not positive:\n%s", body)
	}
}

// modelMissingOnePair round-trips the test model through its serialised form
// with one pair model deleted (its graph edge stays, so the relationship is
// still scored — and now cannot be).
func modelMissingOnePair(t *testing.T) *mdes.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := testModel(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var pairs map[string]json.RawMessage
	if err := json.Unmarshal(doc["pairs"], &pairs); err != nil {
		t.Fatal(err)
	}
	var edges []struct {
		Src string `json:"src"`
		Tgt string `json:"tgt"`
	}
	if err := json.Unmarshal(doc["edges"], &edges); err != nil {
		t.Fatal(err)
	}
	if len(edges) == 0 {
		t.Fatal("test model has no edges")
	}
	key := edges[0].Src + "\x1f" + edges[0].Tgt
	if _, ok := pairs[key]; !ok {
		t.Fatalf("pair %q not in serialised model", key)
	}
	delete(pairs, key)
	repacked, err := json.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	doc["pairs"] = repacked
	whole, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mdes.Load(bytes.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// hasPositiveMetric reports whether the Prometheus text output has a sample
// for name with a value greater than zero.
func hasPositiveMetric(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		val := strings.TrimSpace(strings.TrimPrefix(line, name+" "))
		return val != "0" && val != "0.0"
	}
	return false
}
