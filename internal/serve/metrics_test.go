package serve

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramRendersCumulativeBuckets(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1})
	h.observe(500 * time.Microsecond) // le=0.001
	h.observe(2 * time.Millisecond)   // le=0.01
	h.observe(3 * time.Millisecond)   // le=0.01
	h.observe(50 * time.Millisecond)  // le=0.1
	h.observe(2 * time.Second)        // +Inf

	var sb strings.Builder
	h.write(&sb, "x_seconds", "help text")
	out := sb.String()

	for _, want := range []string{
		"# HELP x_seconds help text",
		"# TYPE x_seconds histogram",
		`x_seconds_bucket{le="0.001"} 1`,
		`x_seconds_bucket{le="0.01"} 3`,
		`x_seconds_bucket{le="0.1"} 4`,
		`x_seconds_bucket{le="+Inf"} 5`,
		"x_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Sum: 0.0005 + 0.002 + 0.003 + 0.05 + 2 = 2.0555 seconds.
	if !strings.Contains(out, "x_seconds_sum 2.0555") {
		t.Fatalf("bad sum in:\n%s", out)
	}
}

func TestMetricsWriteIncludesEveryFamily(t *testing.T) {
	var m metrics
	m.scoreLatency = newHistogram(scoreBuckets)
	m.ticksIngested.Add(7)

	var sb strings.Builder
	m.write(&sb, 2, 1, 3)
	out := sb.String()
	for _, want := range []string{
		"mdes_serve_ticks_ingested_total 7",
		"mdes_serve_points_emitted_total 0",
		"mdes_serve_requests_rejected_total 0",
		"mdes_serve_sessions_live 2",
		"mdes_serve_inflight_requests 1",
		"mdes_serve_score_queue_depth 3",
		"mdes_serve_score_latency_seconds_count 0",
		"mdes_serve_snapshot_load_errors_total 0",
		"mdes_serve_degraded_ticks_total 0",
		"mdes_serve_score_deadline_misses_total 0",
		"mdes_serve_missing_model_ticks_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestScoreLatencyResolvesMicroseconds: pool scoring calls take 7–25 µs on
// the bench workloads, so the buckets below 500 µs must tell them apart. (With
// 500 µs as the first bound every call landed in it and the quantiles were
// bucket arithmetic.) It also pins the two counters bench/ scrapes for
// jobs/batch to the one count behind them: pool calls plus score-memo hits.
func TestScoreLatencyResolvesMicroseconds(t *testing.T) {
	var m metrics
	m.scoreLatency = newHistogram(scoreBuckets)
	m.scoreLatency.observe(10 * time.Microsecond)
	m.scoreLatency.observe(30 * time.Microsecond)
	m.scoreMemoHits.Add(5)

	var sb strings.Builder
	m.write(&sb, 0, 0, 0)
	out := sb.String()

	for _, want := range []string{
		`mdes_serve_score_latency_seconds_bucket{le="2.5e-05"} 1`, // the 10 µs call alone
		`mdes_serve_score_latency_seconds_bucket{le="5e-05"} 2`,   // joined by the 30 µs call
		"mdes_serve_score_batches_total 7",
		"mdes_serve_score_batch_jobs_total 7",
		"mdes_serve_score_memo_hits_total 5",
		"mdes_serve_score_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
