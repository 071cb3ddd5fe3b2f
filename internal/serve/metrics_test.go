package serve

import (
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mdes/internal/cluster"
)

// renderPinned renders s's metrics table with the scrape-time closures named
// in pinned (gauges and the replication queue's counters) reading the given
// values instead, so a table can be rendered without live server state.
func renderPinned(t *testing.T, s *Server, pinned map[string]int64) string {
	t.Helper()
	table := s.metricsTable()
	for i := range table {
		if v, ok := pinned[table[i].name]; ok {
			table[i].value = func() int64 { return v }
		}
	}
	s.series = table
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, nil)
	return rec.Body.String()
}

func TestHistogramRendersCumulativeBuckets(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1})
	h.observe(500 * time.Microsecond) // le=0.001
	h.observe(2 * time.Millisecond)   // le=0.01
	h.observe(3 * time.Millisecond)   // le=0.01
	h.observe(50 * time.Millisecond)  // le=0.1
	h.observe(2 * time.Second)        // +Inf

	var sb strings.Builder
	writeSeries(&sb, []series{{"x_seconds", "help text", "histogram", nil, &h}})
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
	s := &Server{}
	s.met.scoreLatency = newHistogram(scoreBuckets)
	s.met.ticksIngested.Add(7)

	out := renderPinned(t, s, map[string]int64{
		"mdes_serve_sessions_live": 2, "mdes_serve_inflight_requests": 1, "mdes_serve_score_queue_depth": 3,
	})
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
	s := &Server{}
	s.met.scoreLatency = newHistogram(scoreBuckets)
	s.met.scoreLatency.observe(10 * time.Microsecond)
	s.met.scoreLatency.observe(30 * time.Microsecond)
	s.met.scoreMemoHits.Add(5)

	out := renderPinned(t, s, map[string]int64{
		"mdes_serve_sessions_live": 0, "mdes_serve_inflight_requests": 0, "mdes_serve_score_queue_depth": 0,
	})
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

// goldenServer is a server in the given mode ("standalone", "cluster" or
// "standby") with every counter at a distinct value and both histograms
// observed, and the scrape-time values the goldens were written with.
func goldenServer(mode string) (*Server, map[string]int64) {
	s := &Server{}
	if mode != "standalone" {
		s.cluster = &clusterNode{}
	}
	if mode == "standby" {
		s.repl = &cluster.ReplQueue{}
	}
	m := &s.met
	m.scoreLatency = newHistogram(scoreBuckets)
	m.replLag = newHistogram(replLagBuckets)
	for i, c := range []*atomic.Int64{
		&m.ticksIngested, &m.pointsEmitted, &m.ticksRejected, &m.tickErrors,
		&m.sessionsStarted, &m.sessionsRestored, &m.sessionsEvicted,
		&m.snapshotWrites, &m.snapshotErrors,
		&m.degradedTicks, &m.deadlineMisses, &m.missingModelTicks, &m.snapshotLoadErrors,
		&m.clusterRedirects, &m.clusterHandoffsSent, &m.clusterHandoffsReceived,
		&m.clusterHandoffErrors, &m.clusterPendingWaits, &m.clusterPendingExpired,
		&m.snapshotTorn, &m.replReceived, &m.replPromotions, &m.replShipsHome, &m.replStoreErrors,
		&m.scoreMemoHits,
	} {
		c.Store(int64(101 + i))
	}
	m.ticksIngested.Store(9876543210)
	for _, d := range []time.Duration{3 * time.Microsecond, 10 * time.Microsecond, 30 * time.Microsecond, 2 * time.Millisecond, 3 * time.Second} {
		m.scoreLatency.observe(d)
	}
	for _, d := range []time.Duration{500 * time.Microsecond, 7 * time.Millisecond, 300 * time.Millisecond, 10 * time.Second} {
		m.replLag.observe(d)
	}
	return s, map[string]int64{
		"mdes_serve_sessions_live": 201, "mdes_serve_inflight_requests": 202, "mdes_serve_score_queue_depth": 203,
		"mdes_serve_cluster_peers_alive": 204, "mdes_serve_cluster_pending_tenants": 205, "mdes_serve_cluster_owned_tenants": 206,
		"mdes_serve_repl_enqueued_total": 301, "mdes_serve_repl_coalesced_total": 302, "mdes_serve_repl_dropped_total": 303,
		"mdes_serve_repl_shipped_total": 304, "mdes_serve_repl_ship_errors_total": 305,
		"mdes_serve_repl_adopted_sessions": 207, "mdes_serve_repl_standby_tenants": 1234567, "mdes_serve_repl_queue_depth": 209,
	}
}

// TestMetricsMatchGoldens: /metrics renders byte for byte what the three
// hand-written writers the table replaced rendered for the same values
// (testdata/metrics-*.txt were written by them), in every mode — bench/
// scrapes these names and parses the histograms.
func TestMetricsMatchGoldens(t *testing.T) {
	for _, mode := range []string{"standalone", "cluster", "standby"} {
		t.Run(mode, func(t *testing.T) {
			want, err := os.ReadFile("testdata/metrics-" + mode + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			s, pinned := goldenServer(mode)
			if got := renderPinned(t, s, pinned); got != string(want) {
				t.Fatalf("/metrics differs from testdata/metrics-%s.txt:\n%s", mode, got)
			}
		})
	}
}

// readmeSeriesNames lists the /metrics series README names, each brace group
// (mdes_serve_sessions_{started,restored}_total) expanded and each
// histogram sample (_bucket, _sum, _count) folded onto its series.
func readmeSeriesNames(readme string, histograms []string) []string {
	re := regexp.MustCompile(`mdes_serve_[a-z0-9_]*(\{[a-z0-9_,]+\}[a-z0-9_]*)?`)
	seen := map[string]bool{}
	for _, m := range re.FindAllString(readme, -1) {
		names := []string{m}
		if i := strings.IndexByte(m, '{'); i >= 0 {
			j := strings.IndexByte(m, '}')
			names = names[:0]
			for _, alt := range strings.Split(m[i+1:j], ",") {
				names = append(names, m[:i]+alt+m[j+1:])
			}
		}
		for _, n := range names {
			for _, h := range histograms {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					if n == h+suffix {
						n = h
					}
				}
			}
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestReadmeListsEverySeries: README's metrics sections name exactly the
// series a clustered server with a standby store renders — every series
// documented, and no documented name that the server does not render.
func TestReadmeListsEverySeries(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := goldenServer("standby")
	var rendered, histograms []string
	for _, x := range s.metricsTable() {
		rendered = append(rendered, x.name)
		if x.typ == "histogram" {
			histograms = append(histograms, x.name)
		}
	}
	sort.Strings(rendered)
	documented := readmeSeriesNames(string(readme), histograms)
	for _, n := range rendered {
		if !slices.Contains(documented, n) {
			t.Errorf("%s is rendered on /metrics but README does not name it", n)
		}
	}
	for _, n := range documented {
		if !slices.Contains(rendered, n) {
			t.Errorf("README names %s, which /metrics does not render", n)
		}
	}
}
