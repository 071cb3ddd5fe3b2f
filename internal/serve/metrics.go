package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// metrics holds the server's counters and histograms, all atomics so the tick
// hot path never takes a lock. What each one counts is its /metrics help text
// in Server.metricsTable.
type metrics struct {
	ticksIngested    atomic.Int64
	pointsEmitted    atomic.Int64
	ticksRejected    atomic.Int64
	tickErrors       atomic.Int64
	sessionsStarted  atomic.Int64
	sessionsRestored atomic.Int64
	sessionsEvicted  atomic.Int64
	snapshotWrites   atomic.Int64
	snapshotErrors   atomic.Int64

	degradedTicks      atomic.Int64
	deadlineMisses     atomic.Int64
	missingModelTicks  atomic.Int64
	snapshotLoadErrors atomic.Int64

	clusterRedirects        atomic.Int64
	clusterHandoffsSent     atomic.Int64
	clusterHandoffsReceived atomic.Int64
	clusterHandoffErrors    atomic.Int64
	clusterPendingWaits     atomic.Int64
	clusterPendingExpired   atomic.Int64

	snapshotTorn    atomic.Int64
	replReceived    atomic.Int64
	replPromotions  atomic.Int64
	replShipsHome   atomic.Int64
	replStoreErrors atomic.Int64

	scoreMemoHits atomic.Int64

	scoreLatency histogram
	replLag      histogram
}

// series is one /metrics family: name, help text, type, and how to read it
// at scrape time — value for a counter or gauge, hist for a histogram.
type series struct {
	name, help, typ string
	value           func() int64
	hist            *histogram
}

// metricsTable declares every /metrics series once, in render order. The
// cluster rows exist only in cluster mode and the standby rows only with a
// replication queue, so a standalone server renders just its own families.
func (s *Server) metricsTable() []series {
	m := &s.met
	// The two names the bench ledger scrapes for jobs/batch are one count:
	// every relationship score a window needed, whether a pool worker ran it
	// (one job per call) or the score memo answered it.
	scored := func() int64 { return m.scoreLatency.n.Load() + m.scoreMemoHits.Load() }
	t := []series{
		{"mdes_serve_ticks_ingested_total", "Ticks consumed across all sessions.", "counter", m.ticksIngested.Load, nil},
		{"mdes_serve_points_emitted_total", "Detection points emitted across all sessions.", "counter", m.pointsEmitted.Load, nil},
		{"mdes_serve_requests_rejected_total", "Tick requests refused with 429 because the admission queue was full.", "counter", m.ticksRejected.Load, nil},
		{"mdes_serve_tick_errors_total", "Ticks rejected as malformed or misaligned.", "counter", m.tickErrors.Load, nil},
		{"mdes_serve_sessions_started_total", "Sessions created fresh.", "counter", m.sessionsStarted.Load, nil},
		{"mdes_serve_sessions_restored_total", "Sessions restored from a snapshot.", "counter", m.sessionsRestored.Load, nil},
		{"mdes_serve_sessions_evicted_total", "Sessions evicted by TTL or LRU pressure.", "counter", m.sessionsEvicted.Load, nil},
		{"mdes_serve_snapshot_writes_total", "Session snapshots written to disk.", "counter", m.snapshotWrites.Load, nil},
		{"mdes_serve_snapshot_errors_total", "Session snapshot writes that failed.", "counter", m.snapshotErrors.Load, nil},
		{"mdes_serve_snapshot_load_errors_total", "Session snapshot reads that failed (corrupt or unreadable).", "counter", m.snapshotLoadErrors.Load, nil},
		{"mdes_serve_snapshot_torn_total", "Snapshots found torn or CRC-broken at load; the tenant fresh-started.", "counter", m.snapshotTorn.Load, nil},
		{"mdes_serve_degraded_ticks_total", "Ticks answered with the last valid score and degraded=true.", "counter", m.degradedTicks.Load, nil},
		{"mdes_serve_score_deadline_misses_total", "Sentence windows that missed the scoring deadline.", "counter", m.deadlineMisses.Load, nil},
		{"mdes_serve_missing_model_ticks_total", "Sentence windows degraded because a pair model was missing.", "counter", m.missingModelTicks.Load, nil},
		{"mdes_serve_score_batches_total", "Relationship scores produced: pool worker calls (one job each) plus score-memo hits.", "counter", scored, nil},
		{"mdes_serve_score_batch_jobs_total", "Relationship scores produced; equal to mdes_serve_score_batches_total.", "counter", scored, nil},
		{"mdes_serve_score_memo_hits_total", "Relationship scores answered from the score memo without a pool job; hit rate = hits / (hits + mdes_serve_score_latency_seconds_count).", "counter", m.scoreMemoHits.Load, nil},
		{"mdes_serve_sessions_live", "Sessions currently resident in memory.", "gauge", func() int64 { return int64(s.reg.len()) }, nil},
		{"mdes_serve_inflight_requests", "Tick requests currently admitted.", "gauge", func() int64 { return int64(len(s.slots)) }, nil},
		{"mdes_serve_score_queue_depth", "Pairwise scoring jobs waiting for a pool worker.", "gauge", func() int64 { return int64(len(s.pool.tasks)) }, nil},
		{"mdes_serve_score_latency_seconds", "Latency of one pairwise relationship scoring call.", "histogram", nil, &m.scoreLatency},
	}
	if s.cluster == nil {
		return t
	}
	t = append(t,
		series{"mdes_serve_cluster_redirects_total", "Misrouted tenant requests answered with 307 + owner address.", "counter", m.clusterRedirects.Load, nil},
		series{"mdes_serve_cluster_handoffs_sent_total", "Tenant snapshots shipped to a new owner and acknowledged.", "counter", m.clusterHandoffsSent.Load, nil},
		series{"mdes_serve_cluster_handoffs_received_total", "Tenant snapshots received and installed from a peer.", "counter", m.clusterHandoffsReceived.Load, nil},
		series{"mdes_serve_cluster_handoff_errors_total", "Moves that failed to ship or install, and transfers that failed to read or decode.", "counter", m.clusterHandoffErrors.Load, nil},
		series{"mdes_serve_cluster_pending_waits_total", "Tick requests answered 503 while awaiting a tenant's inbound handoff.", "counter", m.clusterPendingWaits.Load, nil},
		series{"mdes_serve_cluster_pending_expired_total", "Pending-handoff entries that hit their TTL and served fresh.", "counter", m.clusterPendingExpired.Load, nil},
		series{"mdes_serve_cluster_peers_alive", "Peers this replica currently believes are alive.", "gauge", func() int64 { alive, _ := s.table.Stats(); return int64(alive) }, nil},
		series{"mdes_serve_cluster_pending_tenants", "Tenants currently awaiting an inbound handoff.", "gauge", func() int64 { _, pending := s.table.Stats(); return int64(pending) }, nil},
		series{"mdes_serve_cluster_owned_tenants", "Resident sessions whose ring owner is this replica.", "gauge", s.ownedCount, nil},
	)
	q := s.repl
	if q == nil {
		return t
	}
	// The queue counters are the queue's own, the one source of its
	// enqueue/coalesce/drop accounting.
	return append(t,
		series{"mdes_serve_repl_enqueued_total", "Snapshot records accepted into the replication queue.", "counter", func() int64 { return q.Stats().Enqueued }, nil},
		series{"mdes_serve_repl_coalesced_total", "Snapshot records folded onto an already-queued tenant.", "counter", func() int64 { return q.Stats().Coalesced }, nil},
		series{"mdes_serve_repl_dropped_total", "Snapshot records dropped because the peer's replication queue was full.", "counter", func() int64 { return q.Stats().Dropped }, nil},
		series{"mdes_serve_repl_shipped_total", "Snapshot records shipped to a standby and acknowledged.", "counter", func() int64 { return q.Stats().Shipped }, nil},
		series{"mdes_serve_repl_ship_errors_total", "Snapshot ships that exhausted their retries.", "counter", func() int64 { return q.Stats().Errors }, nil},
		series{"mdes_serve_repl_received_total", "Standby snapshot copies received and persisted for peers.", "counter", m.replReceived.Load, nil},
		series{"mdes_serve_repl_promotions_total", "Sessions promoted from the standby store while their owner was down.", "counter", m.replPromotions.Load, nil},
		series{"mdes_serve_repl_ships_home_total", "Adopted or standby-held tenants shipped back to a revived owner.", "counter", m.replShipsHome.Load, nil},
		series{"mdes_serve_repl_store_errors_total", "Standby store reads or writes that failed.", "counter", m.replStoreErrors.Load, nil},
		series{"mdes_serve_repl_adopted_sessions", "Resident sessions currently served on behalf of a down owner.", "gauge", s.adoptedCount, nil},
		series{"mdes_serve_repl_standby_tenants", "Tenant snapshot copies held in the standby store for peers.", "gauge", s.standbyHeldCount, nil},
		series{"mdes_serve_repl_queue_depth", "Snapshot records buffered in the replication queue.", "gauge", func() int64 { return int64(q.Depth()) }, nil},
		series{"mdes_serve_repl_lag_seconds", "Replication lag from snapshot enqueue to standby acknowledgement.", "histogram", nil, &m.replLag},
	)
}

// writeSeries renders the table in Prometheus text exposition format.
func writeSeries(w io.Writer, table []series) {
	for _, x := range table {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", x.name, x.help, x.name, x.typ)
		switch x.typ {
		case "histogram":
			x.hist.write(w, x.name)
		case "gauge":
			fmt.Fprintf(w, "%s %g\n", x.name, float64(x.value()))
		default:
			fmt.Fprintf(w, "%s %d\n", x.name, x.value())
		}
	}
}

// histogram is a Prometheus-style cumulative histogram over seconds. Buckets
// and counts are fixed at construction; observations are lock-free.
type histogram struct {
	bounds []float64 // upper bounds in seconds, ascending
	counts []atomic.Int64
	inf    atomic.Int64
	sumNs  atomic.Int64
	n      atomic.Int64
}

// scoreBuckets spans one pairwise scoring call: microsecond cache hits (the
// bench workloads' mean is 7–25 µs) through multi-second cold decodes on large
// models.
var scoreBuckets = []float64{5e-6, 1e-5, 2.5e-5, 5e-5, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5}

// replLagBuckets spans snapshot-replication lag (enqueue to standby ack):
// sub-millisecond same-host ships through multi-second retry storms.
var replLagBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5}

func newHistogram(bounds []float64) histogram {
	return histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	placed := false
	for i, b := range h.bounds {
		if s <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.sumNs.Add(int64(d))
	h.n.Add(1)
}

// write renders the histogram's samples: cumulative buckets, sum and count.
func (h *histogram) write(w io.Writer, name string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	cum += h.inf.Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.n.Load())
}
