package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// metrics is the server's fixed registry: counters and one latency histogram,
// all atomics so the tick hot path never takes a lock. Gauges (sessions live,
// queue depth, inflight requests) are sampled at scrape time by the handler.
type metrics struct {
	ticksIngested    atomic.Int64
	pointsEmitted    atomic.Int64
	ticksRejected    atomic.Int64 // requests refused with 429
	tickErrors       atomic.Int64
	sessionsStarted  atomic.Int64
	sessionsRestored atomic.Int64
	sessionsEvicted  atomic.Int64
	snapshotWrites   atomic.Int64
	snapshotErrors   atomic.Int64

	// Degraded-mode and fault-class counters: every injected or observed
	// fault is visible at /metrics, so the chaos harness (and operators) can
	// see exactly which failure path fired.
	degradedTicks      atomic.Int64 // ticks answered with the last valid score
	deadlineMisses     atomic.Int64 // windows that blew the scoring deadline
	missingModelTicks  atomic.Int64 // windows degraded by an absent pair model
	snapshotLoadErrors atomic.Int64 // snapshot reads/decodes that failed

	// Cluster-mode counters (rendered only when clustering is on):
	// ownership answers, migrations, and the pending-handoff gate.
	clusterRedirects        atomic.Int64 // misrouted requests answered 307
	clusterHandoffsSent     atomic.Int64 // tenant snapshots shipped and acked
	clusterHandoffsReceived atomic.Int64 // tenant snapshots installed
	clusterHandoffErrors    atomic.Int64 // moves that failed to ship or install; transfers that failed to read or decode
	clusterPendingWaits     atomic.Int64 // ticks answered 503 awaiting a handoff
	clusterPendingExpired   atomic.Int64 // pending entries that hit their TTL

	// Warm-standby counters (rendered only with a standby store configured).
	snapshotTorn    atomic.Int64 // snapshots found torn/CRC-broken at load
	replReceived    atomic.Int64 // standby copies received and persisted
	replPromotions  atomic.Int64 // sessions promoted from the standby store
	replShipsHome   atomic.Int64 // adopted/standby state shipped back to a revived owner
	replStoreErrors atomic.Int64 // standby store reads/writes that failed

	// scoreMemoHits counts relationship scores answered from a pair model's
	// score memo — no pool job, no latency observation.
	scoreMemoHits atomic.Int64

	scoreLatency histogram
	replLag      histogram
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

// write renders the histogram in Prometheus text exposition format.
func (h *histogram) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum)
	}
	cum += h.inf.Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.n.Load())
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

// counter renders one counter metric.
func counter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// gauge renders one gauge metric.
func gauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	fmt.Fprintf(w, "%s %g\n", name, v)
}

// write renders every metric. The live gauge values are passed in by the
// scrape handler.
func (m *metrics) write(w io.Writer, sessionsLive, inflight, queueDepth int) {
	counter(w, "mdes_serve_ticks_ingested_total", "Ticks consumed across all sessions.", m.ticksIngested.Load())
	counter(w, "mdes_serve_points_emitted_total", "Detection points emitted across all sessions.", m.pointsEmitted.Load())
	counter(w, "mdes_serve_requests_rejected_total", "Tick requests refused with 429 because the admission queue was full.", m.ticksRejected.Load())
	counter(w, "mdes_serve_tick_errors_total", "Ticks rejected as malformed or misaligned.", m.tickErrors.Load())
	counter(w, "mdes_serve_sessions_started_total", "Sessions created fresh.", m.sessionsStarted.Load())
	counter(w, "mdes_serve_sessions_restored_total", "Sessions restored from a snapshot.", m.sessionsRestored.Load())
	counter(w, "mdes_serve_sessions_evicted_total", "Sessions evicted by TTL or LRU pressure.", m.sessionsEvicted.Load())
	counter(w, "mdes_serve_snapshot_writes_total", "Session snapshots written to disk.", m.snapshotWrites.Load())
	counter(w, "mdes_serve_snapshot_errors_total", "Session snapshot writes that failed.", m.snapshotErrors.Load())
	counter(w, "mdes_serve_snapshot_load_errors_total", "Session snapshot reads that failed (corrupt or unreadable).", m.snapshotLoadErrors.Load())
	counter(w, "mdes_serve_snapshot_torn_total", "Snapshots found torn or CRC-broken at load; the tenant fresh-started.", m.snapshotTorn.Load())
	counter(w, "mdes_serve_degraded_ticks_total", "Ticks answered with the last valid score and degraded=true.", m.degradedTicks.Load())
	counter(w, "mdes_serve_score_deadline_misses_total", "Sentence windows that missed the scoring deadline.", m.deadlineMisses.Load())
	counter(w, "mdes_serve_missing_model_ticks_total", "Sentence windows degraded because a pair model was missing.", m.missingModelTicks.Load())
	// The two names the bench ledger scrapes for jobs/batch are one count:
	// every relationship score a window needed, whether a pool worker ran it
	// (one job per call) or the score memo answered it.
	memoHits := m.scoreMemoHits.Load()
	scored := m.scoreLatency.n.Load() + memoHits
	counter(w, "mdes_serve_score_batches_total", "Relationship scores produced: pool worker calls (one job each) plus score-memo hits.", scored)
	counter(w, "mdes_serve_score_batch_jobs_total", "Relationship scores produced; equal to mdes_serve_score_batches_total.", scored)
	counter(w, "mdes_serve_score_memo_hits_total", "Relationship scores answered from the score memo without a pool job; hit rate = hits / (hits + mdes_serve_score_latency_seconds_count).", memoHits)
	gauge(w, "mdes_serve_sessions_live", "Sessions currently resident in memory.", float64(sessionsLive))
	gauge(w, "mdes_serve_inflight_requests", "Tick requests currently admitted.", float64(inflight))
	gauge(w, "mdes_serve_score_queue_depth", "Pairwise scoring jobs waiting for a pool worker.", float64(queueDepth))
	m.scoreLatency.write(w, "mdes_serve_score_latency_seconds", "Latency of one pairwise relationship scoring call.")
}

// writeCluster renders the cluster-mode metrics. Only called when the
// server runs clustered, so standalone /metrics output is unchanged.
func (m *metrics) writeCluster(w io.Writer, peersAlive, pendingTenants, ownedTenants int) {
	counter(w, "mdes_serve_cluster_redirects_total", "Misrouted tenant requests answered with 307 + owner address.", m.clusterRedirects.Load())
	counter(w, "mdes_serve_cluster_handoffs_sent_total", "Tenant snapshots shipped to a new owner and acknowledged.", m.clusterHandoffsSent.Load())
	counter(w, "mdes_serve_cluster_handoffs_received_total", "Tenant snapshots received and installed from a peer.", m.clusterHandoffsReceived.Load())
	counter(w, "mdes_serve_cluster_handoff_errors_total", "Moves that failed to ship or install, and transfers that failed to read or decode.", m.clusterHandoffErrors.Load())
	counter(w, "mdes_serve_cluster_pending_waits_total", "Tick requests answered 503 while awaiting a tenant's inbound handoff.", m.clusterPendingWaits.Load())
	counter(w, "mdes_serve_cluster_pending_expired_total", "Pending-handoff entries that hit their TTL and served fresh.", m.clusterPendingExpired.Load())
	gauge(w, "mdes_serve_cluster_peers_alive", "Peers this replica currently believes are alive.", float64(peersAlive))
	gauge(w, "mdes_serve_cluster_pending_tenants", "Tenants currently awaiting an inbound handoff.", float64(pendingTenants))
	gauge(w, "mdes_serve_cluster_owned_tenants", "Resident sessions whose ring owner is this replica.", float64(ownedTenants))
}

// writeStandby renders the warm-standby replication metrics. Queue counters
// come from the replication queue itself (the single source of truth for
// enqueue/coalesce/drop accounting); only called with a standby store
// configured, so standalone and plain-cluster /metrics output is unchanged.
func (m *metrics) writeStandby(w io.Writer, enq, coalesced, dropped, shipped, shipErrors int64, adopted, standbyHeld, queueDepth int) {
	counter(w, "mdes_serve_repl_enqueued_total", "Snapshot records accepted into the replication queue.", enq)
	counter(w, "mdes_serve_repl_coalesced_total", "Snapshot records folded onto an already-queued tenant.", coalesced)
	counter(w, "mdes_serve_repl_dropped_total", "Snapshot records dropped because the peer's replication queue was full.", dropped)
	counter(w, "mdes_serve_repl_shipped_total", "Snapshot records shipped to a standby and acknowledged.", shipped)
	counter(w, "mdes_serve_repl_ship_errors_total", "Snapshot ships that exhausted their retries.", shipErrors)
	counter(w, "mdes_serve_repl_received_total", "Standby snapshot copies received and persisted for peers.", m.replReceived.Load())
	counter(w, "mdes_serve_repl_promotions_total", "Sessions promoted from the standby store while their owner was down.", m.replPromotions.Load())
	counter(w, "mdes_serve_repl_ships_home_total", "Adopted or standby-held tenants shipped back to a revived owner.", m.replShipsHome.Load())
	counter(w, "mdes_serve_repl_store_errors_total", "Standby store reads or writes that failed.", m.replStoreErrors.Load())
	gauge(w, "mdes_serve_repl_adopted_sessions", "Resident sessions currently served on behalf of a down owner.", float64(adopted))
	gauge(w, "mdes_serve_repl_standby_tenants", "Tenant snapshot copies held in the standby store for peers.", float64(standbyHeld))
	gauge(w, "mdes_serve_repl_queue_depth", "Snapshot records buffered in the replication queue.", float64(queueDepth))
	m.replLag.write(w, "mdes_serve_repl_lag_seconds", "Replication lag from snapshot enqueue to standby acknowledgement.")
}
