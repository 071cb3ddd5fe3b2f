package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"mdes"
	"mdes/internal/cluster"
	"mdes/internal/faultfs"
)

// Options configures a Server.
type Options struct {
	// Models maps registry names to loaded models. Required, non-empty.
	Models map[string]*mdes.Model
	// DefaultModel names the model used by sessions that do not pass
	// ?model=. Optional when Models holds exactly one entry.
	DefaultModel string
	// SnapshotDir enables durability: session windows are checkpointed here
	// after every tick request, on eviction, and on shutdown, and sessions
	// restore from it lazily on their first request after a restart. Empty
	// disables durability (sessions are memory-only).
	SnapshotDir string
	// SessionTTL evicts sessions idle longer than this (snapshotting them
	// first when durability is on). 0 disables idle eviction.
	SessionTTL time.Duration
	// MaxSessions caps resident sessions; beyond it the least-recently-used
	// session is evicted. 0 means unlimited.
	MaxSessions int
	// MaxInflight bounds concurrently admitted tick requests — the explicit
	// backpressure knob. Requests beyond it receive 429 with a Retry-After
	// hint. 0 selects 2×GOMAXPROCS.
	MaxInflight int
	// ScoreWorkers sizes the shared pairwise-scoring pool. 0 selects
	// GOMAXPROCS.
	ScoreWorkers int
	// RetryAfter is the hint returned with 429 responses. 0 selects 1s.
	RetryAfter time.Duration
	// ScoreDeadline enables degraded-mode serving: a completed sentence
	// window that cannot be scored within this duration — or that hits a
	// missing pair model — is answered with the session's last valid score
	// and degraded=true instead of stalling or failing the NDJSON stream.
	// 0 keeps strict mode: scoring blocks as long as it takes, and a
	// missing model fails the request.
	ScoreDeadline time.Duration
	// FS overrides the filesystem snapshots live on; the fault-injection
	// harness passes a faultfs.InjectFS. Nil selects the real filesystem.
	FS faultfs.FS

	// Peers enables cluster mode: the full static replica list (base URLs,
	// including this replica's own). Every replica and every routing client
	// must be configured with the same list — tenant placement is derived
	// from it deterministically. Empty means standalone.
	Peers []string
	// Advertise is this replica's own base URL exactly as it appears in
	// Peers. Required with Peers.
	Advertise string
	// ProbeInterval is the peer health-check period. 0 selects 2s.
	ProbeInterval time.Duration
	// PendingTTL bounds how long ticks for a tenant announced as inbound
	// (mid-handoff) are answered 503 before the replica gives up waiting
	// and serves from local state. 0 selects 10s.
	PendingTTL time.Duration
	// ClusterClient is the HTTP client for internal cluster traffic
	// (probes, handoffs, announcements). Nil selects http.DefaultClient.
	ClusterClient *http.Client
	// StandbyDir enables warm-standby replication: after each durable local
	// snapshot save the snapshot is also shipped, asynchronously, to the
	// tenant's ring successor, which persists it here keyed by owner. When
	// a tenant's owner is Down, its standby promotes the replicated copy
	// and keeps the stream alive; the state ships home when the owner
	// returns. Requires cluster mode and SnapshotDir. Empty disables
	// replication (a down owner's tenants answer 503 until it returns).
	StandbyDir string
	// ReplQueueCap bounds the per-peer replication queue (distinct tenants
	// buffered per peer; entries coalesce newest-per-tenant). When the
	// queue is full new tenants are dropped, never blocking the tick path.
	// 0 selects 256.
	ReplQueueCap int
}

// maxTickLine bounds one NDJSON tick line; a tick is one small JSON object
// per sensor, so 1 MiB is generous even for thousands of sensors.
const maxTickLine = 1 << 20

// Server is the multi-tenant online detection server. Create it with New,
// mount it as an http.Handler, and call Shutdown after the HTTP listener has
// drained to persist every session.
type Server struct {
	opts Options
	mux  *http.ServeMux
	pool *scorePool
	reg  *registry
	met  metrics
	// series is the /metrics table, built once by New (metrics.go).
	series []series
	// store reads and writes every session record: snapshots and standby
	// copies (store.go).
	store *store

	// scorer is installed on every session stream. With a ScoreDeadline it
	// bounds each batch; tests may swap it before the first session exists.
	scorer func(jobs []mdes.ScoreJob, row []float64) error

	// table answers every routing decision and holds the lifecycle
	// (joined, draining, stopped); standalone, it has no ring.
	table *cluster.Table
	// cluster is non-nil in cluster mode (Options.Peers set); see
	// cluster.go for the sharding, redirect, and handoff machinery.
	cluster *clusterNode
	// repl is the warm-standby replication queue, non-nil when both cluster
	// mode and Options.StandbyDir are configured; see standby.go.
	repl *cluster.ReplQueue

	slots chan struct{} // admission tokens for tick requests

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New validates the options and starts the server's background machinery
// (scoring pool, idle janitor). The caller owns serving HTTP.
func New(opts Options) (*Server, error) {
	if len(opts.Models) == 0 {
		return nil, errors.New("serve: no models configured")
	}
	if opts.DefaultModel == "" {
		if len(opts.Models) == 1 {
			for name := range opts.Models {
				opts.DefaultModel = name
			}
		} else {
			return nil, errors.New("serve: DefaultModel required with multiple models")
		}
	}
	if _, ok := opts.Models[opts.DefaultModel]; !ok {
		return nil, fmt.Errorf("serve: default model %q not in Models", opts.DefaultModel)
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if opts.ScoreWorkers <= 0 {
		opts.ScoreWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS
	}
	// Nothing below creates the state directories; a missing one would only
	// surface later, as every snapshot or replicated copy failing to persist.
	for _, dir := range []string{opts.SnapshotDir, opts.StandbyDir} {
		if dir == "" {
			continue
		}
		err := removeTempFiles(opts.FS, dir)
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("serve: state directory must exist before New: %w", err)
		}
		if err != nil {
			// Leftover temp files are garbage, not state; the next start
			// retries.
			log.Printf("serve: remove leftover temp files in %s: %v", dir, err)
		}
	}

	s := &Server{
		opts:        opts,
		mux:         http.NewServeMux(),
		reg:         newRegistry(),
		store:       &store{files: newSlotFiles(opts.FS), snapDir: opts.SnapshotDir, standbyDir: opts.StandbyDir},
		slots:       make(chan struct{}, opts.MaxInflight),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	s.store.met = &s.met
	s.met.scoreLatency = newHistogram(scoreBuckets)
	s.met.replLag = newHistogram(replLagBuckets)
	s.pool = newScorePool(opts.ScoreWorkers, &s.met)
	if d := opts.ScoreDeadline; d > 0 {
		s.scorer = func(jobs []mdes.ScoreJob, row []float64) error {
			return s.pool.scoreWithin(jobs, row, d)
		}
	} else {
		s.scorer = s.pool.score
	}

	if err := s.setupCluster(opts); err != nil {
		s.pool.close()
		return nil, err
	}

	s.mux.HandleFunc("POST /v1/streams/{tenant}/ticks", s.handleTicks)
	s.mux.HandleFunc("GET /v1/streams/{tenant}", s.handleSession)
	s.mux.HandleFunc("DELETE /v1/streams/{tenant}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/streams", s.handleList)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cluster != nil {
		s.mux.HandleFunc("POST "+cluster.TransferPath, s.handleTransfer)
		s.mux.HandleFunc("POST "+cluster.UpdatePath, s.handleClusterUpdate)
		if opts.StandbyDir != "" {
			if opts.SnapshotDir == "" {
				s.pool.close()
				return nil, errors.New("serve: StandbyDir requires SnapshotDir (replication ships local snapshots)")
			}
			cn := s.cluster
			s.repl = &cluster.ReplQueue{
				Cap:   opts.ReplQueueCap,
				Ship:  cn.sender.Send, // replicateLocked offers copies
				Now:   time.Now,
				OnLag: func(d time.Duration) { s.met.replLag.observe(d) },
			}
			s.repl.Start(cn.ring.Peers(), cn.self)
		}
		s.cluster.prober.Start()
		go s.clusterJoin("hello", s.table.Join)
	}
	s.series = s.metricsTable()

	go s.janitor()
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// janitor evicts idle sessions on a cadence derived from the TTL.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	if s.opts.SessionTTL <= 0 {
		<-s.janitorStop
		return
	}
	interval := s.opts.SessionTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case now := <-t.C:
			s.evict(s.reg.takeIdle(now.Add(-s.opts.SessionTTL)))
		}
	}
}

// evict writes each locked victim's record, then retires it: a session
// leaves the registry only once its state is durable, so a request that
// claims it meanwhile waits and then restores what was written. A victim
// whose write fails (counted) stays resident, and the next round retries it.
func (s *Server) evict(victims []*session) {
	for _, v := range victims {
		if s.persistLocked(v) != nil {
			v.mu.Unlock()
			continue
		}
		s.reg.retire(v)
		s.met.sessionsEvicted.Add(1)
	}
}

// persistLocked writes the session's own record if durability is on and
// ticks arrived since the last write, then offers the same record to the
// tenant's warm standby: one marshal of the session per persist. Caller
// holds v.mu.
func (s *Server) persistLocked(v *session) error {
	if s.opts.SnapshotDir == "" || !v.dirty {
		return nil
	}
	h, err := s.store.record(snapshotOfLocked(v))
	if err != nil {
		s.met.snapshotErrors.Add(1)
		return err
	}
	if err := s.store.write("", h, nil); err != nil {
		return err
	}
	v.dirty = false
	s.met.snapshotWrites.Add(1)
	// Offer is a bounded map update — no IO, no blocking — so replication
	// stays off the tick path even while holding v.mu; the ship happens
	// asynchronously on the queue's drainer goroutines.
	s.replicateLocked(h)
	return nil
}

// acquire returns the tenant's session with its mutex held, starting it
// first if it is not resident. adoptFor is the tenant's Down owner when the
// gate answered Adopt: the claim then promotes held state (start). The
// non-nil error carries an HTTP status.
func (s *Server) acquire(tenant, wantModel, adoptFor string) (*session, int, error) {
	if tenant == "" {
		return nil, http.StatusBadRequest, errors.New("empty tenant")
	}
	sess, fresh := s.reg.claim(tenant, true)
	status, err := 0, error(nil)
	if fresh || adoptFor != "" {
		status, err = s.start(sess, fresh, wantModel, adoptFor)
	}
	if err == nil && !fresh && wantModel != "" && sess.model != wantModel {
		status, err = http.StatusConflict, fmt.Errorf("tenant %q is bound to model %q, not %q", tenant, sess.model, wantModel)
	}
	if err != nil {
		s.reg.abandon(sess, fresh)
		return nil, status, err
	}
	if fresh && s.opts.MaxSessions > 0 {
		s.evict(s.reg.takeLRU(s.opts.MaxSessions, tenant))
	}
	s.reg.touch(sess)
	return sess, 0, nil
}

// errNotHeld refuses an adoption with nothing held here to promote: the
// tenant waits for its owner, never fresh-started beside it.
var errNotHeld = errors.New("nothing held to adopt")

// start fills the claimed session from the tenant's freshest stored record
// (storedSnapshot: its snapshot, or a fresher standby copy held here) when
// that is fresher than what the session holds, or, fresh with none, starts
// its stream on wantModel (the default model when empty). An adoption
// (adoptFor) starts from held state only: a fresh session with no record is
// errNotHeld, and a resident one is reloaded from a fresher copy its owner
// replicated here since. The read runs under the tenant's lock only: a
// request for the tenant waits for it, any other tenant does not.
func (s *Server) start(sess *session, fresh bool, wantModel, adoptFor string) (int, error) {
	have := -1
	if !fresh {
		have = sess.stream.Ticks()
	}
	snap, ok, err := s.storedSnapshot(sess.tenant, have)
	switch {
	case ok:
	case !fresh:
		return 0, nil // nothing fresher than the resident session
	case err != nil:
		return http.StatusInternalServerError, err
	case adoptFor != "":
		return http.StatusServiceUnavailable, errNotHeld
	default:
		name := cmp.Or(wantModel, s.opts.DefaultModel)
		model, found := s.opts.Models[name]
		if !found {
			return http.StatusNotFound, fmt.Errorf("unknown model %q", name)
		}
		sess.model, sess.stream, sess.row = name, model.NewStream(), model.NewRow()
		sess.stream.SetScorer(s.scorer)
		s.met.sessionsStarted.Add(1)
		return 0, nil
	}
	if wantModel != "" && wantModel != snap.Model {
		return http.StatusConflict, fmt.Errorf("tenant %q has a snapshot for model %q, not %q", sess.tenant, snap.Model, wantModel)
	}
	if err := s.load(sess, snap); errors.Is(err, errUnknownModel) {
		return http.StatusNotFound, fmt.Errorf("tenant %q snapshot references %w", sess.tenant, err)
	} else if err != nil {
		return http.StatusInternalServerError, err
	}
	if adoptFor == "" {
		s.met.sessionsRestored.Add(1)
		return 0, nil
	}
	sess.dirty = true // the first release persists it here
	s.met.replPromotions.Add(1)
	log.Printf("serve: promoted tenant %q for %s at %d ticks", sess.tenant, adoptFor, snap.Stream.Ticks)
	return 0, nil
}

// release persists a dirty session and drops its mutex.
func (s *Server) release(sess *session) {
	s.persistLocked(sess)
	sess.mu.Unlock()
	s.reg.touch(sess)
}

// handleTicks is POST /v1/streams/{tenant}/ticks: NDJSON in (one tick object
// per line, sensor → event), NDJSON out (one detection point per completed
// sentence). 429 + Retry-After when the admission queue is full; a malformed
// or misaligned tick aborts the request with the offending tick NOT consumed
// (Push validates before mutating), so the client can fix and resend from
// that line.
func (s *Server) handleTicks(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	// Route first, admission second: a draining cluster replica must still
	// answer misrouted tenants with the owner's address (its own tenants
	// are mid-migration and get 503 + Retry-After), and a redirect must not
	// burn an admission slot.
	rt, ok := s.clusterGate(w, r, tenant, cluster.Tick)
	if !ok {
		return
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.met.ticksRejected.Add(1)
		s.retryAfterHeader(w)
		http.Error(w, "tick queue full", http.StatusTooManyRequests)
		return
	}
	defer func() { <-s.slots }()

	adoptFor := ""
	if rt.Verdict == cluster.Adopt {
		adoptFor = rt.Owner
	}
	sess, status, err := s.acquire(tenant, r.URL.Query().Get("model"), adoptFor)
	if errors.Is(err, errNotHeld) {
		s.refuseUnheld(w, r, tenant, rt.Owner)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	// Re-route now that the session lock is held: the gate's answer can go
	// stale if a rebalance ships this tenant away between gate and acquire
	// (ticking a re-created stream would fork it), and a pend the gate let
	// through is settled against the session's ticks.
	if s.cluster != nil {
		rt = s.table.Route(tenant, time.Now(), cluster.Request{Op: cluster.Tick, Have: sess.stream.Ticks()})
		if rt.Expired {
			s.met.clusterPendingExpired.Add(1)
		}
	}
	if rt.Verdict == cluster.Adopt {
		sess.adopted = true // served for exactly as long as the owner stays Down
	} else if rt.Verdict != cluster.Serve {
		s.release(sess)
		s.answerRoute(w, r, tenant, rt)
		return
	}
	defer s.release(sess)
	// Runs before release, so the stream's count is read under the session
	// lock: one atomic add per request, not per relationship.
	memoHits := sess.stream.MemoHits()
	defer func() { s.met.scoreMemoHits.Add(int64(sess.stream.MemoHits() - memoHits)) }()

	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	// Points stream out while ticks are still being read in; without full
	// duplex the HTTP/1 server closes the unread body on the first response
	// write, truncating the request mid-tick.
	if err := rc.EnableFullDuplex(); err != nil {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Full duplex disables the server's own pre-response body drain, so a
	// handler that aborts mid-stream leaves unread bytes on the connection —
	// and net/http then panics with "invalid concurrent Body.Read call" when
	// it peeks for the next request. Drain a bounded amount on the way out
	// (a no-op on the happy path, where the scanner reached EOF) and close
	// the body so an over-limit upload poisons only its own connection.
	defer func() {
		_, _ = io.CopyN(io.Discard, r.Body, maxTickLine)
		_ = r.Body.Close()
	}()
	var line []byte // one point line, reused for the request's points
	wrote := false
	fail := func(code int, msg string) {
		if !wrote {
			http.Error(w, msg, code)
			return
		}
		// The status line is gone; surface the error as an NDJSON trailer.
		json.NewEncoder(w).Encode(wireError{Error: msg})
	}
	// emit writes one point line and flushes it; false means the client went
	// away (or the point cannot be encoded).
	emit := func(p *mdes.Point, degraded bool) bool {
		var err error
		if line, err = appendPoint(line[:0], p, degraded); err != nil {
			return false
		}
		if _, err := w.Write(line); err != nil {
			return false
		}
		wrote = true
		return rc.Flush() == nil
	}

	sc := tickScanner(r.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue // blank lines separate nothing
		}
		if err := decodeTick(line, sess.row); err != nil {
			s.met.tickErrors.Add(1)
			fail(http.StatusBadRequest, fmt.Sprintf("tick %d: %v", sess.stream.Ticks(), err))
			return
		}
		p, err := sess.stream.PushRow(sess.row)
		if err != nil {
			// Degraded mode: a scoring deadline miss or missing pair model
			// answers the tick with the last valid score instead of stalling
			// or failing the stream. The tick itself was consumed (Push
			// validated it before scoring), so the skipped point index is
			// claimed to keep snapshots restorable.
			if s.opts.ScoreDeadline > 0 && s.classifyDegraded(err) {
				s.met.ticksIngested.Add(1)
				s.met.degradedTicks.Add(1)
				sess.dirty = true
				sess.degraded = true
				if !emit(&mdes.Point{T: sess.stream.SkipEmit(), Score: sess.lastScore}, true) {
					return
				}
				continue
			}
			s.met.tickErrors.Add(1)
			fail(http.StatusBadRequest, err.Error())
			return
		}
		s.met.ticksIngested.Add(1)
		sess.dirty = true
		if p != nil {
			sess.lastScore = p.Score
			sess.degraded = false
			if !emit(p, false) {
				return
			}
			s.met.pointsEmitted.Add(1)
		}
	}
	if err := sc.Err(); err != nil {
		fail(http.StatusBadRequest, fmt.Sprintf("read ticks: %v", err))
	}
}

// classifyDegraded reports whether a Push error is one of the degradable
// fault classes, bumping the matching fault counter.
func (s *Server) classifyDegraded(err error) bool {
	switch {
	case errors.Is(err, ErrScoreDeadline):
		s.met.deadlineMisses.Add(1)
		return true
	case errors.Is(err, mdes.ErrNoPairModel):
		s.met.missingModelTicks.Add(1)
		return true
	}
	return false
}

// handleSession is GET /v1/streams/{tenant}: the live session's counters, or
// for a tenant with no resident session the counters of the state its next
// tick would restore (its snapshot, or a fresher standby copy held here).
// A read never promotes: at an adopter with nothing held it answers 503
// like a tick.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	rt, ok := s.clusterGate(w, r, tenant, cluster.Read)
	if !ok {
		return
	}
	if sess := s.reg.get(tenant); sess != nil {
		sess.mu.Lock()
		info, live := SessionInfo{}, !sess.gone
		if live {
			info = sess.infoLocked()
		}
		sess.mu.Unlock()
		if live {
			writeJSON(w, info)
			return
		}
	}
	snap, ok, err := s.storedSnapshot(tenant, -1)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if ok {
		info := SessionInfo{
			Tenant:   tenant,
			Model:    snap.Model,
			Ticks:    snap.Stream.Ticks,
			Emitted:  snap.Stream.Emitted,
			Degraded: snap.Degraded,
		}
		if model, found := s.opts.Models[snap.Model]; found {
			info.SentenceSpan = model.Config().Language.Span()
		}
		writeJSON(w, info)
		return
	}
	if rt.Verdict == cluster.Adopt {
		s.refuseUnheld(w, r, tenant, rt.Owner)
		return
	}
	http.Error(w, fmt.Sprintf("no session for tenant %q", tenant), http.StatusNotFound)
}

// handleDelete is DELETE /v1/streams/{tenant}: removes the tenant's snapshot
// and the standby copies held here for any owner (sessions restore from
// those too), then ends the session — the tenant's next tick starts a fresh
// window. The tenant stays claimed through the removals, so a tick racing
// the delete either lands before it (and is deleted) or after it. Like a
// read, a delete never promotes, and at an adopter with nothing held it
// answers 503.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	rt, ok := s.clusterGate(w, r, tenant, cluster.Delete)
	if !ok {
		return
	}
	sess, fresh := s.reg.claim(tenant, true)
	if fresh && rt.Verdict == cluster.Adopt {
		if _, ok, _, _ := s.stored(tenant, true); !ok {
			s.reg.retire(sess)
			s.refuseUnheld(w, r, tenant, rt.Owner)
			return
		}
	}
	err := s.store.drop(tenant)
	s.reg.retire(sess)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleList is GET /v1/streams: the live sessions.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	sessions := s.reg.all()
	infos := make([]SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		sess.mu.Lock()
		if !sess.gone {
			infos = append(infos, sess.infoLocked())
		}
		sess.mu.Unlock()
	}
	writeJSON(w, infos)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writeSeries(w, s.series)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if why := s.table.Ready(); why != cluster.NoReason {
		http.Error(w, why.String(), http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// retryAfterHeader sets the Retry-After hint from Options.RetryAfter. A
// sub-second configuration renders as "0": retry immediately at the
// client's own backoff pace (test and soak configurations want this; the
// production default stays 1).
func (s *Server) retryAfterHeader(w http.ResponseWriter) {
	secs := int(s.opts.RetryAfter.Round(time.Second) / time.Second)
	if secs < 0 {
		secs = 0
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// BeginDrain flips the server not-ready: /readyz turns 503 (so load
// balancers stop routing here) and new tick requests are refused. Call it
// before shutting the HTTP listener down so in-flight requests finish while
// no new ones start.
func (s *Server) BeginDrain() { s.table.BeginDrain() }

// SessionsLive reports the resident session count.
func (s *Server) SessionsLive() int { return s.reg.len() }

// Shutdown persists every resident session and stops the background
// machinery. Call it after the HTTP server has drained (http.Server.Shutdown)
// so no request still holds a session. Further calls are no-ops.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.table.Stop() {
		return nil
	}
	s.stopCluster()
	close(s.janitorStop)
	<-s.janitorDone

	var firstErr error
	for _, sess := range s.reg.all() {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		sess.mu.Lock()
		if !sess.gone {
			//mdes:allow(lockcall) drain-time only: the server has stopped accepting ticks, and the session lock guarantees the record is the final state
			if err := s.persistLocked(sess); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sess.mu.Unlock()
	}
	s.pool.close()
	return firstErr
}
