package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"mdes"
)

// session is one tenant's online detector. Tick processing is serialised by
// mu — the single-writer-per-session ordering guarantee: whatever interleaving
// of requests arrives, each session's stream consumes its ticks one at a
// time, in the order the holder of mu feeds them.
type session struct {
	tenant string
	model  string // model registry name
	stream *mdes.Stream
	row    *mdes.Row // the tick being decoded (under mu)

	mu    sync.Mutex
	gone  bool // set under mu by retire; whoever locks a registered session checks it first
	dirty bool // ticks consumed since the last snapshot (under mu)
	// lastScore is the most recent successfully scored point, repeated as
	// the answer for degraded ticks (under mu).
	lastScore float64
	// degraded records whether the most recent emitted point was degraded
	// (under mu). It travels with snapshots and handoffs so a restored
	// session resumes degraded-mode accounting exactly where it left off.
	degraded bool
	// adopted marks a session promoted from this replica's warm-standby
	// store while its ring owner is Down (under mu). Adopted sessions serve
	// real state — degraded stays false — but only for as long as the owner
	// stays Down; the moment it returns, the ownership gate refuses further
	// ticks and the rebalance sweep ships the session home.
	adopted bool

	lastUsed time.Time // guarded by registry.mu (LRU/TTL bookkeeping)
}

// info captures a queryable view. Caller must hold s.mu.
func (s *session) infoLocked() SessionInfo {
	return SessionInfo{
		Tenant:       s.tenant,
		Model:        s.model,
		Ticks:        s.stream.Ticks(),
		Emitted:      s.stream.Emitted(),
		SentenceSpan: s.stream.SentenceSpan(),
		Degraded:     s.degraded,
		Adopted:      s.adopted,
	}
}

// errUnknownModel reports a snapshot naming a model this replica does not
// serve.
var errUnknownModel = errors.New("unknown model")

// load fills a claimed session from snap, in place: the stream restored on
// this server's scorer, its model and tick row, and the degraded-mode state
// it was saved with. It is the one way a record becomes session state
// (restart restore, move install, standby promotion); each caller marks the
// session dirty or adopted as its own rules require. On error the session
// is untouched.
func (s *Server) load(sess *session, snap sessionSnapshot) error {
	model, ok := s.opts.Models[snap.Model]
	if !ok {
		return fmt.Errorf("%w %q", errUnknownModel, snap.Model)
	}
	stream, err := model.RestoreStream(snap.Stream)
	if err != nil {
		return err
	}
	stream.SetScorer(s.scorer)
	sess.model, sess.stream, sess.row = snap.Model, stream, model.NewRow()
	sess.lastScore, sess.degraded, sess.adopted = snap.LastScore, snap.Degraded, false
	return nil
}

// registry owns the tenant → session map. Its lock guards only membership
// and recency: every session transition — start, restore, install, adopt,
// ship, delete, evict — runs under the tenant's own session lock, and store
// IO never runs under the registry's.
type registry struct {
	mu       sync.Mutex
	sessions map[string]*session
}

func newRegistry() *registry {
	return &registry{sessions: make(map[string]*session)}
}

// claim returns tenant's session with its mutex held: the resident one, or
// a new empty session registered in its place (fresh), which the caller
// must fill or retire before unlocking. Without wait, a resident session
// that is busy answers nil. A claim is the one way into the map.
func (r *registry) claim(tenant string, wait bool) (sess *session, fresh bool) {
	for {
		r.mu.Lock()
		sess = r.sessions[tenant]
		if sess == nil {
			sess = &session{tenant: tenant, lastUsed: time.Now()}
			sess.mu.TryLock() // new, so it cannot fail; Lock here would order registry.mu before session.mu
			r.sessions[tenant] = sess
			r.mu.Unlock()
			return sess, true
		}
		r.mu.Unlock()
		if wait {
			sess.mu.Lock()
		} else if !sess.mu.TryLock() {
			return nil, false
		}
		if !sess.gone {
			return sess, false
		}
		sess.mu.Unlock() // retired while we waited; the map has moved on
	}
}

// retire takes a claimed session out of the map for good and drops its
// mutex: anyone waiting on it sees gone and claims again. The other way out
// of the map.
func (r *registry) retire(sess *session) {
	sess.gone = true
	r.mu.Lock()
	delete(r.sessions, sess.tenant)
	r.mu.Unlock()
	sess.mu.Unlock()
}

// abandon ends a claim that failed: a fresh session, still empty, is
// retired; a resident one is unlocked as it was.
func (r *registry) abandon(sess *session, fresh bool) {
	if fresh {
		r.retire(sess)
	} else {
		sess.mu.Unlock()
	}
}

func (r *registry) get(tenant string) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions[tenant]
}

func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// touch refreshes a session's recency.
func (r *registry) touch(s *session) {
	r.mu.Lock()
	s.lastUsed = time.Now()
	r.mu.Unlock()
}

// all snapshots the current membership.
func (r *registry) all() []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	return out
}

// takeIdle locks every session idle since before the deadline, skipping
// sessions mid-request. The victims stay registered until evict retires
// them.
func (r *registry) takeIdle(deadline time.Time) []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	var victims []*session
	for _, s := range r.sessions {
		if !s.lastUsed.After(deadline) && s.mu.TryLock() {
			victims = append(victims, s)
		}
	}
	return victims
}

// takeLRU locks the least-recently-used sessions (other than keep) that
// hold the registry over capacity, oldest first, stopping at a busy one:
// over-cap by one beats stalling admission on a session that is serving.
// Like takeIdle's, the victims stay registered until evict retires them.
func (r *registry) takeLRU(capacity int, keep string) []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	var victims []*session
	for len(victims) < len(r.sessions)-capacity {
		var oldest *session
		for tenant, s := range r.sessions {
			if tenant != keep && !slices.Contains(victims, s) && (oldest == nil || s.lastUsed.Before(oldest.lastUsed)) {
				oldest = s
			}
		}
		if oldest == nil || !oldest.mu.TryLock() {
			break
		}
		victims = append(victims, oldest)
	}
	return victims
}
