package serve

import (
	"errors"
	"fmt"
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
	gone  bool // set under mu when evicted or deleted; lock holders must retry
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

// restoreSession is the one way a snapshot becomes a session: the stream
// restored on this server's scorer, carrying the degraded-mode state it was
// saved with. It touches no registry; each caller (restart restore, move
// install, standby promotion) applies its own registry rules and marks the
// session dirty or adopted as those rules require.
func (s *Server) restoreSession(tenant string, snap sessionSnapshot) (*session, error) {
	model, ok := s.opts.Models[snap.Model]
	if !ok {
		return nil, fmt.Errorf("%w %q", errUnknownModel, snap.Model)
	}
	stream, err := model.RestoreStream(snap.Stream)
	if err != nil {
		return nil, err
	}
	stream.SetScorer(s.scorer)
	return &session{
		tenant:    tenant,
		model:     snap.Model,
		stream:    stream,
		row:       model.NewRow(),
		lastScore: snap.LastScore,
		degraded:  snap.Degraded,
		lastUsed:  time.Now(),
	}, nil
}

// registry owns the tenant → session map. It only guards membership and
// recency; tick processing happens under each session's own mutex, never
// under the registry's.
type registry struct {
	mu       sync.Mutex
	sessions map[string]*session
}

func newRegistry() *registry {
	return &registry{sessions: make(map[string]*session)}
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

// remove drops a session from the map if it is still the registered one.
func (r *registry) remove(s *session) {
	r.mu.Lock()
	if r.sessions[s.tenant] == s {
		delete(r.sessions, s.tenant)
	}
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

// takeIdle claims every session idle since before the deadline: each victim
// is locked (skipping sessions mid-request), marked gone, and removed from
// the map. The caller snapshots and unlocks them.
func (r *registry) takeIdle(deadline time.Time) []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	var victims []*session
	for tenant, s := range r.sessions {
		if s.lastUsed.After(deadline) {
			continue
		}
		if !s.mu.TryLock() {
			continue // mid-request; it is not idle after all
		}
		s.gone = true
		delete(r.sessions, tenant)
		victims = append(victims, s)
	}
	return victims
}

// takeLRULocked claims up to n least-recently-used sessions (other than
// keep), locked and marked gone like takeIdle. Used when a new session would
// push the registry over its cap; the caller already holds r.mu.
func (r *registry) takeLRULocked(n int, keep string) []*session {
	var victims []*session
	for len(victims) < n {
		var oldest *session
		for tenant, s := range r.sessions {
			if tenant == keep {
				continue
			}
			if oldest == nil || s.lastUsed.Before(oldest.lastUsed) {
				oldest = s
			}
		}
		if oldest == nil {
			break
		}
		if !oldest.mu.TryLock() {
			// Busy; over-cap by one beats stalling admission on a session
			// that is actively serving.
			break
		}
		oldest.gone = true
		delete(r.sessions, oldest.tenant)
		victims = append(victims, oldest)
	}
	return victims
}
