package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mdes/internal/cluster"
)

// Cluster mode turns N independent mdes-serve replicas into one sharded
// deployment. The pieces, and the invariants they keep:
//
//   - Single owner: a consistent-hash ring over the static peer list
//     assigns every tenant to exactly one replica. Non-owners never touch a
//     tenant's stream — they answer 307 with the owner's address (or 503
//     when the owner is unreachable, because an unreachable owner still
//     OWNS: its tenants' state is on its disk, and adopting them fresh
//     would silently diverge).
//   - Boundary-aligned moves: a migration freezes the session by taking its
//     mutex, which serialises with tick requests — the snapshot is always
//     taken at a request boundary, never mid-stream.
//   - Idempotent handoff: the snapshot ships CRC-framed; the receiver keeps
//     whichever state has consumed more ticks, so retries, crossed
//     deliveries, and duplicate ships are all no-ops.
//   - No fresh-start races: a replica that learns it is about to receive a
//     tenant (via a drain announcement or a join reply) holds that tenant
//     "pending" and answers its ticks 503 + Retry-After until the handoff
//     lands, bounded by PendingTTL.
type clusterNode struct {
	self   string
	ring   *cluster.Ring
	mem    *cluster.Membership
	sender *cluster.Sender
	prober *cluster.Prober
	httpc  *http.Client

	joined     atomic.Bool
	pendingTTL time.Duration

	// ctx bounds all background cluster IO (join hellos, rebalance ships);
	// Shutdown cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	pending map[string]time.Time // tenant -> deadline for its inbound handoff
}

// maxHandoffBody bounds one inbound transfer body. Session snapshots are
// rolling windows, far below this. A variable only so tests can reach it.
var maxHandoffBody = 1 << 26

// setupCluster wires the cluster node from Options; a nil return with
// s.cluster == nil means standalone mode.
func (s *Server) setupCluster(opts Options) error {
	if len(opts.Peers) == 0 && opts.Advertise == "" {
		return nil
	}
	if len(opts.Peers) == 0 || opts.Advertise == "" {
		return errors.New("serve: Peers and Advertise must be set together")
	}
	ring, err := cluster.NewRing(opts.Peers, 0)
	if err != nil {
		return err
	}
	self := false
	for _, p := range ring.Peers() {
		if p == opts.Advertise {
			self = true
		}
	}
	if !self {
		return fmt.Errorf("serve: Advertise %q is not in Peers", opts.Advertise)
	}
	ttl := opts.PendingTTL
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	httpc := opts.ClusterClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	ctx, cancel := context.WithCancel(context.Background())
	cn := &clusterNode{
		self:       opts.Advertise,
		ring:       ring,
		mem:        cluster.NewMembership(ring.Peers()),
		sender:     &cluster.Sender{HTTPClient: httpc},
		httpc:      httpc,
		pendingTTL: ttl,
		ctx:        ctx,
		cancel:     cancel,
		pending:    make(map[string]time.Time),
	}
	cn.prober = &cluster.Prober{
		Peers:    ring.Peers(),
		Self:     cn.self,
		Mem:      cn.mem,
		Probe:    s.probePeer,
		Interval: opts.ProbeInterval,
		// A revived peer may be missing state that moved while it was
		// away (tenants adopted by standbys, or everything, after a disk
		// loss); the resync exchange pends and ships it home.
		OnChange: s.onPeerChange,
	}
	s.cluster = cn
	return nil
}

// stopCluster halts the background cluster machinery; safe without one.
func (s *Server) stopCluster() {
	if cn := s.cluster; cn != nil {
		cn.cancel()
		cn.prober.Stop()
	}
	if q := s.repl; q != nil {
		q.Stop()
	}
}

// onPeerChange reacts to probe-observed state transitions. Only recovery
// needs action: a peer back from Down may have stale state (its tenants were
// adopted by their standbys while it was unreachable) or none at all. The
// resync runs in the background — OnChange fires on a prober goroutine and
// must not block the probe loop.
func (s *Server) onPeerChange(peer string, _, to cluster.PeerState) {
	if to != cluster.Alive || s.draining.Load() {
		return
	}
	cn := s.cluster
	go s.resyncPeer(cn.ctx, peer)
}

// resyncPeer runs the two-sided recovery exchange with a revived peer:
//
//  1. Hello: ask the peer which of OUR tenants it holds (it may have
//     adopted them while we were partitioned from it); pend those until its
//     handoffs land, so we never serve a stale local copy.
//  2. Ship home: for tenants the PEER owns that we hold — adopted sessions,
//     stranded snapshots, standby copies — announce them as inbound (the
//     peer pends them instead of serving its own stale state) and ship.
//
// Every message is idempotent, so overlapping resyncs (flapping link, both
// sides recovering at once) converge on the same outcome.
func (s *Server) resyncPeer(ctx context.Context, peer string) {
	cn := s.cluster
	if reply, err := cn.sender.SendUpdate(ctx, peer, cluster.PeerUpdate{Kind: "hello", From: cn.self}); err == nil {
		cn.setPending(reply.Tenants)
	}
	if ctx.Err() != nil {
		return
	}
	if toShip := s.tenantsHeldFor(peer); len(toShip) > 0 {
		// Best-effort: if the announcement fails the ship still proceeds —
		// the peer then risks serving briefly stale state (bounded by the
		// ship landing), which beats stranding the fresher copy here.
		_, _ = cn.sender.SendUpdate(ctx, peer, cluster.PeerUpdate{Kind: "inbound", From: cn.self, Tenants: toShip})
		s.shipTenants(peer, toShip)
	}
	// Re-seed warm standbys: persists that happened while this replica's
	// view of the peer was stale (partitioned, or the peer dead) never
	// reached it, so any resident session whose replication target is the
	// revived peer is re-offered now. This must run even when nothing ships
	// home — after a two-way partition heals, the victim typically holds
	// nothing owned by the revived peer, yet its own post-heal persists were
	// mis-targeted while its view was stale and the standby would stay stale
	// forever. The queue coalesces per tenant, so a sweep over every
	// resident session costs at most one frame each.
	s.reseedReplication()
}

// reseedReplication re-offers every resident session to the replication
// queue against the current membership view. Cheap and idempotent: the
// receiver ignores frames at or below the ticks it already holds.
func (s *Server) reseedReplication() {
	if s.repl == nil {
		return
	}
	for _, sess := range s.reg.all() {
		sess.mu.Lock()
		s.replicateLocked(sess.tenant, snapshotOfLocked(sess))
		sess.mu.Unlock()
	}
}

// tenantsHeldFor lists every tenant with state on this replica whose ring
// owner is peer: resident (possibly adopted) sessions, local snapshots, and
// standby-store copies held on the peer's behalf.
func (s *Server) tenantsHeldFor(peer string) []string {
	seen := make(map[string]struct{})
	for _, t := range s.tenantsOwnedBy(peer) {
		seen[t] = struct{}{}
	}
	if s.opts.StandbyDir != "" {
		names, err := standbyTenantsFor(s.fs, s.opts.StandbyDir, peer)
		if err != nil {
			s.met.replStoreErrors.Add(1)
		}
		for _, t := range names {
			seen[t] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// standbyShipper resolves which replica is responsible for shipping a
// standby copy of tenant home to owner under this replica's current view:
// the tenant's ring successor among peers that are Alive (self always
// counts — a replica running this code is alive regardless of what its own
// membership entry says mid-drain).
func (s *Server) standbyShipper(tenant, owner string) string {
	cn := s.cluster
	states := cn.mem.Snapshot()
	return cn.ring.SuccessorAmong(tenant, owner, func(p string) bool {
		return p == cn.self || states[p] == cluster.Alive
	})
}

// probePeer is the Prober's health check: one GET of the peer's /healthz.
// It runs on the prober's own goroutines, never under any lock.
func (s *Server) probePeer(ctx context.Context, peer string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := s.cluster.httpc.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	_ = resp.Body.Close() // health verdict is the status code, already read
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: peer %s health %s", peer, resp.Status)
	}
	return nil
}

// clusterJoin announces this replica to every peer and collects, from each
// reply, the tenants that peer holds but this replica owns — they become
// pending until their handoffs land. Runs once in the background at
// startup; the server answers tenant requests 503 until it completes.
func (s *Server) clusterJoin() {
	cn := s.cluster
	for _, p := range cn.ring.Peers() {
		if p == cn.self || cn.ctx.Err() != nil {
			continue
		}
		reply, err := cn.sender.SendUpdate(cn.ctx, p, cluster.PeerUpdate{Kind: "hello", From: cn.self})
		if err != nil {
			// Peer down or mid-restart: the prober tracks it, and when it
			// rejoins its own hello triggers the exchange from its side.
			continue
		}
		cn.setPending(reply.Tenants)
	}
	if cn.ctx.Err() != nil {
		return
	}
	cn.joined.Store(true)
	// Ship anything held here that the ring assigns elsewhere — state
	// stranded by a failed drain or an ownership change while this
	// replica was down.
	s.shipMisplaced()
}

// owner resolves the tenant's owner under this replica's current view:
// Alive and Down peers own their ranges; Leaving/Gone peers have given
// theirs up. One membership snapshot per resolution keeps the ring walk
// lock-free.
func (cn *clusterNode) owner(tenant string) string {
	states := cn.mem.Snapshot()
	return cn.ring.OwnerAmong(tenant, func(p string) bool {
		st := states[p]
		return st == cluster.Alive || st == cluster.Down
	})
}

// pendingVerdict classifies a tenant's pending-handoff state.
type pendingVerdict int

const (
	pendingNone pendingVerdict = iota
	pendingWaiting
	pendingExpired
)

func (cn *clusterNode) setPending(tenants []string) {
	if len(tenants) == 0 {
		return
	}
	deadline := time.Now().Add(cn.pendingTTL)
	cn.mu.Lock()
	for _, t := range tenants {
		cn.pending[t] = deadline
	}
	cn.mu.Unlock()
}

func (cn *clusterNode) clearPending(tenant string) {
	cn.mu.Lock()
	delete(cn.pending, tenant)
	cn.mu.Unlock()
}

// checkPending reports whether tenant's ticks must wait for an inbound
// handoff. An entry past its TTL is dropped: the handoff is presumed lost
// and the tenant serves from whatever state exists locally.
func (cn *clusterNode) checkPending(tenant string) pendingVerdict {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	deadline, ok := cn.pending[tenant]
	if !ok {
		return pendingNone
	}
	if time.Now().After(deadline) {
		delete(cn.pending, tenant)
		return pendingExpired
	}
	return pendingWaiting
}

func (cn *clusterNode) pendingCount() int {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return len(cn.pending)
}

// clusterGate decides whether this replica should handle a tenant-scoped
// request. It returns true to proceed; false after writing the 307/503
// response. checkPending gates tick ingestion behind inbound migrations;
// read-only handlers pass false.
func (s *Server) clusterGate(w http.ResponseWriter, r *http.Request, tenant string, checkPending bool) bool {
	cn := s.cluster
	if cn == nil {
		return true
	}
	if !cn.joined.Load() {
		s.retryAfterHeader(w)
		http.Error(w, "cluster join in progress", http.StatusServiceUnavailable)
		return false
	}
	if owner := cn.owner(tenant); owner != cn.self {
		// Warm-standby promotion: if the owner is Down and this replica is
		// the tenant's standby with a replicated copy, adopt and serve it
		// rather than stalling the stream behind the outage. The checks run
		// per request against the live view, so the standby stops serving
		// the instant the owner is probed back to Alive.
		if !s.tryAdopt(tenant, owner) {
			s.clusterMisroute(w, r, tenant, owner)
			return false
		}
	}
	if checkPending {
		switch cn.checkPending(tenant) {
		case pendingWaiting:
			if s.reg.get(tenant) != nil {
				// The handoff already landed (installs can race the
				// pending announcement); the stale entry must not block.
				cn.clearPending(tenant)
				return true
			}
			s.met.clusterPendingWaits.Add(1)
			s.retryAfterHeader(w)
			http.Error(w, fmt.Sprintf("tenant %q migration in progress", tenant), http.StatusServiceUnavailable)
			return false
		case pendingExpired:
			s.met.clusterPendingExpired.Add(1)
		}
	}
	return true
}

// clusterMisroute answers a request for a tenant owned elsewhere: 307 with
// the owner's address, or 503 when the owner is known-unreachable (its
// state is stranded with it; the client must retry until it returns).
func (s *Server) clusterMisroute(w http.ResponseWriter, r *http.Request, tenant, owner string) {
	cn := s.cluster
	if owner == "" || cn.mem.Get(owner) == cluster.Down {
		s.retryAfterHeader(w)
		http.Error(w, fmt.Sprintf("tenant %q owner is unreachable", tenant), http.StatusServiceUnavailable)
		return
	}
	s.met.clusterRedirects.Add(1)
	w.Header().Set("Location", owner+r.URL.RequestURI())
	s.retryAfterHeader(w)
	http.Error(w, fmt.Sprintf("tenant %q is owned by %s", tenant, owner), http.StatusTemporaryRedirect)
}

// localTenants enumerates every tenant with state on this replica:
// resident sessions plus disk snapshots.
func (s *Server) localTenants() []string {
	seen := make(map[string]struct{})
	for _, sess := range s.reg.all() {
		seen[sess.tenant] = struct{}{}
	}
	if s.opts.SnapshotDir != "" {
		names, err := listTenants(s.fs, s.opts.SnapshotDir, "", ".snap")
		if err != nil {
			s.met.snapshotLoadErrors.Add(1)
		}
		for _, t := range names {
			seen[t] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// tenantsOwnedBy returns the locally held tenants whose ring owner is peer.
func (s *Server) tenantsOwnedBy(peer string) []string {
	cn := s.cluster
	var out []string
	for _, t := range s.localTenants() {
		if cn.owner(t) == peer {
			out = append(out, t)
		}
	}
	return out
}

// shipMisplaced ships every locally held tenant whose owner is another
// (reachable) replica. Idempotent: a duplicate ship is dropped by the
// receiver's more-ticks-wins rule.
func (s *Server) shipMisplaced() {
	cn := s.cluster
	for _, tenant := range s.localTenants() {
		if cn.ctx.Err() != nil {
			return
		}
		owner := cn.owner(tenant)
		if owner == "" || owner == cn.self || cn.mem.Get(owner) != cluster.Alive {
			continue
		}
		_ = s.shipTenant(cn.ctx, owner, tenant)
	}
}

// shipTenants ships the named tenants to peer, re-checking ownership per
// tenant in case the view moved since the list was computed.
func (s *Server) shipTenants(peer string, tenants []string) {
	cn := s.cluster
	for _, t := range tenants {
		if cn.ctx.Err() != nil {
			return
		}
		if cn.owner(t) != peer {
			continue
		}
		_ = s.shipTenant(cn.ctx, peer, t)
	}
}

// shipTenant freezes one tenant's state and ships it to peer. The freeze
// takes the session mutex, so it serialises after any in-flight tick
// request — the snapshot is request-boundary aligned by construction. On a
// successful ack the local snapshot is deleted (the receiver holds the only
// authoritative copy now); on failure the frozen state is persisted back so
// nothing is lost. All network IO happens after every lock is released.
func (s *Server) shipTenant(ctx context.Context, peer, tenant string) error {
	cn := s.cluster
	var snap sessionSnapshot
	have, frozen, wasAdopted := false, false, false
	if sess := s.reg.get(tenant); sess != nil {
		sess.mu.Lock()
		if !sess.gone {
			sess.gone = true
			snap = snapshotOfLocked(sess)
			have, frozen = true, true
			wasAdopted = sess.adopted
			s.reg.remove(sess)
		}
		sess.mu.Unlock()
	}
	if !have && s.opts.SnapshotDir != "" {
		var ok bool
		var err error
		snap, ok, err = s.loadSnapshotNoted(tenant)
		if err != nil {
			s.met.snapshotLoadErrors.Add(1)
			return err
		}
		have = ok
	}
	// Last resort: a standby copy held on the destination's behalf. This is
	// what restores a wiped owner, and it also covers the second-order
	// failure where the adopting standby itself died and only the copy it
	// forwarded elsewhere survives. The receiver's more-ticks-wins rule
	// makes shipping a redundant copy (owner's disk was fine all along) a
	// harmless ack — but only the tenant's LIVE successor may ship one: a
	// third replica's forwarded copy is typically staler than the
	// successor's, and its install would clear the owner's pend before the
	// fresh state lands, opening exactly the tick-fork window the pend
	// exists to close. If the successor is down, the ring's next live pick
	// (which is what this check resolves to) inherits the duty.
	fromStandby := false
	if !have && s.opts.StandbyDir != "" && s.standbyShipper(tenant, peer) == cn.self {
		h, ok, err := loadStandby(s.fs, s.opts.StandbyDir, peer, tenant)
		if err != nil {
			s.met.replStoreErrors.Add(1)
			return err
		}
		if ok {
			if snap, err = handoffSnapshot(h); err != nil {
				s.met.replStoreErrors.Add(1)
				return fmt.Errorf("serve: standby copy for %q: %w", tenant, err)
			}
			have, fromStandby = true, true
		}
	}
	if !have {
		return nil // nothing to ship (e.g. deleted concurrently)
	}
	h, err := handoffOf(tenant, snap, cn.self, false)
	if err != nil {
		s.met.clusterHandoffErrors.Add(1)
		return err
	}
	if err := cn.sender.Send(ctx, peer, h); err != nil {
		s.met.clusterHandoffErrors.Add(1)
		if frozen && s.opts.SnapshotDir != "" {
			if err2 := saveSnapshot(s.files, s.opts.SnapshotDir, tenant, snap); err2 != nil {
				s.met.snapshotErrors.Add(1)
			}
		}
		return err
	}
	s.met.clusterHandoffsSent.Add(1)
	if wasAdopted || fromStandby {
		s.met.replShipsHome.Add(1)
	}
	if s.opts.SnapshotDir != "" && !fromStandby {
		_ = deleteSnapshot(s.files, s.opts.SnapshotDir, tenant)
	}
	// What happens to the standby copy after an acked ship depends on who we
	// are. If this replica is the tenant's live standby successor, the state
	// just shipped IS the owner's current state — keep it (or write it) as
	// the warm copy, so the tenant stays adoptable in the gap before the
	// owner's next persist re-seeds replication. Deleting here opens a
	// no-copy window, and a partition landing inside it strands the tenant:
	// the owner is unreachable and the successor has nothing to promote.
	// Any other replica's copy really is superseded — drop it so a later
	// flap cannot re-ship stale state.
	if s.opts.StandbyDir != "" {
		if s.standbyShipper(tenant, peer) == cn.self {
			if !fromStandby {
				hc := h
				hc.From, hc.Copy = peer, true // a copy is filed under its OWNER, not the shipper
				if frame, err := cluster.EncodeHandoff(hc); err == nil {
					_, _ = s.keepCopy(hc, frame) // counted; the ship itself succeeded
				}
			}
		} else if err := deleteStandby(s.files, s.opts.StandbyDir, peer, tenant); err != nil {
			s.met.replStoreErrors.Add(1)
		}
	}
	return nil
}

// handoffSnapshot decodes the session a handoff frame carries and checks it
// against the envelope — the one reading of a cluster.Handoff every consumer
// (transfer receipt, standby promotion, standby ship-home) goes through. The
// envelope's Tenant/Ticks/Model duplicate the payload so more-ticks-wins can
// be decided without decoding it. They must agree: a disagreement means the
// sender framed one session's metadata around another session's payload, and
// acting on either reading could lose ticks silently.
func handoffSnapshot(h cluster.Handoff) (sessionSnapshot, error) {
	var snap sessionSnapshot
	if err := json.Unmarshal(h.Payload, &snap); err != nil {
		return sessionSnapshot{}, fmt.Errorf("decode handoff payload: %v", err)
	}
	if snap.Tenant != h.Tenant || snap.Stream.Ticks != h.Ticks || snap.Model != h.Model {
		return sessionSnapshot{}, fmt.Errorf("handoff envelope/payload mismatch: envelope says %q at %d ticks on model %q, payload %q at %d ticks on model %q",
			h.Tenant, h.Ticks, h.Model, snap.Tenant, snap.Stream.Ticks, snap.Model)
	}
	return snap, nil
}

// handoffOf frames tenant's snapshot as a transfer from `from`, a standby
// copy when copy is set: the inverse of handoffSnapshot.
func handoffOf(tenant string, snap sessionSnapshot, from string, copy bool) (cluster.Handoff, error) {
	payload, err := json.Marshal(snap)
	if err != nil {
		return cluster.Handoff{}, fmt.Errorf("serve: encode handoff for %q: %w", tenant, err)
	}
	return cluster.Handoff{Tenant: tenant, Model: snap.Model, Ticks: snap.Stream.Ticks, From: from, Copy: copy, Payload: payload}, nil
}

// handleTransfer is POST /v1/cluster/transfer: one tenant's CRC-framed
// snapshot, either moving ownership here (installMove) or feeding this
// replica's warm-standby store (storeCopy, when h.Copy is set). The reading
// is shared and runs before any lock: a bounded read, the frame check, and
// the envelope check. Each branch then keeps whichever state has consumed
// more ticks, so duplicate, stale and crossed deliveries ack 200 untouched.
func (s *Server) handleTransfer(w http.ResponseWriter, r *http.Request) {
	fail := func(status int, msg string) {
		s.met.clusterHandoffErrors.Add(1)
		if status == http.StatusServiceUnavailable {
			s.retryAfterHeader(w)
		}
		http.Error(w, msg, status)
	}
	frame, err := io.ReadAll(io.LimitReader(r.Body, int64(maxHandoffBody)+1))
	if err != nil {
		// The body was cut on its way in; the sender's copy is intact.
		fail(http.StatusServiceUnavailable, fmt.Sprintf("read transfer: %v", err))
		return
	}
	if len(frame) > maxHandoffBody {
		// Terminal: a resend carries the same frame, which can never fit.
		fail(http.StatusRequestEntityTooLarge, fmt.Sprintf("transfer body over %d bytes", maxHandoffBody))
		return
	}
	h, err := cluster.DecodeHandoff(frame)
	if errors.Is(err, cluster.ErrBadFrame) {
		// A short or CRC-broken frame is transmission damage — the sender's
		// copy is intact, so answer retryable instead of terminal. (A
		// terminal 400 here would permanently strand a tenant whose transfer
		// happened to cross a flaky link once.)
		fail(http.StatusServiceUnavailable, err.Error())
		return
	}
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	// Checked before either branch's more-ticks-wins comparison: an envelope
	// that overstates its payload's ticks must not displace fresher state.
	snap, err := handoffSnapshot(h)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	if h.Copy {
		s.storeCopy(w, h, frame)
		return
	}
	s.installMove(w, snap)
}

// installMove is handleTransfer's move branch: restore the migrated tenant
// (before any lock) and install it unless local state already covers it.
func (s *Server) installMove(w http.ResponseWriter, snap sessionSnapshot) {
	cn := s.cluster
	if s.draining.Load() {
		// A drainer must not accept new tenants; the sender retries
		// against the next view.
		s.retryAfterHeader(w)
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	sess, err := s.restoreSession(snap.Tenant, snap)
	if err != nil {
		s.met.clusterHandoffErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sess.dirty = true

	s.reg.mu.Lock()
	if existing := s.reg.sessions[snap.Tenant]; existing != nil {
		if !existing.mu.TryLock() {
			s.reg.mu.Unlock()
			s.retryAfterHeader(w)
			http.Error(w, fmt.Sprintf("tenant %q busy", snap.Tenant), http.StatusServiceUnavailable)
			return
		}
		if existing.stream.Ticks() >= snap.Stream.Ticks {
			// Duplicate or stale: local state already covers it.
			existing.mu.Unlock()
			s.reg.mu.Unlock()
			cn.clearPending(snap.Tenant)
			w.WriteHeader(http.StatusOK)
			return
		}
		existing.gone = true
		existing.mu.Unlock()
		delete(s.reg.sessions, snap.Tenant)
	} else if s.opts.SnapshotDir != "" {
		//mdes:allow(lockcall) install must be atomic with the registry check; one snapshot read on the migration path only, never per-tick
		old, ok, _, err := loadSnapshot(s.fs, s.opts.SnapshotDir, snap.Tenant)
		if err != nil {
			// The evicted session on disk may be fresher than this frame;
			// installing over what cannot be read could lose its ticks.
			s.reg.mu.Unlock()
			s.met.snapshotLoadErrors.Add(1)
			s.retryAfterHeader(w)
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		if ok && old.Stream.Ticks >= snap.Stream.Ticks {
			s.reg.mu.Unlock()
			cn.clearPending(snap.Tenant)
			w.WriteHeader(http.StatusOK)
			return
		}
	}
	s.reg.sessions[snap.Tenant] = sess
	s.reg.mu.Unlock()

	// Persist before acking: the ack authorises the sender to delete its
	// copy, so the durable one must exist here first. A write failure is
	// tolerated the same way ordinary snapshot failures are (counter +
	// in-memory state), and the sender's retry dedupes as a no-op.
	if s.opts.SnapshotDir != "" {
		sess.mu.Lock()
		//mdes:allow(lockcall) persist-before-ack on the migration path only, never per-tick; the session lock pins the exact state being acknowledged
		s.persistLocked(sess)
		sess.mu.Unlock()
	}
	cn.clearPending(snap.Tenant)
	s.met.clusterHandoffsReceived.Add(1)
	w.WriteHeader(http.StatusOK)
}

// handleClusterUpdate is POST /v1/cluster/update: peer announcements.
// "hello" marks the sender alive and replies with the tenants it should now
// own (then ships them in the background); "leave" marks it gone and pends
// the tenants it is about to ship here.
func (s *Server) handleClusterUpdate(w http.ResponseWriter, r *http.Request) {
	cn := s.cluster
	var u cluster.PeerUpdate
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&u); err != nil {
		// Updates arrive only from cluster peers, whose bodies are
		// well-formed by construction — a decode failure here is almost
		// certainly transmission damage (a connection cut mid-body). Answer
		// retryable: a terminal 400 would make the sender drop a hello or
		// inbound announcement whose pend is load-bearing, opening a
		// fresh-start fork window on the tenant it was protecting.
		s.retryAfterHeader(w)
		http.Error(w, fmt.Sprintf("decode update: %v", err), http.StatusServiceUnavailable)
		return
	}
	known := false
	for _, p := range cn.ring.Peers() {
		if p == u.From {
			known = true
		}
	}
	if !known {
		http.Error(w, fmt.Sprintf("unknown peer %q", u.From), http.StatusBadRequest)
		return
	}
	switch u.Kind {
	case "hello":
		// A hello proves the sender is reachable again. If we still had it
		// marked Down, this is a recovery observation just like a prober
		// success, and must fire the same resync hook: a bare mem.Set here
		// would leave the prober's next success a no-op (Alive != Down), so
		// no resyncPeer would ever run on THIS side — and a standby offer
		// made under the stale Down view (mis-targeted past the "dead"
		// successor) would stay stranded until the next natural persist.
		prev := cn.mem.Get(u.From)
		if cn.mem.Set(u.From, cluster.Alive) && prev == cluster.Down {
			s.onPeerChange(u.From, prev, cluster.Alive)
		}
		// Held state includes standby copies kept on the sender's behalf:
		// a sender restarting on a wiped disk recovers everything its
		// standbys replicated, through the same pend-then-ship exchange
		// that recovers ordinary stranded snapshots.
		held := s.tenantsHeldFor(u.From)
		writeJSON(w, cluster.PeerUpdateReply{Tenants: held})
		if len(held) > 0 && !s.draining.Load() {
			go s.shipTenants(u.From, held)
		}
	case "leave":
		cn.mem.Set(u.From, cluster.Gone)
		cn.setPending(u.Tenants)
		writeJSON(w, cluster.PeerUpdateReply{})
	case "inbound":
		// The sender is about to ship us tenants we own (typically adopted
		// state after our own outage healed). Pend them so their ticks wait
		// for the fresher copy instead of being served from stale local
		// state. Membership is untouched — reachability is the prober's
		// call, and "inbound" must never resurrect a Gone peer.
		cn.setPending(u.Tenants)
		writeJSON(w, cluster.PeerUpdateReply{})
	default:
		http.Error(w, fmt.Sprintf("unknown update kind %q", u.Kind), http.StatusBadRequest)
	}
}

// DrainToPeers migrates every locally held tenant to its new owner: mark
// self leaving (ownership rehashes onto the survivors), announce the drain
// to every peer — receivers pend the tenants they are about to own, closing
// the window where a rerouted tick could fresh-start a divergent stream —
// then freeze and ship each tenant. Call it on SIGTERM while the HTTP
// listener is still accepting, so peers and clients can still be answered;
// shut the listener down after it returns. Returns how many tenants moved.
func (s *Server) DrainToPeers(ctx context.Context) (moved int, err error) {
	cn := s.cluster
	if cn == nil {
		return 0, nil
	}
	s.BeginDrain()
	cn.mem.Set(cn.self, cluster.Leaving)

	plan := make(map[string][]string)
	var firstErr error
	for _, t := range s.localTenants() {
		owner := cn.owner(t)
		if owner == "" || owner == cn.self || cn.mem.Get(owner) != cluster.Alive {
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: no live owner to drain tenant %q to", t)
			}
			continue
		}
		plan[owner] = append(plan[owner], t)
	}
	for _, p := range cn.ring.Peers() {
		if p == cn.self {
			continue
		}
		if _, err := cn.sender.SendUpdate(ctx, p, cluster.PeerUpdate{Kind: "leave", From: cn.self, Tenants: plan[p]}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for p, tenants := range plan {
		for _, t := range tenants {
			if err := ctx.Err(); err != nil {
				return moved, err
			}
			if err := s.shipTenant(ctx, p, t); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			moved++
		}
	}
	cn.mem.Set(cn.self, cluster.Gone)
	return moved, firstErr
}
