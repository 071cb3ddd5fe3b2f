package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"time"

	"mdes/internal/cluster"
)

// Cluster mode turns N independent mdes-serve replicas into one sharded
// deployment. Every ownership decision — serve, adopt, redirect, refuse,
// replicate, ship, land — is one cluster.Table method; this file does the IO
// those decisions call for. DESIGN.md §8 states the invariants, each with
// its table row and its test.
type clusterNode struct {
	self   string
	ring   *cluster.Ring
	sender *cluster.Sender
	prober *cluster.Prober
	httpc  *http.Client

	// ctx bounds all background cluster IO (join hellos, rebalance ships);
	// Shutdown cancels it.
	ctx    context.Context
	cancel context.CancelFunc
}

// maxHandoffBody bounds one inbound transfer body. Session snapshots are
// rolling windows, far below this. A variable only so tests can reach it.
var maxHandoffBody = 1 << 26

// setupCluster wires the cluster node and the ownership table from Options;
// standalone mode gets a table without a ring and no cluster node.
func (s *Server) setupCluster(opts Options) error {
	if len(opts.Peers) == 0 && opts.Advertise == "" {
		s.table = cluster.NewTable(nil, "", 0, false)
		return nil
	}
	if len(opts.Peers) == 0 || opts.Advertise == "" {
		return errors.New("serve: Peers and Advertise must be set together")
	}
	ring, err := cluster.NewRing(opts.Peers, 0)
	if err != nil {
		return err
	}
	if !slices.Contains(ring.Peers(), opts.Advertise) {
		return fmt.Errorf("serve: Advertise %q is not in Peers", opts.Advertise)
	}
	httpc := opts.ClusterClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.table = cluster.NewTable(ring, opts.Advertise, opts.PendingTTL, opts.StandbyDir != "")
	s.store.self, s.store.owners = opts.Advertise, ring.Peers()
	cn := &clusterNode{
		self:   opts.Advertise,
		ring:   ring,
		sender: &cluster.Sender{HTTPClient: httpc},
		httpc:  httpc,
		ctx:    ctx,
		cancel: cancel,
	}
	cn.prober = &cluster.Prober{
		Peers:    ring.Peers(),
		Self:     cn.self,
		Table:    s.table,
		Probe:    s.probePeer,
		Interval: opts.ProbeInterval,
		// A revived peer may be missing state that moved while it was
		// away (tenants adopted by standbys, or everything, after a disk
		// loss); the rejoin exchange pends and ships it home.
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

// onPeerChange re-runs the join when a peer is seen back from Down, by a
// probe or by its hello. It greets every peer, not only the one that came
// back: this replica's view may have missed another peer's verdict on it
// (its probes of that peer never failed twice), and that peer may still be
// adopting tenants this replica owns. Ticks and deletes wait (Table.Rejoin)
// until every peer has been greeted; the rest runs in the background, as
// OnChange must not block the probe loop.
func (s *Server) onPeerChange(_ string, _, to cluster.PeerState) {
	if to != cluster.Alive || s.table.Ready() == cluster.Draining {
		return
	}
	go s.clusterJoin("rejoin", s.table.Rejoin())
}

// shipHeld announces to peer, as inbound, what is held here for it, then
// ships it. A failed announcement does not stop the ships: briefly stale
// state on the peer beats stranding the fresher copy here.
func (s *Server) shipHeld(ctx context.Context, peer string) {
	cn := s.cluster
	if names, ticks := s.tenantsHeldFor(peer, false); len(names) > 0 {
		_, _ = cn.sender.SendUpdate(ctx, peer, cluster.PeerUpdate{Kind: "inbound", From: cn.self, Tenants: names, Ticks: ticks})
		s.shipTenants(peer, names, false)
	}
}

// tenantsHeldFor lists the tenants with state here — session, snapshot or
// standby copy — that belongs on peer (Table.ShipTo), with the ticks ship
// would send: the announcement pends exactly what ships. pulled marks an
// answer to peer's own hello (Table.Shipper).
func (s *Server) tenantsHeldFor(peer string, pulled bool) (names []string, ticks []int) {
	for _, t := range s.localTenants(true) {
		if s.table.ShipTo(t) != peer {
			continue
		}
		if n := s.heldTicks(t, peer, pulled); n >= 0 {
			names, ticks = append(names, t), append(ticks, n)
		}
	}
	return names, ticks
}

// heldTicks is how many ticks the state of tenant that ship would send to
// peer has (held); -1 for none.
func (s *Server) heldTicks(tenant, peer string, pulled bool) int {
	live := -1
	if sess := s.reg.get(tenant); sess != nil {
		sess.mu.Lock()
		if !sess.gone {
			live = sess.stream.Ticks()
		}
		sess.mu.Unlock()
	}
	_, _, copies := s.table.Shipper(tenant, peer, pulled)
	n, _ := s.held(tenant, live, copies)
	return n
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

// clusterJoin greets every peer it sees Alive with kind (PeerUpdate) and
// pends what each holds for this replica, then calls joined (Table.Join at
// start, the done of a Table.Rejoin after a recovery), which lets ticks
// through. A peer down or mid-restart is skipped: when it is seen back, the
// join runs again. Then
// it ships each peer it reached what is held here for it — state stranded
// by a failed drain or a view change while a replica was away, or a
// standby copy whose owner restarted without it — and re-offers every
// resident session for replication: persists made under a stale view never
// reached the standby it names now (after a two-way partition heals, the
// victim holds nothing of its peers' yet its copies went stale). Every
// message is idempotent, so overlapping joins converge on one outcome.
func (s *Server) clusterJoin(kind string, joined func()) {
	cn := s.cluster
	var reached []string
	for _, p := range cn.ring.Peers() {
		if p == cn.self || cn.ctx.Err() != nil || s.table.Get(p) != cluster.Alive {
			continue
		}
		if s.hello(cn.ctx, p, kind) {
			reached = append(reached, p)
		}
	}
	if cn.ctx.Err() != nil {
		return
	}
	joined()
	for _, p := range reached {
		s.shipHeld(cn.ctx, p)
	}
	for _, sess := range s.reg.all() {
		sess.mu.Lock()
		if !sess.gone {
			if h, err := s.store.record(snapshotOfLocked(sess)); err == nil {
				s.replicateLocked(h)
			}
		}
		sess.mu.Unlock()
	}
}

// hello greets peer with kind ("hello" or "rejoin") and pends what it holds
// for this replica; false when the peer did not answer.
func (s *Server) hello(ctx context.Context, peer, kind string) bool {
	cn := s.cluster
	reply, err := cn.sender.SendUpdate(ctx, peer, cluster.PeerUpdate{Kind: kind, From: cn.self})
	if err != nil {
		return false
	}
	s.table.Pend(reply.Tenants, reply.Ticks, time.Now())
	return true
}

// clusterGate routes a tenant-scoped request with one Table.Route reading:
// the route and true to proceed, false after writing the 307/503.
func (s *Server) clusterGate(w http.ResponseWriter, r *http.Request, tenant string, op cluster.Op) (cluster.Route, bool) {
	have := -1
	if s.cluster != nil && s.reg.get(tenant) != nil {
		have = cluster.Unread
	}
	rt := s.table.Route(tenant, time.Now(), cluster.Request{Op: op, Have: have})
	if rt.Expired {
		s.met.clusterPendingExpired.Add(1)
	}
	if rt.Verdict == cluster.Serve || rt.Verdict == cluster.Adopt {
		return rt, true // an adoption is promoted by acquire, under the tenant's claim
	}
	s.answerRoute(w, r, tenant, rt)
	return rt, false
}

// refuseUnheld answers a request let through to adopt tenant when nothing
// of it is held here: 503 owner down, as a replica without a standby store
// answers. Its state is on its owner, and a fresh start here would fork it.
func (s *Server) refuseUnheld(w http.ResponseWriter, r *http.Request, tenant, owner string) {
	s.answerRoute(w, r, tenant, cluster.Route{Verdict: cluster.Refuse, Why: cluster.OwnerDown, Owner: owner})
}

// answerRoute writes the response for a route that does not proceed: 307
// with the owner's address, or 503 with its reason.
func (s *Server) answerRoute(w http.ResponseWriter, r *http.Request, tenant string, rt cluster.Route) {
	if rt.Verdict == cluster.Redirect {
		s.met.clusterRedirects.Add(1)
		w.Header().Set("Location", rt.Owner+r.URL.RequestURI())
		s.retryAfterHeader(w)
		http.Error(w, fmt.Sprintf("tenant %q is owned by %s", tenant, rt.Owner), http.StatusTemporaryRedirect)
		return
	}
	if rt.Why == cluster.Pending {
		s.met.clusterPendingWaits.Add(1)
	}
	if s.cluster != nil { // a standalone drain has no peer to retry against
		s.retryAfterHeader(w)
	}
	http.Error(w, fmt.Sprintf("tenant %q: %s", tenant, rt.Why), http.StatusServiceUnavailable)
}

// ownedCount counts resident sessions whose ring owner is this replica
// (metrics gauge).
func (s *Server) ownedCount() int64 {
	n := int64(0)
	for _, sess := range s.reg.all() {
		if s.table.Route(sess.tenant, time.Time{}, cluster.Request{}).Owner == s.cluster.self {
			n++
		}
	}
	return n
}

// localTenants lists, sorted and once each, the tenants with a session or
// a snapshot here — and with copies, those with a standby copy too.
func (s *Server) localTenants(copies bool) []string {
	var out []string
	for _, sess := range s.reg.all() {
		out = append(out, sess.tenant)
	}
	out = append(out, s.store.tenants(true, copies)...)
	sort.Strings(out)
	return slices.Compact(out)
}

// shipTenants ships the named tenants to peer, re-checking each one's
// destination in case the view moved since the list was computed.
func (s *Server) shipTenants(peer string, tenants []string, pulled bool) {
	cn := s.cluster
	for _, t := range tenants {
		if cn.ctx.Err() != nil {
			return
		}
		if s.table.ShipTo(t) != peer {
			continue
		}
		_ = s.ship(cn.ctx, peer, t, pulled)
	}
}

// ship freezes one tenant's state under its claim — the resident session,
// at a request boundary, else the stored record — retires the session and
// ships the state to peer, after every lock is released. An ack deletes the
// local snapshot; a failure persists the frozen state back.
func (s *Server) ship(ctx context.Context, peer, tenant string, pulled bool) error {
	cn := s.cluster
	sess, fresh := s.reg.claim(tenant, true)
	owner, shipper, copies := s.table.Shipper(tenant, peer, pulled)
	var h cluster.Handoff
	var err error
	have, frozen, wasAdopted, fromCopy := !fresh, !fresh, sess.adopted, false
	if frozen {
		h, err = s.store.record(snapshotOfLocked(sess))
	} else {
		h, have, fromCopy, err = s.stored(tenant, copies)
	}
	s.reg.retire(sess)
	if err != nil {
		if frozen {
			s.met.clusterHandoffErrors.Add(1)
		}
		return err
	}
	if !have {
		return nil // nothing to ship (e.g. deleted concurrently)
	}
	h.From, h.Copy = cn.self, false
	if err := cn.sender.Send(ctx, peer, h); err != nil {
		s.met.clusterHandoffErrors.Add(1)
		if frozen && s.opts.SnapshotDir != "" {
			_ = s.store.write("", h, nil) // counted
		}
		return err
	}
	s.met.clusterHandoffsSent.Add(1)
	if wasAdopted || fromCopy {
		s.met.replShipsHome.Add(1)
	}
	_ = s.store.drop(tenant, "")
	// The live successor keeps what it shipped as its warm copy: a no-copy
	// window until the next persist would strand the tenant if a partition
	// landed in it. Any other holder's copy is superseded and dropped.
	switch {
	case s.opts.StandbyDir == "" || owner == "":
	case shipper && !fromCopy:
		hc := h
		hc.From, hc.Copy = owner, true // a copy is filed under its OWNER, not the shipper
		if frame, err := cluster.EncodeHandoff(hc); err == nil {
			_, _ = s.keepCopy(hc, frame) // counted; the ship itself succeeded
		}
	case !shipper:
		_ = s.store.drop(tenant, owner) // counted
	}
	return nil
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
	if why := s.table.MayLand(h.Tenant, h.Copy, h.Ticks); why != cluster.NoReason {
		// Shut down: nothing lands. Draining: moves wait for the sender's
		// next view. Pending: a fresher copy is on its way. Nothing is
		// written, and the sender retries.
		s.retryAfterHeader(w)
		http.Error(w, why.String(), http.StatusServiceUnavailable)
		return
	}
	if h.Copy {
		s.storeCopy(w, h, frame)
		return
	}
	s.installMove(w, snap)
}

// installMove is handleTransfer's move branch: claim the tenant without
// waiting (busy answers 503), and load the migrated state in place unless
// local state already covers it (held, its own record only, read under the
// tenant lock).
func (s *Server) installMove(w http.ResponseWriter, snap sessionSnapshot) {
	sess, fresh := s.reg.claim(snap.Tenant, false)
	if sess == nil {
		s.retryAfterHeader(w)
		http.Error(w, fmt.Sprintf("tenant %q busy", snap.Tenant), http.StatusServiceUnavailable)
		return
	}
	live := -1
	if !fresh {
		live = sess.stream.Ticks()
	}
	have, err := s.held(snap.Tenant, live, false)
	if err != nil {
		// The evicted session on disk may be fresher than this frame;
		// installing over what cannot be read could lose its ticks.
		s.reg.abandon(sess, fresh)
		s.retryAfterHeader(w)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if have >= snap.Stream.Ticks {
		// Duplicate or stale: local state already covers it.
		s.reg.abandon(sess, fresh)
		s.table.Landed(snap.Tenant, have)
		w.WriteHeader(http.StatusOK)
		return
	}
	if err := s.load(sess, snap); err != nil {
		s.reg.abandon(sess, fresh)
		s.met.clusterHandoffErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Persist before acking: the ack authorises the sender to delete its
	// copy, so the durable one must exist here first. A write failure is
	// tolerated the same way ordinary snapshot failures are (counter +
	// in-memory state), and the sender's retry dedupes as a no-op.
	sess.dirty = true
	s.release(sess)
	s.table.Landed(snap.Tenant, snap.Stream.Ticks)
	s.met.clusterHandoffsReceived.Add(1)
	w.WriteHeader(http.StatusOK)
}

// handleClusterUpdate is POST /v1/cluster/update: peer announcements
// (cluster.PeerUpdate).
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
	if !slices.Contains(cn.ring.Peers(), u.From) {
		http.Error(w, fmt.Sprintf("unknown peer %q", u.From), http.StatusBadRequest)
		return
	}
	switch u.Kind {
	case "hello", "rejoin":
		// A greeting from a Down peer is a recovery observation: it fires
		// the same rejoin as a probe would, which the prober's next success
		// (Alive != Down) no longer can.
		if s.table.Hello(u.From) {
			s.onPeerChange(u.From, cluster.Down, cluster.Alive)
		}
		pulled := u.Kind == "hello"
		held, ticks := s.tenantsHeldFor(u.From, pulled)
		writeJSON(w, cluster.PeerUpdateReply{Tenants: held, Ticks: ticks})
		if len(held) > 0 && s.table.Ready() != cluster.Draining {
			go s.shipTenants(u.From, held, pulled)
		}
	case "leave":
		s.table.Set(u.From, cluster.Gone)
		s.table.Pend(u.Tenants, u.Ticks, time.Now())
		writeJSON(w, cluster.PeerUpdateReply{})
	case "inbound":
		// Pend what the sender is about to ship. The view is untouched:
		// "inbound" must never resurrect a Gone peer.
		s.table.Pend(u.Tenants, u.Ticks, time.Now())
		writeJSON(w, cluster.PeerUpdateReply{})
	default:
		http.Error(w, fmt.Sprintf("unknown update kind %q", u.Kind), http.StatusBadRequest)
	}
}

// DrainToPeers migrates every locally held tenant to its new owner: mark
// self leaving, announce the drain (receivers pend what they are about to
// get), then freeze and ship each tenant. Call it on SIGTERM while the HTTP
// listener still accepts, and shut the listener down after it returns.
// Returns how many tenants moved.
func (s *Server) DrainToPeers(ctx context.Context) (moved int, err error) {
	cn := s.cluster
	if cn == nil {
		return 0, nil
	}
	s.BeginDrain()
	s.table.Set(cn.self, cluster.Leaving)

	plan := make(map[string]*cluster.PeerUpdate) // the leave each peer gets
	for _, p := range cn.ring.Peers() {
		plan[p] = &cluster.PeerUpdate{Kind: "leave", From: cn.self}
	}
	var firstErr error
	for _, t := range s.localTenants(false) {
		dest := s.table.ShipTo(t)
		if dest == "" {
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: no live owner to drain tenant %q to", t)
			}
			continue
		}
		plan[dest].Tenants = append(plan[dest].Tenants, t)
		plan[dest].Ticks = append(plan[dest].Ticks, max(s.heldTicks(t, dest, false), 0))
	}
	delete(plan, cn.self)
	for p, u := range plan {
		if _, err := cn.sender.SendUpdate(ctx, p, *u); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for p, u := range plan {
		for _, t := range u.Tenants {
			if err := ctx.Err(); err != nil {
				return moved, err
			}
			if err := s.ship(ctx, p, t, false); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			moved++
		}
	}
	s.table.Set(cn.self, cluster.Gone)
	return moved, firstErr
}
