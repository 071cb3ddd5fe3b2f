package cluster

import (
	"fmt"
	"sync"
	"time"
)

// PeerState is a node's local view of one peer. Views are not replicated:
// each node probes independently and routes by its own table, and any
// disagreement is absorbed by redirects and idempotent handoffs. A peer
// that is merely unreachable (Down) KEEPS its tenants — their state lives
// on its disk — and only an announced drain (Leaving → Gone), which ships
// every session out first, moves ownership.
type PeerState int

const (
	Alive   PeerState = iota // serving; owns its ring range
	Down                     // probes fail, no drain announced; still owns, and only its standby may serve its tenants (Adopt)
	Leaving                  // announced a drain; no longer an owner
	Gone                     // drained; revival is announced by a hello, never probed
)

func (s PeerState) String() string {
	if s < Alive || s > Gone {
		return fmt.Sprintf("PeerState(%d)", int(s))
	}
	return [...]string{"alive", "down", "leaving", "gone"}[s]
}

// owner reports whether the state retains ring ownership.
func (s PeerState) owner() bool { return s == Alive || s == Down }

// Table is one replica's whole ownership state: its view of every peer, the
// tenants pending an inbound handoff, and its lifecycle (joined, draining,
// stopped). Every routing decision of the serve layer — serve, adopt,
// redirect, refuse, where to replicate, who ships a copy home, where held
// state ships, whether a transfer may land — is one method here, answered
// from one locked reading. The table does no IO and reads no clock
// (callers pass now), which is what lets explore_test.go drive the real
// table through every event sequence of a small cluster. A table without a
// ring is a standalone server's: only the lifecycle rows apply.
type Table struct {
	ring    *Ring
	self    string
	ttl     time.Duration
	standby bool

	mu                        sync.Mutex
	states                    map[string]PeerState
	pending                   map[string]pend
	joined, draining, stopped bool
	rejoins                   int // Rejoin holds not yet done
}

// pend holds a tenant behind an inbound handoff: until when, and the ticks
// of the freshest state announced for it.
type pend struct {
	until time.Time
	ticks int
}

// NewTable builds self's table over ring with every peer Alive: a fresh
// cluster must route without waiting for a probe round, and a wrong
// optimistic guess only costs a redirect or a retried handoff. pendingTTL
// bounds a pend (0 selects 10s); standby enables adoption. A nil ring is a
// standalone server, joined from the start.
func NewTable(ring *Ring, self string, pendingTTL time.Duration, standby bool) *Table {
	if pendingTTL <= 0 {
		pendingTTL = 10 * time.Second
	}
	t := &Table{ring: ring, self: self, ttl: pendingTTL, standby: standby, joined: ring == nil,
		states: make(map[string]PeerState), pending: make(map[string]pend)}
	if ring != nil {
		for _, p := range ring.Peers() {
			t.states[p] = Alive
		}
	}
	return t
}

// Get returns the peer's state; an unknown peer reads as Gone.
func (t *Table) Get(peer string) PeerState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stateLocked(peer)
}

func (t *Table) stateLocked(peer string) PeerState {
	if s, ok := t.states[peer]; ok {
		return s
	}
	return Gone
}

// move sets a known peer to `to` — only from from[0], when given — and
// returns the state it had.
func (t *Table) move(peer string, to PeerState, from ...PeerState) (old PeerState, moved bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.states[peer]
	if !ok || old == to || len(from) > 0 && old != from[0] {
		return old, false
	}
	t.states[peer] = to
	return old, true
}

// Set records a state change and reports whether it was a change. Unknown
// peers are ignored (the peer list is static).
func (t *Table) Set(peer string, s PeerState) (changed bool) {
	_, changed = t.move(peer, s)
	return changed
}

// Transition moves peer from `from` to `to` as one compare-and-set, so a
// probe verdict never overwrites what a concurrent hello or leave wrote.
func (t *Table) Transition(peer string, from, to PeerState) bool {
	_, moved := t.move(peer, to, from)
	return moved
}

// Hello records a peer's hello — it is Alive, whatever it was — and reports
// whether it was Down: a recovery observation, which fires the same rejoin
// as a probe seeing it back.
func (t *Table) Hello(peer string) (wasDown bool) {
	old, moved := t.move(peer, Alive)
	return moved && old == Down
}

// Join marks the join exchange done: tenant requests stop answering 503.
func (t *Table) Join() { t.lifecycle(&t.joined) }

// Rejoin holds ticks and deletes back while the join exchange re-runs after
// a peer is seen back from Down, until done is called: nothing is written
// before every peer has been greeted and what each holds pended. Reads
// still pass, and the replica stays ready.
func (t *Table) Rejoin() (done func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rejoins++
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.rejoins--
	}
}

// BeginDrain stops admitting ticks and moves.
func (t *Table) BeginDrain() { t.lifecycle(&t.draining) }

// Stop marks the replica shut down and draining, and reports whether this
// call did it: only the first Shutdown runs.
func (t *Table) Stop() (first bool) { return !t.lifecycle(&t.stopped, &t.draining) }

// lifecycle sets lifecycle flags and reports whether the first was set.
func (t *Table) lifecycle(flags ...*bool) (was bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	was = *flags[0]
	for _, f := range flags {
		*f = true
	}
	return was
}

// Ready is the /readyz verdict: NoReason once joined and until a drain.
func (t *Table) Ready() Reason {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.draining:
		return Draining
	case !t.joined:
		return Joining
	}
	return NoReason
}

// Pend holds tenants behind an inbound handoff until state with at least
// the announced ticks lands (ticks[i] for tenants[i]; missing is 0) or the
// TTL runs out from now.
func (t *Table) Pend(tenants []string, ticks []int, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, name := range tenants {
		p := pend{until: now.Add(t.ttl), ticks: t.pending[name].ticks}
		if i < len(ticks) {
			p.ticks = max(p.ticks, ticks[i])
		}
		t.pending[name] = p
	}
}

// Landed reports state of tenant at ticks installed here, or local state
// covering that: it clears a pend that waits for no more. A fresher pend,
// announced while the install ran, stays.
func (t *Table) Landed(tenant string, ticks int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.pending[tenant]; ok && p.ticks <= ticks {
		delete(t.pending, tenant)
	}
}

// Verdict is Route's answer.
type Verdict int

const (
	Serve    Verdict = iota // this replica owns the tenant
	Adopt                   // its owner is Down and this is its standby: serve held state, never a fresh start
	Redirect                // answer 307 to Route.Owner
	Refuse                  // answer 503 + Retry-After, for Route.Why
)

// Reason says why Route refused or MayLand declined.
type Reason int

const (
	NoReason Reason = iota
	Stopped
	Joining
	OwnerDown // the owner is unreachable and this replica may not adopt
	Pending   // an inbound handoff has not landed yet
	Draining
)

var reasons = [...]string{"", "server is shut down", "cluster join in progress",
	"owner is unreachable", "migration in progress", "server is draining"}

func (r Reason) String() string { return reasons[r] }

// Route is the routing decision for one tenant request.
type Route struct {
	Verdict Verdict
	Why     Reason // set when Verdict is Refuse
	Owner   string // the tenant's ring owner under this view
	Expired bool   // this call dropped a pend past its TTL: the handoff is presumed lost
}

// Op is the kind of tenant request Route decides.
type Op int

const (
	Read   Op = iota // session reads: never held back
	Delete           // waits out pends
	Tick             // waits out pends, and is refused while draining or shut down
)

// Request is what a route needs to know of the request and of the caller's
// state. Have is the ticks of the tenant's resident session here, -1 for
// none, or Unread while the caller has not locked it: a pend then lets the
// request through, to be settled by the route the caller reads once it
// holds the session. A pend the session covers is stale — its handoff
// landed before the announcement — and is cleared.
type Request struct {
	Op   Op
	Have int
}

const Unread = -2

// Route decides a tenant request, in this order: a tick at a shut-down
// replica; not joined; a tenant owned elsewhere that this replica may not
// adopt redirects (or is refused while its owner is Down); a rejoin holds
// ticks and deletes; a pend holds them until its handoff lands — checked
// before adoption, so a standby never promotes the copy it holds while
// fresher state is on its way; a drain refuses ticks last, so a draining
// replica still redirects misrouted tenants.
func (t *Table) Route(tenant string, now time.Time, q Request) Route {
	t.mu.Lock()
	defer t.mu.Unlock()
	if q.Op == Tick && t.stopped {
		return Route{Verdict: Refuse, Why: Stopped}
	}
	if !t.joined {
		return Route{Verdict: Refuse, Why: Joining}
	}
	r := Route{Verdict: Serve, Owner: t.self}
	if t.ring != nil {
		if r.Owner = t.ownerLocked(tenant); r.Owner != t.self {
			switch {
			case t.adopterLocked(tenant, r.Owner) == t.self:
				r.Verdict = Adopt
			case r.Owner == "" || t.states[r.Owner] == Down:
				return Route{Verdict: Refuse, Why: OwnerDown, Owner: r.Owner}
			default:
				r.Verdict = Redirect
				return r
			}
		}
	}
	if q.Op == Read {
		return r
	}
	if t.rejoins > 0 {
		return Route{Verdict: Refuse, Why: Joining, Owner: r.Owner}
	}
	if p, ok := t.pending[tenant]; ok && q.Have != Unread {
		if !now.After(p.until) && q.Have < p.ticks {
			return Route{Verdict: Refuse, Why: Pending, Owner: r.Owner}
		}
		r.Expired = now.After(p.until)
		delete(t.pending, tenant)
	}
	if q.Op == Tick && t.draining {
		return Route{Verdict: Refuse, Why: Draining, Owner: r.Owner}
	}
	return r
}

// ownerLocked is the tenant's ring owner: Alive and Down peers own their
// ranges, Leaving and Gone peers have given theirs up.
func (t *Table) ownerLocked(tenant string) string {
	return t.ring.OwnerAmong(tenant, func(p string) bool { return t.stateLocked(p).owner() })
}

// adopterLocked is the replica that may serve tenant for its Down owner:
// the owner's first Alive ring successor, with standby on. "" otherwise.
func (t *Table) adopterLocked(tenant, owner string) string {
	if !t.standby || owner == "" || t.states[owner] != Down {
		return ""
	}
	return t.ring.SuccessorAmong(tenant, owner, func(p string) bool { return t.states[p] == Alive })
}

// Replica is where a just-persisted snapshot of tenant is copied: the first
// Alive ring successor of its owner other than this replica ("" for none).
// The copy is filed under owner (this replica when the tenant has none), so
// a copy of adopted state forwarded by a standby still ships home to the
// true owner.
func (t *Table) Replica(tenant string) (owner, target string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if owner = t.ownerLocked(tenant); owner == "" {
		owner = t.self
	}
	target = t.ring.SuccessorAmong(tenant, owner, func(p string) bool {
		return p != t.self && t.states[p] == Alive
	})
	return owner, target
}

// Shipper answers for a ship of tenant's held state to dest: the tenant's
// owner; whether this replica is its shipper — the owner's first ring
// successor among Alive peers (self always counts: a replica running this
// code is alive whatever its own entry says mid-drain), which keeps a copy
// of what it ships; and whether the standby copies held here go along.
// Copies ship only to their owner: from the shipper, whose copy is the
// freshest of the owner's stream, or from any holder when pulled — in
// answer to the owner's own hello, whose reply pends the copy's ticks
// first, so a staler copy cannot clear a fresher one's pend (MayLand).
// Unasked, a third replica's forwarded copy, typically staler, stays put.
func (t *Table) Shipper(tenant, dest string, pulled bool) (owner string, shipper, copies bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	owner = t.ownerLocked(tenant)
	shipper = owner != "" && t.ring.SuccessorAmong(tenant, owner, func(p string) bool {
		return p == t.self || t.states[p] == Alive
	}) == t.self
	return owner, shipper, owner == dest && (shipper || pulled)
}

// ShipTo is where state of tenant held here belongs — whoever may serve it:
// its owner when that is another Alive peer, its adopter while the owner is
// Down — or "" when that is this replica or nobody reachable. So a standby
// back from a crash takes over an adoption, and never serves the stale
// copy it holds.
func (t *Table) ShipTo(tenant string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	dest := t.ownerLocked(tenant)
	if dest != "" && t.states[dest] != Alive {
		dest = t.adopterLocked(tenant, dest)
	}
	if dest == t.self {
		return ""
	}
	return dest
}

// MayLand decides whether a transfer of tenant at ticks may install here: a
// shut-down replica takes nothing; a draining one files copies but refuses
// moves (the sender retries against its next view); and a move staler than
// what its tenant's pend waits for is refused, so it cannot clear the pend
// ahead of the fresher state.
func (t *Table) MayLand(tenant string, copy bool, ticks int) Reason {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.stopped:
		return Stopped
	case copy:
	case t.draining:
		return Draining
	case t.pending[tenant].ticks > ticks:
		return Pending
	}
	return NoReason
}

// Stats is the /metrics reading: Alive peers and tenants pending.
func (t *Table) Stats() (alive, pending int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.states {
		if s == Alive {
			alive++
		}
	}
	return alive, len(t.pending)
}
