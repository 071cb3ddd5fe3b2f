package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"strings"
	"testing"
	"time"
)

// The explorer drives the real Table of 3 replicas through every sequence
// of cluster events up to a depth, and checks the ownership invariants of
// DESIGN.md §8 after each one. Serve's IO is modelled by the rules §8
// states, not run:
//
//   - a tick request is one critical section under the session lock: route
//     (Table.Route), restore or adopt, consume one tick, persist, offer the
//     new snapshot to the replica Table.Replica names. A crash before the
//     persist is the same state as a crash before the tick, so persist and
//     offer ride in the tick's step;
//   - transfers install by more-ticks-wins, persist before they ack, and
//     the sender deletes its snapshot only on the ack; copies are filed
//     under the tenant's owner and kept by more-ticks-wins;
//   - a path has at most exFaults faults, a crash or a drain each (a
//     restart, wiped or not, ends a crash's outage), at most exMaxMsgs
//     messages in flight, and a drain only on a settled cluster (see
//     drain);
//   - probes see the truth (crashes, not partitions): a probe finds a
//     running peer up and a crashed one down. Disagreeing views of live
//     peers are TestPartitionHealSoak's, not the explorer's;
//   - hellos, their replies and the resync exchange run in the step of the
//     event that causes them; the moves they start are messages, delivered
//     by their own events. A crash drops the crashed replica's outbox, and
//     fails every message addressed to it: the sender's retries run out
//     before it returns, and the sender still holds what it sent.
//
// A pend never expires here: its TTL is a liveness escape, and the
// explorer checks safety only.
//
// At every tick it asserts, for the tenant's stream:
//
//   - no lost tick: the serving replica's state is not staler than any
//     session or snapshot a running replica holds or a move carries;
//   - no fresh start while a copy exists, standby copies included;
//   - no adoption of a copy staler than one another replica holds;
//   - at most one writer: no other running replica holds a resident
//     session its own table would serve.
//
// Acked ticks that survive only on a crashed replica's disk, or nowhere,
// are beyond the replication contract (replication is asynchronous); a path
// that serves past such a loss is cut there, not reported.

const (
	exReplicas = 3
	exTenants  = 2 // array size; a run uses 1 or 2
	exMaxMsgs  = 6
	exFaults   = 2
)

// exNow is the explorer's clock: pends are set and checked at one instant
// and so never expire.
var exNow = time.Unix(0, 0)

type exRep struct {
	up, joined, draining, stopped bool
	view                          [exReplicas]PeerState
	pend                          [exTenants]int8 // announced ticks; -1 none
	sess, snap                    [exTenants]int8 // ticks; -1 none
	adopted                       [exTenants]bool
	copies                        [exReplicas][exTenants]int8 // by owner; -1 none
}

const (
	exCopy = iota
	exMove
)

type exMsg struct {
	kind, from, to, tenant, ticks int8
	owner                         int8 // a copy's owner; a move's owner under the sender's view (-1 none)
	fromStandby, shipper          bool
}

type exWorld struct {
	r      [exReplicas]exRep
	msgs   [exMaxMsgs]exMsg
	n      int8
	acked  [exTenants]int8
	faults int8 // crashes and drains so far
}

type exEvent struct {
	kind    byte // t tick, d deliver, p probe, c crash, r restart, w wipe-restart, D drain, s shutdown
	a, b, k int8
}

func (e exEvent) String() string {
	switch e.kind {
	case 't':
		return fmt.Sprintf("tick t%d at r%d", e.k, e.a)
	case 'd':
		return fmt.Sprintf("deliver msg %d", e.a)
	case 'p':
		return fmt.Sprintf("r%d probes r%d", e.a, e.b)
	case 'c':
		return fmt.Sprintf("crash r%d", e.a)
	case 'r':
		return fmt.Sprintf("restart r%d on its disk", e.a)
	case 'w':
		return fmt.Sprintf("restart r%d wiped", e.a)
	case 'D':
		return fmt.Sprintf("drain r%d", e.a)
	case 's':
		return fmt.Sprintf("shut down r%d", e.a)
	}
	return "?"
}

type explorer struct {
	ring     *Ring
	peers    [exReplicas]string
	tenants  []string
	maxTicks int8
}

func newExplorer(t testing.TB, tenants int, maxTicks int8) *explorer {
	t.Helper()
	x := &explorer{maxTicks: maxTicks}
	for i := range x.peers {
		x.peers[i] = fmt.Sprintf("r%d", i)
	}
	ring, err := NewRing(x.peers[:], 0)
	if err != nil {
		t.Fatal(err)
	}
	x.ring = ring
	// Tenants whose ring order differs, so two tenants cover two successor
	// orders.
	seen := map[string]bool{}
	for k := 0; len(x.tenants) < tenants; k++ {
		name := fmt.Sprintf("t%d", k)
		owner := ring.Owner(name)
		order := owner + ring.SuccessorAmong(name, owner, nil)
		if !seen[order] {
			seen[order] = true
			x.tenants = append(x.tenants, name)
		}
	}
	return x
}

func (x *explorer) initial() exWorld {
	var w exWorld
	for i := range w.r {
		r := &w.r[i]
		*r = exRep{up: true, joined: true}
		for k := range r.sess {
			r.sess[k], r.snap[k], r.pend[k] = -1, -1, -1
			for o := range r.copies {
				r.copies[o][k] = -1
			}
		}
	}
	return w
}

func (x *explorer) idx(peer string) int8 {
	for i, p := range x.peers {
		if p == peer {
			return int8(i)
		}
	}
	return -1
}

// exStep applies one event to a copy of a world through the real tables.
type exStep struct {
	x    *explorer
	w    exWorld
	tabs [exReplicas]*Table
	bad  string // the first violated invariant
	cut  bool   // served past a loss beyond the replication contract
	full bool   // the outbox bound was hit
}

// table materialises replica i's Table from the world.
func (c *exStep) table(i int8) *Table {
	if c.tabs[i] == nil {
		r := &c.w.r[i]
		t := NewTable(c.x.ring, c.x.peers[i], time.Hour, true)
		for j, p := range c.x.peers {
			t.states[p] = r.view[j]
		}
		for k, name := range c.x.tenants {
			if r.pend[k] >= 0 {
				t.pending[name] = pend{until: exNow.Add(time.Hour), ticks: int(r.pend[k])}
			}
		}
		t.joined, t.draining, t.stopped = r.joined, r.draining, r.stopped
		c.tabs[i] = t
	}
	return c.tabs[i]
}

// flush writes every materialised table back into the world.
func (c *exStep) flush() {
	for i, t := range c.tabs {
		if t == nil {
			continue
		}
		r := &c.w.r[i]
		for j, p := range c.x.peers {
			r.view[j] = t.states[p]
		}
		for k, name := range c.x.tenants {
			r.pend[k] = -1
			if p, ok := t.pending[name]; ok {
				r.pend[k] = int8(p.ticks)
			}
		}
		r.joined, r.draining, r.stopped = t.joined, t.draining, t.stopped
	}
}

func (c *exStep) send(m exMsg) {
	for j := int8(0); j < c.w.n; j++ {
		o := &c.w.msgs[j]
		if m.kind == exCopy && o.kind == exCopy && o.from == m.from && o.to == m.to && o.tenant == m.tenant {
			// The replication queue keeps the newest frame per tenant.
			o.ticks, o.owner = max(o.ticks, m.ticks), m.owner
			return
		}
		if *o == m {
			return // a duplicate ship is the same delivery
		}
	}
	if c.w.n == exMaxMsgs {
		c.full = true
		return
	}
	c.w.msgs[c.w.n] = m
	c.w.n++
}

// offer is replicateLocked: copy the persisted snapshot to Table.Replica.
func (c *exStep) offer(i, k, ticks int8) {
	owner, target := c.table(i).Replica(c.x.tenants[k])
	if target == "" {
		return
	}
	c.send(exMsg{kind: exCopy, from: i, to: c.x.idx(target), tenant: k, ticks: ticks, owner: c.x.idx(owner)})
}

// heldFor is tenantsHeldFor: tenants with state here that ships to p.
func (c *exStep) heldFor(i, p int8, pulled bool) []int8 {
	var out []int8
	for k := range c.x.tenants {
		if _, ok := c.outgoing(i, p, int8(k), pulled); ok {
			out = append(out, int8(k))
		}
	}
	return out
}

// holding is the freshest state of tenant k here: the resident session,
// else the fresher of the snapshot and the freshest standby copy, whoever
// it is filed under; -1 none.
func (r *exRep) holding(k int8) int8 {
	if r.sess[k] >= 0 {
		return r.sess[k]
	}
	return max(r.snap[k], r.copy(k))
}

func (r *exRep) copy(k int8) int8 {
	best := int8(-1)
	for o := range r.copies {
		best = max(best, r.copies[o][k])
	}
	return best
}

// outgoing is the move replica i would ship to dest for tenant k —
// shipTenants' re-check plus ship's choice of state — and false when
// nothing ships; pulled marks an answer to dest's own hello. Announcements
// pend its ticks, as heldTicks does, so a pend waits for exactly what ships.
func (c *exStep) outgoing(i, dest, k int8, pulled bool) (exMsg, bool) {
	r := &c.w.r[i]
	name := c.x.tenants[k]
	if c.x.idx(c.table(i).ShipTo(name)) != dest {
		return exMsg{}, false
	}
	owner, shipper, copies := c.table(i).Shipper(name, c.x.peers[dest], pulled)
	m := exMsg{kind: exMove, from: i, to: dest, tenant: k, ticks: r.snap[k], owner: c.x.idx(owner), shipper: shipper}
	switch {
	case r.sess[k] >= 0:
		m.ticks = r.sess[k]
	case copies && r.copy(k) > r.snap[k]:
		m.ticks, m.fromStandby = r.copy(k), true
	}
	return m, m.ticks >= 0
}

// ship is serve's ship: freeze the state outgoing picks and send it.
func (c *exStep) ship(i, dest, k int8, pulled bool) {
	if m, ok := c.outgoing(i, dest, k, pulled); ok {
		r := &c.w.r[i]
		r.sess[k], r.adopted[k] = -1, false
		c.send(m)
	}
}

// join is clusterJoin run by i: greet every peer i sees Alive (each
// answering), then ship each one reached what i holds for it and re-offer
// i's resident sessions. A restart runs it with pulling hellos; a peer seen
// back from Down, by a probe or by its greeting, runs it with rejoins, which
// pull no copies. It runs in one step, so no tick lands at i before every
// peer has been greeted — the rejoin's Table.Rejoin hold.
func (c *exStep) join(i int8, pulled bool) {
	var reached []int8
	for p := int8(0); p < exReplicas; p++ {
		if p != i && c.table(i).Get(c.x.peers[p]) == Alive && c.hello(i, p, pulled) {
			reached = append(reached, p)
		}
	}
	c.table(i).Join()
	for _, p := range reached {
		c.shipHeld(i, p)
	}
	for k := range c.x.tenants {
		if s := c.w.r[i].sess[k]; s >= 0 {
			c.offer(i, int8(k), s)
		}
	}
}

// shipHeld is shipHeld: announce what i holds for p as inbound, then ship
// it.
func (c *exStep) shipHeld(i, p int8) {
	toShip := c.heldFor(i, p, false)
	c.pend(p, i, toShip, false)
	for _, k := range toShip {
		c.ship(i, p, k, false)
	}
}

// hello is handleClusterUpdate's hello (pulled) or rejoin from i at p, and
// i pending the reply; false when p is down.
func (c *exStep) hello(i, p int8, pulled bool) bool {
	if !c.w.r[p].up {
		return false
	}
	if c.table(p).Hello(c.x.peers[i]) && !(c.table(p).Ready() == Draining) {
		c.join(p, false)
	}
	held := c.heldFor(p, i, pulled)
	c.pend(i, p, held, pulled)
	if !(c.table(p).Ready() == Draining) {
		for _, k := range held {
			c.ship(p, i, k, pulled)
		}
	}
	return true
}

// pend is an announcement from j to i: the tenants j ships to i, at the
// ticks it ships.
func (c *exStep) pend(i, j int8, ks []int8, pulled bool) {
	names, ticks := make([]string, len(ks)), make([]int, len(ks))
	for n, k := range ks {
		m, _ := c.outgoing(j, i, k, pulled)
		names[n], ticks[n] = c.x.tenants[k], int(m.ticks)
	}
	c.table(i).Pend(names, ticks, exNow)
}

// tick is handleTicks for one tick of tenant k at replica i; false means
// the replica answered without serving.
func (c *exStep) tick(i, k int8) bool {
	r := &c.w.r[i]
	name := c.x.tenants[k]
	rt := c.table(i).Route(name, exNow, Request{Op: Tick, Have: int(r.sess[k])})
	n, from := r.holding(k), "its session"
	switch {
	case rt.Verdict != Serve && rt.Verdict != Adopt:
		return false
	case n < 0 && rt.Verdict == Adopt:
		return false // no copy: never a fresh start
	case n < 0:
		n, from = 0, "a fresh start"
	case r.sess[k] < 0 && r.copy(k) > r.snap[k]:
		from = "a standby copy"
	case r.sess[k] < 0:
		from = "its snapshot"
	}
	c.check(i, k, n, from)
	if c.bad != "" || c.cut || n >= c.x.maxTicks {
		return c.bad != "" || c.cut
	}
	r.adopted[k] = rt.Verdict == Adopt || (r.sess[k] >= 0 && r.adopted[k])
	r.sess[k], r.snap[k], c.w.acked[k] = n+1, n+1, n+1
	c.offer(i, k, n+1)
	return true
}

// check asserts the invariants for replica i serving tenant k from n ticks.
// Streams are compared by sessions, snapshots and moves in flight; standby
// copies count only against a fresh start, since replication is
// asynchronous and a standby serves the copy the rules pick, not the
// freshest one some other replica happens to hold.
func (c *exStep) check(i, k, n int8, from string) {
	state, copies := int8(-1), int8(-1)
	for j := range c.w.r {
		if r := &c.w.r[j]; r.up {
			state = max(state, r.sess[k], r.snap[k])
			copies = max(copies, r.copy(k))
		}
	}
	for _, m := range c.w.msgs[:c.w.n] {
		if m.tenant == k && m.kind == exMove {
			state = max(state, m.ticks)
		} else if m.tenant == k {
			copies = max(copies, m.ticks)
		}
	}
	switch {
	case from == "a fresh start" && max(state, copies) > 0:
		c.bad = fmt.Sprintf("fresh start of t%d at r%d while a copy at %d ticks exists", k, i, max(state, copies))
	case n < state && from == "a standby copy":
		c.bad = fmt.Sprintf("r%d took t%d from a standby copy at %d ticks while another replica holds %d", i, k, n, state)
	case n < state:
		c.bad = fmt.Sprintf("lost tick: r%d serves t%d from %s at %d ticks while a replica holds %d", i, k, from, n, state)
	case n < c.w.acked[k]:
		c.cut = true
	}
	for j := range c.w.r {
		r := &c.w.r[j]
		if int8(j) == i || !r.up || r.sess[k] < 0 {
			continue
		}
		probe := c.clone(int8(j))
		if v := probe.Route(c.x.tenants[k], exNow, Request{Op: Tick, Have: int(r.sess[k])}).Verdict; c.bad == "" && (v == Serve || v == Adopt) {
			c.bad = fmt.Sprintf("two writers: r%d serves t%d while r%d would too", i, k, j)
		}
	}
}

// clone copies replica j's table so a question asked of it changes nothing.
func (c *exStep) clone(j int8) *Table {
	t := c.table(j)
	cp := NewTable(t.ring, t.self, t.ttl, t.standby)
	for p, s := range t.states {
		cp.states[p] = s
	}
	for name, d := range t.pending {
		cp.pending[name] = d
	}
	cp.joined, cp.draining, cp.stopped = t.joined, t.draining, t.stopped
	return cp
}

// deliver lands message j; false means the receiver refused it (the sender
// retries) or cannot be reached.
func (c *exStep) deliver(j int8) bool {
	m := c.w.msgs[j]
	d := &c.w.r[m.to]
	if !d.up || c.table(m.to).MayLand(c.x.tenants[m.tenant], m.kind == exCopy, int(m.ticks)) != NoReason {
		return false
	}
	copy(c.w.msgs[j:], c.w.msgs[j+1:c.w.n])
	c.w.n--
	c.w.msgs[c.w.n] = exMsg{}
	k := m.tenant
	if m.kind == exCopy {
		d.copies[m.owner][k] = max(d.copies[m.owner][k], m.ticks)
		return true
	}
	if d.sess[k] < m.ticks && (d.sess[k] >= 0 || d.snap[k] < m.ticks) {
		d.sess[k], d.snap[k], d.adopted[k] = m.ticks, m.ticks, false
		c.offer(m.to, k, m.ticks)
	}
	c.table(m.to).Landed(c.x.tenants[k], int(max(d.sess[k], d.snap[k])))
	s := &c.w.r[m.from]
	s.snap[k] = -1
	if m.owner >= 0 && m.shipper && !m.fromStandby {
		s.copies[m.owner][k] = max(s.copies[m.owner][k], m.ticks)
	} else if m.owner >= 0 && !m.shipper {
		s.copies[m.owner][k] = -1
	}
	return true
}

func (c *exStep) crash(i int8) {
	c.w.faults++
	r := &c.w.r[i]
	r.up = false
	for k := range r.sess {
		r.sess[k], r.adopted[k] = -1, false
	}
	c.tabs[i] = nil
	for j := int8(0); j < c.w.n; {
		if m := c.w.msgs[j]; m.from == i || m.to == i {
			copy(c.w.msgs[j:], c.w.msgs[j+1:c.w.n])
			c.w.n--
			c.w.msgs[c.w.n] = exMsg{}
			continue
		}
		j++
	}
}

// restart boots replica i (on its disk, or wiped) and runs clusterJoin.
func (c *exStep) restart(i int8, wipe bool) {
	r := &c.w.r[i]
	r.up, r.joined, r.draining, r.stopped = true, false, false, false
	r.pend = [exTenants]int8{-1, -1}
	for j := range r.view {
		r.view[j] = Alive
	}
	if wipe {
		for k := range r.snap {
			r.snap[k] = -1
			for o := range r.copies {
				r.copies[o][k] = -1
			}
		}
	}
	c.tabs[i] = nil
	c.join(i, true)
}

// drain is DrainToPeers run to the end: leave, announce the plan, ship
// every tenant (each move lands before the next starts, as Sender.Send
// blocks) and exit. It is modelled as an operator runs a rolling restart:
// on a settled cluster, every replica up and seen Alive by all, nothing
// pending and nothing in flight. A drain cut short by a crash, or started
// beside a dead or recovering peer, is the soaks' domain.
func (c *exStep) drain(i int8) bool {
	if c.w.n > 0 {
		return false
	}
	for j := range c.w.r {
		r := &c.w.r[j]
		if !r.up || r.stopped || r.pend != [exTenants]int8{-1, -1} || r.view != [exReplicas]PeerState{} {
			return false
		}
	}
	t := c.table(i)
	t.BeginDrain()
	t.Set(c.x.peers[i], Leaving)
	r := &c.w.r[i]
	plan := map[int8][]int8{}
	for k, name := range c.x.tenants {
		if r.sess[k] < 0 && r.snap[k] < 0 {
			continue
		}
		if dest := c.x.idx(t.ShipTo(name)); dest >= 0 {
			plan[dest] = append(plan[dest], int8(k))
		}
	}
	for p := int8(0); p < exReplicas; p++ {
		if p != i {
			c.table(p).Set(c.x.peers[i], Gone)
			c.pend(p, i, plan[p], false)
		}
	}
	for dest, ks := range plan {
		for _, k := range ks {
			c.ship(i, dest, k, false)
			for j := int8(0); j < c.w.n; j++ {
				if m := c.w.msgs[j]; m.kind == exMove && m.from == i && m.to == dest && m.tenant == k {
					c.deliver(j)
					break
				}
			}
		}
	}
	c.crash(i) // the process exits
	return true
}

// probe applies what observer i's prober sees of peer p; false if nothing
// changes.
func (c *exStep) probe(i, p int8) bool {
	t := c.table(i)
	peer := c.x.peers[p]
	if c.w.r[p].up {
		if !t.Transition(peer, Down, Alive) {
			return false
		}
		if t.Ready() != Draining {
			c.join(i, false)
		}
		return true
	}
	down := t.Transition(peer, Alive, Down)
	return t.Transition(peer, Leaving, Gone) || down
}

// apply runs ev on w. ok is false when the event is not enabled or changes
// nothing.
func (x *explorer) apply(w exWorld, ev exEvent) (next exWorld, bad string, cut, ok bool) {
	c := &exStep{x: x, w: w}
	r := &c.w.r[ev.a%exReplicas]
	switch ev.kind {
	case 't':
		ok = r.up && c.tick(ev.a, ev.k)
	case 'd':
		ok = ev.a < c.w.n && c.deliver(ev.a)
	case 'p':
		ok = r.up && ev.a != ev.b && c.probe(ev.a, ev.b)
	case 'c':
		ok = r.up && c.w.faults < exFaults
		if ok {
			c.crash(ev.a)
		}
	case 'r', 'w':
		ok = !r.up
		if ok {
			c.restart(ev.a, ev.kind == 'w')
		}
	case 'D':
		ok = r.up && !r.stopped && c.w.faults < exFaults && c.drain(ev.a)
	case 's':
		ok = r.up && !r.stopped
		if ok {
			c.table(ev.a).Stop()
		}
	}
	if c.full {
		return w, "", false, false
	}
	c.flush()
	return c.w, c.bad, c.cut, ok && (c.bad != "" || c.cut || c.w != w)
}

func (x *explorer) events(w exWorld) []exEvent {
	var evs []exEvent
	for i := int8(0); i < exReplicas; i++ {
		for k := range x.tenants {
			evs = append(evs, exEvent{kind: 't', a: i, k: int8(k)})
		}
		for p := int8(0); p < exReplicas; p++ {
			evs = append(evs, exEvent{kind: 'p', a: i, b: p})
		}
		for _, kind := range []byte("crwDs") {
			evs = append(evs, exEvent{kind: kind, a: i})
		}
	}
	for j := int8(0); j < w.n; j++ {
		evs = append(evs, exEvent{kind: 'd', a: j})
	}
	return evs
}

var exSeed = maphash.MakeSeed()

func (w *exWorld) hash() uint64 {
	var h maphash.Hash
	h.SetSeed(exSeed)
	var b [8]byte
	put := func(v int8) { h.WriteByte(byte(v)) }
	flag := func(v bool) {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	for i := range w.r {
		r := &w.r[i]
		flag(r.up)
		flag(r.joined)
		flag(r.draining)
		flag(r.stopped)
		for _, s := range r.view {
			put(int8(s))
		}
		for k := 0; k < exTenants; k++ {
			put(r.pend[k])
			flag(r.adopted[k])
			put(r.sess[k])
			put(r.snap[k])
			for o := range r.copies {
				put(r.copies[o][k])
			}
		}
	}
	for _, m := range w.msgs[:w.n] {
		binary.LittleEndian.PutUint64(b[:], uint64(m.kind)|uint64(m.from)<<8|uint64(m.to)<<16|uint64(m.tenant)<<24|
			uint64(uint8(m.ticks))<<32|uint64(uint8(m.owner))<<40)
		h.Write(b[:])
		flag(m.fromStandby)
		flag(m.shipper)
	}
	put(w.n)
	put(w.faults)
	for _, a := range w.acked {
		put(a)
	}
	return h.Sum64()
}

type exResult struct {
	states, cut int
	depth       int // the deepest level with a new state; below the bound, the search was complete
	bad         string
	trace       []exEvent
}

// explore runs a breadth-first search to depth, deduplicating states, and
// stops at the first violation with its shortest trace.
func (x *explorer) explore(depth int) exResult {
	type node struct {
		w     exWorld
		trace []exEvent
	}
	w0 := x.initial()
	seen := map[uint64]bool{w0.hash(): true}
	frontier := []node{{w: w0}}
	res := exResult{states: 1}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []node
		for _, nd := range frontier {
			for _, ev := range x.events(nd.w) {
				w, bad, cut, ok := x.apply(nd.w, ev)
				if !ok {
					continue
				}
				trace := append(append([]exEvent(nil), nd.trace...), ev)
				if bad != "" {
					res.bad, res.trace = bad, trace
					return res
				}
				if cut {
					res.cut++
					continue
				}
				h := w.hash()
				if seen[h] {
					continue
				}
				seen[h] = true
				res.states++
				next = append(next, node{w: w, trace: trace})
			}
		}
		if len(next) > 0 {
			res.depth = d + 1
		}
		frontier = next
	}
	return res
}

func (r exResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s after:", r.bad)
	for i, ev := range r.trace {
		fmt.Fprintf(&b, "\n  %2d. %v", i+1, ev)
	}
	return b.String()
}

// TestExploreOwnership is the exhaustive check: every event sequence of 3
// replicas up to the depth, on one tenant and then on two.
func TestExploreOwnership(t *testing.T) {
	for _, tc := range []struct {
		tenants, depth int
		ticks          int8
	}{
		{tenants: 1, depth: exDepth1, ticks: 3},
		{tenants: 2, depth: exDepth2, ticks: 2},
	} {
		start := time.Now()
		x := newExplorer(t, tc.tenants, tc.ticks)
		res := x.explore(tc.depth)
		if res.bad != "" {
			t.Fatalf("%d tenant(s): %v", tc.tenants, res)
		}
		t.Logf("%d tenant(s), ≤%d ticks each, depth %d (new states to depth %d): %d states, %d paths cut at a loss beyond the replication contract, %v",
			tc.tenants, tc.ticks, tc.depth, res.depth, res.states, res.cut, time.Since(start).Round(time.Millisecond))
	}
}

const (
	exDepth1 = 24
	exDepth2 = 10
)

// TestExploreSuccessionFork replays the standby-succession fork through
// the explorer's model. Tenant T is owned by O with ring successors P then
// S. T replicates to P at 1 tick; with P down, to S at 2; with O down too,
// S adopts and serves the third tick. P restarts on its own disk, holding
// its 1-tick copy, and probes O down. P must not promote that copy: S's
// hello reply pends T on P (S's adopted session belongs on P now), Route
// checks the pend before adoption, and P serves only once S's move lands.
func TestExploreSuccessionFork(t *testing.T) {
	x := newExplorer(t, 1, 4)
	name := x.tenants[0]
	o := x.idx(x.ring.Owner(name))
	p := x.idx(x.ring.SuccessorAmong(name, x.peers[o], nil))
	s := 3 - o - p
	w := x.initial()
	step := func(ev exEvent, wantServed bool) {
		t.Helper()
		next, bad, _, ok := x.apply(w, ev)
		if bad != "" {
			t.Fatalf("%v: %s\n%v", ev, bad, next)
		}
		if ev.kind == 't' && ok != wantServed {
			t.Fatalf("%v: served = %v, want %v\n%v", ev, ok, wantServed, next)
		}
		w = next
	}
	deliverTo := func(dest int8) {
		t.Helper()
		for j := int8(0); j < w.n; j++ {
			if w.msgs[j].to == dest {
				step(exEvent{kind: 'd', a: j}, false)
				return
			}
		}
		t.Fatalf("no message to r%d:\n%v", dest, w)
	}
	step(exEvent{kind: 't', a: o}, true)
	deliverTo(p)
	step(exEvent{kind: 'c', a: p}, false)
	step(exEvent{kind: 'p', a: o, b: p}, false)
	step(exEvent{kind: 't', a: o}, true)
	deliverTo(s)
	step(exEvent{kind: 'c', a: o}, false)
	step(exEvent{kind: 'p', a: s, b: o}, false)
	step(exEvent{kind: 'p', a: s, b: p}, false)
	step(exEvent{kind: 't', a: s}, true) // S adopts its 2-tick copy
	step(exEvent{kind: 'r', a: p}, false)
	step(exEvent{kind: 'p', a: p, b: o}, false)
	step(exEvent{kind: 't', a: p}, false) // pended: S's move is on its way
	deliverTo(p)
	step(exEvent{kind: 't', a: p}, true)
	if w.acked[0] != 4 || w.r[p].sess[0] != 4 {
		t.Fatalf("after the move P serves T at %d ticks (acked %d), want 4\n%v", w.r[p].sess[0], w.acked[0], w)
	}
}

func (w exWorld) String() string {
	var b strings.Builder
	for i, r := range w.r {
		fmt.Fprintf(&b, "r%d up=%v j=%v d=%v s=%v view=%v pend=%v sess=%v ad=%v snap=%v copies=%v\n", i, r.up, r.joined, r.draining, r.stopped, r.view, r.pend, r.sess, r.adopted, r.snap, r.copies)
	}
	fmt.Fprintf(&b, "msgs=%v acked=%v", w.msgs[:w.n], w.acked)
	return b.String()
}
