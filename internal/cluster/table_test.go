package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// newTestTable builds peers[0]'s table over peers, standby adoption off.
func newTestTable(t testing.TB, peers []string) *Table {
	t.Helper()
	ring, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(ring, peers[0], 0, false)
}

// TestTablePeerStates: Alive and Down peers own their ring range, Leaving
// and Gone peers do not; an unknown peer reads as Gone and cannot be set;
// Set reports a change.
func TestTablePeerStates(t *testing.T) {
	peers := testPeers(3)
	m := newTestTable(t, peers)
	if alive, _ := m.Stats(); alive != 3 {
		t.Fatalf("fresh table alive = %d, want 3", alive)
	}
	tenant := tenantOwnedBy(t, peers, peers[1])
	if !m.Set(peers[1], Leaving) {
		t.Fatal("Alive->Leaving not reported as a change")
	}
	if m.Set(peers[1], Leaving) {
		t.Fatal("no-op Set reported as a change")
	}
	if m.ShipTo(tenant) == peers[1] {
		t.Fatal("leaving peer still owns its range")
	}
	m.Set(peers[1], Gone)
	if m.ShipTo(tenant) == peers[1] {
		t.Fatal("gone peer still owns its range")
	}
	// A Down peer keeps ownership: unreachable is not dispossessed.
	m.Set(peers[1], Down)
	m.Join()
	if r := m.Route(tenant, time.Now(), Request{Op: Tick}); r.Owner != peers[1] || r.Verdict != Refuse || r.Why != OwnerDown {
		t.Fatalf("route to a down owner = %+v, want refused for %s (owner down)", r, peers[1])
	}
	if m.Set("http://stranger:1", Alive) {
		t.Fatal("unknown peer admitted to the static list")
	}
	if got := m.Get("http://stranger:1"); got != Gone {
		t.Fatalf("unknown peer state = %v, want Gone", got)
	}
	if alive, _ := m.Stats(); alive != 2 {
		t.Fatalf("alive = %d, want 2", alive)
	}
}

// tenantOwnedBy finds a tenant name whose ring owner is peer.
func tenantOwnedBy(t testing.TB, peers []string, peer string) string {
	t.Helper()
	ring, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10000; k++ {
		if name := fmt.Sprintf("t-%d", k); ring.Owner(name) == peer {
			return name
		}
	}
	t.Fatalf("no tenant owned by %s", peer)
	return ""
}

// failFlip is a ProbeFunc whose verdict per peer can be flipped at runtime.
type failFlip struct {
	mu   sync.Mutex
	down map[string]bool
}

func (f *failFlip) probe(_ context.Context, peer string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[peer] {
		return errors.New("probe: connection refused")
	}
	return nil
}

func (f *failFlip) set(peer string, isDown bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[peer] = isDown
}

func TestProberDemotesToDownAndRecovers(t *testing.T) {
	peers := testPeers(2)
	self, other := peers[0], peers[1]
	mem := newTestTable(t, peers)
	flip := &failFlip{down: map[string]bool{other: true}}

	type change struct{ from, to PeerState }
	changes := make(chan change, 16)
	p := &Prober{
		Peers:       peers,
		Self:        self,
		Table:       mem,
		Probe:       flip.probe,
		Interval:    2 * time.Millisecond,
		MaxInterval: 10 * time.Millisecond,
		OnChange: func(peer string, from, to PeerState) {
			if peer != other {
				t.Errorf("transition for unexpected peer %s", peer)
			}
			changes <- change{from, to}
		},
	}
	runProber(t, p)

	waitChange := func(want change) {
		t.Helper()
		select {
		case got := <-changes:
			if got != want {
				t.Fatalf("transition %v -> %v, want %v -> %v", got.from, got.to, want.from, want.to)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no %v -> %v transition", want.from, want.to)
		}
	}

	waitChange(change{Alive, Down})
	if got := mem.Get(other); got != Down {
		t.Fatalf("failed peer state = %v, want Down", got)
	}
	tenant := tenantOwnedBy(t, peers, other)
	if owner, _ := mem.Replica(tenant); owner != other || mem.ShipTo(tenant) != "" {
		t.Fatal("down peer lost ownership (its tenants' state is on its disk)")
	}
	flip.set(other, false)
	waitChange(change{Down, Alive})
	if got := mem.Get(other); got != Alive {
		t.Fatalf("recovered peer state = %v, want Alive", got)
	}
}

// A Gone (drained) peer must stay Gone under successful probes: its tenants
// moved away, so revival is announced by a hello, never inferred from a
// port answering.
func TestProberDoesNotReviveGonePeer(t *testing.T) {
	peers := testPeers(2)
	mem := newTestTable(t, peers)
	mem.Set(peers[1], Gone)
	p := &Prober{
		Peers:    peers,
		Self:     peers[0],
		Table:    mem,
		Probe:    func(context.Context, string) error { return nil },
		Interval: time.Millisecond,
		OnChange: func(peer string, from, to PeerState) {
			t.Errorf("unexpected transition %v -> %v for %s", from, to, peer)
		},
	}
	stop := runProber(t, p)
	time.Sleep(20 * time.Millisecond)
	stop()
	if got := mem.Get(peers[1]); got != Gone {
		t.Fatalf("gone peer state = %v, want Gone", got)
	}
}

// A draining peer whose process dies moves Leaving -> Gone so the table
// converges even when the leave announcement was the last thing it sent.
func TestProberCompletesLeaving(t *testing.T) {
	peers := testPeers(2)
	mem := newTestTable(t, peers)
	mem.Set(peers[1], Leaving)
	changes := make(chan PeerState, 4)
	p := &Prober{
		Peers:       peers,
		Self:        peers[0],
		Table:       mem,
		Probe:       func(context.Context, string) error { return errors.New("refused") },
		Interval:    time.Millisecond,
		MaxInterval: 5 * time.Millisecond,
		OnChange:    func(_ string, _, to PeerState) { changes <- to },
	}
	runProber(t, p)
	select {
	case to := <-changes:
		if to != Gone {
			t.Fatalf("transitioned to %v, want Gone", to)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leaving peer never completed to Gone")
	}
}

// A peer that announced Leaving is draining deliberately; a successful
// probe must not promote it back to Alive and re-route tenants onto it.
func TestProberDoesNotReviveLeavingPeer(t *testing.T) {
	peers := testPeers(2)
	mem := newTestTable(t, peers)
	mem.Set(peers[1], Leaving)
	p := &Prober{
		Peers:    peers,
		Self:     peers[0],
		Table:    mem,
		Probe:    func(context.Context, string) error { return nil },
		Interval: time.Millisecond,
		OnChange: func(peer string, from, to PeerState) {
			t.Errorf("unexpected transition %v -> %v for %s", from, to, peer)
		},
	}
	stop := runProber(t, p)
	time.Sleep(20 * time.Millisecond)
	stop()
	if got := mem.Get(peers[1]); got != Leaving {
		t.Fatalf("leaving peer state = %v, want Leaving", got)
	}
}

// standbyTable is self's table over three peers with adoption on, joined.
func standbyTable(t *testing.T, self int) (*Table, []string) {
	t.Helper()
	peers := testPeers(3)
	ring, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(ring, peers[self], time.Minute, true)
	tab.Join()
	return tab, peers
}

// succession returns a tenant's owner, first and second successor indices.
func succession(t *testing.T, peers []string, tenant string) (o, p, s int) {
	t.Helper()
	ring, _ := NewRing(peers, 0)
	idx := func(peer string) int { return slices.Index(peers, peer) }
	o = idx(ring.Owner(tenant))
	p = idx(ring.SuccessorAmong(tenant, peers[o], nil))
	return o, p, 3 - o - p
}

// TestTableRouteRows walks Route's rows in their order: stopped, joining,
// redirect, owner down, adopt, rejoin, pend before adoption, drain last.
// Reads pass rejoins and pends; deletes wait out pends, not drains.
func TestTableRouteRows(t *testing.T) {
	now := time.Now()
	w := Request{Op: Tick, Have: -1}
	o, p, _ := succession(t, testPeers(3), "t")
	tab, peers := standbyTable(t, p)
	if r := tab.Route("t", now, w); r.Verdict != Redirect || r.Owner != peers[o] {
		t.Fatalf("owner alive: %+v, want redirect to %s", r, peers[o])
	}
	tab.Set(peers[o], Down)
	if r := tab.Route("t", now, w); r.Verdict != Adopt {
		t.Fatalf("owner down, self first successor: %+v, want adopt", r)
	}
	done := tab.Rejoin()
	if r := tab.Route("t", now, w); r.Why != Joining || tab.Ready() != NoReason {
		t.Fatalf("rejoining: %+v, ready %v; want ticks refused, still ready", r, tab.Ready())
	}
	if r := tab.Route("t", now, Request{}); r.Verdict != Adopt {
		t.Fatalf("a read while rejoining: %+v, want adopt", r)
	}
	done()
	tab.Pend([]string{"t"}, []int{48}, now)
	if r := tab.Route("t", now, w); r.Verdict != Refuse || r.Why != Pending {
		t.Fatalf("pended adopt: %+v, want refused pending (pend before adoption)", r)
	}
	if r := tab.Route("t", now, Request{Op: Tick, Have: 24}); r.Why != Pending {
		t.Fatalf("a resident session staler than the pend: %+v, want refused pending", r)
	}
	if r := tab.Route("t", now, Request{Op: Tick, Have: Unread}); r.Verdict != Adopt {
		t.Fatalf("unread resident session: %+v, want adopt, the pend left for the locked route", r)
	}
	if r := tab.Route("t", now, Request{Op: Delete, Have: -1}); r.Why != Pending {
		t.Fatalf("a delete behind a pend: %+v, want refused pending", r)
	}
	if r := tab.Route("t", now, Request{}); r.Verdict != Adopt {
		t.Fatalf("a read ignores the pend: %+v", r)
	}
	if r := tab.Route("t", now.Add(2*time.Minute), w); r.Verdict != Adopt || !r.Expired {
		t.Fatalf("pend past its TTL: %+v, want adopt, expired", r)
	}
	tab.Pend([]string{"t"}, []int{48}, now)
	if r := tab.Route("t", now, Request{Op: Tick, Have: 48}); r.Verdict != Adopt {
		t.Fatalf("a resident session covering the pend: %+v, want adopt", r)
	}
	tab.BeginDrain()
	if r := tab.Route("t", now, w); r.Why != Draining {
		t.Fatalf("draining: %+v", r)
	}
	if r := tab.Route("t", now, Request{Op: Delete, Have: -1}); r.Verdict != Adopt {
		t.Fatalf("a delete while draining: %+v, want adopt (only ticks wait out a drain)", r)
	}
	if first := tab.Stop(); !first || tab.Stop() {
		t.Fatal("Stop did not report the first call only")
	}
	if r := tab.Route("t", now, w); r.Why != Stopped {
		t.Fatalf("stopped: %+v", r)
	}
	if r := tab.Route("t", now, Request{Op: Delete, Have: -1}); r.Verdict != Adopt {
		t.Fatalf("a delete after shutdown: %+v, want adopt (only ticks are refused)", r)
	}
	fresh := NewTable(tab.ring, peers[p], 0, true)
	if r := fresh.Route("t", now, Request{}); r.Why != Joining || fresh.Ready() != Joining {
		t.Fatalf("before join: %+v, ready %v", r, fresh.Ready())
	}
}

// TestTableAdoptOnlyFromStandby: the second successor refuses while the
// first is Alive, and adopts once it is Down too; with adoption off a Down
// owner's tenant is refused everywhere.
func TestTableAdoptOnlyFromStandby(t *testing.T) {
	o, p, s := succession(t, testPeers(3), "t")
	tab, peers := standbyTable(t, s)
	tab.Set(peers[o], Down)
	if r := tab.Route("t", time.Now(), Request{Op: Tick, Have: -1}); r.Why != OwnerDown {
		t.Fatalf("second successor with the first alive: %+v, want owner down", r)
	}
	if got := tab.ShipTo("t"); got != peers[p] {
		t.Fatalf("held state ships to %q, want the adopter %s", got, peers[p])
	}
	tab.Set(peers[p], Down)
	if r := tab.Route("t", time.Now(), Request{Op: Tick, Have: -1}); r.Verdict != Adopt {
		t.Fatalf("second successor with the first down: %+v, want adopt", r)
	}
	if tab.ShipTo("t") != "" {
		t.Fatal("the adopter ships its own tenant away")
	}
	off := NewTable(tab.ring, peers[p], 0, false)
	off.Join()
	off.Set(peers[o], Down)
	if r := off.Route("t", time.Now(), Request{Op: Tick, Have: -1}); r.Why != OwnerDown {
		t.Fatalf("adoption off: %+v, want owner down", r)
	}
}

// TestTableReplicaAndShipper: copies go to the owner's first Alive
// successor other than self, filed under the owner; the live successor is
// the one shipper, and other holders ship their copies to the owner only
// when its hello asks.
func TestTableReplicaAndShipper(t *testing.T) {
	o, p, s := succession(t, testPeers(3), "t")
	tab, peers := standbyTable(t, o)
	if owner, target := tab.Replica("t"); owner != peers[o] || target != peers[p] {
		t.Fatalf("replica = %s, %s; want %s, %s", owner, target, peers[o], peers[p])
	}
	tab.Set(peers[p], Down)
	if _, target := tab.Replica("t"); target != peers[s] {
		t.Fatalf("replica with the successor down = %s, want %s", target, peers[s])
	}
	sb, _ := standbyTable(t, p)
	third, _ := standbyTable(t, s)
	if owner, ok, copies := sb.Shipper("t", peers[o], false); owner != peers[o] || !ok || !copies {
		t.Fatalf("successor: shipper = %s, %v, copies %v", owner, ok, copies)
	}
	if _, ok, copies := third.Shipper("t", peers[o], false); ok || copies {
		t.Fatal("the third replica ships copies unasked while the successor is alive")
	}
	if _, _, copies := third.Shipper("t", peers[o], true); !copies {
		t.Fatal("the third replica keeps its copy from the owner's own hello")
	}
	if _, _, copies := sb.Shipper("t", peers[s], true); copies {
		t.Fatal("a copy ships to a replica that does not own it")
	}
	third.Set(peers[p], Down)
	if _, ok, _ := third.Shipper("t", peers[o], false); !ok {
		t.Fatal("the third replica does not inherit the shipper duty")
	}
}

// TestTableMayLand: a shut-down replica takes nothing; a draining one takes
// copies only; a move staler than its pend waits for the fresher one.
func TestTableMayLand(t *testing.T) {
	tab, _ := standbyTable(t, 0)
	tab.Pend([]string{"t"}, []int{10}, time.Now())
	if tab.MayLand("t", false, 9) != Pending || tab.MayLand("t", false, 10) != NoReason || tab.MayLand("t", true, 1) != NoReason {
		t.Fatal("pend: a staler move must wait, an equal one and any copy land")
	}
	tab.Landed("t", 9) // a staler install finishing after the fresher announcement
	if tab.MayLand("t", false, 9) != Pending {
		t.Fatal("a staler landing cleared a fresher pend")
	}
	tab.Landed("t", 10)
	if tab.MayLand("t", false, 1) != NoReason {
		t.Fatal("a landing that covers the pend left it standing")
	}
	tab.BeginDrain()
	if tab.MayLand("u", false, 1) != Draining || tab.MayLand("u", true, 1) != NoReason {
		t.Fatal("draining: moves refused, copies filed")
	}
	tab.Stop()
	if tab.MayLand("u", false, 1) != Stopped || tab.MayLand("u", true, 1) != Stopped {
		t.Fatal("stopped: nothing lands")
	}
}

// TestTableTransitionsAreCompareAndSet: a probe verdict for a stale state
// is a no-op, and a hello reports only a Down peer's recovery.
func TestTableTransitionsAreCompareAndSet(t *testing.T) {
	tab, peers := standbyTable(t, 0)
	if tab.Transition(peers[1], Down, Alive) {
		t.Fatal("Down->Alive applied to an Alive peer")
	}
	tab.Set(peers[1], Gone)
	if tab.Transition(peers[1], Alive, Down) || tab.Get(peers[1]) != Gone {
		t.Fatal("a probe demoted a Gone peer")
	}
	if tab.Hello(peers[1]) || tab.Get(peers[1]) != Alive {
		t.Fatal("hello from a Gone peer: want Alive, not a recovery")
	}
	tab.Set(peers[1], Down)
	if !tab.Hello(peers[1]) {
		t.Fatal("hello from a Down peer is a recovery")
	}
	if alive, pending := tab.Stats(); alive != 3 || pending != 0 {
		t.Fatalf("stats = %d alive, %d pending", alive, pending)
	}
}
