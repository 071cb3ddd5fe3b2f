package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mdes/internal/cluster"
	"mdes/internal/faultfs"
	"mdes/internal/seqio"
)

// standbyCluster builds an n-replica cluster with warm-standby replication
// on: every replica gets a standby store and a fast probe interval.
func standbyCluster(t testing.TB, n int) *testCluster {
	t.Helper()
	return newTestCluster(t, n, func(i int, o *Options) {
		o.StandbyDir = t.TempDir()
		o.ProbeInterval = 20 * time.Millisecond
	})
}

// standbyIdx returns the replica index holding tenant's warm-standby copy:
// the ring successor among all peers (everyone is alive in a fresh cluster).
func (tc *testCluster) standbyIdx(tenant string) int {
	owner := tc.ring.Owner(tenant)
	succ := tc.ring.SuccessorAmong(tenant, owner, nil)
	for i, u := range tc.urls {
		if u == succ {
			return i
		}
	}
	tc.t.Fatalf("successor %q of %q not in peer list", succ, tenant)
	return -1
}

// waitStandbyCopy polls replica i's standby store until a copy of tenant
// (owned by owner) with at least wantTicks arrives.
func waitStandbyCopy(t *testing.T, tc *testCluster, i int, owner, tenant string, wantTicks int) cluster.Handoff {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, ok, err := readCopy(tc.srvs[i].store, owner, tenant)
		if err != nil {
			t.Fatal(err)
		}
		if ok && h.Ticks >= wantTicks {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby copy of %q never reached %d ticks on replica %d (ok=%v ticks=%d)", tenant, wantTicks, i, ok, h.Ticks)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStandbyStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h := cluster.Handoff{Tenant: "plant-a", Model: "default", Ticks: 42, From: "http://owner:1", Payload: []byte(`{"x":1}`)}
	frame, err := cluster.EncodeHandoff(h)
	if err != nil {
		t.Fatal(err)
	}
	st := dirStore(faultfs.OS, "", dir)
	if err := putCopy(st, h.From, h.Tenant, frame); err != nil {
		t.Fatal(err)
	}

	got, ok, err := readCopy(st, h.From, h.Tenant)
	if err != nil || !ok {
		t.Fatalf("read: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("round-trip mismatch: got %+v want %+v", got, h)
	}

	// A second owner's copy of the same tenant name must not collide.
	h2 := h
	h2.From = "http://other:1"
	h2.Ticks = 7
	frame2, _ := cluster.EncodeHandoff(h2)
	if err := putCopy(st, h2.From, h2.Tenant, frame2); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := readCopy(st, h.From, h.Tenant); got.Ticks != 42 {
		t.Fatalf("owner A's copy clobbered by owner B's: ticks=%d", got.Ticks)
	}

	if tenants := st.tenants(false, true); !reflect.DeepEqual(tenants, []string{"plant-a", "plant-a"}) {
		t.Fatalf("tenants = %v, want one entry per owner's copy", tenants)
	}

	// Torn copy: truncate the frame mid-body; load must report a clean miss.
	_, path := st.path(h.From, h.Tenant)
	if err := os.WriteFile(path, frame[:len(frame)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := readCopy(st, h.From, h.Tenant); ok || err != nil {
		t.Fatalf("torn standby copy: ok=%v err=%v, want clean miss", ok, err)
	}

	if err := st.drop(h.Tenant, h.From); err != nil {
		t.Fatal(err)
	}
	if err := st.drop(h.Tenant, h.From); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	if tenants := st.tenants(false, true); !reflect.DeepEqual(tenants, []string{"plant-a"}) {
		t.Fatalf("tenants after delete = %v, want only the other owner's copy", tenants)
	}
}

// TestReplicationShipsToSuccessor: pushing ticks replicates the snapshot to
// the tenant's ring successor, keyed by the owner, matching the owner's own
// durable snapshot tick for tick.
func TestReplicationShipsToSuccessor(t *testing.T) {
	tc := standbyCluster(t, 3)
	client := tc.client()
	tenant := tc.tenantOwnedBy(0, "repl")
	ownerIdx, sbIdx := tc.ownerIdx(tenant), tc.standbyIdx(tenant)
	if ownerIdx == sbIdx {
		t.Fatal("owner and standby coincide; ring is broken")
	}
	ds := coupledDataset(rand.New(rand.NewSource(11)), 24)

	if _, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 24)); err != nil {
		t.Fatal(err)
	}
	h := waitStandbyCopy(t, tc, sbIdx, tc.urls[ownerIdx], tenant, 24)
	if h.From != tc.urls[ownerIdx] {
		t.Fatalf("standby copy keyed by %q, want owner %q", h.From, tc.urls[ownerIdx])
	}
	var snap sessionSnapshot
	if err := json.Unmarshal(h.Payload, &snap); err != nil {
		t.Fatal(err)
	}
	want := snapshotOnDisk(t, tc, ownerIdx, tenant)
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("replicated snapshot differs from the owner's durable one:\n got %+v\nwant %+v", snap, want)
	}

	// Non-successor replicas hold nothing for this tenant.
	for i := range tc.srvs {
		if i == sbIdx {
			continue
		}
		if _, ok, _ := readCopy(tc.srvs[i].store, tc.urls[ownerIdx], tenant); ok {
			t.Fatalf("replica %d holds a standby copy; only %d should", i, sbIdx)
		}
	}
}

// TestHandleReplicateIdempotent: a copy transfer that is stale or a
// duplicate must not regress the held copy, a torn frame must be answered
// retryable (503 + hint), never terminal, and a frame whose envelope disagrees
// with its payload is refused (400) before more-ticks-wins can let it
// displace a fresher copy.
func TestHandleReplicateIdempotent(t *testing.T) {
	tc := standbyCluster(t, 2)
	target := tc.urls[1]
	owner := tc.urls[0]

	post := func(envelopeTicks, payloadTicks int, mangle func([]byte) []byte) *http.Response {
		t.Helper()
		h := cluster.Handoff{Tenant: "idem", Model: "default", Ticks: envelopeTicks, From: owner, Copy: true,
			Payload: []byte(fmt.Sprintf(`{"tenant":"idem","model":"default","stream":{"ticks":%d}}`, payloadTicks))}
		frame, err := cluster.EncodeHandoff(h)
		if err != nil {
			t.Fatal(err)
		}
		if mangle != nil {
			frame = mangle(frame)
		}
		resp, err := http.Post(target+cluster.TransferPath, "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	ship := func(ticks int, mangle func([]byte) []byte) *http.Response {
		t.Helper()
		return post(ticks, ticks, mangle)
	}

	if resp := ship(10, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first ship: %s", resp.Status)
	}
	if resp := ship(5, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("stale ship: %s", resp.Status)
	}
	h, ok, err := readCopy(tc.srvs[1].store, owner, "idem")
	if err != nil || !ok || h.Ticks != 10 {
		t.Fatalf("held copy after stale ship: ok=%v ticks=%d err=%v, want 10", ok, h.Ticks, err)
	}
	if resp := ship(20, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresher ship: %s", resp.Status)
	}
	if h, _, _ := readCopy(tc.srvs[1].store, owner, "idem"); h.Ticks != 20 {
		t.Fatalf("fresher ship not applied: ticks=%d", h.Ticks)
	}

	// Torn mid-body: transmission damage is retryable, and the held copy
	// is untouched.
	resp := ship(30, func(b []byte) []byte { return b[:len(b)/2] })
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("torn ship: %s (Retry-After %q), want 503 with a hint", resp.Status, resp.Header.Get("Retry-After"))
	}
	if h, _, _ := readCopy(tc.srvs[1].store, owner, "idem"); h.Ticks != 20 {
		t.Fatalf("torn ship mutated the held copy: ticks=%d", h.Ticks)
	}

	// An envelope claiming 1000 ticks around a 10-tick payload would win
	// more-ticks-wins and be promoted later with 10 ticks lost: terminal 400
	// (a retry would carry the same frame), held copy untouched.
	if resp := post(1000, 10, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("envelope/payload mismatch: %s, want 400", resp.Status)
	}
	if h, _, _ := readCopy(tc.srvs[1].store, owner, "idem"); h.Ticks != 20 {
		t.Fatalf("mismatched ship displaced the held copy: ticks=%d", h.Ticks)
	}
}

// TestStandbyPromotionOnOwnerDown is the promotion path end to end: the
// owner dies after its snapshot replicated, the client fails over to the
// successor, which serves from the standby copy with adopted=true and
// degraded=false — real state, not degraded-mode guessing. When the owner
// returns, the standby stops serving and the state ships home.
func TestStandbyPromotionOnOwnerDown(t *testing.T) {
	tc := standbyCluster(t, 3)
	client := tc.client()
	tenant := tc.tenantOwnedBy(0, "promo")
	sbIdx := tc.standbyIdx(tenant)
	ds := coupledDataset(rand.New(rand.NewSource(13)), 48)

	if _, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 24)); err != nil {
		t.Fatal(err)
	}
	waitStandbyCopy(t, tc, sbIdx, tc.urls[0], tenant, 24)

	// Kill the owner at the connection level: requests and probes both die,
	// and the client's conn-error failover fires.
	tc.swaps[0].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("test server must support hijacking")
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	for i := 1; i < 3; i++ {
		waitState(t, tc.srvs[i].table, tc.urls[0], cluster.Down)
	}

	pts, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 24, 36))
	if err != nil {
		t.Fatalf("push while owner down: %v", err)
	}
	for _, p := range pts {
		if p.Degraded {
			t.Fatalf("adopted session emitted a degraded point: %+v", p)
		}
	}
	info, err := client.Session(context.Background(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Adopted || info.Ticks != 36 {
		t.Fatalf("session after promotion = %+v, want adopted at 36 ticks", info)
	}
	if got := tc.srvs[sbIdx].met.replPromotions.Load(); got != 1 {
		t.Fatalf("promotions on standby = %d, want 1", got)
	}

	// Owner returns: its hello pends the tenant, the standby ships the
	// adopted state home, and the stream resumes on the owner — no tick
	// lost, no tick replayed.
	tc.swaps[0].set(tc.srvs[0])
	for i := 1; i < 3; i++ {
		waitState(t, tc.srvs[i].table, tc.urls[0], cluster.Alive)
	}
	deadline := time.Now().Add(10 * time.Second)
	for tc.srvs[sbIdx].met.replShipsHome.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("adopted state never shipped home")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 36, 48)); err != nil {
		t.Fatalf("push after owner recovery: %v", err)
	}
	info, err = client.Session(context.Background(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	if info.Adopted || info.Ticks != 48 {
		t.Fatalf("session after ship-home = %+v, want un-adopted at 48 ticks", info)
	}
}

// TestStandbySuccessionAfterRestart is the standby-succession fork. Tenant T
// is owned by O with ring successors P then S: it replicates to P at 24
// ticks, to S at 36 while P is down, and with O down too S adopts and
// serves T to 48. P restarts on its own disk, still holding its 24-tick
// copy. P must not promote that copy: S's hello reply pends T on P (S's
// adopted session belongs on P now), the pend is checked before adoption,
// and S ships the session to P as a move. The stream continues on P at 48.
func TestStandbySuccessionAfterRestart(t *testing.T) {
	tc := standbyCluster(t, 3)
	tenant := tc.tenantOwnedBy(0, "succ")
	p := tc.standbyIdx(tenant)
	s := 3 - p // the replicas are {0, p, s}
	ds := coupledDataset(rand.New(rand.NewSource(47)), 60)
	at := func(i int) *Client {
		return &Client{BaseURL: tc.urls[i], Retry: RetryPolicy{MaxAttempts: 200, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}}
	}
	kill := func(i int) {
		tc.swaps[i].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
		}))
		tc.srvs[i].Shutdown(context.Background())
	}

	if _, err := at(0).PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 24)); err != nil {
		t.Fatal(err)
	}
	waitStandbyCopy(t, tc, p, tc.urls[0], tenant, 24)
	kill(p)
	waitState(t, tc.srvs[0].table, tc.urls[p], cluster.Down)
	if _, err := at(0).PushTicksRetry(context.Background(), tenant, ticksOf(ds, 24, 36)); err != nil {
		t.Fatal(err)
	}
	waitStandbyCopy(t, tc, s, tc.urls[0], tenant, 36)
	kill(0)
	waitState(t, tc.srvs[s].table, tc.urls[0], cluster.Down)
	waitState(t, tc.srvs[s].table, tc.urls[p], cluster.Down)
	if _, err := at(s).PushTicksRetry(context.Background(), tenant, ticksOf(ds, 36, 48)); err != nil {
		t.Fatalf("push to the adopting standby: %v", err)
	}

	// P restarts on its own disk. S's replication queue is parked first:
	// its re-seed copy to P would otherwise race the push below, and the
	// copy is asynchronous insurance — only the ownership exchange itself
	// may be relied on to carry T to P.
	tc.srvs[s].repl.Stop()
	restarted, err := New(tc.srvs[p].opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Shutdown(context.Background()) })
	tc.srvs[p] = restarted
	tc.swaps[p].set(restarted)
	waitState(t, restarted.table, tc.urls[0], cluster.Down)
	if _, err := at(p).PushTicksRetry(context.Background(), tenant, ticksOf(ds, 48, 60)); err != nil {
		t.Fatalf("push to the restarted standby: %v", err)
	}
	info, err := at(p).Session(context.Background(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ticks != 60 || !info.Adopted {
		t.Fatalf("restarted standby serves %+v, want adopted at 60 ticks (it promoted its own stale copy)", info)
	}
}

// TestWipedOwnerTakesFresherThirdCopy: tenant T, owned by O with ring
// successors P then S, replicates to P at 24 ticks and, while P is down, to
// S at 36. P comes back, and O restarts with an empty disk. P is T's live
// successor and ships its 24-tick copy; S, answering O's own hello, ships
// its 36-tick copy too, and the owner's pend keeps the fresher one. The
// stream resumes on O at 36: nothing is lost, and nothing is announced
// that no replica ships.
func TestWipedOwnerTakesFresherThirdCopy(t *testing.T) {
	tc := standbyCluster(t, 3)
	tenant := tc.tenantOwnedBy(0, "fresher")
	p := tc.standbyIdx(tenant)
	s := 3 - p // the replicas are {0, p, s}
	ds := coupledDataset(rand.New(rand.NewSource(59)), 48)
	at := &Client{BaseURL: tc.urls[0], Retry: RetryPolicy{MaxAttempts: 200, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}}

	if _, err := at.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 24)); err != nil {
		t.Fatal(err)
	}
	waitStandbyCopy(t, tc, p, tc.urls[0], tenant, 24)
	tc.swaps[p].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
	}))
	waitState(t, tc.srvs[0].table, tc.urls[p], cluster.Down)
	if _, err := at.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 24, 36)); err != nil {
		t.Fatal(err)
	}
	waitStandbyCopy(t, tc, s, tc.urls[0], tenant, 36)
	// P comes back still holding 24: the owner's replication queue is parked
	// so its resync cannot refresh P's copy.
	tc.srvs[0].repl.Stop()
	tc.swaps[p].set(tc.srvs[p])
	waitState(t, tc.srvs[s].table, tc.urls[p], cluster.Alive)

	opts := tc.srvs[0].opts
	opts.SnapshotDir, opts.StandbyDir = t.TempDir(), t.TempDir()
	tc.srvs[0].Shutdown(context.Background())
	restarted, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Shutdown(context.Background()) })
	tc.srvs[0] = restarted
	tc.swaps[0].set(restarted)
	if _, err := at.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 36, 48)); err != nil {
		t.Fatalf("push to the wiped owner: %v", err)
	}
	info, err := at.Session(context.Background(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ticks != 48 {
		t.Fatalf("the wiped owner is at %d ticks after resuming and 12 more, want 48 (it resumed from a staler copy)", info.Ticks)
	}
}

// TestDeleteAfterDrainStartsFresh: a drain moves a tenant to its old
// owner's ring successor, which is the replica holding that owner's standby
// copy. A DELETE there must take the copy too, or the next tick would
// restore the deleted stream from it.
func TestDeleteAfterDrainStartsFresh(t *testing.T) {
	tc := standbyCluster(t, 3)
	client := tc.client()
	tenant := tc.tenantOwnedBy(0, "del")
	sb := tc.standbyIdx(tenant)
	ds := coupledDataset(rand.New(rand.NewSource(53)), 36)
	if _, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 24)); err != nil {
		t.Fatal(err)
	}
	waitStandbyCopy(t, tc, sb, tc.urls[0], tenant, 24)
	if moved, err := tc.srvs[0].DrainToPeers(context.Background()); err != nil || moved != 1 {
		t.Fatalf("drain moved %d (err %v), want 1", moved, err)
	}
	at := &Client{BaseURL: tc.urls[sb], Retry: RetryPolicy{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}}
	if err := at.EndSession(context.Background(), tenant); err != nil {
		t.Fatal(err)
	}
	if _, err := at.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 12)); err != nil {
		t.Fatal(err)
	}
	info, err := at.Session(context.Background(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ticks != 12 {
		t.Fatalf("after DELETE and 12 ticks the new owner is at %d ticks, want 12 (the deleted stream came back)", info.Ticks)
	}
}

// TestSessionReadsStandbyCopy: GET /v1/streams/{tenant} reports the state
// the tenant's next tick would restore. With no session and no snapshot on
// the owner, that is a standby copy the owner holds; the GET must report
// its ticks, not 404, and the next tick must resume from it.
func TestSessionReadsStandbyCopy(t *testing.T) {
	tc := standbyCluster(t, 3)
	tenant := tc.tenantOwnedBy(0, "getcopy")
	p := tc.standbyIdx(tenant)
	ds := coupledDataset(rand.New(rand.NewSource(61)), 25)
	at := &Client{BaseURL: tc.urls[0], Retry: RetryPolicy{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}}
	if _, err := at.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 24)); err != nil {
		t.Fatal(err)
	}
	frame, err := cluster.EncodeHandoff(waitStandbyCopy(t, tc, p, tc.urls[0], tenant, 24))
	if err != nil {
		t.Fatal(err)
	}
	// End the owner's session and snapshot, then leave it a 24-tick copy —
	// held for another owner, as a standby of that owner's tenants holds it.
	if err := at.EndSession(context.Background(), tenant); err != nil {
		t.Fatal(err)
	}
	owner := tc.srvs[0]
	if err := putCopy(owner.store, tc.urls[p], tenant, frame); err != nil {
		t.Fatal(err)
	}
	if _, ok, _, err := owner.store.read("", tenant); ok || err != nil || owner.reg.get(tenant) != nil {
		t.Fatalf("the owner still has a snapshot (%v, err %v) or a session", ok, err)
	}

	info, err := at.Session(context.Background(), tenant)
	if err != nil {
		t.Fatalf("GET with only a standby copy: %v", err)
	}
	if info.Ticks != 24 || info.SentenceSpan != testModel(t).Config().Language.Span() {
		t.Fatalf("GET reports %d ticks, span %d; want the copy's 24 ticks", info.Ticks, info.SentenceSpan)
	}
	if _, err := at.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 24, 25)); err != nil {
		t.Fatal(err)
	}
	if info, err := at.Session(context.Background(), tenant); err != nil || info.Ticks != 25 {
		t.Fatalf("after one more tick the owner is at %d ticks (err %v), want 25", info.Ticks, err)
	}
}

// TestStandbyNoCopyStays503: a tenant whose owner is down but whose standby
// copy never arrived must NOT be fresh-started by the successor — it answers
// retryable until the owner returns. Silent fresh starts would fork the
// stream's history.
func TestStandbyNoCopyStays503(t *testing.T) {
	tc := standbyCluster(t, 3)
	client := tc.client()
	tenant := tc.tenantOwnedBy(0, "nocopy")
	ds := coupledDataset(rand.New(rand.NewSource(17)), 12)

	// Down the owner before the tenant ever exists: no snapshot, no copy.
	tc.swaps[0].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj := w.(http.Hijacker)
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	for i := 1; i < 3; i++ {
		waitState(t, tc.srvs[i].table, tc.urls[0], cluster.Down)
	}
	oneShot := tc.client()
	oneShot.Retry.MaxAttempts = 2
	_, err := oneShot.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 6))
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("push with no standby copy: err = %v, want *BusyError", err)
	}

	// Owner back: the tenant starts fresh there, exactly once.
	tc.swaps[0].set(tc.srvs[0])
	for i := 1; i < 3; i++ {
		waitState(t, tc.srvs[i].table, tc.urls[0], cluster.Alive)
	}
	if _, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 12)); err != nil {
		t.Fatal(err)
	}
}

// TestStandbyShipHomeOnlyFromSuccessor: only the tenant's live ring
// successor ships a standby copy home. A third replica holding a forwarded
// (typically staler) copy must sit on it — its ship would install stale
// state on the revived owner and clear the owner's pend before the
// successor's fresher copy lands, forking the stream.
func TestStandbyShipHomeOnlyFromSuccessor(t *testing.T) {
	tc := standbyCluster(t, 3)
	client := tc.client()
	tenant := tc.tenantOwnedBy(0, "oneship")
	sbIdx := tc.standbyIdx(tenant)
	thirdIdx := 3 - sbIdx // replicas are {0, sbIdx, thirdIdx}; owner is 0
	if sbIdx == 0 || thirdIdx == 0 || sbIdx == thirdIdx {
		t.Fatalf("degenerate ring: owner=0 sb=%d third=%d", sbIdx, thirdIdx)
	}
	ds := coupledDataset(rand.New(rand.NewSource(29)), 24)

	if _, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 12)); err != nil {
		t.Fatal(err)
	}
	h12 := waitStandbyCopy(t, tc, sbIdx, tc.urls[0], tenant, 12)
	// Plant the @12 copy on the third replica — the shape a standby-of-
	// standby forward leaves behind — then advance the successor to @24.
	frame, err := cluster.EncodeHandoff(h12)
	if err != nil {
		t.Fatal(err)
	}
	third := tc.srvs[thirdIdx]
	if err := putCopy(third.store, tc.urls[0], tenant, frame); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 12, 24)); err != nil {
		t.Fatal(err)
	}
	waitStandbyCopy(t, tc, sbIdx, tc.urls[0], tenant, 24)

	// The third replica refuses the ship: no ship-home counted, its copy
	// left in place (it is not this replica's to resolve).
	if err := third.ship(context.Background(), tc.urls[0], tenant, false); err != nil {
		t.Fatalf("gated ship: %v", err)
	}
	if got := third.met.replShipsHome.Load(); got != 0 {
		t.Fatalf("third replica shipped home %d copies, want 0", got)
	}
	if _, ok, _ := readCopy(third.store, tc.urls[0], tenant); !ok {
		t.Fatal("gated ship deleted the third replica's copy")
	}

	// The successor ships: acked (the live owner dedupes by ticks) and its
	// copy RETAINED — it is still the warm standby, and dropping it would
	// leave the tenant unadoptable until the owner's next persist.
	sb := tc.srvs[sbIdx]
	if err := sb.ship(context.Background(), tc.urls[0], tenant, false); err != nil {
		t.Fatalf("successor ship: %v", err)
	}
	if got := sb.met.replShipsHome.Load(); got != 1 {
		t.Fatalf("successor ships home = %d, want 1", got)
	}
	kept, ok, err := readCopy(sb.store, tc.urls[0], tenant)
	if err != nil || !ok {
		t.Fatalf("successor's warm copy dropped by the acked ship (ok=%v err=%v)", ok, err)
	}
	if kept.Ticks != 24 {
		t.Fatalf("retained copy at %d ticks, want 24", kept.Ticks)
	}
}

// TestResyncReseedsReplicationWithNothingToShip: a replica that holds
// nothing owned by a revived peer must still re-offer its own resident
// sessions to the replication queue — after a two-way partition heals, its
// post-heal persists were targeted under a stale view and the standby would
// otherwise stay stale until the next organic persist.
func TestResyncReseedsReplicationWithNothingToShip(t *testing.T) {
	tc := standbyCluster(t, 3)
	client := tc.client()
	tenant := tc.tenantOwnedBy(0, "reseed")
	ds := coupledDataset(rand.New(rand.NewSource(31)), 12)
	if _, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 12)); err != nil {
		t.Fatal(err)
	}
	waitStandbyCopy(t, tc, tc.standbyIdx(tenant), tc.urls[0], tenant, 12)

	owner := tc.srvs[0]
	before := owner.repl.Stats()
	// The owner holds nothing owned by replica 1 or 2; the resync must still
	// sweep its resident sessions back into the queue.
	owner.onPeerChange(tc.urls[1], cluster.Down, cluster.Alive)
	deadline := time.Now().Add(5 * time.Second)
	for {
		after := owner.repl.Stats()
		if after.Enqueued+after.Coalesced > before.Enqueued+before.Coalesced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resync with empty ship set never re-offered resident sessions: %+v -> %+v", before, after)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHelloRecoveryTriggersResync: learning that a Down peer is back via
// its hello must fire the same resync hook as a prober-observed recovery.
// A bare membership write would leave the prober's own later success a
// no-op (Alive != Down), so the receiver would never re-offer standby
// copies that were mis-targeted under the stale Down view.
func TestHelloRecoveryTriggersResync(t *testing.T) {
	tc := standbyCluster(t, 3)
	client := tc.client()
	tenant := tc.tenantOwnedBy(0, "hello")
	ds := coupledDataset(rand.New(rand.NewSource(37)), 12)
	if _, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 12)); err != nil {
		t.Fatal(err)
	}
	waitStandbyCopy(t, tc, tc.standbyIdx(tenant), tc.urls[0], tenant, 12)

	owner := tc.srvs[0]
	owner.table.Set(tc.urls[1], cluster.Down)
	before := owner.repl.Stats()
	body := fmt.Sprintf(`{"kind":"hello","from":%q}`, tc.urls[1])
	resp, err := http.Post(tc.urls[0]+cluster.UpdatePath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hello answered %d", resp.StatusCode)
	}
	if got := owner.table.Get(tc.urls[1]); got != cluster.Alive {
		t.Fatalf("hello left peer state %v", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		after := owner.repl.Stats()
		if after.Enqueued+after.Coalesced > before.Enqueued+before.Coalesced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hello-learned recovery never re-offered standbys: %+v -> %+v", before, after)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterUpdateDecodeFailureRetryable: a peer announcement whose body
// does not decode is transmission damage, not a bad request — it must come
// back 503 + Retry-After so the sender's retry loop redelivers the pend it
// carries. (An unknown peer stays terminal: retrying cannot fix identity.)
func TestClusterUpdateDecodeFailureRetryable(t *testing.T) {
	tc := standbyCluster(t, 2)
	resp, err := http.Post(tc.urls[0]+cluster.UpdatePath, "application/json", strings.NewReader(`{"kind":"hello","from":"http`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("truncated update: %s (Retry-After %q), want 503 with a hint", resp.Status, resp.Header.Get("Retry-After"))
	}

	resp, err = http.Post(tc.urls[0]+cluster.UpdatePath, "application/json", strings.NewReader(`{"kind":"hello","from":"http://nobody:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-peer update: %s, want terminal 400", resp.Status)
	}
}

// TestStandbyMetricsRendered: the repl metric family appears on /metrics
// only when a standby store is configured, and counts real traffic.
func TestStandbyMetricsRendered(t *testing.T) {
	tc := standbyCluster(t, 2)
	client := tc.client()
	tenant := tc.tenantOwnedBy(0, "met")
	ds := coupledDataset(rand.New(rand.NewSource(19)), 12)
	if _, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 12)); err != nil {
		t.Fatal(err)
	}
	waitStandbyCopy(t, tc, 1, tc.urls[0], tenant, 12)

	scrape := func(i int) string {
		resp, err := http.Get(tc.urls[i] + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	owner, sb := scrape(0), scrape(1)
	if !strings.Contains(owner, "mdes_serve_repl_shipped_total") {
		t.Fatal("owner /metrics missing repl family")
	}
	if !strings.Contains(sb, "mdes_serve_repl_received_total 1") && !strings.Contains(sb, "mdes_serve_repl_received_total") {
		t.Fatal("standby /metrics missing repl family")
	}
	if !strings.Contains(sb, "mdes_serve_repl_standby_tenants 1") {
		t.Fatalf("standby gauge missing or wrong:\n%s", sb)
	}
	if !strings.Contains(owner, "mdes_serve_repl_lag_seconds_count") {
		t.Fatal("owner /metrics missing repl lag histogram")
	}
}

// TestTornSnapshotCounted: a snapshot with no intact slot increments the
// torn counter and serves fresh instead of failing. A torn newest slot beside
// an intact older one is a routine crash mid-save: the tenant restores from
// the older record and nothing is counted.
func TestTornSnapshotCounted(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	srv, _, c := newTestServer(t, Options{SnapshotDir: dir})
	tenant := "torn-plant"
	ds := coupledDataset(rand.New(rand.NewSource(23)), 12)
	for _, from := range []int{0, 6} { // two saves: slot 0 @6, slot 1 @12
		if _, err := c.PushTicks(ctx, tenant, ticksOf(ds, from, from+6)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Shutdown(ctx)
	_, path := srv.store.path("", tenant)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the newest record (slot 1) mid-frame.
	oneTorn := append([]byte(nil), data...)
	oneTorn[len(data)/2+20] ^= 0xff
	if err := os.WriteFile(path, oneTorn, 0o644); err != nil {
		t.Fatal(err)
	}
	srv2, _, c2 := newTestServer(t, Options{SnapshotDir: dir})
	if _, err := c2.PushTicks(ctx, tenant, ticksOf(ds, 6, 12)); err != nil {
		t.Fatal(err)
	}
	if info, err := c2.Session(ctx, tenant); err != nil || info.Ticks != 12 {
		t.Fatalf("after a torn newest slot: session %+v (err %v), want restored @6 + 6 ticks", info, err)
	}
	if got := srv2.met.snapshotTorn.Load(); got != 0 {
		t.Fatalf("snapshotTorn = %d with an intact slot left, want 0", got)
	}
	srv2.Shutdown(ctx)

	// Tear every slot: cut the file inside the first record.
	if err := os.WriteFile(path, data[:64], 0o644); err != nil {
		t.Fatal(err)
	}
	srv3, _, c3 := newTestServer(t, Options{SnapshotDir: dir})
	if _, err := c3.PushTicks(ctx, tenant, ticksOf(ds, 0, 6)); err != nil {
		t.Fatal(err)
	}
	if got := srv3.met.snapshotTorn.Load(); got != 1 {
		t.Fatalf("snapshotTorn = %d, want 1", got)
	}
}

// quietCluster is a standby cluster whose probers never probe: tests set
// each replica's view with Table.Set and fire recoveries by hand, so every
// step of a race runs in the order the test writes.
func quietCluster(t *testing.T) (tc *testCluster, push func(i int, tenant string, ds *seqio.Dataset, lo, hi int), at func(i int) *Client) {
	t.Helper()
	tc = newTestCluster(t, 3, func(i int, o *Options) {
		o.StandbyDir = t.TempDir()
		o.ProbeInterval = time.Hour
	})
	at = func(i int) *Client {
		return &Client{BaseURL: tc.urls[i], Retry: RetryPolicy{MaxAttempts: 400, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}}
	}
	push = func(i int, tenant string, ds *seqio.Dataset, lo, hi int) {
		t.Helper()
		if _, err := at(i).PushTicksRetry(context.Background(), tenant, ticksOf(ds, lo, hi)); err != nil {
			t.Fatalf("push [%d,%d) to replica %d: %v", lo, hi, i, err)
		}
	}
	return tc, push, at
}

// waitServedAt polls replica i until it serves tenant itself, un-adopted, at
// exactly want ticks.
func waitServedAt(t *testing.T, at *Client, tenant string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := at.Session(context.Background(), tenant)
		if err == nil && !info.Adopted && info.Ticks == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never served %q at %d ticks (last %+v, %v)", at.BaseURL, tenant, want, info, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReadoptionTakesFresherCopy: standby S adopts tenant T while owner O
// is Down in its view, and its adopted session stays resident after O is
// back. O takes T home (from the third replica's copy), serves on, and
// replicates a fresher copy to S. When S adopts T again it must serve that
// copy, not re-mark its stale session: the second outage's ticks would
// otherwise land on the first outage's state.
func TestReadoptionTakesFresherCopy(t *testing.T) {
	tc, push, at := quietCluster(t)
	tenant := tc.tenantOwnedBy(0, "readopt")
	s := tc.standbyIdx(tenant)
	r := 3 - s // the replicas are {0, s, r}
	ds := coupledDataset(rand.New(rand.NewSource(61)), 24)

	push(0, tenant, ds, 0, 6)
	waitStandbyCopy(t, tc, s, tc.urls[0], tenant, 6)
	tc.srvs[s].table.Set(tc.urls[0], cluster.Down)
	push(s, tenant, ds, 6, 12) // S adopts its 6-tick copy and forwards 12 to R
	waitStandbyCopy(t, tc, r, tc.urls[0], tenant, 12)
	tc.srvs[s].table.Set(tc.urls[0], cluster.Alive)
	// O's hello to R pulls R's copy home.
	resp, err := http.Post(tc.urls[r]+cluster.UpdatePath, "application/json", strings.NewReader(fmt.Sprintf(`{"kind":"hello","from":%q}`, tc.urls[0])))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	waitServedAt(t, at(0), tenant, 12)
	push(0, tenant, ds, 12, 18)
	waitStandbyCopy(t, tc, s, tc.urls[0], tenant, 18)

	tc.srvs[s].table.Set(tc.urls[0], cluster.Down)
	push(s, tenant, ds, 18, 24)
	info, err := at(s).Session(context.Background(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Adopted || info.Ticks != 24 {
		t.Fatalf("standby serves %+v after the second outage's batch, want adopted at 24 ticks (it re-adopted its stale session)", info)
	}
}

// TestAdoptedTicksDecodeOnlyWhatTheyLoad: each tick request at a standby
// adopting a tenant compares the records it holds by their envelopes, and
// decodes one only to load it. Here the adopted session's own record is
// replaced by an intact frame at fewer ticks whose payload does not match
// its envelope: the next adopted request is served from the resident
// session, and that record is never decoded, so no load error is counted.
func TestAdoptedTicksDecodeOnlyWhatTheyLoad(t *testing.T) {
	tc, push, _ := quietCluster(t)
	tenant := tc.tenantOwnedBy(0, "nodecode")
	s := tc.standbyIdx(tenant)
	sb := tc.srvs[s]
	ds := coupledDataset(rand.New(rand.NewSource(71)), 18)

	push(0, tenant, ds, 0, 6)
	waitStandbyCopy(t, tc, s, tc.urls[0], tenant, 6)
	sb.table.Set(tc.urls[0], cluster.Down)
	push(s, tenant, ds, 6, 12) // adopts the 6-tick copy, persists 12 as its own record
	sess := sb.reg.get(tenant)
	if sess == nil {
		t.Fatal("no adopted session resident on the standby")
	}
	sess.mu.Lock()
	h, err := sb.store.record(snapshotOfLocked(sess))
	sess.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	h.Ticks-- // 11: fresher than the 6-tick copy, staler than the session
	if err := sb.store.write("", h, nil); err != nil {
		t.Fatal(err)
	}

	before := sb.met.snapshotLoadErrors.Load()
	push(s, tenant, ds, 12, 18)
	if got := sb.met.snapshotLoadErrors.Load(); got != before {
		t.Fatalf("snapshot load errors %d -> %d: an adopted tick decoded a record it did not load", before, got)
	}
	if got := sb.met.replPromotions.Load(); got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
}

// TestReadsAndDeletesDoNotPromote: a standby holding only a copy of a
// tenant whose owner is Down reports that copy to a GET and drops it on a
// DELETE, and neither promotes it: only a tick request starts a session.
func TestReadsAndDeletesDoNotPromote(t *testing.T) {
	tc, push, at := quietCluster(t)
	ds := coupledDataset(rand.New(rand.NewSource(73)), 6)
	for _, op := range []string{"get", "delete"} {
		t.Run(op, func(t *testing.T) {
			tenant := tc.tenantOwnedBy(0, "nopromo-"+op)
			s := tc.standbyIdx(tenant)
			sb := tc.srvs[s]
			sb.table.Set(tc.urls[0], cluster.Alive)
			push(0, tenant, ds, 0, 6)
			waitStandbyCopy(t, tc, s, tc.urls[0], tenant, 6)
			sb.table.Set(tc.urls[0], cluster.Down)
			promotions := sb.met.replPromotions.Load()

			if op == "get" {
				info, err := at(s).Session(context.Background(), tenant)
				if err != nil {
					t.Fatal(err)
				}
				if info.Ticks != 6 || info.Adopted {
					t.Fatalf("GET at the standby = %+v, want the copy's 6 ticks, not adopted", info)
				}
			} else {
				if err := at(s).EndSession(context.Background(), tenant); err != nil {
					t.Fatal(err)
				}
				if _, ok, err := readCopy(sb.store, tc.urls[0], tenant); ok || err != nil {
					t.Fatalf("the copy outlived the DELETE (ok %v, err %v)", ok, err)
				}
			}
			if got := sb.met.replPromotions.Load(); got != promotions || sb.reg.get(tenant) != nil {
				t.Fatalf("the %s promoted the copy: promotions %d -> %d, resident = %v", op, promotions, got, sb.reg.get(tenant) != nil)
			}
		})
	}
}

// TestRejoinGreetsEveryPeer: owner O's view misses standby S's verdict on
// it. S and the third replica R see O Down, and S adopts tenant T; O sees
// R Down but S Alive. When O sees R back it takes T home from R's copy —
// and must greet S too, or S keeps adopting T beside O: a client still
// routing around O reaches S, and two replicas write T's stream. The rejoin
// tells S that O is back (S redirects) and pends on O what S holds.
func TestRejoinGreetsEveryPeer(t *testing.T) {
	tc, push, at := quietCluster(t)
	tenant := tc.tenantOwnedBy(0, "rejoin")
	s := tc.standbyIdx(tenant)
	r := 3 - s
	ds := coupledDataset(rand.New(rand.NewSource(67)), 24)

	push(0, tenant, ds, 0, 6)
	waitStandbyCopy(t, tc, s, tc.urls[0], tenant, 6)
	tc.srvs[s].table.Set(tc.urls[0], cluster.Down)
	tc.srvs[r].table.Set(tc.urls[0], cluster.Down)
	tc.srvs[0].table.Set(tc.urls[r], cluster.Down)
	push(s, tenant, ds, 6, 12)
	waitStandbyCopy(t, tc, r, tc.urls[0], tenant, 12)

	// O's prober sees R back.
	tc.srvs[0].table.Set(tc.urls[r], cluster.Alive)
	tc.srvs[0].onPeerChange(tc.urls[r], cluster.Down, cluster.Alive)
	waitServedAt(t, at(0), tenant, 12)
	push(s, tenant, ds, 12, 18)
	push(0, tenant, ds, 18, 24)
	info, err := at(0).Session(context.Background(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	if info.Adopted || info.Ticks != 24 {
		t.Fatalf("owner serves %+v after 24 ticks were sent, want un-adopted at 24 (S adopted beside it)", info)
	}
}
