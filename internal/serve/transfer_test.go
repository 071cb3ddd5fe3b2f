package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mdes"
	"mdes/internal/checkpoint"
	"mdes/internal/cluster"
	"mdes/internal/faultfs"
	"mdes/internal/seqio"
)

// snapshotAfter runs ds's first ticks ticks through a standalone stream and
// returns tenant's session snapshot at that point.
func snapshotAfter(t testing.TB, m *mdes.Model, tenant string, ds *seqio.Dataset, ticks int) sessionSnapshot {
	t.Helper()
	st := m.NewStream()
	for _, tick := range ticksOf(ds, 0, ticks) {
		if _, err := st.Push(tick); err != nil {
			t.Fatal(err)
		}
	}
	return sessionSnapshot{Tenant: tenant, Model: "default", Stream: st.Snapshot()}
}

// transferFrame frames snap for the transfer endpoint: a move shipped by
// from, or (copy) a standby copy filed under owner from.
func transferFrame(t testing.TB, snap sessionSnapshot, from string, copy bool) []byte {
	t.Helper()
	h, err := (&store{self: from}).record(snap)
	if err != nil {
		t.Fatal(err)
	}
	h.Copy = copy
	frame, err := cluster.EncodeHandoff(h)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func postTransfer(t *testing.T, base string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(base+cluster.TransferPath, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestTransferCopyAndMoveStayApart: a copy lands in the standby store and
// never installs a session; a move installs a session and never writes the
// standby store.
func TestTransferCopyAndMoveStayApart(t *testing.T) {
	m := testModel(t)
	tc := standbyCluster(t, 2)
	rx := tc.srvs[1]
	ds := coupledDataset(rand.New(rand.NewSource(41)), 24)

	copied := tc.tenantOwnedBy(0, "copy")
	if resp := postTransfer(t, tc.urls[1], transferFrame(t, snapshotAfter(t, m, copied, ds, 20), tc.urls[0], true)); resp.StatusCode != http.StatusOK {
		t.Fatalf("copy: %s", resp.Status)
	}
	if rx.reg.get(copied) != nil {
		t.Fatal("a copy installed a session")
	}
	if h, ok, err := readCopy(rx.store, tc.urls[0], copied); err != nil || !ok || h.Ticks != 20 {
		t.Fatalf("copy not stored: ok=%v ticks=%d err=%v", ok, h.Ticks, err)
	}
	if got := rx.met.clusterHandoffsReceived.Load(); got != 0 {
		t.Fatalf("a copy counted %d handoffs received", got)
	}

	moved := tc.tenantOwnedBy(1, "move")
	held := rx.standbyHeldCount()
	if resp := postTransfer(t, tc.urls[1], transferFrame(t, snapshotAfter(t, m, moved, ds, 20), tc.urls[0], false)); resp.StatusCode != http.StatusOK {
		t.Fatalf("move: %s", resp.Status)
	}
	sess := rx.reg.get(moved)
	if sess == nil || sess.stream.Ticks() != 20 {
		t.Fatalf("move did not install a 20-tick session: %+v", sess)
	}
	if got := rx.standbyHeldCount(); got != held {
		t.Fatalf("a move changed the standby store: %d copies, had %d", got, held)
	}
	for _, owner := range tc.urls {
		if _, ok, _ := readCopy(rx.store, owner, moved); ok {
			t.Fatalf("a move wrote a standby copy under %s", owner)
		}
	}
}

// TestShutDownReplicaRefusesTransfers: after Shutdown a replica's listener
// may still answer, but its table's stopped row takes nothing — a standby
// copy and a move both get 503 + Retry-After and write nothing, so the
// sender keeps its state and retries elsewhere.
func TestShutDownReplicaRefusesTransfers(t *testing.T) {
	m := testModel(t)
	tc := standbyCluster(t, 2)
	rx := tc.srvs[1]
	if err := rx.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ds := coupledDataset(rand.New(rand.NewSource(43)), 24)
	tenant := tc.tenantOwnedBy(1, "stopped")
	held := rx.standbyHeldCount()
	for _, copy := range []bool{true, false} {
		resp := postTransfer(t, tc.urls[1], transferFrame(t, snapshotAfter(t, m, tenant, ds, 20), tc.urls[0], copy))
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("transfer (copy %v) to a shut-down replica: %s (Retry-After %q), want 503 with a hint", copy, resp.Status, resp.Header.Get("Retry-After"))
		}
	}
	if got := rx.standbyHeldCount(); got != held {
		t.Fatalf("a shut-down replica stored %d standby copies, had %d", got, held)
	}
	if rx.reg.get(tenant) != nil {
		t.Fatal("a shut-down replica installed a moved session")
	}
	if _, ok, _, _ := rx.store.read("", tenant); ok {
		t.Fatal("a shut-down replica wrote a moved snapshot")
	}
}

// TestLegacyStandbyCopyPromotes: a standby file written before transfers
// carried the copy flag still loads, and promotes when its owner is Down.
func TestLegacyStandbyCopyPromotes(t *testing.T) {
	m := testModel(t)
	tc := standbyCluster(t, 2)
	client := tc.client()
	tenant := tc.tenantOwnedBy(0, "legacy")
	ds := coupledDataset(rand.New(rand.NewSource(43)), 24)

	payload, err := json.Marshal(snapshotAfter(t, m, tenant, ds, 12))
	if err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf(`{"tenant":%q,"model":"default","ticks":12,"from":%q,"payload":%s}`, tenant, tc.urls[0], payload)
	sb := tc.srvs[1]
	if err := putCopy(sb.store, tc.urls[0], tenant, checkpoint.AppendFrame(nil, []byte(old))); err != nil {
		t.Fatal(err)
	}
	if h, ok, err := readCopy(sb.store, tc.urls[0], tenant); err != nil || !ok || h.Ticks != 12 || h.Copy {
		t.Fatalf("legacy copy load: %+v ok=%v err=%v", h, ok, err)
	}

	tc.swaps[0].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
	}))
	waitState(t, sb.table, tc.urls[0], cluster.Down)
	got, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 12, 24))
	if err != nil {
		t.Fatal(err)
	}
	all := standalonePoints(t, m, ticksOf(ds, 0, 24))
	comparePoints(t, got, all[len(standalonePoints(t, m, ticksOf(ds, 0, 12))):], "promoted legacy copy")
	info, err := client.Session(context.Background(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Adopted || info.Ticks != 24 {
		t.Fatalf("session = %+v, want adopted at 24 ticks", info)
	}
	if got := sb.met.replPromotions.Load(); got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
}

// unreadableFS fails every read of one path with an I/O error, the way a bad
// sector would; everything else passes through.
type unreadableFS struct {
	faultfs.FS
	path string
}

func (u unreadableFS) ReadFile(name string) ([]byte, error) {
	if name == u.path {
		return nil, &os.PathError{Op: "read", Path: name, Err: syscall.EIO}
	}
	return u.FS.ReadFile(name)
}

// TestTransferMoveOverUnreadableSnapshot: a move for a tenant whose evicted
// snapshot cannot be read must not install. The snapshot may be fresher than
// the frame (a retransmitted old move), and installing would persist over
// it, losing its ticks; the receiver answers retryable and leaves it alone.
func TestTransferMoveOverUnreadableSnapshot(t *testing.T) {
	m := testModel(t)
	const tenant = "sector"
	tc := newTestCluster(t, 1, func(_ int, o *Options) {
		_, path := dirStore(faultfs.OS, o.SnapshotDir, "").path("", tenant)
		o.FS = unreadableFS{FS: faultfs.OS, path: path}
	})
	rx := tc.srvs[0]
	ds := coupledDataset(rand.New(rand.NewSource(47)), 40)
	onDisk := dirStore(faultfs.OS, tc.dirs[0], "")
	if err := putSnapshot(onDisk, snapshotAfter(t, m, tenant, ds, 40)); err != nil {
		t.Fatal(err)
	}

	resp := postTransfer(t, tc.urls[0], transferFrame(t, snapshotAfter(t, m, tenant, ds, 20), "http://peer.invalid", false))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("move over an unreadable snapshot: %s (Retry-After %q), want 503 with a hint", resp.Status, resp.Header.Get("Retry-After"))
	}
	if rx.reg.get(tenant) != nil {
		t.Fatal("move installed over an unreadable snapshot")
	}
	snap, ok, _, err := readSnapshot(onDisk, tenant)
	if err != nil || !ok || snap.Stream.Ticks != 40 {
		t.Fatalf("snapshot after the refused move: ok=%v ticks=%d err=%v, want the 40-tick original", ok, snap.Stream.Ticks, err)
	}
}

// TestTransferOversizedBody: a body over the limit is answered 413, which
// the sender treats as terminal, instead of being cut short, failing its CRC
// and being resent forever as "transmission damage".
func TestTransferOversizedBody(t *testing.T) {
	saved := maxHandoffBody
	maxHandoffBody = 1 << 12
	t.Cleanup(func() { maxHandoffBody = saved })
	tc := newTestCluster(t, 1, nil)

	if resp := postTransfer(t, tc.urls[0], make([]byte, maxHandoffBody+1)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %s, want 413", resp.Status)
	}
	if resp := postTransfer(t, tc.urls[0], make([]byte, maxHandoffBody)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("at-limit garbage: %s, want 503 (bad frame)", resp.Status)
	}
	if got := tc.srvs[0].met.clusterHandoffErrors.Load(); got != 2 {
		t.Fatalf("handoff errors = %d, want 2", got)
	}

	slept := 0
	sender := &cluster.Sender{Sleep: func(context.Context, time.Duration) error { slept++; return nil }}
	big := sessionSnapshot{Tenant: "big", Model: "default", Stream: mdes.StreamSnapshot{Windows: map[string][]string{"a": make([]string, maxHandoffBody)}}}
	payload, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	err = sender.Send(context.Background(), tc.urls[0], cluster.Handoff{Tenant: "big", Model: "default", Payload: payload})
	if err == nil || slept != 0 {
		t.Fatalf("oversized send: err=%v after %d retries, want a terminal error", err, slept)
	}
}

// writeCountFS counts the filesystem mutations a server makes.
type writeCountFS struct {
	faultfs.FS
	writes *atomic.Int64
}

func (c writeCountFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0 {
		c.writes.Add(1)
	}
	return c.FS.OpenFile(name, flag, perm)
}

func (c writeCountFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	c.writes.Add(1)
	return c.FS.CreateTemp(dir, pattern)
}

func (c writeCountFS) Rename(oldpath, newpath string) error {
	c.writes.Add(1)
	return c.FS.Rename(oldpath, newpath)
}

func (c writeCountFS) Remove(name string) error {
	c.writes.Add(1)
	return c.FS.Remove(name)
}

// FuzzTransfer posts arbitrary bodies to one replica's transfer handler. It
// must never panic, must answer only 200, 400, 404, 413 or 503, and may change
// its registry or write its disk (the standby store or a move's snapshot)
// only for an intact frame whose envelope matches its payload.
func FuzzTransfer(f *testing.F) {
	m := testModel(f)
	// A low limit puts the 413 branch within the fuzzer's reach and keeps
	// its inputs small enough to minimise quickly.
	saved := maxHandoffBody
	maxHandoffBody = 1 << 9
	f.Cleanup(func() { maxHandoffBody = saved })
	var writes atomic.Int64
	tc := newTestCluster(f, 1, func(_ int, o *Options) {
		o.StandbyDir = f.TempDir()
		o.FS = writeCountFS{FS: faultfs.OS, writes: &writes}
	})
	srv := tc.srvs[0]
	ds := coupledDataset(rand.New(rand.NewSource(53)), 3)
	snap := snapshotAfter(f, m, "fz", ds, 3)

	move := transferFrame(f, snap, "http://peer.invalid", false)
	if len(move) > maxHandoffBody-32 {
		f.Fatalf("seed move is %d bytes; keep seeds under the fuzzing limit of %d", len(move), maxHandoffBody)
	}
	f.Add(move)
	f.Add(transferFrame(f, snap, "http://owner.invalid", true))
	lying := snap
	lying.Stream.Ticks = 2
	payload, err := json.Marshal(lying)
	if err != nil {
		f.Fatal(err)
	}
	mismatch, err := cluster.EncodeHandoff(cluster.Handoff{Tenant: "fz", Model: "default", Ticks: 30, From: "http://owner.invalid", Copy: true, Payload: payload})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mismatch)
	f.Add(move[:len(move)/2])
	flipped := append([]byte(nil), move...)
	flipped[len(flipped)-2] ^= 0x20
	f.Add(flipped)

	registry := func() map[string]int {
		out := make(map[string]int)
		for _, sess := range srv.reg.all() {
			sess.mu.Lock()
			out[sess.tenant] = sess.stream.Ticks()
			sess.mu.Unlock()
		}
		return out
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before, writesBefore := registry(), writes.Load()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, cluster.TransferPath, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("transfer answered %d: %s", rec.Code, rec.Body)
		}
		after := registry()
		changed := writes.Load() != writesBefore || len(after) != len(before)
		for tenant, ticks := range after {
			changed = changed || before[tenant] != ticks
		}
		if !changed {
			return
		}
		h, err := cluster.DecodeHandoff(body)
		if err != nil {
			t.Fatalf("state changed for an undecodable frame: %v", err)
		}
		if _, err := handoffSnapshot(h); err != nil {
			t.Fatalf("state changed for a frame whose envelope does not match: %v", err)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("state changed but the transfer answered %d", rec.Code)
		}
	})
}

// FuzzPeerUpdate holds /v1/cluster/update to its contract on arbitrary
// bodies, from any prior view of the peer: it never panics; a body that
// does not decode is 503 + Retry-After (line damage, so the sender
// redelivers the pend it carries); an unknown peer or kind is 400;
// "inbound" never changes the view; "leave" never revives a peer.
func FuzzPeerUpdate(f *testing.F) {
	tc := newTestCluster(f, 2, func(_ int, o *Options) { o.StandbyDir = f.TempDir() })
	srv, peer := tc.srvs[0], tc.urls[1]
	// The peer answers every resync the fuzzer provokes with a terminal 404,
	// so no exchange outlives its iteration by more than one round trip.
	tc.swaps[1].set(http.NotFoundHandler())
	for _, u := range []string{
		fmt.Sprintf(`{"kind":"hello","from":%q}`, peer),
		fmt.Sprintf(`{"kind":"rejoin","from":%q}`, peer),
		fmt.Sprintf(`{"kind":"leave","from":%q,"tenants":["a","b"],"ticks":[3,4]}`, peer),
		fmt.Sprintf(`{"kind":"inbound","from":%q,"tenants":["a"],"ticks":[7]}`, peer),
		fmt.Sprintf(`{"kind":"gossip","from":%q}`, peer),
		`{"kind":"hello","from":"http://nobody.invalid"}`,
		`{"kind":"hello","from":"http`,
	} {
		f.Add(uint8(cluster.Down), []byte(u))
	}
	peers := func() []cluster.PeerState {
		var out []cluster.PeerState
		for _, p := range tc.urls {
			out = append(out, srv.table.Get(p))
		}
		return out
	}
	f.Fuzz(func(t *testing.T, state uint8, body []byte) {
		srv.table.Set(peer, cluster.PeerState(state%4))
		before := peers()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, cluster.UpdatePath, bytes.NewReader(body)))
		var u cluster.PeerUpdate
		want := http.StatusOK
		switch err := json.NewDecoder(bytes.NewReader(body)).Decode(&u); {
		case err != nil:
			want = http.StatusServiceUnavailable
		case !slices.Contains(tc.urls, u.From), !slices.Contains([]string{"hello", "rejoin", "leave", "inbound"}, u.Kind):
			want = http.StatusBadRequest
		}
		if rec.Code != want {
			t.Fatalf("update answered %d, want %d: %s", rec.Code, want, rec.Body)
		}
		if want == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") == "" {
			t.Fatal("undecodable update answered 503 without Retry-After")
		}
		after := peers()
		for i := range after {
			if u.Kind == "inbound" && after[i] != before[i] {
				t.Fatalf("inbound moved %s from %v to %v", tc.urls[i], before[i], after[i])
			}
			if u.Kind == "leave" && before[i] != cluster.Alive && after[i] == cluster.Alive {
				t.Fatalf("leave revived %s from %v", tc.urls[i], before[i])
			}
		}
	})
}
