package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mdes"
	"mdes/internal/cluster"
	"mdes/internal/seqio"
)

// swapHandler lets a replica's HTTP address exist before the replica does:
// the cluster's static peer list needs every URL up front, but an httptest
// URL only exists once its server is listening. Requests that arrive before
// the real handler is swapped in get 503, exactly like a replica that is
// still booting.
type swapHandler struct{ h atomic.Value } // holds handlerBox

type handlerBox struct{ h http.Handler }

func newSwapHandler() *swapHandler {
	sh := &swapHandler{}
	sh.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "starting", http.StatusServiceUnavailable)
	}))
	return sh
}

func (sh *swapHandler) set(h http.Handler) { sh.h.Store(handlerBox{h}) }

func (sh *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.h.Load().(handlerBox).h.ServeHTTP(w, r)
}

// testCluster is n in-process replicas sharing one static peer list, each
// with its own snapshot directory.
type testCluster struct {
	t     testing.TB
	urls  []string
	srvs  []*Server
	swaps []*swapHandler
	dirs  []string
	ring  *cluster.Ring
}

func newTestCluster(t testing.TB, n int, mutate func(i int, o *Options)) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	var servers []*httptest.Server
	for i := 0; i < n; i++ {
		sh := newSwapHandler()
		hs := httptest.NewServer(sh)
		t.Cleanup(hs.Close)
		servers = append(servers, hs)
		tc.swaps = append(tc.swaps, sh)
		tc.urls = append(tc.urls, hs.URL)
	}
	ring, err := cluster.NewRing(tc.urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	tc.ring = ring
	for i := 0; i < n; i++ {
		opts := Options{
			Models:      map[string]*mdes.Model{"default": testModel(t)},
			SnapshotDir: t.TempDir(),
			Peers:       tc.urls,
			Advertise:   tc.urls[i],
			// Renders Retry-After: 0 — clients retry at their own backoff
			// pace instead of stalling the test a full second per wait.
			RetryAfter: 10 * time.Millisecond,
		}
		if mutate != nil {
			mutate(i, &opts)
		}
		tc.dirs = append(tc.dirs, opts.SnapshotDir)
		srv, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		tc.srvs = append(tc.srvs, srv)
		tc.swaps[i].set(srv)
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
	}
	// Cleanups run last-in first-out, so this one closes every listener
	// before any replica shuts down and before the temp dirs go: a replica
	// that has shut down still answers a peer's transfer, and a standby copy
	// it stored into a directory being removed failed the removal.
	t.Cleanup(func() {
		for _, hs := range servers {
			hs.Close()
		}
	})
	tc.waitReady()
	return tc
}

// waitReady blocks until every replica's /readyz answers 200 (join done).
func (tc *testCluster) waitReady() {
	tc.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range tc.urls {
		for {
			resp, err := http.Get(u + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				tc.t.Fatalf("replica %s never became ready", u)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func (tc *testCluster) client() *Client {
	return &Client{
		Peers: tc.urls,
		Retry: RetryPolicy{MaxAttempts: 20, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	}
}

func (tc *testCluster) ownerIdx(tenant string) int {
	owner := tc.ring.Owner(tenant)
	for i, u := range tc.urls {
		if u == owner {
			return i
		}
	}
	tc.t.Fatalf("owner %q of %q not in peer list", owner, tenant)
	return -1
}

// tenantOwnedBy generates a tenant name whose ring owner is replica i.
func (tc *testCluster) tenantOwnedBy(i int, prefix string) string {
	for k := 0; k < 10000; k++ {
		name := fmt.Sprintf("%s-%d", prefix, k)
		if tc.ownerIdx(name) == i {
			return name
		}
	}
	tc.t.Fatalf("no tenant name with owner %d found", i)
	return ""
}

// TestClusterMigrationBitIdentity is the tentpole acceptance test: tenants
// stream tick batches, their owner drains mid-stream (freezing each session
// at a request boundary and shipping its snapshot to the survivors), and the
// remaining batches continue through the cluster client. The concatenated
// output must be wire-identical to an unmigrated standalone stream — the
// migration is invisible in the detection output.
func TestClusterMigrationBitIdentity(t *testing.T) {
	m := testModel(t)
	tc := newTestCluster(t, 3, nil)
	client := tc.client()

	victim := 0
	var tenants []string
	for k := 0; len(tenants) < 3 && k < 10000; k++ {
		name := fmt.Sprintf("plant-%d", k)
		if tc.ownerIdx(name) == victim {
			tenants = append(tenants, name)
		}
	}
	ds := make(map[string]*seqio.Dataset, len(tenants))
	for j, tn := range tenants {
		ds[tn] = coupledDataset(rand.New(rand.NewSource(int64(1000+j))), 160)
	}
	const total, cut = 160, 83 // cut mid-window, not aligned to the cadence

	results := make(map[string][]WirePoint)
	// Batches interleave across tenants, so the migration lands between
	// different tenants' batches, not at one synchronized pause.
	push := func(from, to int) {
		for off := from; off < to; off += 7 {
			for _, tn := range tenants {
				end := min(off+7, to)
				got, err := client.PushTicksRetry(context.Background(), tn, ticksOf(ds[tn], off, end))
				if err != nil {
					t.Fatalf("%s ticks [%d,%d): %v", tn, off, end, err)
				}
				results[tn] = append(results[tn], got...)
			}
		}
	}

	push(0, cut)
	moved, err := tc.srvs[victim].DrainToPeers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if moved != len(tenants) {
		t.Fatalf("drain moved %d tenants, want %d", moved, len(tenants))
	}
	push(cut, total)

	for _, tn := range tenants {
		comparePoints(t, results[tn], standalonePoints(t, m, ticksOf(ds[tn], 0, total)), tn)
	}

	// The client kept routing by its static ring, so every post-drain batch
	// was redirected to the new owner.
	if s := client.Stats(); s.Redirects == 0 {
		t.Fatal("no redirects followed across the migration")
	}
	var received int64
	for i, srv := range tc.srvs {
		if i != victim {
			received += srv.met.clusterHandoffsReceived.Load()
		}
	}
	if received < int64(len(tenants)) {
		t.Fatalf("survivors installed %d handoffs, want >= %d", received, len(tenants))
	}
	// The survivors answer session queries with the full migrated history.
	for _, tn := range tenants {
		info, err := client.Session(context.Background(), tn)
		if err != nil {
			t.Fatal(err)
		}
		if info.Ticks != total {
			t.Fatalf("%s: ticks after migration = %d, want %d", tn, info.Ticks, total)
		}
	}
}

// TestClusterMisrouteSemantics pins the non-owner contract: a misrouted
// request is answered 307 with the owner's address while the owner is
// reachable, and 503 + Retry-After while it is down — a down owner still
// owns (its tenants' state is on its disk), so no other replica adopts.
func TestClusterMisrouteSemantics(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	tenant := tc.tenantOwnedBy(0, "route")
	path := "/v1/streams/" + tenant + "/ticks"

	// The stock client follows 307s; the raw response is the contract here.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noFollow.Post(tc.urls[1]+path, "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("misroute status = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != tc.urls[0]+path {
		t.Fatalf("Location = %q, want %q", loc, tc.urls[0]+path)
	}
	if tc.srvs[1].met.clusterRedirects.Load() == 0 {
		t.Fatal("redirect not counted")
	}

	// Owner down: the non-owner answers 503 with a retry hint, never 307 to
	// a dead address and never a fresh local session.
	tc.srvs[1].table.Set(tc.urls[0], cluster.Down)
	resp, err = noFollow.Post(tc.urls[1]+path, "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("owner-down status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("owner-down response missing Retry-After")
	}
	if tc.srvs[1].SessionsLive() != 0 {
		t.Fatal("non-owner created a session for a down owner's tenant")
	}
	tc.srvs[1].table.Set(tc.urls[0], cluster.Alive)
}

// TestClusterHandoffIdempotent replays deliveries at the receiving replica:
// an exact duplicate and a stale (fewer-ticks) snapshot must both ack 200
// without touching the installed state — that is what makes sender retries
// and crossed ships safe.
func TestClusterHandoffIdempotent(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	client := tc.client()
	tenant := tc.tenantOwnedBy(0, "idem")
	ds := coupledDataset(rand.New(rand.NewSource(5)), 40)

	if _, err := client.PushTicks(context.Background(), tenant, ticksOf(ds, 0, 20)); err != nil {
		t.Fatal(err)
	}
	stale := snapshotOnDisk(t, tc, 0, tenant) // 20 ticks
	if _, err := client.PushTicks(context.Background(), tenant, ticksOf(ds, 20, 40)); err != nil {
		t.Fatal(err)
	}
	fresh := snapshotOnDisk(t, tc, 0, tenant) // 40 ticks

	sender := &cluster.Sender{}
	ship := func(snap sessionSnapshot) {
		t.Helper()
		payload, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		h := cluster.Handoff{Tenant: tenant, Model: snap.Model, Ticks: snap.Stream.Ticks, From: tc.urls[0], Payload: payload}
		if err := sender.Send(context.Background(), tc.urls[1], h); err != nil {
			t.Fatal(err)
		}
	}

	ship(fresh) // installs
	ship(fresh) // exact duplicate: no-op
	ship(stale) // stale retransmit: no-op

	if got := tc.srvs[1].met.clusterHandoffsReceived.Load(); got != 1 {
		t.Fatalf("receiver installed %d handoffs, want exactly 1", got)
	}
	sess := tc.srvs[1].reg.get(tenant)
	if sess == nil {
		t.Fatal("handoff did not install a session")
	}
	if got := sess.stream.Ticks(); got != 40 {
		t.Fatalf("installed session has %d ticks, want 40", got)
	}
}

// TestClusterPendingGate: a tenant announced as inbound (drain or join) gets
// 503 + Retry-After until its handoff lands; an entry past its TTL stops
// blocking (the handoff is presumed lost, the tenant serves from local
// state) and is counted.
func TestClusterPendingGate(t *testing.T) {
	tc := newTestCluster(t, 2, func(i int, o *Options) { o.PendingTTL = time.Hour })
	client := tc.client()
	tenant := tc.tenantOwnedBy(1, "pend")
	ds := coupledDataset(rand.New(rand.NewSource(6)), 10)
	table := tc.srvs[1].table

	table.Pend([]string{tenant}, nil, time.Now())
	oneShot := tc.client()
	oneShot.Retry.MaxAttempts = 1
	_, err := oneShot.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 5))
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("tick during pending handoff: err = %v, want *BusyError", err)
	}
	if tc.srvs[1].met.clusterPendingWaits.Load() == 0 {
		t.Fatal("pending wait not counted")
	}

	// Force the entry past its TTL: the gate opens and the expiry is counted.
	table.Pend([]string{tenant}, nil, time.Now().Add(-time.Hour-time.Second))
	if _, err := client.PushTicks(context.Background(), tenant, ticksOf(ds, 0, 5)); err != nil {
		t.Fatalf("tick after pending expiry: %v", err)
	}
	if tc.srvs[1].met.clusterPendingExpired.Load() == 0 {
		t.Fatal("pending expiry not counted")
	}
}

// TestClusterDegradedStateSurvivesHandoff is the degraded-mode migration
// contract: a session serving degraded ticks (repeating its last valid
// score) migrates, and the receiver must keep repeating the SAME score with
// the degraded flag set — LastScore and Degraded travel in the snapshot.
// Once scoring heals, the stream continues bit-identical to an unmigrated
// healthy reference. The replicas serve an uncached clone: the injected
// failure sits in the scorer, which a memo-answered window never reaches.
func TestClusterDegradedStateSurvivesHandoff(t *testing.T) {
	m := testModel(t)
	var degrade atomic.Bool
	uncached := uncachedCopy(t)
	tc := newTestCluster(t, 2, func(i int, o *Options) {
		o.ScoreDeadline = time.Hour
		o.Models = map[string]*mdes.Model{"default": uncached}
	})
	for _, srv := range tc.srvs {
		real := srv.scorer
		srv.scorer = func(jobs []mdes.ScoreJob, row []float64) error {
			if degrade.Load() {
				return ErrScoreDeadline
			}
			return real(jobs, row)
		}
	}
	client := tc.client()
	tenant := tc.tenantOwnedBy(0, "degr")
	ds := coupledDataset(rand.New(rand.NewSource(909)), 120)
	want := standalonePoints(t, m, ticksOf(ds, 0, 120))

	// Healthy prefix establishes a last valid score.
	healthy, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 60))
	if err != nil {
		t.Fatal(err)
	}
	if len(healthy) == 0 {
		t.Fatal("no healthy points emitted")
	}
	lastValid := healthy[len(healthy)-1].Score

	// Scoring fails; the owner serves degraded.
	degrade.Store(true)
	sick, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 60, 75))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sick {
		if !p.Degraded || p.Score != lastValid {
			t.Fatalf("pre-migration degraded point %d = %+v, want degraded with score %v", i, p, lastValid)
		}
	}

	// Migrate while degraded.
	if moved, err := tc.srvs[0].DrainToPeers(context.Background()); err != nil || moved != 1 {
		t.Fatalf("drain: moved=%d err=%v", moved, err)
	}

	// The new owner must keep repeating the same last valid score.
	migrated, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 75, 90))
	if err != nil {
		t.Fatal(err)
	}
	if len(migrated) == 0 {
		t.Fatal("no points emitted after migration")
	}
	for i, p := range migrated {
		if !p.Degraded || p.Score != lastValid {
			t.Fatalf("post-migration degraded point %d = %+v, want degraded with score %v", i, p, lastValid)
		}
	}
	info, err := client.Session(context.Background(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Degraded {
		t.Fatal("session info lost the degraded flag across the handoff")
	}

	// Heal: degraded ticks advanced the rolling windows, so the tail must
	// match the healthy reference exactly.
	degrade.Store(false)
	healed, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 90, 120))
	if err != nil {
		t.Fatal(err)
	}
	checkHealedTail(t, healed, want, len(healthy)+len(sick)+len(migrated), "after heal")
}

// TestClusterProberDetectsDownAndRecovery drives the health prober end to
// end: a replica that stops answering is demoted to Down (its tenants'
// requests answer 503 everywhere — it still owns them), and its recovery
// promotes it back to Alive with ticks flowing again.
func TestClusterProberDetectsDownAndRecovery(t *testing.T) {
	tc := newTestCluster(t, 2, func(i int, o *Options) { o.ProbeInterval = 20 * time.Millisecond })
	client := tc.client()
	tenant := tc.tenantOwnedBy(0, "probe")
	ds := coupledDataset(rand.New(rand.NewSource(7)), 20)

	if _, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 0, 10)); err != nil {
		t.Fatal(err)
	}

	// Replica 0 stops answering anything, health checks included.
	downHandler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, "killed", http.StatusServiceUnavailable)
	})
	tc.swaps[0].set(downHandler)
	waitState(t, tc.srvs[1].table, tc.urls[0], cluster.Down)

	// The survivor refuses the down owner's tenant instead of adopting it.
	oneShot := tc.client()
	oneShot.Retry.MaxAttempts = 1
	_, err := oneShot.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 10, 15))
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("tick while owner down: err = %v, want *BusyError", err)
	}

	// Recovery: the prober promotes it back and the stream resumes.
	tc.swaps[0].set(tc.srvs[0])
	waitState(t, tc.srvs[1].table, tc.urls[0], cluster.Alive)
	if _, err := client.PushTicksRetry(context.Background(), tenant, ticksOf(ds, 10, 20)); err != nil {
		t.Fatalf("tick after owner recovery: %v", err)
	}
}

func waitState(t *testing.T, mem *cluster.Table, peer string, want cluster.PeerState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for mem.Get(peer) != want {
		if time.Now().After(deadline) {
			t.Fatalf("peer %s never reached state %v (now %v)", peer, want, mem.Get(peer))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func snapshotOnDisk(t *testing.T, tc *testCluster, i int, tenant string) sessionSnapshot {
	t.Helper()
	snap, ok, _, err := readSnapshot(tc.srvs[i].store, tenant)
	if err != nil || !ok {
		t.Fatalf("snapshot for %q on replica %d: ok=%v err=%v", tenant, i, ok, err)
	}
	return snap
}

// TestClientRedirectBudget: a redirect loop must terminate in *RedirectError
// carrying the hop count and the server's retry hint — and PushTicksRetry
// treats it like backpressure, retrying the same (unconsumed) batch.
func TestClientRedirectBudget(t *testing.T) {
	var hits atomic.Int32
	var hs *httptest.Server
	hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 3 {
			w.Header().Set("Location", hs.URL+r.URL.RequestURI())
			w.Header().Set("Retry-After", "1")
			http.Error(w, "moved", http.StatusTemporaryRedirect)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer hs.Close()

	c := &Client{BaseURL: hs.URL, MaxRedirects: 2}
	_, err := c.PushTicks(context.Background(), "t", nil)
	var re *RedirectError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RedirectError", err)
	}
	if re.Hops != 3 || re.RetryAfter != time.Second {
		t.Fatalf("RedirectError = %+v, want 3 hops, 1s hint", re)
	}

	// Retry path: the budget resets per attempt, and the loop has settled by
	// the fourth request.
	hits.Store(0)
	var waits []time.Duration
	c2 := &Client{BaseURL: hs.URL, MaxRedirects: 2, Retry: RetryPolicy{
		Jitter: func() float64 { return 1 },
		Sleep:  sleepRecorder(&waits),
	}}
	if _, err := c2.PushTicksRetry(context.Background(), "t", nil); err != nil {
		t.Fatal(err)
	}
	if len(waits) != 1 || waits[0] != time.Second {
		t.Fatalf("waits = %v, want [1s] (the redirect hint)", waits)
	}
	if c2.Stats().Redirects != 3 {
		t.Fatalf("redirects counted = %d, want 3", c2.Stats().Redirects)
	}
}

// TestSessionRedirectBudget: Session and EndSession route through the same
// loop as PushTicks, so a redirect loop ends in *RedirectError for them too,
// not in an untyped error carrying the last 307.
func TestSessionRedirectBudget(t *testing.T) {
	var hs *httptest.Server
	hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", hs.URL+r.URL.RequestURI())
		w.Header().Set("Retry-After", "1")
		http.Error(w, "moved", http.StatusTemporaryRedirect)
	}))
	defer hs.Close()

	c := &Client{BaseURL: hs.URL, MaxRedirects: 2}
	_, sessErr := c.Session(context.Background(), "t")
	endErr := c.EndSession(context.Background(), "t")
	for name, err := range map[string]error{"Session": sessErr, "EndSession": endErr} {
		var re *RedirectError
		if !errors.As(err, &re) {
			t.Fatalf("%s: err = %v, want *RedirectError", name, err)
		}
		if re.Hops != 3 || re.RetryAfter != time.Second {
			t.Fatalf("%s: RedirectError = %+v, want 3 hops, 1s hint", name, re)
		}
	}
	if got := c.Stats().Redirects; got != 6 {
		t.Fatalf("redirects counted = %d, want 6", got)
	}
}

// TestClientFailoverOnConnectionError: a connect-refused replica is routed
// around — the client marks it down and asks another peer, which redirects
// or serves. No error surfaces for a single dead replica.
func TestClientFailoverOnConnectionError(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	tenant := tc.tenantOwnedBy(0, "fail")
	ds := coupledDataset(rand.New(rand.NewSource(8)), 10)

	// A third address that refuses connections, plus the two live replicas:
	// the client's ring differs from the servers', so some tenants route to
	// the dead address first and must fail over.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // now refuses connections

	c := &Client{
		Peers: []string{tc.urls[0], tc.urls[1], deadURL},
		Retry: RetryPolicy{MaxAttempts: 20, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	}
	ring, err := cluster.NewRing(c.Peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Find a tenant the client would route to the dead address.
	routed := ""
	for k := 0; k < 10000; k++ {
		name := fmt.Sprintf("failover-%d", k)
		if ring.Owner(name) == deadURL && tc.ownerIdx(name) == 0 {
			routed = name
			break
		}
	}
	if routed == "" {
		t.Fatal("no tenant routing to the dead address")
	}
	_ = tenant
	if _, err := c.PushTicksRetry(context.Background(), routed, ticksOf(ds, 0, 10)); err != nil {
		t.Fatalf("push with one dead replica in the client view: %v", err)
	}
	st := c.Stats()
	if st.TicksByReplica[deadURL] != 0 {
		t.Fatal("ticks attributed to a dead replica")
	}
}
