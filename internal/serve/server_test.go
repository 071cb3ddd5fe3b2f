package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mdes"
	"mdes/internal/seqio"
)

// testModel trains one tiny model for the whole package (training is the
// expensive part; every test shares it read-only — mdes.Model scoring is
// concurrency-safe).
var (
	modelOnce sync.Once
	model     *mdes.Model
	modelErr  error
)

func tinyConfig() mdes.Config {
	return mdes.Config{
		Language: mdes.LanguageConfig{
			WordLen: 4, WordStride: 1, SentenceLen: 5, SentenceStride: 5,
		},
		NMT: mdes.NMTConfig{
			Embed: 16, Hidden: 16, Layers: 1,
			Dropout: 0, LearningRate: 5e-3, ClipNorm: 5,
			TrainSteps: 150, BatchSize: 8, MaxDecodeLen: 10,
		},
		ValidRange:      mdes.Range{Lo: 50, Hi: 100},
		PopularInDegree: 3,
		Seed:            1,
	}
}

// coupledDataset mirrors the root package's test fixture: a and b coupled,
// c noise, d constant.
func coupledDataset(rng *rand.Rand, ticks int) *seqio.Dataset {
	a := make([]string, ticks)
	b := make([]string, ticks)
	c := make([]string, ticks)
	d := make([]string, ticks)
	state := "ON"
	for t := 0; t < ticks; t++ {
		if rng.Float64() < 0.15 {
			if state == "ON" {
				state = "OFF"
			} else {
				state = "ON"
			}
		}
		a[t] = state
		if t == 0 {
			b[t] = state
		} else {
			b[t] = a[t-1]
		}
		if rng.Float64() < 0.5 {
			c[t] = "ON"
		} else {
			c[t] = "OFF"
		}
		d[t] = "IDLE"
	}
	return &seqio.Dataset{Sequences: []seqio.Sequence{
		{Sensor: "a", Events: a},
		{Sensor: "b", Events: b},
		{Sensor: "c", Events: c},
		{Sensor: "d", Events: d},
	}}
}

func testModel(t testing.TB) *mdes.Model {
	t.Helper()
	modelOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		full := coupledDataset(rng, 500)
		train, dev, _, err := full.Split(380, 120)
		if err != nil {
			modelErr = err
			return
		}
		fw, err := mdes.New(tinyConfig())
		if err != nil {
			modelErr = err
			return
		}
		model, modelErr = fw.Train(context.Background(), train, dev)
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

// ticksOf converts a dataset range into tick maps.
func ticksOf(ds *seqio.Dataset, from, to int) []map[string]string {
	out := make([]map[string]string, 0, to-from)
	for t := from; t < to; t++ {
		m := make(map[string]string, len(ds.Sequences))
		for _, s := range ds.Sequences {
			m[s.Sensor] = s.Events[t]
		}
		out = append(out, m)
	}
	return out
}

// standalonePoints replays ticks through a plain mdes.Stream.
func standalonePoints(t *testing.T, m *mdes.Model, ticks []map[string]string) []mdes.Point {
	t.Helper()
	stream := m.NewStream()
	var out []mdes.Point
	for _, tick := range ticks {
		p, err := stream.Push(tick)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			out = append(out, *p)
		}
	}
	return out
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, *Client) {
	t.Helper()
	if opts.Models == nil {
		opts.Models = map[string]*mdes.Model{"default": testModel(t)}
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
	})
	return srv, hs, &Client{BaseURL: hs.URL}
}

func comparePoints(t *testing.T, got []WirePoint, want []mdes.Point, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: server emitted %d points, standalone %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].T != want[i].T {
			t.Fatalf("%s point %d: t=%d, want %d", label, i, got[i].T, want[i].T)
		}
		if math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("%s point %d: score %v, want %v", label, i, got[i].Score, want[i].Score)
		}
		if len(got[i].Broken) != len(want[i].Broken) {
			t.Fatalf("%s point %d: %d alerts, want %d", label, i, len(got[i].Broken), len(want[i].Broken))
		}
	}
}

// TestConcurrentTenantsMatchStandaloneStreams is the acceptance test: two
// tenants streaming interleaved tick batches concurrently must produce
// exactly the points two standalone streams produce for the same inputs.
func TestConcurrentTenantsMatchStandaloneStreams(t *testing.T) {
	m := testModel(t)
	_, _, client := newTestServer(t, Options{ScoreWorkers: 4})

	rngA := rand.New(rand.NewSource(101))
	rngB := rand.New(rand.NewSource(202))
	dsA := coupledDataset(rngA, 160)
	dsB := coupledDataset(rngB, 160)

	var wg sync.WaitGroup
	results := make([][]WirePoint, 2)
	errs := make([]error, 2)
	push := func(i int, tenant string, ds *seqio.Dataset) {
		defer wg.Done()
		var points []WirePoint
		for off := 0; off < ds.Ticks(); off += 7 {
			end := off + 7
			if end > ds.Ticks() {
				end = ds.Ticks()
			}
			got, err := client.PushTicks(context.Background(), tenant, ticksOf(ds, off, end))
			if err != nil {
				errs[i] = err
				return
			}
			points = append(points, got...)
		}
		results[i] = points
	}
	wg.Add(2)
	go push(0, "plant-a", dsA)
	go push(1, "plant-b", dsB)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}

	comparePoints(t, results[0], standalonePoints(t, m, ticksOf(dsA, 0, dsA.Ticks())), "tenant a")
	comparePoints(t, results[1], standalonePoints(t, m, ticksOf(dsB, 0, dsB.Ticks())), "tenant b")
}

// TestRestartFromSnapshotsResumesBitForBit kills a server mid-stream and
// restarts it against the same snapshot directory: the remaining ticks must
// yield exactly the points an uninterrupted stream yields.
func TestRestartFromSnapshotsResumesBitForBit(t *testing.T) {
	m := testModel(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(77))
	ds := coupledDataset(rng, 200)
	cut := 83 // mid-window, not aligned to the sentence cadence

	srv1, hs1, client1 := newTestServer(t, Options{SnapshotDir: dir})
	first, err := client1.PushTicks(context.Background(), "plant", ticksOf(ds, 0, cut))
	if err != nil {
		t.Fatal(err)
	}
	hs1.Close()
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, _, client2 := newTestServer(t, Options{SnapshotDir: dir})
	rest, err := client2.PushTicks(context.Background(), "plant", ticksOf(ds, cut, ds.Ticks()))
	if err != nil {
		t.Fatal(err)
	}

	want := standalonePoints(t, m, ticksOf(ds, 0, ds.Ticks()))
	comparePoints(t, append(append([]WirePoint(nil), first...), rest...), want, "restarted")

	info, err := client2.Session(context.Background(), "plant")
	if err != nil {
		t.Fatal(err)
	}
	if info.Ticks != ds.Ticks() || info.Emitted != len(want) {
		t.Fatalf("session info = %+v, want %d ticks %d emitted", info, ds.Ticks(), len(want))
	}
}

// TestBackpressure fills the single admission slot with a held-open request
// and expects the next one to bounce with 429 + Retry-After.
func TestBackpressure(t *testing.T) {
	_, hs, client := newTestServer(t, Options{MaxInflight: 1, RetryAfter: 2 * time.Second})

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/streams/slow/ticks", pr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	// Feed one tick so the request is admitted and processing, then hold the
	// body open to pin the slot.
	if _, err := io.WriteString(pw, `{"a":"ON","b":"ON","c":"OFF"}`+"\n"); err != nil {
		t.Fatal(err)
	}

	var busy *BusyError
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, err := client.PushTicks(context.Background(), "other", []map[string]string{
			{"a": "ON", "b": "ON", "c": "OFF"},
		})
		if b, ok := err.(*BusyError); ok {
			busy = b
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// The slow request may not be admitted yet; try again.
		time.Sleep(10 * time.Millisecond)
	}
	if busy == nil {
		t.Fatal("no 429 while the only slot was held")
	}
	if busy.RetryAfter != 2*time.Second {
		t.Fatalf("Retry-After = %s, want 2s", busy.RetryAfter)
	}

	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// With the slot free the bounced tenant goes through.
	if _, err := client.PushTicks(context.Background(), "other", []map[string]string{
		{"a": "ON", "b": "ON", "c": "OFF"},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLRUEvictionSnapshotsAndRestores caps the registry at one session: the
// second tenant evicts the first, whose stream must come back from its
// snapshot with state intact.
func TestLRUEvictionSnapshotsAndRestores(t *testing.T) {
	m := testModel(t)
	dir := t.TempDir()
	srv, _, client := newTestServer(t, Options{SnapshotDir: dir, MaxSessions: 1})

	rng := rand.New(rand.NewSource(31))
	ds := coupledDataset(rng, 120)
	cut := 50

	ctx := context.Background()
	first, err := client.PushTicks(ctx, "one", ticksOf(ds, 0, cut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.PushTicks(ctx, "two", ticksOf(ds, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if live := srv.SessionsLive(); live != 1 {
		t.Fatalf("sessions live = %d, want 1 after LRU eviction", live)
	}
	if got := srv.met.sessionsEvicted.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}

	// Tenant one returns: restored from its snapshot, continuing exactly.
	rest, err := client.PushTicks(ctx, "one", ticksOf(ds, cut, ds.Ticks()))
	if err != nil {
		t.Fatal(err)
	}
	want := standalonePoints(t, m, ticksOf(ds, 0, ds.Ticks()))
	comparePoints(t, append(append([]WirePoint(nil), first...), rest...), want, "evicted tenant")
	if got := srv.met.sessionsRestored.Load(); got != 1 {
		t.Fatalf("restores = %d, want 1", got)
	}
}

// TestIdleTTLEviction lets the janitor reap an idle session.
func TestIdleTTLEviction(t *testing.T) {
	dir := t.TempDir()
	srv, _, client := newTestServer(t, Options{SnapshotDir: dir, SessionTTL: 50 * time.Millisecond})

	if _, err := client.PushTicks(context.Background(), "idle", []map[string]string{
		{"a": "ON", "b": "ON", "c": "OFF"},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionsLive() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if live := srv.SessionsLive(); live != 0 {
		t.Fatalf("session not evicted after TTL (live=%d)", live)
	}
	// Still queryable from its snapshot.
	info, err := client.Session(context.Background(), "idle")
	if err != nil {
		t.Fatal(err)
	}
	if info.Ticks != 1 {
		t.Fatalf("snapshotted ticks = %d, want 1", info.Ticks)
	}
}

func TestModelSelectionErrors(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{})
	ctx := context.Background()

	// Unknown model → 404.
	bad := &Client{BaseURL: hs.URL, Model: "nope"}
	_, err := bad.PushTicks(ctx, "t1", []map[string]string{{"a": "ON", "b": "ON", "c": "OFF"}})
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown model: %v", err)
	}

	// Session bound to default, then asked for another name → 409.
	def := &Client{BaseURL: hs.URL}
	if _, err := def.PushTicks(ctx, "t2", []map[string]string{{"a": "ON", "b": "ON", "c": "OFF"}}); err != nil {
		t.Fatal(err)
	}
	conflicted := &Client{BaseURL: hs.URL, Model: "other"}
	_, err = conflicted.PushTicks(ctx, "t2", []map[string]string{{"a": "ON", "b": "ON", "c": "OFF"}})
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("model conflict: %v", err)
	}
}

// TestNewRejectsMissingStateDir: New creates neither state directory, and a
// missing one used to surface only at run time, as every snapshot (or every
// replicated copy) silently failing to persist. An embedded server must hear
// about it at construction.
func TestNewRejectsMissingStateDir(t *testing.T) {
	models := map[string]*mdes.Model{"default": testModel(t)}
	missing := filepath.Join(t.TempDir(), "never-created")
	peers := []string{"http://a.invalid", "http://b.invalid"}
	for name, opts := range map[string]Options{
		"SnapshotDir": {SnapshotDir: missing},
		"StandbyDir":  {SnapshotDir: t.TempDir(), StandbyDir: missing, Peers: peers, Advertise: peers[0]},
	} {
		opts.Models = models
		srv, err := New(opts)
		if err == nil {
			srv.Shutdown(context.Background())
			t.Fatalf("missing %s: New succeeded", name)
		}
		if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), missing) {
			t.Fatalf("missing %s: error %q does not name the absent directory", name, err)
		}
	}
}

// TestBadTickAbortsWithoutConsuming sends a tick missing a modelled sensor:
// 400, and the session's counters must not advance.
func TestBadTickAbortsWithoutConsuming(t *testing.T) {
	_, _, client := newTestServer(t, Options{})
	ctx := context.Background()

	if _, err := client.PushTicks(ctx, "strict", []map[string]string{{"a": "ON", "b": "ON", "c": "OFF"}}); err != nil {
		t.Fatal(err)
	}
	_, err := client.PushTicks(ctx, "strict", []map[string]string{{"a": "ON"}})
	if err == nil || !strings.Contains(err.Error(), "missing from tick") {
		t.Fatalf("bad tick: %v", err)
	}
	info, err := client.Session(ctx, "strict")
	if err != nil {
		t.Fatal(err)
	}
	if info.Ticks != 1 {
		t.Fatalf("bad tick consumed: session at %d ticks, want 1", info.Ticks)
	}
}

func TestDeleteSession(t *testing.T) {
	dir := t.TempDir()
	_, _, client := newTestServer(t, Options{SnapshotDir: dir})
	ctx := context.Background()

	if _, err := client.PushTicks(ctx, "gone", []map[string]string{{"a": "ON", "b": "ON", "c": "OFF"}}); err != nil {
		t.Fatal(err)
	}
	if err := client.EndSession(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Session(ctx, "gone"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("deleted session still reported: %v", err)
	}
	// A new push starts from zero.
	if _, err := client.PushTicks(ctx, "gone", []map[string]string{{"a": "ON", "b": "ON", "c": "OFF"}}); err != nil {
		t.Fatal(err)
	}
	info, err := client.Session(ctx, "gone")
	if err != nil {
		t.Fatal(err)
	}
	if info.Ticks != 1 {
		t.Fatalf("recreated session at %d ticks, want 1", info.Ticks)
	}
}

// TestClientEscapesTenantNames pins the client's URL building: a tenant name
// is one path segment whatever bytes it holds, and the model name one query
// value. Each name below is its own session under its exact name ("50%41" is
// not "50A"), and in a cluster the client hashes the same name the server
// does, so every request reaches the owner without a redirect.
func TestClientEscapesTenantNames(t *testing.T) {
	names := []string{"a/b", "t?x=1", "t#1", "50%41", "50A", "sp ace", "ünï"}
	const modelName = "m&x y"
	models := map[string]*mdes.Model{modelName: testModel(t)}
	ds := coupledDataset(rand.New(rand.NewSource(7)), len(names))

	check := func(t *testing.T, client *Client) {
		client.Model = modelName
		ctx := context.Background()
		// A distinct tick count per name shows whose session answers.
		for i, name := range names {
			if _, err := client.PushTicks(ctx, name, ticksOf(ds, 0, i+1)); err != nil {
				t.Fatalf("push %q: %v", name, err)
			}
		}
		for i, name := range names {
			info, err := client.Session(ctx, name)
			if err != nil {
				t.Fatalf("session %q: %v", name, err)
			}
			if info.Tenant != name || info.Model != modelName || info.Ticks != i+1 {
				t.Fatalf("session %q: got %+v, want %d ticks", name, info, i+1)
			}
		}
		for _, name := range names {
			if err := client.EndSession(ctx, name); err != nil {
				t.Fatalf("end %q: %v", name, err)
			}
			if _, err := client.Session(ctx, name); err == nil || !strings.Contains(err.Error(), "404") {
				t.Fatalf("session %q after end: %v, want 404", name, err)
			}
		}
		if n := client.Stats().Redirects; n != 0 {
			t.Fatalf("%d redirects, want 0", n)
		}
	}
	t.Run("standalone", func(t *testing.T) {
		_, _, client := newTestServer(t, Options{Models: models, SnapshotDir: t.TempDir()})
		check(t, client)
	})
	t.Run("cluster", func(t *testing.T) {
		tc := newTestCluster(t, 3, func(_ int, o *Options) { o.Models = models })
		check(t, tc.client())
	})
}

func TestHealthMetricsAndDrain(t *testing.T) {
	srv, hs, client := newTestServer(t, Options{})
	ctx := context.Background()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}

	if _, err := client.PushTicks(ctx, "m", ticksOf(coupledDataset(rand.New(rand.NewSource(5)), 20), 0, 20)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"mdes_serve_ticks_ingested_total 20",
		"mdes_serve_sessions_live 1",
		`mdes_serve_score_latency_seconds_bucket{le="+Inf"}`,
		"mdes_serve_score_latency_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	srv.BeginDrain()
	resp, err = http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	_, err = client.PushTicks(ctx, "m", []map[string]string{{"a": "ON", "b": "ON", "c": "OFF"}})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("ticks while draining: %v", err)
	}
}

// TestManyTenantsUnderRace hammers the registry, pool, janitor, and eviction
// paths concurrently; run with -race this is the subsystem's thread-safety
// certificate.
func TestManyTenantsUnderRace(t *testing.T) {
	dir := t.TempDir()
	_, _, client := newTestServer(t, Options{
		SnapshotDir:  dir,
		MaxSessions:  3,
		ScoreWorkers: 2,
	})
	rng := rand.New(rand.NewSource(8))
	ds := coupledDataset(rng, 40)
	ticks := ticksOf(ds, 0, 40)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", i%5) // deliberate tenant collisions
			for off := 0; off < len(ticks); off += 5 {
				for {
					_, err := client.PushTicks(context.Background(), tenant, ticks[off:off+5])
					if _, busy := err.(*BusyError); busy {
						time.Sleep(5 * time.Millisecond)
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					break
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestAbortMidBodyDoesNotPanic pins the full-duplex abort path: a handler
// that rejects a tick and returns while the client still has body in flight
// must not trip net/http's "invalid concurrent Body.Read call" panic (the
// server now drains a bounded remainder before returning), and the server
// must keep answering afterwards.
func TestAbortMidBodyDoesNotPanic(t *testing.T) {
	var logBuf strings.Builder
	var logMu sync.Mutex
	srv, err := New(Options{Models: map[string]*mdes.Model{"default": testModel(t)}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewUnstartedServer(srv)
	hs.Config.ErrorLog = log.New(lockedWriter{&logMu, &logBuf}, "", 0)
	hs.Start()
	t.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
	})

	// Speak HTTP/1.1 over a raw keep-alive connection, the way curl does:
	// the whole body — one malformed line plus a remainder the handler will
	// never ask for — is already sitting in the server's socket buffer when
	// the handler aborts, and the connection then tries to serve a second
	// request. Go's http.Client doesn't reproduce this; the raw conn does.
	body := "{not json\n" + strings.Repeat(strings.Repeat("x", 63)+"\n", 512)
	conn, err := net.Dial("tcp", hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := fmt.Sprintf("POST /v1/streams/abort/ticks HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\nContent-Type: application/x-ndjson\r\n\r\n%s", len(body), body)
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("abort status = %d, want 400", resp.StatusCode)
	}

	// Same connection, next request: this is the Peek that raced the body
	// cleanup. Without the drain it panics server-side and the read errors.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	resp, err = http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("second request on kept-alive connection: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after abort = %d, want 200", resp.StatusCode)
	}

	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if strings.Contains(logged, "panic") {
		t.Fatalf("server panicked:\n%s", logged)
	}
}

// lockedWriter serialises ErrorLog writes from concurrent conn goroutines.
type lockedWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// BenchmarkIdleSessionBytes reports the heap one idle restored session holds
// — its stream, tick row and session record — at 16 and 128 sensors, on an
// untrained model with the serving bench's language (a sentence spans 16
// ticks) and no relationships.
func BenchmarkIdleSessionBytes(b *testing.B) {
	lc := mdes.LanguageConfig{WordLen: 4, WordStride: 1, SentenceLen: 13, SentenceStride: 13}
	for _, sensors := range []int{16, 128} {
		b.Run(fmt.Sprintf("sensors=%d", sensors), func(b *testing.B) {
			model := untrainedModel(b, sensors, lc)
			srv, err := New(Options{Models: map[string]*mdes.Model{"default": model}})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Shutdown(context.Background())
			stream := model.NewStream()
			tick := make(map[string]string, sensors)
			for t := 0; t < 2*stream.SentenceSpan(); t++ {
				for i := 0; i < sensors; i++ {
					tick[fmt.Sprintf("s%02d", i)] = fmt.Sprintf("%c%d", 'A'+(t+i)%3, i%5)
				}
				if _, err := stream.Push(tick); err != nil {
					b.Fatal(err)
				}
			}
			snap := sessionSnapshot{Tenant: "t", Model: "default", Stream: stream.Snapshot()}
			held := make([]*session, 512)
			var before, after runtime.MemStats
			var perSession float64
			for i := 0; i < b.N; i++ {
				runtime.GC()
				runtime.ReadMemStats(&before)
				for k := range held {
					held[k] = &session{tenant: "t"}
					if err = srv.load(held[k], snap); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				perSession = float64(after.HeapAlloc-before.HeapAlloc) / float64(len(held))
				clear(held)
			}
			b.ReportMetric(perSession, "B/session")
		})
	}
}
