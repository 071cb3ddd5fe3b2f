package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdes/internal/cluster"
	"mdes/internal/serve"
)

// replica is one in-process mdes-serve: run on its own goroutine, stopped by
// cancelling its context exactly as SIGTERM cancels main's.
type replica struct {
	url    string
	cancel context.CancelFunc
	exited chan struct{} // closed once run has returned
	err    error         // run's result; read after exited
	log    bytes.Buffer  // run's log; read after exited
}

// freeAddr reserves a loopback port and releases it for a replica to bind:
// a cluster's -peers list needs every address before any replica starts.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

func startReplica(t *testing.T, addr string, args ...string) *replica {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	r := &replica{url: "http://" + addr, cancel: cancel, exited: make(chan struct{})}
	go func() {
		defer close(r.exited)
		r.err = run(ctx, append([]string{"-listen", addr}, args...), &r.log)
	}()
	t.Cleanup(func() { r.stop() })
	return r
}

// stop drains the replica and waits for run to return; repeat calls return
// the same result.
func (r *replica) stop() error {
	r.cancel()
	<-r.exited
	return r.err
}

func (r *replica) waitReady(t *testing.T) {
	t.Helper()
	c := &serve.Client{BaseURL: r.url}
	deadline := time.Now().Add(30 * time.Second)
	for c.Ready(context.Background()) != nil {
		select {
		case <-r.exited:
			t.Fatalf("%s exited before ready: %v\n%s", r.url, r.err, r.log.String())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became ready", r.url)
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// driveTenant pushes every tick to one tenant in batches and returns the
// points received. PushTicksRetry resends a batch after backpressure, which
// consumed nothing. A connection-level failure may or may not have consumed
// the batch, so the tenant's tick count is re-read from Session before
// resending: a blind resend could double-feed a tick. sent counts consumed
// ticks.
func driveTenant(ctx context.Context, c *serve.Client, tenant string, ticks []map[string]string, batch int, sent *atomic.Int64) (int, error) {
	points := 0
	for off := 0; off < len(ticks); {
		end := min(off+batch, len(ticks))
		got, err := c.PushTicksRetry(ctx, tenant, ticks[off:end])
		var uerr *url.Error
		switch {
		case err == nil:
			points += len(got)
			sent.Add(int64(end - off))
			off = end
		case errors.As(err, &uerr) && ctx.Err() == nil:
			var consumed int
			if consumed, err = resyncTicks(ctx, c, tenant, off); err == nil {
				sent.Add(int64(consumed - off))
				off = consumed
			}
		}
		if err != nil {
			return points, fmt.Errorf("%s at tick %d: %w", tenant, off, err)
		}
	}
	return points, nil
}

// resyncTicks asks the cluster how many of the tenant's ticks it consumed. A
// session that does not exist yet consumed nothing past off.
func resyncTicks(ctx context.Context, c *serve.Client, tenant string, off int) (int, error) {
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		if err := sleepCtx(ctx, 100*time.Millisecond); err != nil {
			return 0, err
		}
		info, err := c.Session(ctx, tenant)
		if err == nil {
			return info.Ticks, nil
		}
		if strings.Contains(err.Error(), "404") {
			return off, nil
		}
		lastErr = err
	}
	return 0, fmt.Errorf("resync: %w", lastErr)
}

// driveAll runs driveTenant for every tenant concurrently and returns each
// tenant's point count.
func driveAll(ctx context.Context, c *serve.Client, tenants []string, ticks []map[string]string, batch int, sent *atomic.Int64) ([]int, error) {
	points := make([]int, len(tenants))
	errs := make([]error, len(tenants))
	var wg sync.WaitGroup
	for i, tenant := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			points[i], errs[i] = driveTenant(ctx, c, tenant, ticks, batch, sent)
		}()
	}
	wg.Wait()
	return points, errors.Join(errs...)
}

// auditTicks is the zero-lost-ticks check: every tenant's server-side tick
// count equals what was sent, whichever replica holds the session now.
func auditTicks(t *testing.T, c *serve.Client, tenants []string, want int) []serve.SessionInfo {
	t.Helper()
	infos := make([]serve.SessionInfo, len(tenants))
	for i, tenant := range tenants {
		info, err := c.Session(context.Background(), tenant)
		if err != nil {
			t.Fatalf("audit %s: %v", tenant, err)
		}
		if info.Ticks != want {
			t.Fatalf("audit %s: server holds %d ticks, sent %d", tenant, info.Ticks, want)
		}
		infos[i] = info
	}
	return infos
}

// TestServeEndToEnd runs the real command in process: one int8 replica with
// snapshots, then a three-replica cluster whose middle replica drains while
// load is flowing. Both must lose no tick and drain cleanly.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	saveToyModel(t, modelPath)
	ds := toyDataset()
	ticks := make([]map[string]string, ds.Ticks())
	for i := range ticks {
		ticks[i] = map[string]string{"a": ds.Sequences[0].Events[i], "b": ds.Sequences[1].Events[i]}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	// Backoff never shorter than the replicas' 100ms Retry-After; enough
	// attempts to ride out a tenant's handoff.
	retry := serve.RetryPolicy{MaxAttempts: 100, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond}

	t.Run("standalone", func(t *testing.T) {
		snaps := filepath.Join(t.TempDir(), "snaps")
		r := startReplica(t, freeAddr(t), "-model", modelPath, "-snapshots", snaps,
			"-score-precision", "int8", "-retry-after", "100ms")
		r.waitReady(t)
		client := &serve.Client{BaseURL: r.url, Retry: retry}
		tenants := make([]string, 6)
		for i := range tenants {
			tenants[i] = fmt.Sprintf("solo-%d", i)
		}
		var sent atomic.Int64
		points, err := driveAll(ctx, client, tenants, ticks, 25, &sent)
		if err != nil {
			t.Fatal(err)
		}
		for i, info := range auditTicks(t, client, tenants, len(ticks)) {
			if info.Emitted == 0 || points[i] != info.Emitted {
				t.Fatalf("%s: client got %d points, server emitted %d", info.Tenant, points[i], info.Emitted)
			}
		}

		resp, err := http.Get(r.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("mdes_serve_ticks_ingested_total %d\n", len(tenants)*len(ticks)); !strings.Contains(string(body), want) {
			t.Fatalf("/metrics lacks %q", want)
		}

		if err := r.stop(); err != nil {
			t.Fatalf("drain: %v\n%s", err, r.log.String())
		}
		if !strings.Contains(r.log.String(), "drained cleanly") {
			t.Fatalf("no clean drain logged:\n%s", r.log.String())
		}
		files, err := filepath.Glob(filepath.Join(snaps, "*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != len(tenants) {
			t.Fatalf("%d .snap files for %d tenants", len(files), len(tenants))
		}
	})

	t.Run("cluster", func(t *testing.T) {
		addrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
		peers := make([]string, len(addrs))
		for i, a := range addrs {
			peers[i] = "http://" + a
		}
		reps := make([]*replica, len(addrs))
		for i, a := range addrs {
			reps[i] = startReplica(t, a, "-model", modelPath,
				"-snapshots", filepath.Join(t.TempDir(), "snaps"),
				"-retry-after", "100ms", "-probe-interval", "250ms",
				"-peers", strings.Join(peers, ","), "-advertise", peers[i])
		}
		for _, r := range reps {
			r.waitReady(t)
		}
		victim := reps[1]

		// At least one tenant must live on the victim, or its drain has
		// nothing to migrate.
		ring, err := cluster.NewRing(peers, 0)
		if err != nil {
			t.Fatal(err)
		}
		var tenants []string
		for k, onVictim := 0, 0; len(tenants) < 24 || onVictim == 0; k++ {
			name := fmt.Sprintf("fleet-%d", k)
			if ring.Owner(name) == victim.url {
				onVictim++
			}
			tenants = append(tenants, name)
		}

		client := &serve.Client{Peers: peers, Retry: retry}
		var sent atomic.Int64
		var loadErr error
		loaded := make(chan struct{})
		loadCtx, stopLoad := context.WithCancel(ctx)
		go func() {
			defer close(loaded)
			_, loadErr = driveAll(loadCtx, client, tenants, ticks, 10, &sent)
		}()
		// Runs before the replicas' cleanups: a failed check stops the load.
		t.Cleanup(func() { stopLoad(); <-loaded })

		// Drain the victim once a third of the load is in and it holds
		// sessions: the rest of the load flows through the drain.
		for sent.Load() < int64(len(tenants)*len(ticks)/3) || client.Stats().TicksByReplica[victim.url] == 0 {
			select {
			case <-loaded:
				t.Fatalf("load ended before the drain started: %v", loadErr)
			case <-time.After(5 * time.Millisecond):
			}
		}
		if err := victim.stop(); err != nil {
			t.Fatalf("drain: %v\n%s", err, victim.log.String())
		}
		if !regexp.MustCompile(`migrated [1-9]\d* tenants to peers`).MatchString(victim.log.String()) {
			t.Fatalf("drained replica logged no migration:\n%s", victim.log.String())
		}

		<-loaded
		if loadErr != nil {
			t.Fatal(loadErr)
		}
		auditTicks(t, client, tenants, len(ticks))
	})
}
