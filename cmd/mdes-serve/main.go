// Command mdes-serve runs the multi-tenant online anomaly-detection server:
// it loads one or more trained models (mdes-train output) and manages one
// detection session per tenant, scoring ticks as they stream in.
//
// Usage:
//
//	mdes-serve -listen :8331 -model model.json -snapshots ./snaps
//	mdes-serve -listen :8331 -model plant=plant.json -model hdd=hdd.json -default plant
//
// Endpoints:
//
//	POST /v1/streams/{tenant}/ticks[?model=name]  NDJSON ticks in, NDJSON points out
//	GET  /v1/streams                              live sessions
//	GET  /v1/streams/{tenant}                     session counters
//	DELETE /v1/streams/{tenant}                   end session, drop snapshot
//	GET  /metrics | /healthz | /readyz
//
// SIGINT/SIGTERM drain gracefully: readiness flips to 503, in-flight requests
// finish, every session's rolling window is snapshotted, and the process
// exits 0. A restarted server resumes each tenant bit-for-bit from its
// snapshot.
//
// Cluster mode (-peers + -advertise) shards tenants across replicas by
// consistent hashing: each replica serves only the tenants it owns and
// answers misrouted requests with 307 + the owner's address. On SIGTERM a
// clustered replica first migrates every resident tenant to its new owner
// (snapshot transfer over /v1/cluster/transfer) before shutting the listener
// down, so the fleet keeps serving every tenant with no stream forked or
// reset:
//
//	mdes-serve -listen :8331 -model model.json -snapshots ./snaps \
//	  -peers http://a:8331,http://b:8331 -advertise http://a:8331
//
// With -standby-dir set, every durable snapshot is also replicated to the
// tenant's ring successor: if a replica dies — disk included — the successor
// promotes its warm-standby copies and serves the streams through the outage,
// shipping them home when the owner returns.
//
//	mdes-serve ... -snapshots ./snaps -standby-dir ./standby
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mdes"
	"mdes/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdes-serve:", err)
		os.Exit(1)
	}
}

// modelList collects repeated -model flags ("path" or "name=path").
type modelList []string

func (m *modelList) String() string     { return strings.Join(*m, ",") }
func (m *modelList) Set(v string) error { *m = append(*m, v); return nil }

// parseModels loads every -model value. A bare path gets the name "default";
// "name=path" registers under name.
func parseModels(specs []string) (map[string]*mdes.Model, error) {
	if len(specs) == 0 {
		return nil, errors.New("at least one -model is required")
	}
	models := make(map[string]*mdes.Model, len(specs))
	for _, spec := range specs {
		name, path := "default", spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, path = spec[:i], spec[i+1:]
		}
		if name == "" || path == "" {
			return nil, fmt.Errorf("bad -model %q: want path or name=path", spec)
		}
		if _, dup := models[name]; dup {
			return nil, fmt.Errorf("duplicate model name %q", name)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		model, err := mdes.Load(f)
		_ = f.Close() // read-only; Load's error is the one that matters
		if err != nil {
			return nil, fmt.Errorf("model %q: %w", name, err)
		}
		models[name] = model
	}
	return models, nil
}

// run serves until ctx is cancelled, then drains and returns nil on a clean
// drain.
func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("mdes-serve", flag.ContinueOnError)
	var models modelList
	fs.Var(&models, "model", "trained model to serve: path or name=path (repeatable)")
	listen := fs.String("listen", "127.0.0.1:8331", "listen address")
	defaultModel := fs.String("default", "", "model name for sessions that do not pass ?model= (required with several models)")
	snapshots := fs.String("snapshots", "", "directory for durable session snapshots (empty = memory-only sessions)")
	sessionTTL := fs.Duration("session-ttl", 30*time.Minute, "evict sessions idle longer than this (0 = never)")
	maxSessions := fs.Int("max-sessions", 4096, "resident session cap; LRU beyond it (0 = unlimited)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent tick requests before 429 (0 = 2x GOMAXPROCS)")
	scoreWorkers := fs.Int("score-workers", 0, "pairwise scoring pool size (0 = GOMAXPROCS)")
	scorePrecision := fs.String("score-precision", "", "scoring precision: f64 (reference), f32, or int8 (reduced-precision inference); empty keeps each model's saved precision")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	scoreDeadline := fs.Duration("score-deadline", 0, "answer ticks degraded (last valid score + degraded=true) when a window cannot be scored within this budget (0 = strict)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	peers := fs.String("peers", "", "cluster mode: comma-separated base URLs of every replica, this one included (e.g. http://a:8331,http://b:8331)")
	advertise := fs.String("advertise", "", "cluster mode: this replica's own base URL as it appears in -peers")
	probeInterval := fs.Duration("probe-interval", 0, "cluster peer health-probe interval (0 = 2s)")
	standby := fs.String("standby-dir", "", "cluster mode: directory for warm-standby copies replicated from ring predecessors (requires -snapshots; empty = replication off)")
	replQueue := fs.Int("repl-queue", 0, "per-peer replication queue capacity before newest-wins drops (0 = 256)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	loaded, err := parseModels(models)
	if err != nil {
		return err
	}
	if *scorePrecision != "" {
		prec, err := mdes.ParsePrecision(*scorePrecision)
		if err != nil {
			return err
		}
		for name, model := range loaded {
			if err := model.Quantize(prec); err != nil {
				return fmt.Errorf("model %q: %w", name, err)
			}
		}
	}
	if *snapshots != "" {
		if err := os.MkdirAll(*snapshots, 0o755); err != nil {
			return err
		}
	}
	if *standby != "" {
		if err := os.MkdirAll(*standby, 0o755); err != nil {
			return err
		}
	}
	srv, err := serve.New(serve.Options{
		Models:        loaded,
		DefaultModel:  *defaultModel,
		SnapshotDir:   *snapshots,
		SessionTTL:    *sessionTTL,
		MaxSessions:   *maxSessions,
		MaxInflight:   *maxInflight,
		ScoreWorkers:  *scoreWorkers,
		RetryAfter:    *retryAfter,
		ScoreDeadline: *scoreDeadline,
		Peers:         splitPeers(*peers),
		Advertise:     *advertise,
		ProbeInterval: *probeInterval,
		StandbyDir:    *standby,
		ReplQueueCap:  *replQueue,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	fmt.Fprintf(logw, "mdes-serve: listening on %s (%d models)\n", ln.Addr(), len(loaded))

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(logw, "mdes-serve: draining")
	}

	// Drain: stop admitting (readyz 503), let in-flight requests finish,
	// then snapshot every session. In cluster mode the tenants migrate to
	// the surviving replicas FIRST, while this listener still answers —
	// peers need the drain announcement and clients need redirects until
	// every handoff lands.
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainTimeout)
	defer cancel()
	live := srv.SessionsLive()
	moved, drainErr := srv.DrainToPeers(ctx) // includes BeginDrain; (0, nil) standalone
	if drainErr != nil {
		fmt.Fprintf(logw, "mdes-serve: drain-to-peers incomplete: %v (unshipped tenants stay snapshotted locally)\n", drainErr)
	} else if moved > 0 {
		fmt.Fprintf(logw, "mdes-serve: migrated %d tenants to peers\n", moved)
	}
	srv.BeginDrain()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain http: %w", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("snapshot sessions: %w", err)
	}
	if err := <-errc; err != nil {
		return err
	}
	fmt.Fprintf(logw, "mdes-serve: drained cleanly (%d sessions held at shutdown, %d migrated)\n", live, moved)
	return nil
}

// splitPeers parses the -peers list; empty stays empty (standalone).
func splitPeers(v string) []string {
	if v == "" {
		return nil
	}
	var peers []string
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	return peers
}
