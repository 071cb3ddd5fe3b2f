package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"time"

	"mdes"
	"mdes/internal/faultfs"
	"mdes/internal/faultnet"
	"mdes/internal/serve"
)

// clusterTenants is the tenant set every ClusterSoak iteration drives —
// enough that, whichever replica the ring favours, the victim owns some and
// the survivors own others.
var clusterTenants = []string{"plant-a", "plant-b", "plant-c", "plant-d", "plant-e"}

const clusterReplicas = 3

// ClusterSoakReport summarises one ClusterSoak run.
type ClusterSoakReport struct {
	Iterations int
	HardKills  int   // iterations that killed the victim without warning
	Drains     int   // iterations that drained the victim gracefully
	Moved      int   // tenants migrated by graceful drains, summed
	Redirects  int64 // ownership redirects the driving client followed
}

// replica is one cluster member under the soak's control: its fixed HTTP
// address outlives the server process behind it, exactly like a host whose
// process dies and restarts.
type replica struct {
	url     string
	handler atomic.Value // holds replicaBox
	fs      *faultfs.InjectFS
	srv     *serve.Server
}

type replicaBox struct{ h http.Handler }

func (r *replica) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.handler.Load().(replicaBox).h.ServeHTTP(w, req)
}

// deadHandler answers everything — health checks included — with 503 and an
// immediate-retry hint, which is how a killed replica looks to peers (probes
// fail) and to clients (backpressure, batch not consumed).
var deadHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Retry-After", "0")
	http.Error(w, "killed", http.StatusServiceUnavailable)
})

// startReplica boots (or reboots) the serve process behind a replica's
// address, against whatever state its disk holds. A non-nil net turns on
// warm-standby replication and routes the replica's cluster traffic through
// that fault injector; ship-home under its faults gets a longer pend.
func startReplica(rep *replica, peers []string, model *mdes.Model, net *faultnet.Transport) error {
	opts := serve.Options{
		Models:        map[string]*mdes.Model{"m": model},
		SnapshotDir:   "snaps",
		FS:            rep.fs,
		ScoreWorkers:  2,
		MaxInflight:   8,
		Peers:         peers,
		Advertise:     rep.url,
		RetryAfter:    10 * time.Millisecond, // header "0": clients retry at their own pace
		ProbeInterval: 25 * time.Millisecond,
		PendingTTL:    2 * time.Second,
	}
	if net != nil {
		opts.StandbyDir = standbyDir
		opts.PendingTTL = 5 * time.Second
		opts.ClusterClient = &http.Client{Transport: net}
	}
	srv, err := serve.New(opts)
	if err != nil {
		return err
	}
	rep.srv = srv
	rep.handler.Store(replicaBox{srv})
	return nil
}

// clusterRefs is what every cluster soak audits against: each tenant's tick
// sequence and the points a crash-free standalone stream emits for it.
type clusterRefs struct {
	model  *mdes.Model
	ticks  map[string][]map[string]string
	points map[string][]*mdes.Point
}

// runClusterSoak builds the references once, then runs iters iterations of
// one cluster soak on an rng seeded with seed; kind names the soak in errors.
func runClusterSoak(ctx context.Context, seed int64, iters int, kind string, iteration func(rng *rand.Rand, it int, refs clusterRefs) error) error {
	if err := fixture(); err != nil {
		return err
	}
	refs := clusterRefs{
		model:  fixModel,
		ticks:  make(map[string][]map[string]string, len(clusterTenants)),
		points: make(map[string][]*mdes.Point, len(clusterTenants)),
	}
	for _, tenant := range clusterTenants {
		refs.ticks[tenant] = tenantTicks(tenant)
		_, p, err := referenceBoundaries(refs.model, refs.ticks[tenant])
		if err != nil {
			return fmt.Errorf("chaos: reference stream for %q: %w", tenant, err)
		}
		refs.points[tenant] = p
	}
	rng := rand.New(rand.NewSource(seed))
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := iteration(rng, it, refs); err != nil {
			return fmt.Errorf("chaos: %s iteration %d: %w", kind, it, err)
		}
	}
	return nil
}

// audit is the shared end-of-iteration check: every tenant's full point
// stream bit-identical to the standalone reference, and the authoritative
// session holding exactly the ticks that were sent.
func (refs clusterRefs) audit(ctx context.Context, client *serve.Client, got map[string][]serve.WirePoint) error {
	for _, tenant := range clusterTenants {
		var want []serve.WirePoint
		for _, p := range refs.points[tenant] {
			if p != nil {
				want = append(want, serve.PointWire(*p))
			}
		}
		if !reflect.DeepEqual(got[tenant], want) {
			return fmt.Errorf("tenant %q points diverge from reference: got %d points %+v, want %d %+v",
				tenant, len(got[tenant]), got[tenant], len(want), want)
		}
		info, err := client.Session(ctx, tenant)
		if err != nil {
			return fmt.Errorf("verify tenant %q: %w", tenant, err)
		}
		if info.Ticks != serveTicks {
			return fmt.Errorf("tenant %q: server holds %d ticks, sent %d — ticks lost or forked", tenant, info.Ticks, serveTicks)
		}
	}
	return nil
}

// ClusterSoak runs iters kill-a-replica cycles over a three-replica cluster:
// five tenants stream tick batches through the sharding client while one
// replica — chosen per iteration by the seeded rng — either drains
// gracefully (snapshot transfer to the survivors) or dies without warning at
// a batch boundary and reboots from its own disk. Either way, every
// tenant's full point stream must be bit-identical to a single-replica
// crash-free reference, and every tenant's final server-side tick count
// must equal what was sent: no tick lost, no stream forked, no divergence.
func ClusterSoak(ctx context.Context, seed int64, iters int) (ClusterSoakReport, error) {
	rep := ClusterSoakReport{Iterations: iters}
	err := runClusterSoak(ctx, seed, iters, "cluster", func(rng *rand.Rand, it int, refs clusterRefs) error {
		return clusterIteration(ctx, rng, seed, it, refs, &rep)
	})
	return rep, err
}

func clusterIteration(ctx context.Context, rng *rand.Rand, seed int64, it int, refs clusterRefs, rep *ClusterSoakReport) error {
	// Addresses first (the static peer list needs every URL), processes after.
	replicas := make([]*replica, clusterReplicas)
	peers := make([]string, clusterReplicas)
	for i := range replicas {
		r := &replica{fs: faultfs.NewInject(seed*2_000_003+int64(it*clusterReplicas+i), faultfs.Faults{})}
		r.handler.Store(replicaBox{deadHandler})
		hs := httptest.NewServer(r)
		defer hs.Close()
		r.url = hs.URL
		replicas[i] = r
		peers[i] = r.url
	}
	for _, r := range replicas {
		if err := startReplica(r, peers, refs.model, nil); err != nil {
			return err
		}
	}
	defer func() {
		for _, r := range replicas {
			_ = r.srv.Shutdown(context.Background())
		}
	}()

	victim := rng.Intn(clusterReplicas)
	hardKill := rng.Intn(2) == 0
	killAt := serveBatch * (1 + rng.Intn(serveTicks/serveBatch-1)) // a batch boundary, never 0

	client := &serve.Client{
		Peers: peers,
		Retry: serve.RetryPolicy{MaxAttempts: 200, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	}
	got := make(map[string][]serve.WirePoint, len(clusterTenants))

	for off := 0; off < serveTicks; off += serveBatch {
		if off == killAt {
			if hardKill {
				// No warning, no drain: the address goes dark at a request
				// boundary (the last acked batch is the last durable state),
				// then the process reboots from its own disk and rejoins.
				rep.HardKills++
				replicas[victim].handler.Store(replicaBox{deadHandler})
				_ = replicas[victim].srv.Shutdown(ctx) // reclaim goroutines; disk already holds boundary state
				if err := startReplica(replicas[victim], peers, refs.model, nil); err != nil {
					return err
				}
			} else {
				rep.Drains++
				moved, err := replicas[victim].srv.DrainToPeers(ctx)
				if err != nil {
					return fmt.Errorf("drain replica %d: %w", victim, err)
				}
				rep.Moved += moved
				// The drained process stays up, answering misroutes with the
				// new owner's address until the operator takes it away.
			}
		}
		for _, tenant := range clusterTenants {
			hi := off + serveBatch
			if hi > serveTicks {
				hi = serveTicks
			}
			ps, err := client.PushTicksRetry(ctx, tenant, refs.ticks[tenant][off:hi])
			if err != nil {
				return fmt.Errorf("tenant %q ticks [%d,%d): %w", tenant, off, hi, err)
			}
			got[tenant] = append(got[tenant], ps...)
		}
	}

	// Post-recovery audit: full point streams bit-identical to the
	// single-replica reference, and no tick lost anywhere.
	if err := refs.audit(ctx, client, got); err != nil {
		return err
	}
	rep.Redirects += client.Stats().Redirects
	return nil
}
