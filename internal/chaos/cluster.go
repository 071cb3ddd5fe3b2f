package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"mdes"
	"mdes/internal/cluster"
	"mdes/internal/faultfs"
	"mdes/internal/faultnet"
	"mdes/internal/serve"
)

// The cluster soaks certify sharded serving end to end: five tenants stream
// tick batches through the sharding client into a fresh three-replica
// cluster, while a fault script drawn from the seeded rng kills, restarts,
// drains or partitions one replica at batch boundaries (ClusterSoak,
// DiskLossSoak and PartitionSoak differ only in their scripts). Standby
// scripts turn on warm-standby replication and run the cluster's own traffic
// through faultnet's standing faults (DESIGN.md §7). Each iteration ends in
// the fork audit: every tenant's full point stream bit-identical to a
// crash-free standalone reference, and its tick count exactly what was
// sent. Had two replicas ever accepted one tenant's ticks concurrently, one
// would have consumed a tick the other never saw, and points and tick count
// could not both match: bit-identity plus exact tick counts IS the
// at-most-one-writer proof.

// clusterTenants is the tenant set every iteration drives — enough that,
// whichever replica the ring favours, the victim owns some and the
// survivors own others.
var clusterTenants = []string{"plant-a", "plant-b", "plant-c", "plant-d", "plant-e"}

const (
	clusterReplicas = 3
	standbyDir      = "standby" // the warm-standby store on every standby replica
)

// op is one fault-script step's action on the victim replica.
type op int

const (
	kill         op = iota // its address answers 503 (deadHandler), its disk crashes, the process stops
	killReset              // its address resets connections (connResetHandler), its disk crashes, the process stops
	restart                // the disk recovers from the crash and the process boots again on it
	restartWiped           // the process boots again on an empty disk
	drain                  // it drains its tenants to its peers, and stays up answering misroutes
	cutTwoWay              // it and the rest (the client included) cannot reach each other
	cutOneWay              // the rest cannot reach it; it still reaches them
	heal                   // cluster links heal; each victim tenant must be homed at the step's ticks
	healClient             // the client's link to it heals
)

var opNames = [...]string{"kill", "kill-reset", "restart", "restart-wiped", "drain", "cut", "cut-one-way", "heal", "heal-client"}

// step runs op before the batch that starts at tick at (at == serveTicks is
// after the last batch). With copyFirst it first waits until each victim
// tenant's standby copy holds at ticks: failover is certified from a copy
// that exists, since replication is lossy by design and a standby without a
// copy refuses the tenant. With adopted, each victim tenant's standby must
// then serve the batch pushed at this boundary, adopted and not degraded.
type step struct {
	at                 int
	op                 op
	copyFirst, adopted bool
}

// script is one iteration's faults. A standby script runs with warm-standby
// replication and faultnet, and its victim is clusterTenants[victim]'s ring
// owner (which depends on the replicas' ports); else victim is a replica.
type script struct {
	standby bool
	victim  int
	steps   []step
}

func (s script) String() string {
	var b strings.Builder
	if s.standby {
		fmt.Fprintf(&b, "owner of %s:", clusterTenants[s.victim])
	} else {
		fmt.Fprintf(&b, "replica %d:", s.victim)
	}
	for _, st := range s.steps {
		fmt.Fprintf(&b, " %s@%d", opNames[st.op], st.at)
		if st.copyFirst {
			b.WriteString("+copy")
		}
		if st.adopted {
			b.WriteString("+adopted")
		}
	}
	return b.String()
}

// tally adds the script's fault counters to rep: they are fixed by the
// seed, so a dry run of the scripts predicts what a soak reports.
func (s script) tally(rep *ClusterSoakReport) {
	cuts := 0
	for _, st := range s.steps {
		switch st.op {
		case kill, killReset:
			rep.HardKills++
		case drain:
			rep.Drains++
		case cutOneWay:
			rep.OneWay++
			fallthrough
		case cutTwoWay:
			rep.Partitions++
			if cuts++; cuts == 2 {
				rep.Flaps++
			}
		}
		if st.adopted {
			rep.Promotions++
		}
	}
}

// clusterScript kills a random replica at a random boundary (never 0) and
// reboots it from its own disk, or drains it.
func clusterScript(rng *rand.Rand) script {
	victim := rng.Intn(clusterReplicas)
	hardKill := rng.Intn(2) == 0
	at := serveBatch * (1 + rng.Intn(serveTicks/serveBatch-1))
	if hardKill {
		return script{victim: victim, steps: []step{{at: at, op: kill}, {at: at, op: restart}}}
	}
	return script{victim: victim, steps: []step{{at: at, op: drain}}}
}

// diskLossScript kills a tenant's owner between the first and second-to-last
// boundaries and revives it wiped one batch later: at least one pre-kill
// replication, one batch served by the standby, one after the return.
func diskLossScript(rng *rand.Rand) script {
	victim := rng.Intn(len(clusterTenants))
	at := serveBatch * (1 + rng.Intn(serveTicks/serveBatch-2))
	return script{standby: true, victim: victim, steps: []step{
		{at: at, op: killReset, copyFirst: true, adopted: true},
		{at: at + serveBatch, op: restartWiped},
		{at: serveTicks, op: heal},
	}}
}

// partitionScript cuts a tenant's owner away for two batches; a flap cuts it
// again one batch after the heal, for one batch, fed by the re-seeded copy:
//
//	flap:   cut@6  heal@18 cut@24 heal@30
//	plain:  cut@6|12, heal 12 ticks later
func partitionScript(rng *rand.Rand) script {
	victim := rng.Intn(len(clusterTenants))
	cut := cutTwoWay
	if rng.Intn(2) == 0 {
		cut = cutOneWay
	}
	flap := rng.Intn(2) == 0
	cutAt := serveBatch * (1 + rng.Intn(2)) // drawn on flap iterations too
	if flap {
		cutAt = serveBatch
	}
	window := func(cutAt, healAt int) []step {
		return []step{{at: cutAt, op: cut, copyFirst: true, adopted: true}, {at: healAt, op: heal}, {at: healAt, op: healClient}}
	}
	steps := window(cutAt, cutAt+2*serveBatch)
	if flap {
		steps = append(steps, window(cutAt+3*serveBatch, cutAt+4*serveBatch)...)
	}
	// The final heal finds every link healed; its homed wait still runs.
	steps = append(steps, step{at: serveTicks, op: heal}, step{at: serveTicks, op: healClient})
	return script{standby: true, victim: victim, steps: steps}
}

// drawScripts draws iters scripts from one rng seeded with seed.
func drawScripts(seed int64, iters int, gen func(*rand.Rand) script) []script {
	rng := rand.New(rand.NewSource(seed))
	out := make([]script, iters)
	for it := range out {
		out[it] = gen(rng)
	}
	return out
}

// ClusterSoakReport summarises one cluster soak run. HardKills through
// Promotions are the scripts' (tally), fixed by the seed; the rest depend on
// ports and timing.
type ClusterSoakReport struct {
	Iterations int
	HardKills  int   // replicas killed without warning
	Drains     int   // replicas drained gracefully
	Partitions int   // partition windows, flap re-partitions included
	OneWay     int   // asymmetric windows (peers cut off from the victim only)
	Flaps      int   // iterations that partitioned, healed, and partitioned again
	Promotions int   // outage batches served from a standby's replicated copy
	Moved      int   // tenants migrated by drains
	ShipsHome  int   // homed waits passed, one per victim tenant
	Redirects  int64 // ownership redirects the client followed
	Net        faultnet.Stats

	// ReplLag samples the wait for each standby copy before a fault;
	// PromotionLatency samples fault-to-first-victim-batch-served.
	ReplLag, PromotionLatency []time.Duration
}

// ClusterSoak kills a replica without warning and reboots it from its own
// disk, or drains it, once per iteration (clusterScript).
func ClusterSoak(ctx context.Context, seed int64, iters int) (ClusterSoakReport, error) {
	return runSoak(ctx, "cluster", seed, iters, clusterScript)
}

// DiskLossSoak kills a tenant's owner with its disk: the standby serves the
// outage from its copy, and everything ships home to the wiped owner.
func DiskLossSoak(ctx context.Context, seed int64, iters int) (ClusterSoakReport, error) {
	return runSoak(ctx, "disk-loss", seed, iters, diskLossScript)
}

// PartitionSoak partitions a tenant's owner away, two-way or one-way — the
// victim still sees a healthy cluster while the cluster sees it dead — and
// heals in the order the protocol requires.
func PartitionSoak(ctx context.Context, seed int64, iters int) (ClusterSoakReport, error) {
	return runSoak(ctx, "partition", seed, iters, partitionScript)
}

// runSoak builds the references once, then plays one script per iteration,
// drawn from seed; kind names the soak in errors.
func runSoak(ctx context.Context, kind string, seed int64, iters int, gen func(*rand.Rand) script) (ClusterSoakReport, error) {
	rep := ClusterSoakReport{Iterations: iters}
	if err := fixture(); err != nil {
		return rep, err
	}
	ref, err := references(clusterTenants)
	if err != nil {
		return rep, err
	}
	for it, sc := range drawScripts(seed, iters, gen) {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if err := play(ctx, ref, seed, it, sc, &rep); err != nil {
			return rep, fmt.Errorf("chaos: %s iteration %d (%v): %w", kind, it, sc, err)
		}
		sc.tally(&rep)
	}
	return rep, nil
}

// play runs one script on a fresh cluster, then audits every stream.
func play(ctx context.Context, ref refs, seed int64, it int, sc script, rep *ClusterSoakReport) error {
	h, err := newHarness(seed, it, sc.standby)
	if err != nil {
		return err
	}
	defer h.close()
	v := sc.victim
	if sc.standby {
		v = h.ownerIdx(clusterTenants[sc.victim])
	}
	var owned []string // the victim's tenants
	for _, tn := range clusterTenants {
		if h.ownerIdx(tn) == v {
			owned = append(owned, tn)
		}
	}

	got := make(map[string][]serve.WirePoint, len(clusterTenants))
	for off := 0; ; off += serveBatch {
		outage, faultAt := false, time.Time{}
		for _, st := range sc.steps {
			if st.at != off {
				continue
			}
			if st.copyFirst {
				for _, tn := range owned {
					lag, err := waitStandbyTicks(h.replicas[h.successorIdx(tn)].fs, h.peers[v], tn, off)
					if err != nil {
						return fmt.Errorf("%w; survey:%s", err, h.surveyTenant(ctx, h.peers[v], tn))
					}
					rep.ReplLag = append(rep.ReplLag, lag)
				}
			}
			if st.adopted {
				outage, faultAt = true, time.Now()
			}
			if err := h.apply(ctx, st, v, owned, seed, it, rep); err != nil {
				return err
			}
		}
		if off == serveTicks {
			break
		}
		for _, tenant := range clusterTenants {
			ps, err := h.client.PushTicksRetry(ctx, tenant, ref.ticks[tenant][off:off+serveBatch])
			if err != nil {
				return fmt.Errorf("tenant %q ticks [%d,%d): %w", tenant, off, off+serveBatch, err)
			}
			got[tenant] = append(got[tenant], ps...)
			if !faultAt.IsZero() && h.ownerIdx(tenant) == v {
				rep.PromotionLatency = append(rep.PromotionLatency, time.Since(faultAt))
				faultAt = time.Time{}
			}
		}
		if !outage {
			continue
		}
		// The outage batch landed. Prove it was served by the standby from
		// real state: adopted, full tick count, not degraded.
		for _, tn := range owned {
			info, code, err := sessionAt(ctx, h.peers[h.successorIdx(tn)], tn)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("standby session for %q: code=%d err=%v", tn, code, err)
			}
			if !info.Adopted || info.Degraded || info.Ticks != off+serveBatch {
				return fmt.Errorf("standby serves %q as %+v, want adopted, not degraded, %d ticks", tn, info, off+serveBatch)
			}
		}
	}

	for _, tenant := range clusterTenants {
		if want := ref.wire(tenant, 0); !reflect.DeepEqual(got[tenant], want) {
			return fmt.Errorf("tenant %q points diverge from reference: got %d points %+v, want %d %+v",
				tenant, len(got[tenant]), got[tenant], len(want), want)
		}
		info, err := h.client.Session(ctx, tenant)
		if err != nil {
			return fmt.Errorf("verify tenant %q: %w", tenant, err)
		}
		if info.Ticks != serveTicks {
			return fmt.Errorf("tenant %q: server holds %d ticks, sent %d — ticks lost or forked", tenant, info.Ticks, serveTicks)
		}
	}
	rep.Redirects += h.client.Stats().Redirects
	if sc.standby {
		s := h.netStats()
		var want ClusterSoakReport
		if sc.tally(&want); want.Partitions > 0 && s.Partitioned == 0 {
			return errors.New("no round trip was ever refused by a partition; the soak exercised nothing")
		}
		rep.Net.Add(s)
	}
	return nil
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

// connResetHandler kills connections at the TCP level: accept, then slam the
// connection shut. This is what a dead host looks like — clients and probes
// both get a connection error, which is what triggers the client's failover
// and the prober's Down verdict. (A 503-answering handler would not: the
// client treats 503 as backpressure from a live replica and keeps waiting.)
var connResetHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("chaos: test server must support hijacking")
	}
	conn, _, err := hj.Hijack()
	if err == nil {
		_ = conn.Close() // the reset IS the behaviour under test
	}
})

// standingNetFaults is the always-on network fault mix for the cluster path.
// Drop stays 0: unreachability is scripted (partitions, kills), not random,
// so membership transitions in a soak are deterministic in wall-clock terms.
// Duplicate is safe here because every endpoint on this path (probe,
// transfer, update) is idempotent — the exact property the soak certifies.
var standingNetFaults = faultnet.Faults{Delay: 0.10, MaxDelay: 4 * time.Millisecond, Duplicate: 0.05, TruncateReq: 0.05}

// harness is one iteration's three-replica cluster and its driving client.
type harness struct {
	replicas []*replica
	peers    []string
	nets     []*faultnet.Transport // per-replica cluster transports (standby only)
	clientNT *faultnet.Transport   // the driving client's transport (standby only)
	ring     *cluster.Ring
	client   *serve.Client
	closers  []func()
}

// newHarness boots three replicas on fresh disks — addresses first (the
// static peer list needs every URL), processes after — with warm-standby
// replication and faultnet when standby is set. Every fault stream is
// seeded from (seed, it).
func newHarness(seed int64, it int, standby bool) (*harness, error) {
	h := &harness{}
	fsSeed := seed * 2_000_003
	if standby {
		fsSeed = seed * 3_000_017
	}
	for i := 0; i < clusterReplicas; i++ {
		r := &replica{fs: faultfs.NewInject(fsSeed+int64(it*clusterReplicas+i), faultfs.Faults{})}
		r.handler.Store(replicaBox{deadHandler})
		hs := httptest.NewServer(r)
		h.closers = append(h.closers, hs.Close)
		r.url = hs.URL
		h.replicas = append(h.replicas, r)
		h.peers = append(h.peers, r.url)
		if standby {
			h.nets = append(h.nets, faultnet.New(nil, seed*5_000_011+int64(it*clusterReplicas+i), standingNetFaults))
		}
	}
	var err error
	for i := 0; err == nil && i < clusterReplicas; i++ {
		err = h.start(i)
	}
	if err == nil {
		h.ring, err = cluster.NewRing(h.peers, 0)
	}
	if err != nil {
		h.close()
		return nil, err
	}
	h.client = &serve.Client{
		Peers: h.peers,
		Retry: serve.RetryPolicy{MaxAttempts: 200, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	}
	if standby {
		// The client's transport injects delays only: tick uploads are not
		// idempotent (duplication would fork the stream by construction) and
		// truncating them tests the HTTP layer, not the replication protocol.
		h.clientNT = faultnet.New(nil, seed*7_000_003+int64(it), faultnet.Faults{Delay: 0.05, MaxDelay: 2 * time.Millisecond})
		h.client.HTTPClient = &http.Client{Transport: h.clientNT}
		h.client.Retry.MaxAttempts = 2000
	}
	return h, nil
}

// start boots (or reboots) the serve process behind replica i's address,
// against whatever state its disk holds. With faultnet, warm-standby
// replication is on, cluster traffic goes through the replica's injector,
// and ship-home under its faults gets a longer pend.
func (h *harness) start(i int) error {
	r := h.replicas[i]
	opts := serve.Options{
		Models:        map[string]*mdes.Model{"m": fixModel},
		SnapshotDir:   "snaps",
		FS:            r.fs,
		ScoreWorkers:  2,
		MaxInflight:   8,
		Peers:         h.peers,
		Advertise:     r.url,
		RetryAfter:    10 * time.Millisecond, // header "0": clients retry at their own pace
		ProbeInterval: 25 * time.Millisecond,
		PendingTTL:    2 * time.Second,
	}
	if h.nets != nil {
		opts.StandbyDir = standbyDir
		opts.PendingTTL = 5 * time.Second
		opts.ClusterClient = &http.Client{Transport: h.nets[i]}
	}
	srv, err := serve.New(opts)
	if err != nil {
		return err
	}
	r.srv = srv
	r.handler.Store(replicaBox{srv})
	return nil
}

func (h *harness) close() {
	for _, r := range h.replicas {
		if r.srv != nil {
			_ = r.srv.Shutdown(context.Background())
		}
	}
	for _, c := range h.closers {
		c()
	}
}

// apply runs one step's action on victim v, whose tenants are owned.
func (h *harness) apply(ctx context.Context, st step, v int, owned []string, seed int64, it int, rep *ClusterSoakReport) error {
	r, host := h.replicas[v], hostOf(h.peers[v])
	switch st.op {
	case kill, killReset:
		// No warning, no drain: the address goes dark at a request boundary
		// and the disk freezes with it, so only what was durable when the
		// last batch was acked survives (Shutdown's saves fail on the
		// crashed disk; it only reclaims goroutines).
		if st.op == kill {
			r.handler.Store(replicaBox{deadHandler})
		} else {
			r.handler.Store(replicaBox{connResetHandler})
		}
		r.fs.Crash()
		_ = r.srv.Shutdown(ctx)
	case restart, restartWiped:
		if st.op == restartWiped {
			// Total disk loss: snapshots, standby store, everything.
			r.fs = faultfs.NewInject(seed*9_000_041+int64(it), faultfs.Faults{})
		} else {
			r.fs.Recover() // the reboot: unsynced bytes and entries are lost
		}
		return h.start(v)
	case drain:
		moved, err := r.srv.DrainToPeers(ctx)
		if err != nil {
			return fmt.Errorf("drain replica %d: %w", v, err)
		}
		rep.Moved += moved
	case cutTwoWay, cutOneWay:
		// Peers, and the client on their side of the split, lose the victim.
		// One-way leaves the victim believing the cluster healthy — the
		// harder case, covered by the per-request ownership gate.
		for i, nt := range h.nets {
			if i != v {
				nt.Partition(host)
			} else if st.op == cutTwoWay {
				for j, p := range h.peers {
					if j != v {
						nt.Partition(hostOf(p))
					}
				}
			}
		}
		h.clientNT.Partition(host)
	case heal:
		// Cluster links first; the client's stays cut until the adopted
		// state has shipped home (the inbound pend covers cluster traffic
		// in between, keeping the client away covers client traffic).
		for _, nt := range h.nets {
			nt.HealAll()
		}
		for _, tn := range owned {
			if err := waitHomedAt(ctx, h.peers[v], tn, st.at); err != nil {
				return err
			}
			rep.ShipsHome++
		}
	case healClient:
		h.clientNT.Heal(host)
	}
	return nil
}

// ownerIdx is the replica owning tenant on the ring.
func (h *harness) ownerIdx(tenant string) int { return slices.Index(h.peers, h.ring.Owner(tenant)) }

// successorIdx is the replica holding tenant's warm standby.
func (h *harness) successorIdx(tenant string) int {
	return slices.Index(h.peers, h.ring.SuccessorAmong(tenant, h.ring.Owner(tenant), nil))
}

// netStats sums fault counters across every transport in the harness.
func (h *harness) netStats() faultnet.Stats {
	var total faultnet.Stats
	for _, nt := range append([]*faultnet.Transport{h.clientNT}, h.nets...) {
		total.Add(nt.Snapshot())
	}
	return total
}

// surveyTenant describes where a tenant's state lives at failure time: each
// replica's standby-copy ticks for (owner, tenant) and its session view.
// Diagnostic only — it turns "copy never arrived" timeouts into an answer to
// "so where IS it?".
func (h *harness) surveyTenant(ctx context.Context, owner, tenant string) string {
	var b strings.Builder
	for i, r := range h.replicas {
		n, err := copyTicks(r.fs, owner, tenant)
		info, code, serr := sessionAt(ctx, h.peers[i], tenant)
		fmt.Fprintf(&b, "\n  replica %d (%s): copy@%d (%v), session %d %+v (%v)", i, h.peers[i], n, err, code, info, serr)
	}
	return b.String()
}

// copyTicks reads, from outside the server, the ticks of the standby copy of
// tenant filed under owner in ifs: -1 for none, or none intact.
func copyTicks(ifs *faultfs.InjectFS, owner, tenant string) (int, error) {
	data, err := serve.ReadSnapshotFrame(ifs, fmt.Sprintf("%s/%x-%x.standby", standbyDir, []byte(owner), []byte(tenant)))
	if errors.Is(err, fs.ErrNotExist) {
		return -1, nil
	}
	if err != nil {
		return -1, err
	}
	if h, err := cluster.DecodeHandoff(data); err == nil {
		return h.Ticks, nil
	}
	return -1, nil
}

// waitStandbyTicks polls a replica's standby store until it holds a copy of
// tenant (keyed by owner) with at least want ticks, returning how long that
// took — the observed replication lag from batch acknowledgement to durable
// standby copy.
func waitStandbyTicks(ifs *faultfs.InjectFS, owner, tenant string, want int) (time.Duration, error) {
	start := time.Now()
	for {
		n, err := copyTicks(ifs, owner, tenant)
		switch {
		case err != nil:
			return 0, err
		case n >= want:
			return time.Since(start), nil
		case time.Since(start) > 15*time.Second:
			return 0, fmt.Errorf("standby copy of %q never reached %d ticks", tenant, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// sessionAt asks one specific replica (no ring routing, no redirects) for a
// tenant's session info. The soaks use it to observe which replica serves a
// tenant, and with what state, without the client's failover masking it.
func sessionAt(ctx context.Context, replicaURL, tenant string) (serve.SessionInfo, int, error) {
	var info serve.SessionInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, replicaURL+"/v1/streams/"+tenant, nil)
	if err != nil {
		return info, 0, err
	}
	hc := http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := hc.Do(req)
	if err != nil {
		return info, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, resp.StatusCode, nil
	}
	return info, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&info)
}

// waitHomedAt polls a replica until it serves tenant itself — un-adopted, at
// exactly want ticks — proving the ship-home exchange completed.
func waitHomedAt(ctx context.Context, replicaURL, tenant string, want int) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		info, code, err := sessionAt(ctx, replicaURL, tenant)
		if err == nil && code == http.StatusOK && !info.Adopted && info.Ticks == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tenant %q never shipped home to %s at %d ticks (last: code=%d info=%+v err=%v)",
				tenant, replicaURL, want, code, info, err)
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// hostOf is the host:port a faultnet partition keys on.
func hostOf(base string) string { return strings.TrimPrefix(base, "http://") }
