package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"time"

	"mdes"
	"mdes/internal/cluster"
	"mdes/internal/faultfs"
	"mdes/internal/faultnet"
	"mdes/internal/serve"
)

// The standby soaks certify the warm-standby replication layer end to end:
//
//   - DiskLossSoak: an owner dies AND loses its disk mid-stream. The
//     tenant's ring successor must promote the replicated copy and keep the
//     stream alive (adopted, not degraded); when the owner reboots on an
//     empty disk, everything must ship home and the stream continue there.
//   - PartitionSoak: an owner is partitioned away (two-way or asymmetric,
//     optionally flapping) while its disk stays intact. The standby serves
//     during the outage; on heal, adopted state ships home before the
//     client's traffic returns to the owner.
//
// Both run the cluster's internal traffic (probes, transfers, updates)
// through faultnet with standing faults — delays, duplicated deliveries,
// mid-body request truncation — so every protocol path is exercised under
// the failure model it claims to survive (DESIGN.md §7).
//
// The fork audit: every iteration compares the complete concatenated point
// stream of every tenant against a crash-free standalone reference,
// bit for bit, and the final server-side tick count against the count sent.
// If two replicas ever accepted the same tenant's ticks concurrently, one
// copy would consume a tick the other never saw — the surviving stream's
// points and tick count could not both match the reference. Bit-identity
// plus exact tick counts IS the at-most-one-writer proof.

// standbyDir is the warm-standby store directory on every soak replica.
const standbyDir = "standby"

// standingNetFaults is the always-on network fault mix for the cluster path.
// Drop stays 0: unreachability is scripted (partitions, kills), not random,
// so membership transitions in a soak are deterministic in wall-clock terms.
// Duplicate is safe here because every endpoint on this path (probe,
// transfer, update) is idempotent — the exact property the soak certifies.
func standingNetFaults() faultnet.Faults {
	return faultnet.Faults{
		Delay:       0.10,
		MaxDelay:    4 * time.Millisecond,
		Duplicate:   0.05,
		TruncateReq: 0.05,
	}
}

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

// standbyFile mirrors the serve layer's (owner, tenant) → standby path
// mapping; the soaks read replicated copies from outside the server.
func standbyFile(dir, owner, tenant string) string {
	return fmt.Sprintf("%s/%x-%x.standby", dir, []byte(owner), []byte(tenant))
}

// waitStandbyTicks polls a replica's standby store until it holds a copy of
// tenant (keyed by owner) with at least want ticks, returning how long that
// took — the observed replication lag from batch acknowledgement to durable
// standby copy.
func waitStandbyTicks(ifs *faultfs.InjectFS, owner, tenant string, want int) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(15 * time.Second)
	for {
		data, err := serve.ReadSnapshotFrame(ifs, standbyFile(standbyDir, owner, tenant))
		if err == nil {
			if h, derr := cluster.DecodeHandoff(data); derr == nil && h.Ticks >= want {
				return time.Since(start), nil
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			return 0, err
		}
		if time.Now().After(deadline) {
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

// hostOf extracts the host:port a faultnet partition keys on.
func hostOf(base string) string {
	u, err := url.Parse(base)
	if err != nil {
		panic(fmt.Sprintf("chaos: unparseable replica url %q", base))
	}
	return u.Host
}

// standbyHarness is the shared 3-replica setup for both standby soaks.
type standbyHarness struct {
	replicas []*replica
	peers    []string
	nets     []*faultnet.Transport // per-replica cluster transports
	clientNT *faultnet.Transport   // the driving client's transport
	ring     *cluster.Ring
	client   *serve.Client
	closers  []func()
}

func newStandbyHarness(seed int64, it int, model *mdes.Model) (*standbyHarness, error) {
	h := &standbyHarness{}
	for i := 0; i < clusterReplicas; i++ {
		r := &replica{fs: faultfs.NewInject(seed*3_000_017+int64(it*clusterReplicas+i), faultfs.Faults{})}
		r.handler.Store(replicaBox{deadHandler})
		hs := httptest.NewServer(r)
		h.closers = append(h.closers, hs.Close)
		r.url = hs.URL
		h.replicas = append(h.replicas, r)
		h.peers = append(h.peers, r.url)
		h.nets = append(h.nets, faultnet.New(nil, seed*5_000_011+int64(it*clusterReplicas+i), standingNetFaults()))
	}
	for i, r := range h.replicas {
		if err := startReplica(r, h.peers, model, h.nets[i]); err != nil {
			h.close()
			return nil, err
		}
	}
	ring, err := cluster.NewRing(h.peers, 0)
	if err != nil {
		h.close()
		return nil, err
	}
	h.ring = ring
	// The client's transport injects delays only: tick uploads are not
	// idempotent (duplication would fork the stream by construction) and
	// truncating them tests the HTTP layer, not the replication protocol.
	h.clientNT = faultnet.New(nil, seed*7_000_003+int64(it), faultnet.Faults{Delay: 0.05, MaxDelay: 2 * time.Millisecond})
	h.client = &serve.Client{
		Peers:      h.peers,
		HTTPClient: &http.Client{Transport: h.clientNT},
		Retry:      serve.RetryPolicy{MaxAttempts: 2000, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	}
	return h, nil
}

func (h *standbyHarness) close() {
	for _, r := range h.replicas {
		if r.srv != nil {
			_ = r.srv.Shutdown(context.Background())
		}
	}
	for _, c := range h.closers {
		c()
	}
}

// victimOf picks the replica owning tenant and lists everything it owns.
func (h *standbyHarness) victimOf(tenant string) (victim int, owned []string) {
	ownerURL := h.ring.Owner(tenant)
	victim = -1
	for i, u := range h.peers {
		if u == ownerURL {
			victim = i
		}
	}
	for _, tn := range clusterTenants {
		if h.ring.Owner(tn) == ownerURL {
			owned = append(owned, tn)
		}
	}
	return victim, owned
}

// successorIdx resolves which replica is tenant's warm standby.
func (h *standbyHarness) successorIdx(tenant string) int {
	succ := h.ring.SuccessorAmong(tenant, h.ring.Owner(tenant), nil)
	for i, u := range h.peers {
		if u == succ {
			return i
		}
	}
	return -1
}

// surveyTenant describes where a tenant's state lives across the harness at
// failure time: each replica's standby-copy ticks for (owner, tenant), its
// live session view, and its replication counters. Diagnostic only — it
// turns "copy never arrived" timeouts into an answer to "so where IS it?".
func (h *standbyHarness) surveyTenant(ctx context.Context, owner, tenant string) string {
	var b strings.Builder
	for i, rep := range h.replicas {
		fmt.Fprintf(&b, "\n  replica %d (%s):", i, h.peers[i])
		if data, err := serve.ReadSnapshotFrame(rep.fs, standbyFile(standbyDir, owner, tenant)); err == nil {
			if hh, derr := cluster.DecodeHandoff(data); derr == nil {
				fmt.Fprintf(&b, " copy@%d", hh.Ticks)
			} else {
				fmt.Fprintf(&b, " copy-undecodable(%v)", derr)
			}
		} else {
			b.WriteString(" no-copy")
		}
		if info, code, err := sessionAt(ctx, h.peers[i], tenant); err == nil && code == http.StatusOK {
			fmt.Fprintf(&b, " session{ticks:%d adopted:%v}", info.Ticks, info.Adopted)
		} else {
			fmt.Fprintf(&b, " session{code:%d err:%v}", code, err)
		}
		resp, err := http.Get(h.peers[i] + "/metrics")
		if err != nil {
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "mdes_serve_repl_") && !strings.HasSuffix(line, " 0") &&
				!strings.Contains(line, "lag_seconds_bucket") {
				fmt.Fprintf(&b, " %s", strings.TrimPrefix(line, "mdes_serve_"))
			}
		}
	}
	return b.String()
}

// netStats sums fault counters across every transport in the harness.
func (h *standbyHarness) netStats() faultnet.Stats {
	var total faultnet.Stats
	for _, nt := range append([]*faultnet.Transport{h.clientNT}, h.nets...) {
		total.Add(nt.Snapshot())
	}
	return total
}

// DiskLossSoakReport summarises one DiskLossSoak run.
type DiskLossSoakReport struct {
	Iterations int
	Promotions int // outage windows served from the standby's replicated copy
	ShipsHome  int // tenants recovered onto the wiped owner after revival
	// ReplLag samples the enqueue-to-durable-standby-copy lag observed at
	// each kill boundary; PromotionLatency samples kill-to-first-served-tick.
	ReplLag          []time.Duration
	PromotionLatency []time.Duration
	Net              faultnet.Stats
}

// DiskLossSoak runs iters owner-dies-with-its-disk cycles: tenants stream
// tick batches; at a seeded batch boundary the owner of a seeded tenant goes
// dark at the TCP level AND its filesystem is replaced with an empty one
// (total disk loss). The stream must continue through the warm standby —
// served from the replicated copy, adopted and not degraded — and when the
// owner reboots on the empty disk, every tenant must ship home and finish
// there. Zero lost ticks, bit-identical points, every iteration.
func DiskLossSoak(ctx context.Context, seed int64, iters int) (DiskLossSoakReport, error) {
	rep := DiskLossSoakReport{Iterations: iters}
	err := runClusterSoak(ctx, seed, iters, "disk-loss", func(rng *rand.Rand, it int, refs clusterRefs) error {
		return diskLossIteration(ctx, rng, seed, it, refs, &rep)
	})
	return rep, err
}

func diskLossIteration(ctx context.Context, rng *rand.Rand, seed int64, it int, refs clusterRefs, rep *DiskLossSoakReport) error {
	h, err := newStandbyHarness(seed, it, refs.model)
	if err != nil {
		return err
	}
	defer h.close()

	victim, victimTenants := h.victimOf(clusterTenants[rng.Intn(len(clusterTenants))])
	victimURL := h.peers[victim]
	// Kill between the first and second-to-last boundaries, revive one batch
	// later: at least one pre-kill replication, at least one batch served by
	// the standby, at least one batch after the owner's return.
	killAt := serveBatch * (1 + rng.Intn(serveTicks/serveBatch-2))
	reviveAt := killAt + serveBatch

	got := make(map[string][]serve.WirePoint, len(clusterTenants))
	var killTime time.Time
	promoLatencySampled := false

	for off := 0; off < serveTicks; off += serveBatch {
		if off == killAt {
			// The kill is scripted AFTER replication has drained: the soak
			// certifies failover from a copy that exists, and the drain wait
			// doubles as the replication-lag probe. (Loss of the in-flight
			// copy is legal — replication is lossy by design — but then the
			// standby would refuse the tenant and this audit wants service.)
			for _, tn := range victimTenants {
				lag, err := waitStandbyTicks(h.replicas[h.successorIdx(tn)].fs, victimURL, tn, off)
				if err != nil {
					return fmt.Errorf("%w; survey:%s", err, h.surveyTenant(ctx, victimURL, tn))
				}
				rep.ReplLag = append(rep.ReplLag, lag)
			}
			killTime = time.Now()
			h.replicas[victim].handler.Store(replicaBox{connResetHandler})
			_ = h.replicas[victim].srv.Shutdown(ctx)
			// Total disk loss: snapshots, standby store, everything.
			h.replicas[victim].fs = faultfs.NewInject(seed*9_000_041+int64(it), faultfs.Faults{})
		}
		if off == reviveAt {
			if err := startReplica(h.replicas[victim], h.peers, refs.model, h.nets[victim]); err != nil {
				return err
			}
		}
		for _, tenant := range clusterTenants {
			hi := off + serveBatch
			if hi > serveTicks {
				hi = serveTicks
			}
			ps, err := h.client.PushTicksRetry(ctx, tenant, refs.ticks[tenant][off:hi])
			if err != nil {
				return fmt.Errorf("tenant %q ticks [%d,%d): %w", tenant, off, hi, err)
			}
			got[tenant] = append(got[tenant], ps...)
			if off == killAt && !promoLatencySampled {
				for _, tn := range victimTenants {
					if tn == tenant {
						rep.PromotionLatency = append(rep.PromotionLatency, time.Since(killTime))
						promoLatencySampled = true
					}
				}
			}
		}
		if off == killAt {
			// The outage batch landed. Prove it was served by the standby
			// from real state: adopted, full tick count, not degraded.
			for _, tn := range victimTenants {
				info, code, err := sessionAt(ctx, h.peers[h.successorIdx(tn)], tn)
				if err != nil || code != http.StatusOK {
					return fmt.Errorf("standby session for %q: code=%d err=%v", tn, code, err)
				}
				if !info.Adopted || info.Degraded || info.Ticks != off+serveBatch {
					return fmt.Errorf("standby serves %q as %+v, want adopted, not degraded, %d ticks", tn, info, off+serveBatch)
				}
			}
			rep.Promotions++
		}
	}

	// The revived owner must end up serving every one of its tenants itself,
	// un-adopted, from the shipped-home state — its disk started empty, so
	// every tick it now holds arrived via the standby's replicated copy.
	for _, tn := range victimTenants {
		if err := waitHomedAt(ctx, victimURL, tn, serveTicks); err != nil {
			return err
		}
		rep.ShipsHome++
	}
	if err := refs.audit(ctx, h.client, got); err != nil {
		return err
	}
	rep.Net.Add(h.netStats())
	return nil
}

// PartitionSoakReport summarises one PartitionSoak run.
type PartitionSoakReport struct {
	Iterations int
	Partitions int // partition windows scripted, flap re-partitions included
	OneWay     int // asymmetric windows (peers cut off from the victim only)
	Flaps      int // iterations that partitioned, healed, and partitioned again
	Promotions int // outage windows served from the standby's replicated copy
	Net        faultnet.Stats
}

// PartitionSoak runs iters partition-and-heal cycles: at a seeded batch
// boundary the owner of a seeded tenant is partitioned away — two-way, or
// asymmetric (the failure detectors' nightmare: the victim still sees a
// healthy cluster while the cluster sees it dead) — with the driving client
// on the majority side, as a real network split would put it. The standby
// serves the outage window from its replicated copy. Healing is ordered the
// way the protocol requires: cluster links first, then a wait for the
// adopted state to ship home, and only then the client's path to the owner.
// Flap iterations run the whole cycle twice. The fork audit (bit-identical
// points, exact tick counts) proves at most one replica ever consumed a
// given tenant's ticks.
func PartitionSoak(ctx context.Context, seed int64, iters int) (PartitionSoakReport, error) {
	rep := PartitionSoakReport{Iterations: iters}
	err := runClusterSoak(ctx, seed, iters, "partition", func(rng *rand.Rand, it int, refs clusterRefs) error {
		return partitionIteration(ctx, rng, seed, it, refs, &rep)
	})
	return rep, err
}

func partitionIteration(ctx context.Context, rng *rand.Rand, seed int64, it int, refs clusterRefs, rep *PartitionSoakReport) error {
	h, err := newStandbyHarness(seed, it, refs.model)
	if err != nil {
		return err
	}
	defer h.close()

	victim, victimTenants := h.victimOf(clusterTenants[rng.Intn(len(clusterTenants))])
	victimURL := h.peers[victim]
	victimHost := hostOf(victimURL)
	oneWay := rng.Intn(2) == 0
	flap := rng.Intn(2) == 0

	// Boundary schedule. A window is [cut, heal): the batches pushed at
	// boundaries in that range go through the standby. Flap iterations run a
	// second window after the first heals — the link that comes back and
	// dies again, with the second adoption fed by the re-seeded copy.
	//   flap:   cut@6  heal@18 cut@24 heal@30
	//   plain:  cut@6|12, heal 12 ticks later
	cutAt, healAt := serveBatch*(1+rng.Intn(2)), 0
	if flap {
		cutAt = serveBatch
	}
	healAt = cutAt + 2*serveBatch
	cut2At, heal2At := -1, -1
	if flap {
		cut2At = healAt + serveBatch
		heal2At = cut2At + serveBatch
	}

	cutLinks := func() {
		// Peers (and the client, which sits on their side of the split)
		// cannot reach the victim.
		for i, nt := range h.nets {
			if i != victim {
				nt.Partition(victimHost)
			}
		}
		h.clientNT.Partition(victimHost)
		if !oneWay {
			// Two-way: the victim cannot reach anyone either, so its own
			// membership view degrades too. (One-way leaves the victim
			// believing the cluster is healthy — the harder case for the
			// failure detector, covered by the per-request ownership gate.)
			for i, p := range h.peers {
				if i != victim {
					h.nets[victim].Partition(hostOf(p))
				}
			}
		}
		rep.Partitions++
		if oneWay {
			rep.OneWay++
		}
	}
	// healLinks restores the cluster paths ONLY — the client's path to the
	// victim stays cut until the adopted state has shipped home. This is the
	// protocol's required heal order: the window between "owner reachable
	// again" and "fresh state landed on it" is covered by the inbound-pend
	// exchange for cluster traffic, and by keeping the client away for
	// client traffic.
	healLinks := func(pushedTicks int) error {
		for _, nt := range h.nets {
			nt.HealAll()
		}
		for _, tn := range victimTenants {
			if err := waitHomedAt(ctx, victimURL, tn, pushedTicks); err != nil {
				return err
			}
		}
		h.clientNT.Heal(victimHost)
		return nil
	}

	got := make(map[string][]serve.WirePoint, len(clusterTenants))
	inOutage := false
	for off := 0; off < serveTicks; off += serveBatch {
		switch off {
		case cutAt, cut2At:
			// Replication must have drained before the owner disappears —
			// same reasoning as the disk-loss kill.
			for _, tn := range victimTenants {
				if _, err := waitStandbyTicks(h.replicas[h.successorIdx(tn)].fs, victimURL, tn, off); err != nil {
					return fmt.Errorf("%w; survey:%s", err, h.surveyTenant(ctx, victimURL, tn))
				}
			}
			cutLinks()
			inOutage = true
		case healAt, heal2At:
			if err := healLinks(off); err != nil {
				return err
			}
			inOutage = false
		}
		for _, tenant := range clusterTenants {
			hi := off + serveBatch
			if hi > serveTicks {
				hi = serveTicks
			}
			ps, err := h.client.PushTicksRetry(ctx, tenant, refs.ticks[tenant][off:hi])
			if err != nil {
				return fmt.Errorf("tenant %q ticks [%d,%d): %w", tenant, off, hi, err)
			}
			got[tenant] = append(got[tenant], ps...)
		}
		if inOutage && (off == cutAt || off == cut2At) {
			for _, tn := range victimTenants {
				info, code, err := sessionAt(ctx, h.peers[h.successorIdx(tn)], tn)
				if err != nil || code != http.StatusOK {
					return fmt.Errorf("standby session for %q: code=%d err=%v", tn, code, err)
				}
				if !info.Adopted || info.Degraded || info.Ticks != off+serveBatch {
					return fmt.Errorf("standby serves %q as %+v, want adopted, not degraded, %d ticks", tn, info, off+serveBatch)
				}
			}
			rep.Promotions++
		}
	}
	if flap {
		rep.Flaps++
	}

	// Final heal (the flap schedule ends healed; this is a no-op then) and
	// the fork audit.
	if err := healLinks(serveTicks); err != nil {
		return err
	}
	if err := refs.audit(ctx, h.client, got); err != nil {
		return err
	}
	s := h.netStats()
	if s.Partitioned == 0 {
		return errors.New("no round trip was ever refused by a partition; the soak exercised nothing")
	}
	rep.Net.Add(s)
	return nil
}
