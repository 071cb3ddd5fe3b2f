// Package cluster is the horizontal-scaling substrate for mdes-serve: a
// consistent-hash ring that assigns every tenant to exactly one replica, an
// ownership table (Table) that makes every routing decision from a probed
// view of the peers, and a snapshot-handoff protocol that moves a tenant's
// frozen session between replicas without losing a tick.
//
// The design is deliberately coordination-free: the replica set is a static
// `-peers` list, every node (and every routing client) derives the same ring
// from it, and the only cluster state that ever changes is each node's local
// view of which peers are alive. Ownership is therefore a pure function of
// (tenant, ring, alive set); disagreement between views is resolved by
// redirects (a non-owner answers 307 + the owner's address) and bounded by
// the handoff protocol's idempotency (receivers keep the state with the most
// ticks, so a replayed or crossed handoff is a no-op).
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVnodes is the virtual-node count per peer. Servers and routing
// clients must agree on it (both default here) or clients would guess wrong
// owners and pay a redirect on every request.
const DefaultVnodes = 64

// Ring is an immutable consistent-hash ring over a peer list. Two rings
// built from the same peers and vnode count place every tenant identically,
// on every machine — that determinism is what lets each replica and each
// client route independently without a coordinator.
type Ring struct {
	peers  []string // sorted, unique
	points []point  // sorted by hash; ties broken by peer then index
}

// point is one virtual node: a position on the hash circle owned by a peer.
type point struct {
	hash uint64
	peer string
}

// NewRing builds a ring with vnodes virtual nodes per peer (0 selects
// DefaultVnodes). Peers are base addresses ("http://host:port"); duplicates
// and empties are rejected so every node derives the identical ring.
func NewRing(peers []string, vnodes int) (*Ring, error) {
	if len(peers) == 0 {
		return nil, errors.New("cluster: no peers")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	for i, p := range sorted {
		if p == "" {
			return nil, errors.New("cluster: empty peer address")
		}
		if i > 0 && sorted[i-1] == p {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
	}
	r := &Ring{peers: sorted, points: make([]point, 0, len(sorted)*vnodes)}
	for _, p := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hashKey(p + "#" + strconv.Itoa(v)), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision is vanishingly rare but must still order the
		// same way everywhere.
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// hashKey is FNV-64a run through a 64-bit avalanche finalizer (murmur3's
// fmix64). Both halves matter: FNV is stable across processes and
// architectures, which is the property placement needs — but raw FNV barely
// diffuses trailing bytes (hashes of "tenant-001"…"tenant-199" differ by
// small multiples of the FNV prime, clustering a whole sequential tenant
// population into a sliver of the circle that one or two replicas own).
// The finalizer spreads those clustered sums uniformly while staying just
// as deterministic.
//
// FNV-64a is inlined rather than run through hash/fnv, whose Write is an
// io.Writer call: the ring is walked under the ownership table's lock,
// where lockcall admits no I/O-shaped calls.
func hashKey(s string) uint64 {
	z := uint64(14695981039346656037) // FNV-64a offset basis
	for i := 0; i < len(s); i++ {
		z ^= uint64(s[i])
		z *= 1099511628211 // FNV-64 prime
	}
	z ^= z >> 33
	z *= 0xff51afd7ed558ccd
	z ^= z >> 33
	z *= 0xc4ceb9fe1a85ec53
	z ^= z >> 33
	return z
}

// Peers returns the ring's peer list in sorted order. Callers must not
// mutate it.
func (r *Ring) Peers() []string { return r.peers }

// Owner returns the tenant's owner with every peer eligible.
func (r *Ring) Owner(tenant string) string { return r.OwnerAmong(tenant, nil) }

// OwnerAmong returns the first peer at or clockwise of the tenant's hash
// that passes eligible (nil admits every peer) — the consistent-hash
// property: removing one peer reassigns only that peer's tenants, to their
// next point on the circle, and every other placement is untouched. Returns
// "" when no peer is eligible.
func (r *Ring) OwnerAmong(tenant string, eligible func(peer string) bool) string {
	h := hashKey(tenant)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if eligible == nil || eligible(p.peer) {
			return p.peer
		}
	}
	return ""
}

// SuccessorAmong returns the tenant's standby: the first eligible peer,
// walking clockwise from the tenant's hash, that is distinct from owner.
// It inherits OwnerAmong's stability property — losing any peer other than
// the owner or the standby leaves the (owner, standby) pair untouched — and,
// like OwnerAmong, every replica and client derives the same answer from the
// same view. Returns "" when no distinct eligible peer exists (e.g. a
// single-replica "cluster", which has nowhere to replicate to).
func (r *Ring) SuccessorAmong(tenant, owner string, eligible func(peer string) bool) string {
	h := hashKey(tenant)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if p.peer == owner {
			continue
		}
		if eligible == nil || eligible(p.peer) {
			return p.peer
		}
	}
	return ""
}
