package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http/httptest"
	"reflect"

	"mdes"
	"mdes/internal/cluster"
	"mdes/internal/faultfs"
	"mdes/internal/serve"
)

// serveTenants is the tenant set every ServeSoak iteration drives; more than
// one so a crash interleaves with several sessions' persistence.
var serveTenants = []string{"alpha", "beta", "gamma"}

const (
	serveTicks = 36 // ticks pushed per tenant per iteration
	serveBatch = 6  // ticks per request; snapshots land on these boundaries
)

// ServeSoakReport summarises one ServeSoak run.
type ServeSoakReport struct {
	Iterations  int
	Crashes     int // iterations whose crash point fired mid-workload
	FreshStarts int // tenant recoveries that found no usable snapshot
	Restored    int // tenant recoveries that resumed from a snapshot
}

// tenantTicks derives each tenant's deterministic tick sequence from the
// soak dataset generator (distinct seed per tenant, same alphabet as the
// model's languages).
func tenantTicks(tenant string) []map[string]string {
	seed := int64(0)
	for _, r := range tenant {
		seed = seed*131 + int64(r)
	}
	ds := soakDataset(seed, serveTicks)
	out := make([]map[string]string, serveTicks)
	for t := 0; t < serveTicks; t++ {
		m := make(map[string]string, len(ds.Sequences))
		for _, s := range ds.Sequences {
			m[s.Sensor] = s.Events[t]
		}
		out[t] = m
	}
	return out
}

// refs is what the soaks audit against, per tenant: its tick sequence, the
// reference stream's snapshot at every request boundary (the only states a
// server may persist), and the point each tick emits on a crash-free
// standalone stream of the fixture model.
type refs struct {
	ticks  map[string][]map[string]string
	bounds map[string]map[int]mdes.StreamSnapshot
	points map[string][]*mdes.Point
}

func references(tenants []string) (refs, error) {
	r := refs{ticks: map[string][]map[string]string{}, bounds: map[string]map[int]mdes.StreamSnapshot{}, points: map[string][]*mdes.Point{}}
	for _, tenant := range tenants {
		ticks := tenantTicks(tenant)
		st := fixModel.NewStream()
		bounds := map[int]mdes.StreamSnapshot{0: st.Snapshot()}
		points := make([]*mdes.Point, 0, len(ticks))
		for i, tick := range ticks {
			p, err := st.Push(tick)
			if err != nil {
				return r, fmt.Errorf("chaos: reference stream for %q: %w", tenant, err)
			}
			points = append(points, p)
			if (i+1)%serveBatch == 0 || i == len(ticks)-1 {
				bounds[st.Ticks()] = st.Snapshot()
			}
		}
		r.ticks[tenant], r.bounds[tenant], r.points[tenant] = ticks, bounds, points
	}
	return r, nil
}

// wire is what a server answers for tenant's ticks from tick from on.
func (r refs) wire(tenant string, from int) []serve.WirePoint {
	var want []serve.WirePoint
	for _, p := range r.points[tenant][from:] {
		if p != nil {
			want = append(want, serve.PointWire(*p))
		}
	}
	return want
}

// ServeSoak runs iters crash/restart cycles of the multi-tenant server over
// an injected filesystem: ingest ticks for several tenants, crash at a
// random IO operation, recover the disk, and audit that (1) every surviving
// tenant snapshot is an intact frame whose stream state equals the
// reference at that request boundary — never torn, never off-boundary — and
// (2) a restarted server resumes each tenant from that snapshot and emits
// the remaining detection points bit-for-bit. The final state of the
// restarted server must match the crash-free reference exactly.
func ServeSoak(ctx context.Context, seed int64, iters int) (ServeSoakReport, error) {
	return ServeSoakWith(ctx, seed, iters, serve.New)
}

// ServeSoakWith is ServeSoak over servers built by build. Production is
// serve.New; the serve package's harness self-test passes a build whose
// snapshot writer is deliberately broken, and the soak must catch it.
func ServeSoakWith(ctx context.Context, seed int64, iters int, build func(serve.Options) (*serve.Server, error)) (ServeSoakReport, error) {
	rep := ServeSoakReport{Iterations: iters}
	if err := fixture(); err != nil {
		return rep, err
	}
	ref, err := references(serveTenants)
	if err != nil {
		return rep, err
	}
	ticks, bounds := ref.ticks, ref.bounds
	const dir = "snaps"

	newServer := func(ifs *faultfs.InjectFS) (*serve.Server, *httptest.Server, error) {
		srv, err := build(serve.Options{
			Models:       map[string]*mdes.Model{"m": fixModel},
			SnapshotDir:  dir,
			FS:           ifs,
			ScoreWorkers: 2,
			MaxInflight:  8,
		})
		if err != nil {
			return nil, nil, err
		}
		return srv, httptest.NewServer(srv), nil
	}

	// pushAll drives every tenant's ticks from `from` in request batches,
	// round-robin across tenants so their persists interleave. IO errors are
	// returned; the caller decides whether they are expected (crash phase).
	pushAll := func(base string, from map[string]int) error {
		client := &serve.Client{BaseURL: base}
		var firstErr error
		for off := 0; off < serveTicks; off += serveBatch {
			for _, tenant := range serveTenants {
				start := from[tenant]
				lo, hi := off, off+serveBatch
				if hi > serveTicks {
					hi = serveTicks
				}
				if lo < start {
					lo = start
				}
				if lo >= hi {
					continue
				}
				if _, err := client.PushTicks(ctx, tenant, ticks[tenant][lo:hi]); err != nil {
					if firstErr == nil {
						firstErr = err
					}
				}
			}
		}
		return firstErr
	}

	// Probe: ops for one clean iteration (workload + shutdown), so the
	// crash sweep covers ingest persists and drain-time persists alike.
	probe := faultfs.NewInject(seed, faultfs.Faults{})
	srv, hs, err := newServer(probe)
	if err != nil {
		return rep, err
	}
	if err := pushAll(hs.URL, map[string]int{}); err != nil {
		return rep, fmt.Errorf("chaos: probe workload: %w", err)
	}
	hs.Close()
	if err := srv.Shutdown(ctx); err != nil {
		return rep, fmt.Errorf("chaos: probe shutdown: %w", err)
	}
	for _, tenant := range serveTenants {
		if err := auditTenant(probe, dir, tenant, bounds[tenant], serveTicks); err != nil {
			return rep, fmt.Errorf("chaos: probe: %w", err)
		}
	}
	totalOps := probe.Ops()

	rng := rand.New(rand.NewSource(seed))
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		ifs := faultfs.NewInject(seed*1_000_003+int64(it), standingFaults())
		ifs.CrashAfter(1 + rng.Int63n(totalOps))

		// Phase 1: ingest until the crash. Request errors are expected once
		// the disk is gone (or a standing fault fires); the stream state the
		// server acknowledged before then is what recovery is audited on.
		srv, hs, err := newServer(ifs)
		if err != nil {
			return rep, err
		}
		_ = pushAll(hs.URL, map[string]int{})
		hs.Close()
		_ = srv.Shutdown(ctx) // persists what it can onto the dying disk
		if ifs.Crashed() {
			rep.Crashes++
		}
		ifs.Recover()
		ifs.SetFaults(faultfs.Faults{})

		// Phase 2: the surviving snapshots must be intact, on-boundary, and
		// bit-identical to the reference at that boundary.
		resumeFrom := make(map[string]int, len(serveTenants))
		for _, tenant := range serveTenants {
			n, err := restoredTicks(ifs, dir, tenant, bounds[tenant])
			if err != nil {
				return rep, fmt.Errorf("chaos: iteration %d: %w", it, err)
			}
			resumeFrom[tenant] = n
			if n == 0 {
				rep.FreshStarts++
			} else {
				rep.Restored++
			}
		}

		// Phase 3: a restarted server must continue every tenant bit-for-bit
		// from its snapshot: remaining points identical to the reference,
		// final durable state identical to the crash-free run.
		srv2, hs2, err := newServer(ifs)
		if err != nil {
			return rep, err
		}
		client := &serve.Client{BaseURL: hs2.URL}
		for _, tenant := range serveTenants {
			from := resumeFrom[tenant]
			got, err := client.PushTicks(ctx, tenant, ticks[tenant][from:])
			if err != nil {
				hs2.Close()
				return rep, fmt.Errorf("chaos: iteration %d: resume %q: %w", it, tenant, err)
			}
			if want := ref.wire(tenant, from); !reflect.DeepEqual(got, want) {
				hs2.Close()
				return rep, fmt.Errorf("chaos: iteration %d: tenant %q resumed points diverge: got %+v, want %+v", it, tenant, got, want)
			}
		}
		hs2.Close()
		if err := srv2.Shutdown(ctx); err != nil {
			return rep, fmt.Errorf("chaos: iteration %d: clean shutdown after recovery: %w", it, err)
		}
		for _, tenant := range serveTenants {
			if err := auditTenant(ifs, dir, tenant, bounds[tenant], serveTicks); err != nil {
				return rep, fmt.Errorf("chaos: iteration %d: after resume: %w", it, err)
			}
		}
	}
	return rep, nil
}

// restoredTicks loads a tenant's durable snapshot directly off the recovered
// filesystem and validates it against the reference boundaries, returning
// the tick count the tenant will resume from (0 = fresh start).
func restoredTicks(ifs *faultfs.InjectFS, dir, tenant string, bounds map[int]mdes.StreamSnapshot) (int, error) {
	h, found, err := readRecord(ifs, dir, "", tenant)
	switch {
	case !found:
		return 0, nil
	case errors.Is(err, cluster.ErrBadFrame):
		// A replaced file's content is synced before the rename, and an
		// in-place save only ever tears the slot not holding the newest
		// record, so an installed snapshot must never read torn — if it
		// does, the save path has a hole.
		return 0, fmt.Errorf("tenant %q: installed snapshot is torn (no intact record)", tenant)
	case err != nil:
		return 0, fmt.Errorf("tenant %q: read snapshot: %w", tenant, err)
	}
	var snap struct{ Stream mdes.StreamSnapshot } // the payload's "stream"
	if err := json.Unmarshal(h.Payload, &snap); err != nil {
		return 0, fmt.Errorf("tenant %q: snapshot decode: %w", tenant, err)
	}
	want, ok := bounds[h.Ticks]
	if !ok {
		return 0, fmt.Errorf("tenant %q: snapshot at tick %d, not a request boundary", tenant, h.Ticks)
	}
	if !reflect.DeepEqual(snap.Stream, want) {
		return 0, fmt.Errorf("tenant %q: snapshot at tick %d diverges from reference", tenant, h.Ticks)
	}
	return h.Ticks, nil
}

// auditTenant asserts a tenant's durable snapshot is exactly the reference
// state at wantTicks.
func auditTenant(ifs *faultfs.InjectFS, dir, tenant string, bounds map[int]mdes.StreamSnapshot, wantTicks int) error {
	n, err := restoredTicks(ifs, dir, tenant, bounds)
	if err != nil {
		return err
	}
	if n != wantTicks {
		return fmt.Errorf("tenant %q: final snapshot at tick %d, want %d", tenant, n, wantTicks)
	}
	return nil
}

// readRecord reads, from outside the server, dir's session record for
// (owner, tenant): a snapshot when owner is "", else a standby copy. Both
// are one cluster.Handoff frame in a slot file named by hex-encoded owner
// and tenant, a format the soaks hold the serve layer to. found is false
// for no file; a file with no intact record is cluster.ErrBadFrame.
func readRecord(ifs *faultfs.InjectFS, dir, owner, tenant string) (h cluster.Handoff, found bool, err error) {
	path := fmt.Sprintf("%s/%x.snap", dir, []byte(tenant))
	if owner != "" {
		path = fmt.Sprintf("%s/%x-%x.standby", dir, []byte(owner), []byte(tenant))
	}
	data, err := serve.ReadSnapshotFrame(ifs, path)
	if errors.Is(err, fs.ErrNotExist) {
		return h, false, nil
	}
	if err == nil {
		h, err = cluster.DecodeHandoff(data)
	}
	return h, true, err
}
