package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"mdes"
	"mdes/internal/cluster"
	"mdes/internal/serve"
)

// coldDetectReps is how many times each set-up of a serving workload times
// its reference Detect, each time on a fresh cold clone of the model.
const coldDetectReps = 3

// checkPhases counts every request of the run as an output check: one that
// failed, was refused after its retries or was answered degraded fails it.
func checkPhases(o *outcome) {
	for _, ps := range o.phases {
		o.attempted += ps.Sent
		for i := 0; i < ps.Failed+ps.Refused+ps.Degraded; i++ {
			o.fail("phase %s: %d failed, %d refused, %d degraded of %d requests", ps.Name, ps.Failed, ps.Refused, ps.Degraded, ps.Sent)
		}
	}
}

// checkServing runs the output checks of one system of a serving run: every
// tenant's streamed points equal an independent offline Detect over the ticks
// it sent (score for score: the reference is a cold clone at the same
// precision), the server-side tick count equals the ticks sent, no session is
// degraded, and in a cluster every tenant is resident on exactly its ring
// owner. It returns the rates of the timed reference Detects.
func checkServing(ctx context.Context, sys *system, lg *loadGen, sz sizes, o *outcome) []float64 {
	ref, err := cloneModel(sys.model)
	detect := func(tenant, n int) ([]pointDigest, error) {
		points, err := ref.Detect(ctx, lg.tr.dataset(tenant, n))
		return digestsOf(points), err
	}
	// Every replaying tenant sends the same sequence, so one Detect over the
	// longest prefix sent covers them all; novel tenants each need their own.
	var shared []pointDigest
	if err == nil && !lg.tr.novel {
		longest := 0
		for _, ts := range lg.tenants {
			longest = max(longest, ts.sent)
		}
		shared, err = detect(0, longest)
	}
	if err != nil {
		o.attempted++
		o.fail("reference detect: %v", err)
		return nil
	}
	for _, ts := range lg.tenants {
		o.attempted += 2
		want := shared
		if lg.tr.novel {
			if want, err = detect(ts.idx, ts.sent); err != nil {
				o.fail("tenant %s: reference detect: %v", ts.name, err)
				continue
			}
		}
		if n := pointsAfter(ts.sent); len(want) >= n {
			want = want[:n]
		}
		if msg := comparePoints(ts.points, want); msg != "" {
			o.fail("tenant %s: %s", ts.name, msg)
		}
		info, err := sys.client.Session(ctx, ts.name)
		switch {
		case err != nil:
			o.fail("tenant %s: session: %v", ts.name, err)
		case info.Ticks != ts.sent:
			o.fail("tenant %s: server consumed %d ticks, client sent %d", ts.name, info.Ticks, ts.sent)
		case info.Degraded:
			o.fail("tenant %s: session is degraded", ts.name)
		}
	}
	if len(sys.replicas) > 1 {
		checkOwnership(sys, lg, o)
	}
	if sys.spec.durable {
		checkDurability(sys, o)
	}
	return timeColdDetect(ctx, sys.model, lg.tr, sz, o)
}

// timeColdDetect gives a serving workload its detect_sentences_per_s samples:
// Detect over a fixed-length prefix of a tenant's traffic, on a fresh cold
// clone each time so every repetition does the same work. It is apart from the
// output check's Detect, whose length follows how many ticks the timed rounds
// happened to send.
func timeColdDetect(ctx context.Context, model *mdes.Model, tr *traffic, sz sizes, o *outcome) (rates []float64) {
	for i := 0; i < coldDetectReps; i++ {
		ref, err := cloneModel(model)
		if err != nil {
			o.attempted++
			o.fail("clone for timed detect: %v", err)
			return nil
		}
		ds := tr.dataset(i%len(tr.names), spanTicks+(sz.detectRequests-1)*strideTicks)
		runtime.GC() // so no repetition pays for the previous clone's garbage
		start := time.Now()
		points, err := ref.Detect(ctx, ds)
		took := time.Since(start).Seconds()
		if err != nil || len(points) != sz.detectRequests {
			o.attempted++
			o.fail("timed detect: %d points, want %d: %v", len(points), sz.detectRequests, err)
			return nil
		}
		rates = append(rates, float64(ref.Detector().NumValid()*len(points))/took)
	}
	return rates
}

// checkDurability requires that the durable machinery really ran: snapshots
// were written without error and, in a cluster, standby copies were shipped
// and persisted without error.
func checkDurability(sys *system, o *outcome) {
	o.attempted++
	s, err := sys.scrape()
	switch {
	case err != nil:
		o.fail("scrape: %v", err)
	case s["mdes_serve_snapshot_writes_total"] == 0 || s["mdes_serve_snapshot_errors_total"] > 0:
		o.fail("snapshots: %v written, %v errors", s["mdes_serve_snapshot_writes_total"], s["mdes_serve_snapshot_errors_total"])
	case len(sys.replicas) > 1 && (s["mdes_serve_repl_shipped_total"] == 0 || s["mdes_serve_repl_received_total"] == 0 ||
		s["mdes_serve_repl_store_errors_total"] > 0 || s["mdes_serve_repl_ship_errors_total"] > 0):
		o.fail("replication: %v shipped, %v received, %v ship errors, %v store errors", s["mdes_serve_repl_shipped_total"],
			s["mdes_serve_repl_received_total"], s["mdes_serve_repl_ship_errors_total"], s["mdes_serve_repl_store_errors_total"])
	}
}

// pointsAfter is how many detection points a stream has emitted after n ticks.
func pointsAfter(n int) int {
	if n < spanTicks {
		return 0
	}
	return (n-spanTicks)/strideTicks + 1
}

func comparePoints(got, want []pointDigest) string {
	if len(got) != len(want) {
		return fmt.Sprintf("streamed %d points, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("point %d: streamed %+v, reference %+v", i, got[i], want[i])
		}
	}
	return ""
}

// checkOwnership lists every replica's resident sessions and requires each
// tenant to be resident on exactly one replica: its ring owner.
func checkOwnership(sys *system, lg *loadGen, o *outcome) {
	ring, err := cluster.NewRing(sys.client.Peers, 0)
	if err != nil {
		o.attempted++
		o.fail("ring: %v", err)
		return
	}
	holders := map[string][]string{}
	for _, r := range sys.replicas {
		code, body, err := sys.get(r.url + "/v1/streams")
		var infos []serve.SessionInfo
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(body, &infos)
		}
		if err != nil || code != http.StatusOK {
			o.attempted++
			o.fail("list sessions on %s: %d %v", r.url, code, err)
			return
		}
		for _, info := range infos {
			holders[info.Tenant] = append(holders[info.Tenant], r.url)
		}
	}
	for _, ts := range lg.tenants {
		o.attempted++
		if h := holders[ts.name]; len(h) != 1 || h[0] != ring.Owner(ts.name) {
			o.fail("tenant %s: resident on %v, ring owner is %s", ts.name, h, ring.Owner(ts.name))
		}
	}
}
