// Package faultnet is a deterministic network fault injector for chaos
// testing: an http.RoundTripper and a net.Conn wrapper that misbehave with
// seeded probabilities. It is the network-side twin of faultfs — same shape
// (wrap the real thing, one mutex, one seeded rng, counted faults,
// deterministic for a given seed) so soak tests replay bit-identically.
//
// The injected failure model matches what the cluster protocol claims to
// survive (DESIGN.md §7/§8):
//
//   - drop: the connection never happens (peer unreachable, SYN blackholed).
//   - delay: the request is held before sending (congestion, GC pause on
//     the peer) — late, not lost.
//   - duplicate: the request is delivered twice (a retry racing a response
//     that was sent but never received). Only safe against idempotent
//     endpoints, which is exactly the property handoff/replicate claim.
//   - truncate-request: the connection dies mid-upload; the peer sees a
//     short, CRC-broken frame and must refuse it without state changes.
//   - truncate-response: the connection dies mid-download; the sender got
//     an answer it cannot trust and must behave as if there was none.
//   - partition: a one-way outbound block per destination host. One-way is
//     deliberate — asymmetric partitions (A reaches B, B cannot reach A)
//     are the ones that break naive failure detectors, and flapping links
//     are scripted by toggling Partition/Heal.
//
// Faults apply to transports the test wires them into — in the soaks that
// is the replica-to-replica path (handoff, replicate, probe) and the
// client's routing path. Tick uploads are never duplicated by the client
// transport in the soaks: pushing ticks is NOT idempotent (each consumed
// tick advances the stream), so duplication there would test a property the
// protocol does not claim.
package faultnet

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Faults is the per-attempt probability of each misbehaviour, all in [0,1].
// Zero value injects nothing.
type Faults struct {
	// Drop fails the round trip with a connection error before any bytes
	// move.
	Drop float64
	// Delay holds the request for up to MaxDelay before sending.
	Delay float64
	// MaxDelay bounds one injected delay (default 20ms when Delay > 0).
	MaxDelay time.Duration
	// Duplicate sends the request twice, back to back, returning the second
	// response. Requires a rewindable body (GetBody — true for every
	// bytes.Reader request the cluster sender builds).
	Duplicate float64
	// TruncateReq cuts the request body partway through the upload.
	TruncateReq float64
	// TruncateResp cuts the response body partway through the download.
	TruncateResp float64
}

// Stats counts injected faults. Read with Snapshot; soak tests assert these
// are nonzero so a "passing" run cannot silently mean "nothing was injected".
type Stats struct {
	Drops         int64
	Delays        int64
	Duplicates    int64
	TruncatedReq  int64
	TruncatedResp int64
	Partitioned   int64 // round trips refused by an active partition
	Requests      int64 // total round trips attempted through the transport
}

// Add accumulates o into s, for totals across transports or runs.
func (s *Stats) Add(o Stats) {
	s.Drops += o.Drops
	s.Delays += o.Delays
	s.Duplicates += o.Duplicates
	s.TruncatedReq += o.TruncatedReq
	s.TruncatedResp += o.TruncatedResp
	s.Partitioned += o.Partitioned
	s.Requests += o.Requests
}

// Transport is a fault-injecting http.RoundTripper. Deterministic for a
// given seed and call sequence; safe for concurrent use (the rng is guarded,
// and fault decisions are drawn in one critical section per attempt so
// concurrency cannot reorder draws within a request).
type Transport struct {
	inner http.RoundTripper

	mu          sync.Mutex
	rng         *rand.Rand
	faults      Faults
	partitioned map[string]bool // destination host:port → outbound block

	drops         atomic.Int64
	delays        atomic.Int64
	duplicates    atomic.Int64
	truncatedReq  atomic.Int64
	truncatedResp atomic.Int64
	partitionHits atomic.Int64
	requests      atomic.Int64
}

// New wraps inner (nil selects http.DefaultTransport) with seeded fault
// injection.
func New(inner http.RoundTripper, seed int64, f Faults) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{
		inner:       inner,
		rng:         rand.New(rand.NewSource(seed)),
		faults:      f,
		partitioned: make(map[string]bool),
	}
}

// SetFaults replaces the fault probabilities (e.g. a soak phase that heals
// the network before its final audit).
func (t *Transport) SetFaults(f Faults) {
	t.mu.Lock()
	t.faults = f
	t.mu.Unlock()
}

// Partition blocks outbound requests to host ("host:port", matching URL.Host)
// until Heal. One-way: the destination can still reach this side through its
// own transport.
func (t *Transport) Partition(host string) {
	t.mu.Lock()
	t.partitioned[host] = true
	t.mu.Unlock()
}

// Heal removes an outbound block.
func (t *Transport) Heal(host string) {
	t.mu.Lock()
	delete(t.partitioned, host)
	t.mu.Unlock()
}

// HealAll removes every outbound block.
func (t *Transport) HealAll() {
	t.mu.Lock()
	t.partitioned = make(map[string]bool)
	t.mu.Unlock()
}

// Snapshot returns the fault counters.
func (t *Transport) Snapshot() Stats {
	return Stats{
		Drops:         t.drops.Load(),
		Delays:        t.delays.Load(),
		Duplicates:    t.duplicates.Load(),
		TruncatedReq:  t.truncatedReq.Load(),
		TruncatedResp: t.truncatedResp.Load(),
		Partitioned:   t.partitionHits.Load(),
		Requests:      t.requests.Load(),
	}
}

// decision is one request's drawn fate, decided atomically so concurrent
// requests interleave draws between — never within — requests.
type decision struct {
	partitioned  bool
	drop         bool
	delay        time.Duration
	duplicate    bool
	truncateReq  bool
	truncateResp bool
}

func (t *Transport) decide(host string) decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d decision
	if t.partitioned[host] {
		d.partitioned = true
		return d
	}
	f := t.faults
	if f.Drop > 0 && t.rng.Float64() < f.Drop {
		d.drop = true
		return d
	}
	if f.Delay > 0 && t.rng.Float64() < f.Delay {
		max := f.MaxDelay
		if max <= 0 {
			max = 20 * time.Millisecond
		}
		d.delay = time.Duration(t.rng.Int63n(int64(max))) + time.Millisecond
	}
	if f.Duplicate > 0 && t.rng.Float64() < f.Duplicate {
		d.duplicate = true
	}
	if f.TruncateReq > 0 && t.rng.Float64() < f.TruncateReq {
		d.truncateReq = true
	}
	if f.TruncateResp > 0 && t.rng.Float64() < f.TruncateResp {
		d.truncateResp = true
	}
	return d
}

// netError is the injected failure, shaped like a real *net.OpError so the
// client's connection-error detection (errors.As(net.Error)) treats it
// exactly like a refused dial.
func netError(op, host, msg string) error {
	return &net.OpError{Op: op, Net: "tcp", Err: fmt.Errorf("faultnet: %s %s", msg, host)}
}

// RoundTrip applies the drawn faults around the inner round trip.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	d := t.decide(req.URL.Host)
	switch {
	case d.partitioned:
		t.partitionHits.Add(1)
		return nil, netError("dial", req.URL.Host, "partitioned from")
	case d.drop:
		t.drops.Add(1)
		return nil, netError("dial", req.URL.Host, "dropped to")
	}
	if d.delay > 0 {
		t.delays.Add(1)
		timer := time.NewTimer(d.delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if d.truncateReq && req.Body != nil && req.ContentLength > 1 {
		t.truncatedReq.Add(1)
		// Cut the upload partway: the inner transport reads half the
		// declared length then hits a connection-reset-shaped error. The
		// server sees a short body; the client sees a failed round trip.
		cut := req.ContentLength / 2
		req.Body = &truncatingBody{r: io.LimitReader(req.Body, cut), closer: req.Body, host: req.URL.Host}
	}
	if d.duplicate && req.GetBody != nil {
		first, err := t.inner.RoundTrip(req)
		if err == nil {
			t.duplicates.Add(1)
			// The "lost response" of a duplicated delivery: drain and drop
			// it, then replay the request as the one the caller sees.
			_, _ = io.Copy(io.Discard, io.LimitReader(first.Body, 1<<20))
			_ = first.Body.Close() // best-effort drain of the discarded twin
			body, gerr := req.GetBody()
			if gerr != nil {
				return nil, gerr
			}
			replay := req.Clone(req.Context())
			replay.Body = body
			req = replay
		}
		// If the first delivery itself failed, fall through and let the
		// normal attempt below be "the" attempt.
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil || resp == nil {
		return resp, err
	}
	if d.truncateResp && resp.ContentLength != 0 {
		t.truncatedResp.Add(1)
		cut := resp.ContentLength / 2
		if cut <= 0 {
			cut = 64 // chunked/unknown length: yield a little, then die
		}
		resp.Body = &truncatingBody{r: io.LimitReader(resp.Body, cut), closer: resp.Body, host: req.URL.Host}
	}
	return resp, err
}

// truncatingBody yields a prefix of the real body, then fails with a
// connection error instead of a clean EOF — a mid-stream cut, not a short
// message.
type truncatingBody struct {
	r      io.Reader
	closer io.Closer
	host   string
}

func (b *truncatingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		return n, netError("read", b.host, "connection reset by")
	}
	return n, err
}

func (b *truncatingBody) Close() error { return b.closer.Close() }

// Conn wraps a net.Conn with a byte budget: after CutAfter total bytes have
// moved (reads + writes), every operation fails with a connection error.
// This is the raw-conn seam for code below HTTP (the NDJSON tick stream);
// the HTTP-level Transport above covers everything that goes through a
// RoundTripper.
type Conn struct {
	net.Conn
	// CutAfter is the total byte budget; <= 0 means never cut.
	CutAfter int64

	moved atomic.Int64
	cut   atomic.Bool
}

// Cut severs the connection immediately: in-flight and future reads/writes
// fail, and the underlying conn is closed so blocked operations unstick.
func (c *Conn) Cut() {
	if c.cut.CompareAndSwap(false, true) {
		_ = c.Conn.Close() // the injected fault IS the close
	}
}

// WasCut reports whether the budget ran out or Cut was called.
func (c *Conn) WasCut() bool { return c.cut.Load() }

func (c *Conn) charge(n int) {
	if c.CutAfter > 0 && c.moved.Add(int64(n)) >= c.CutAfter {
		c.Cut()
	}
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.cut.Load() {
		return 0, netError("read", c.Conn.RemoteAddr().String(), "connection reset by")
	}
	n, err := c.Conn.Read(p)
	c.charge(n)
	return n, err
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.cut.Load() {
		return 0, netError("write", c.Conn.RemoteAddr().String(), "connection reset by")
	}
	n, err := c.Conn.Write(p)
	c.charge(n)
	return n, err
}
