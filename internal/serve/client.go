package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"mdes/internal/cluster"
)

// Client is a small helper over the server's HTTP API, used by the end-to-end
// tests and the benchmark — and usable by any Go caller that wants to stream
// ticks without hand-rolling NDJSON.
//
// Against a cluster, set Peers to the same static replica list the servers
// run with: the client then routes each tenant straight to its ring owner,
// follows ownership redirects (307) up to MaxRedirects, fails over to
// another replica when a connection attempt fails outright, and keeps
// per-replica routing stats (see Stats).
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8331". Used when
	// Peers is empty (standalone mode).
	BaseURL string
	// Peers enables cluster routing: the full static replica list, matching
	// the servers' -peers configuration.
	Peers []string
	// MaxRedirects caps ownership-redirect hops (and connection-failure
	// failovers) per request. 0 selects 3. Exhausting the budget on
	// redirects returns *RedirectError.
	MaxRedirects int
	// Model optionally pins sessions to a named model (?model=).
	Model string
	// HTTPClient defaults to http.DefaultClient. Redirects are handled by
	// the client itself (the budget must be enforced and counted), so the
	// HTTP client's own redirect policy is bypassed.
	HTTPClient *http.Client
	// Retry configures PushTicksRetry's backoff. The zero value uses the
	// defaults documented on RetryPolicy; a nil Jitter selects math/rand.
	Retry RetryPolicy

	ringOnce sync.Once
	ring     *cluster.Ring
	ringErr  error

	mu        sync.Mutex
	down      map[string]time.Time // replica -> routed around until
	redirects int64
	ticksSent map[string]int64 // replica -> ticks acknowledged
}

// RetryPolicy shapes PushTicksRetry's backoff on backpressure: the one
// retry loop, shared with the cluster's Sender.
type RetryPolicy = cluster.RetryPolicy

// downTTL is how long a replica that refused a connection is routed around
// before being tried again.
const downTTL = 2 * time.Second

// BusyError reports a backpressure response — 429, or a 503 that carried a
// Retry-After hint (draining peer, owner unreachable, or a tenant
// mid-migration) — and the server's retry hint. The request consumed no
// ticks; resending the same batch is safe.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("serve: busy, retry after %s", e.RetryAfter)
}

// RedirectError reports that a request was still being redirected when the
// redirect budget ran out — typically mid-rebalance, while tenant ownership
// is moving between replicas. Like a 429, no ticks were consumed; back off
// (honouring RetryAfter) and resend, and routing re-resolves the owner.
type RedirectError struct {
	// Location is the last owner address the cluster pointed at.
	Location string
	// RetryAfter is the hint from the final redirect response.
	RetryAfter time.Duration
	// Hops is how many redirects were followed before giving up.
	Hops int
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("serve: still redirected after %d hops (last to %s)", e.Hops, e.Location)
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// doNoRedirect issues the request with automatic redirect-following
// disabled: ownership 307s must surface to the routing loop, where the
// budget is enforced and the hop counted.
func (c *Client) doNoRedirect(req *http.Request) (*http.Response, error) {
	hc := *c.http()
	hc.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	return hc.Do(req)
}

func (c *Client) maxRedirects() int {
	if c.MaxRedirects > 0 {
		return c.MaxRedirects
	}
	return 3
}

// clusterRing lazily builds the routing ring from Peers.
func (c *Client) clusterRing() (*cluster.Ring, error) {
	c.ringOnce.Do(func() { c.ring, c.ringErr = cluster.NewRing(c.Peers, 0) })
	return c.ring, c.ringErr
}

// baseFor picks the replica to contact first for a tenant: its ring owner,
// skipping replicas recently seen down. With every candidate down-listed
// the plain owner is returned anyway — someone has to be asked.
func (c *Client) baseFor(tenant string) (string, error) {
	if len(c.Peers) == 0 {
		return c.BaseURL, nil
	}
	ring, err := c.clusterRing()
	if err != nil {
		return "", err
	}
	now := time.Now()
	c.mu.Lock()
	owner := ring.OwnerAmong(tenant, func(p string) bool { return c.down[p].Before(now) })
	c.mu.Unlock()
	if owner == "" {
		owner = ring.Owner(tenant)
	}
	return owner, nil
}

// markDown routes around a replica for downTTL after a connection failure.
func (c *Client) markDown(replica string) {
	if len(c.Peers) == 0 || replica == "" {
		return
	}
	c.mu.Lock()
	if c.down == nil {
		c.down = make(map[string]time.Time)
	}
	c.down[replica] = time.Now().Add(downTTL)
	c.mu.Unlock()
}

// fallback picks the replica to try after avoid failed: the tenant's ring
// successor — the peer holding its warm-standby copy, which can promote and
// serve immediately — falling back to the next not-down peer clockwise.
func (c *Client) fallback(tenant, avoid string) (string, bool) {
	ring, err := c.clusterRing()
	if err != nil {
		return "", false
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	p := ring.SuccessorAmong(tenant, avoid, func(p string) bool { return c.down[p].Before(now) })
	return p, p != ""
}

func (c *Client) noteRedirect() {
	c.mu.Lock()
	c.redirects++
	c.mu.Unlock()
}

func (c *Client) noteTicks(replica string, n int) {
	c.mu.Lock()
	if c.ticksSent == nil {
		c.ticksSent = make(map[string]int64)
	}
	c.ticksSent[replica] += int64(n)
	c.mu.Unlock()
}

// ClientStats is a snapshot of the client's routing counters.
type ClientStats struct {
	// Redirects counts ownership redirects followed.
	Redirects int64
	// TicksByReplica counts acknowledged ticks per replica base URL.
	TicksByReplica map[string]int64
}

// Stats returns a copy of the routing counters accumulated so far.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := ClientStats{Redirects: c.redirects, TicksByReplica: make(map[string]int64, len(c.ticksSent))}
	for r, n := range c.ticksSent {
		out.TicksByReplica[r] = n
	}
	return out
}

// baseOfLocation extracts the replica base URL ("scheme://host") from a
// redirect Location.
func baseOfLocation(loc string) (string, error) {
	u, err := url.Parse(loc)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("serve: unusable redirect location %q", loc)
	}
	return u.Scheme + "://" + u.Host, nil
}

func isRedirect(code int) bool {
	return code == http.StatusTemporaryRedirect || code == http.StatusPermanentRedirect ||
		code == http.StatusFound || code == http.StatusMovedPermanently
}

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	_ = resp.Body.Close() // response already handled; nothing to report
}

// send issues one tenant-scoped request and returns the response (the caller
// owns its body) and the replica that answered. It routes by ring, fails
// over when a connection attempt fails outright, and follows ownership
// redirects (307) within the budget; a request still redirected when the
// budget runs out is *RedirectError.
func (c *Client) send(ctx context.Context, method, tenant, path string, body []byte) (*http.Response, string, error) {
	base, err := c.baseFor(tenant)
	if err != nil {
		return nil, "", err
	}
	target := base + path
	for hop := 0; ; hop++ {
		req, err := http.NewRequestWithContext(ctx, method, target, bytes.NewReader(body))
		if err != nil {
			return nil, "", err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/x-ndjson")
		}
		resp, err := c.doNoRedirect(req)
		if err != nil {
			// Connection-level failure: nothing was consumed. Route around
			// the replica and ask another one — it serves the tenant, or
			// redirects to whoever should. Failovers are not charged
			// against the redirect budget: they are bounded by the down
			// list instead (every failure down-lists its replica, and the
			// fallback only returns not-down peers), so a dead owner ends
			// the loop in a retryable RedirectError from its standby, not
			// a raw connection error surfaced mid-outage.
			if ctx.Err() == nil && len(c.Peers) > 0 {
				c.markDown(base)
				if alt, ok := c.fallback(tenant, base); ok {
					base, target = alt, alt+path
					continue
				}
			}
			return nil, "", err
		}
		if !isRedirect(resp.StatusCode) {
			return resp, base, nil
		}
		loc := resp.Header.Get("Location")
		hint := cluster.ParseRetryAfter(resp.Header.Get("Retry-After"), 0)
		drainBody(resp)
		next, err := baseOfLocation(loc)
		if err != nil {
			return nil, "", err
		}
		c.noteRedirect()
		if hop >= c.maxRedirects() {
			return nil, "", &RedirectError{Location: loc, RetryAfter: hint, Hops: hop + 1}
		}
		base, target = next, loc
	}
}

// PushTicks streams ticks to a tenant's session and returns the detection
// points emitted for them. Backpressure (429, or 503 with a Retry-After)
// surfaces as *BusyError and a blown redirect budget as *RedirectError; in
// both cases the server consumed none of the batch, so callers can back off
// and resend it. Ownership redirects are followed transparently within the
// budget.
func (c *Client) PushTicks(ctx context.Context, tenant string, ticks []map[string]string) ([]WirePoint, error) {
	path := streamPath(tenant) + "/ticks"
	if c.Model != "" {
		path += "?model=" + url.QueryEscape(c.Model)
	}
	resp, replica, err := c.send(ctx, http.MethodPost, tenant, path, appendTicks(nil, ticks))
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
		// A full tick queue, or a transient cluster state: draining, owner
		// unreachable, or a tenant whose handoff is still in flight. No
		// ticks consumed.
		hint := cluster.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Second)
		drainBody(resp)
		return nil, &BusyError{RetryAfter: hint}

	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		_ = resp.Body.Close() // error text already captured
		return nil, fmt.Errorf("serve: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}

	points, err := c.decodePoints(resp.Body)
	_ = resp.Body.Close() // stream fully consumed (or err is the report)
	if err == nil {
		c.noteTicks(replica, len(ticks))
	}
	return points, err
}

// maxPointLine bounds one NDJSON point line the client reads. A point line
// grows by about 73 bytes plus both names per broken relationship, so a
// point of a paper-scale model (16,256 relationships) can be megabytes long:
// far past maxTickLine, the server's bound on one tick. By the time a point
// is read the server has consumed its ticks, so refusing it would lose them.
const maxPointLine = 64 << 20

// decodePoints parses the NDJSON response stream.
func (c *Client) decodePoints(r io.Reader) ([]WirePoint, error) {
	var points []WirePoint
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxPointLine)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		p, err := decodePoint(raw)
		if err != nil {
			return points, err
		}
		points = append(points, p)
	}
	return points, sc.Err()
}

// PushTicksRetry is PushTicks with backpressure handling: on *BusyError or
// *RedirectError it backs off — jittered exponential, but never shorter
// than the server's Retry-After hint — and resends the same batch (both
// error classes guarantee the server consumed none of it; redirect storms
// during a rebalance settle once the handoff lands). Any other error,
// including a partial-batch NDJSON trailer, returns immediately: those
// ticks were partially consumed and a blind resend would misalign the
// stream. When the attempt cap is exhausted the last busy/redirect error is
// returned, so callers can still distinguish "busy" from "broken".
func (c *Client) PushTicksRetry(ctx context.Context, tenant string, ticks []map[string]string) ([]WirePoint, error) {
	pol := c.Retry
	if pol.Jitter == nil {
		pol.Jitter = rand.Float64
	}
	var points []WirePoint
	err := pol.Do(ctx, func() (err error) {
		points, err = c.PushTicks(ctx, tenant, ticks)
		return err
	}, backpressure)
	return points, err
}

// backpressure is PushTicksRetry's classifier: *BusyError and
// *RedirectError, whose batch the server consumed none of, are retried with
// their Retry-After hint; anything else is not.
func backpressure(err error) (time.Duration, bool) {
	var busy *BusyError
	var redir *RedirectError
	switch {
	case errors.As(err, &busy):
		return busy.RetryAfter, true
	case errors.As(err, &redir):
		return redir.RetryAfter, true
	}
	return 0, false
}

// streamPath is a tenant's resource path. The name is escaped into one path
// segment: the server accepts any name, and one holding '/', '?', '#' or '%'
// would otherwise address another route or another tenant.
func streamPath(tenant string) string {
	return "/v1/streams/" + url.PathEscape(tenant)
}

// Session fetches a tenant's session info (live or snapshotted).
func (c *Client) Session(ctx context.Context, tenant string) (SessionInfo, error) {
	var info SessionInfo
	resp, _, err := c.send(ctx, http.MethodGet, tenant, streamPath(tenant), nil)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return info, fmt.Errorf("serve: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// EndSession deletes a tenant's session and snapshot.
func (c *Client) EndSession(ctx context.Context, tenant string) error {
	resp, _, err := c.send(ctx, http.MethodDelete, tenant, streamPath(tenant), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("serve: %s", resp.Status)
	}
	return nil
}

// Ready polls /readyz once. In cluster mode BaseURL may be unset; the first
// configured peer is asked.
func (c *Client) Ready(ctx context.Context) error {
	base := c.BaseURL
	if base == "" && len(c.Peers) > 0 {
		base = c.Peers[0]
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: not ready: %s", resp.Status)
	}
	return nil
}
