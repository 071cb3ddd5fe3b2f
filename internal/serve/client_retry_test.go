package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mdes/internal/cluster"
)

// busyThenOK answers n requests with 429 (optionally carrying a Retry-After
// hint) and everything after with an empty 200.
func busyThenOK(n int, retryAfter string, hits *atomic.Int32) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if int(hits.Add(1)) <= n {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
}

// sleepRecorder captures every backoff wait instead of sleeping.
func sleepRecorder(waits *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*waits = append(*waits, d)
		return nil
	}
}

// TestPushTicksRetryHonorsRetryAfter: when the server's hint exceeds the
// jittered backoff, the hint wins — the client must not hammer a server that
// asked for 2 seconds just because its own schedule said 150ms.
func TestPushTicksRetryHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int32
	hs := httptest.NewServer(busyThenOK(2, "2", &hits))
	defer hs.Close()

	var waits []time.Duration
	c := &Client{BaseURL: hs.URL, Retry: RetryPolicy{
		BaseDelay: 100 * time.Millisecond,
		Jitter:    func() float64 { return 1 }, // wait = full delay, deterministic
		Sleep:     sleepRecorder(&waits),
	}}
	if _, err := c.PushTicksRetry(context.Background(), "t", nil); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 3 {
		t.Fatalf("made %d requests, want 3", hits.Load())
	}
	// Both backoffs (100ms, then 200ms) are below the 2s hint.
	if len(waits) != 2 || waits[0] != 2*time.Second || waits[1] != 2*time.Second {
		t.Fatalf("waits = %v, want [2s 2s]", waits)
	}
}

// TestPushTicksRetryExponentialBackoff: with no usable hint the jittered
// exponential schedule applies, doubling up to the cap.
func TestPushTicksRetryExponentialBackoff(t *testing.T) {
	var hits atomic.Int32
	hs := httptest.NewServer(busyThenOK(1000, "", &hits)) // always busy
	defer hs.Close()

	var waits []time.Duration
	c := &Client{BaseURL: hs.URL, Retry: RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   4 * time.Second,
		MaxDelay:    10 * time.Second,
		Jitter:      func() float64 { return 1 },
		Sleep:       sleepRecorder(&waits),
	}}
	_, err := c.PushTicksRetry(context.Background(), "t", nil)
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("err = %v, want *BusyError after exhaustion", err)
	}
	if hits.Load() != 5 {
		t.Fatalf("made %d requests, want 5", hits.Load())
	}
	// A missing Retry-After parses as the 1s default hint, below every
	// backoff here: 4s, 8s, then capped at 10s.
	want := []time.Duration{4 * time.Second, 8 * time.Second, 10 * time.Second, 10 * time.Second}
	if len(waits) != len(want) {
		t.Fatalf("waits = %v, want %v", waits, want)
	}
	for i := range want {
		if waits[i] != want[i] {
			t.Fatalf("wait %d = %v, want %v", i, waits[i], want[i])
		}
	}
}

// TestPushTicksRetryJitterSpreadsSchedule: jitter must actually move the
// wait inside [d/2, d) — a fleet of clients retrying in lockstep is the
// thundering herd backoff exists to prevent.
func TestPushTicksRetryJitterSpreadsSchedule(t *testing.T) {
	var hits atomic.Int32
	hs := httptest.NewServer(busyThenOK(1, "", &hits))
	defer hs.Close()

	var waits []time.Duration
	c := &Client{BaseURL: hs.URL, Retry: RetryPolicy{
		BaseDelay: 4 * time.Second,
		Jitter:    func() float64 { return 0.5 },
		Sleep:     sleepRecorder(&waits),
	}}
	if _, err := c.PushTicksRetry(context.Background(), "t", nil); err != nil {
		t.Fatal(err)
	}
	// d/2 + 0.5·d/2 = 3s for d = 4s.
	if len(waits) != 1 || waits[0] != 3*time.Second {
		t.Fatalf("waits = %v, want [3s]", waits)
	}
}

// TestPushTicksRetryNonBusyErrorsPassThrough: anything that is not
// backpressure — here a 404 — returns immediately with no retries; resending
// a partially consumed batch would misalign the stream.
func TestPushTicksRetryNonBusyErrorsPassThrough(t *testing.T) {
	var hits atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no such model", http.StatusNotFound)
	}))
	defer hs.Close()

	c := &Client{BaseURL: hs.URL, Retry: RetryPolicy{
		Sleep: func(context.Context, time.Duration) error {
			t.Fatal("slept on a non-busy error")
			return nil
		},
	}}
	if _, err := c.PushTicksRetry(context.Background(), "t", nil); err == nil {
		t.Fatal("want error")
	}
	if hits.Load() != 1 {
		t.Fatalf("made %d requests, want 1 (no retries)", hits.Load())
	}
}

// TestPushTicksRetryContextCancelledDuringBackoff: the default Sleep honors
// ctx, so a cancellation during the wait surfaces instead of blocking out
// the full backoff.
func TestPushTicksRetryContextCancelledDuringBackoff(t *testing.T) {
	var hits atomic.Int32
	hs := httptest.NewServer(busyThenOK(1000, "", &hits))
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{BaseURL: hs.URL, Retry: RetryPolicy{
		BaseDelay: time.Hour, // without cancellation this would hang the test
		Jitter:    func() float64 { return 0 },
	}}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.PushTicksRetry(ctx, "t", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

// TestRetryHintParsing is the one table for cluster.ParseRetryAfter, the
// Retry-After reader the client and the cluster sender share. Delta-seconds
// parse exactly; HTTP-dates parse to the remaining wait; anything missing,
// malformed, negative, or already in the past is worthless as a schedule and
// selects the caller's fallback. Every case runs with the client's fallbacks
// and with the sender's (zero).
func TestRetryHintParsing(t *testing.T) {
	httpDate := func(d time.Duration) string {
		return time.Now().Add(d).UTC().Format(http.TimeFormat)
	}
	cases := []struct {
		name   string
		header string
		// want is exact unless approx is set, in which case the result must
		// land within slack of it (HTTP-dates lose sub-second precision and
		// pay the wall-clock delta between header construction and parse).
		// fallback means the caller's fallback, whatever it is.
		want     time.Duration
		approx   bool
		fallback bool
	}{
		{name: "missing", header: "", fallback: true},
		{name: "delta seconds", header: "2", want: 2 * time.Second},
		{name: "delta zero", header: "0", want: 0},
		{name: "delta negative", header: "-3", fallback: true},
		{name: "garbage", header: "soon", fallback: true},
		{name: "float rejected", header: "1.5", fallback: true},
		{name: "http date future", header: httpDate(90 * time.Second), want: 90 * time.Second, approx: true},
		{name: "http date past", header: httpDate(-time.Minute), fallback: true},
		{name: "http date rfc850", header: time.Now().Add(time.Hour).UTC().Format("Monday, 02-Jan-06 15:04:05 GMT"), want: time.Hour, approx: true},
		{name: "http date malformed", header: "Mon, 99 Zed 2099 25:61:61 GMT", fallback: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, fallback := range []time.Duration{0, time.Second, 7 * time.Second} {
				got := cluster.ParseRetryAfter(tc.header, fallback)
				want := tc.want
				if tc.fallback {
					want = fallback
				}
				if tc.approx {
					const slack = 3 * time.Second
					if got < want-slack || got > want+slack {
						t.Fatalf("ParseRetryAfter(%q, %v) = %v, want ~%v", tc.header, fallback, got, want)
					}
					continue
				}
				if got != want {
					t.Fatalf("ParseRetryAfter(%q, %v) = %v, want %v", tc.header, fallback, got, want)
				}
			}
		})
	}
}

// TestClientFallbackPrefersSuccessor: when a tenant's first-choice replica
// refuses connections, the client's failover target must be the tenant's
// ring successor — the warm-standby holder — not an arbitrary list walk.
func TestClientFallbackPrefersSuccessor(t *testing.T) {
	peers := []string{"http://10.0.0.1:1", "http://10.0.0.2:1", "http://10.0.0.3:1"}
	c := &Client{Peers: peers}
	ring, err := c.clusterRing()
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"alpha", "beta", "gamma", "delta", "plant-7"} {
		owner := ring.Owner(tenant)
		want := ring.SuccessorAmong(tenant, owner, nil)
		got, ok := c.fallback(tenant, owner)
		if !ok || got != want {
			t.Fatalf("tenant %q: fallback after %s = %q ok=%v, want successor %q", tenant, owner, got, ok, want)
		}
		if got == owner {
			t.Fatalf("tenant %q: fallback returned the avoided replica", tenant)
		}
	}
	// Down-listed successor: the next clockwise peer is chosen instead.
	tenant := "alpha"
	owner := ring.Owner(tenant)
	succ := ring.SuccessorAmong(tenant, owner, nil)
	c.markDown(succ)
	got, ok := c.fallback(tenant, owner)
	if !ok || got == succ || got == owner {
		t.Fatalf("with successor down, fallback = %q ok=%v; want the third replica", got, ok)
	}
}
