package cluster

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// TestRetryPolicySchedules is the one table for the shared retry loop: each
// row fails every try with the given Retry-After hints and records the
// waits through the Sleep seam. It pins the Sender's fixed schedule and the
// serve client's documented defaults.
func TestRetryPolicySchedules(t *testing.T) {
	ms := time.Millisecond
	half := func() float64 { return 0.5 }
	sender := (&Sender{}).policy()
	longer := sender // the Sender's schedule run past its attempt cap, to reach MaxDelay
	longer.MaxAttempts = 8
	cases := []struct {
		name  string
		pol   RetryPolicy // Sleep is set by the test
		hints []time.Duration
		tries int
		waits []time.Duration
	}{
		{"sender", sender, nil, 5,
			[]time.Duration{50 * ms, 100 * ms, 200 * ms, 400 * ms}},
		{"sender hint is a floor", sender, []time.Duration{0, 300 * ms, 0, 5 * ms}, 5,
			[]time.Duration{50 * ms, 300 * ms, 200 * ms, 400 * ms}},
		{"sender cap", longer, nil, 8,
			[]time.Duration{50 * ms, 100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 2000 * ms}},
		{"client defaults", RetryPolicy{Jitter: half}, nil, 4,
			[]time.Duration{75 * ms, 150 * ms, 300 * ms}},
		{"client cap", RetryPolicy{BaseDelay: 4 * time.Second, Jitter: func() float64 { return 1 }}, nil, 4,
			[]time.Duration{4 * time.Second, 5 * time.Second, 5 * time.Second}},
		{"client jitter floor", RetryPolicy{Jitter: func() float64 { return 0 }}, []time.Duration{time.Second}, 4,
			[]time.Duration{time.Second, 100 * ms, 200 * ms}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var waits []time.Duration
			pol := tc.pol
			pol.Sleep = func(_ context.Context, d time.Duration) error { waits = append(waits, d); return nil }
			tries := 0
			busy := errors.New("busy")
			err := pol.Do(context.Background(), func() error { tries++; return busy }, func(error) (time.Duration, bool) {
				if tries <= len(tc.hints) {
					return tc.hints[tries-1], true
				}
				return 0, true
			})
			if err != busy || tries != tc.tries || !slices.Equal(waits, tc.waits) {
				t.Fatalf("err %v after %d tries, waits %v; want busy after %d, waits %v", err, tries, waits, tc.tries, tc.waits)
			}
		})
	}
}

// TestRetryPolicyStops: success and a non-retryable error end the loop at
// once, and a wait that fails (ctx ended) returns its error.
func TestRetryPolicyStops(t *testing.T) {
	never := func(context.Context, time.Duration) error { t.Fatal("slept"); return nil }
	terminal := errors.New("terminal")
	for _, want := range []error{nil, terminal} {
		tries := 0
		err := RetryPolicy{Sleep: never}.Do(context.Background(), func() error { tries++; return want },
			func(error) (time.Duration, bool) { return 0, false })
		if err != want || tries != 1 {
			t.Fatalf("err %v after %d tries, want %v after 1", err, tries, want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := RetryPolicy{BaseDelay: time.Hour}.Do(ctx, func() error { return terminal },
		func(error) (time.Duration, bool) { return 0, true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want the wait's context.Canceled", err)
	}
}
