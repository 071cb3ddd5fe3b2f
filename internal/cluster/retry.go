package cluster

import (
	"context"
	"time"
)

// RetryPolicy is the one retry loop for a request that is safe to resend:
// at most MaxAttempts tries, with a wait between them that doubles from
// BaseDelay up to MaxDelay and is never shorter than the server's
// Retry-After hint. The Sender runs it on one fixed, unjittered schedule;
// the serve client's PushTicksRetry runs the caller's, jittered.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first.
	// <= 0 selects 4.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff. <= 0 selects 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. <= 0 selects 5s.
	MaxDelay time.Duration
	// Jitter returns a draw in [0, 1); the wait for an attempt with backoff
	// d is d/2 + jitter·d/2, so concurrent clients de-synchronise instead
	// of stampeding on the same schedule. Nil waits d.
	Jitter func() float64
	// Sleep waits out one backoff; nil selects a timer that honors ctx
	// cancellation. Tests inject a recorder here so retry schedules are
	// asserted without real sleeping.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Do calls try until it succeeds, its error is not worth retrying, the
// attempts run out, or ctx ends during a wait, and returns the last error.
// retryable classifies each error: whether a resend can help, and the
// server's Retry-After hint for it (0 for none).
func (p RetryPolicy) Do(ctx context.Context, try func() error, retryable func(error) (hint time.Duration, ok bool)) error {
	p = p.withDefaults()
	delay := p.BaseDelay
	for attempt := 1; ; attempt++ {
		err := try()
		if err == nil {
			return nil
		}
		hint, ok := retryable(err)
		if !ok || attempt >= p.MaxAttempts {
			return err
		}
		wait := delay
		if p.Jitter != nil {
			wait = delay/2 + time.Duration(p.Jitter()*float64(delay/2))
		}
		if err := p.Sleep(ctx, max(wait, hint)); err != nil {
			return err
		}
		delay = min(2*delay, p.MaxDelay)
	}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

// sleepCtx waits d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
