package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// ProbeFunc checks one peer's health; nil means healthy. The cluster node
// injects an HTTP GET of the peer's /healthz; tests inject whatever they
// like. Probes run OUTSIDE every cluster lock — lockcall enforces that no
// network IO can hide under the table's mutex.
type ProbeFunc func(ctx context.Context, peer string) error

// Prober periodically health-checks every peer except self and keeps the
// reachability half of the ownership Table, by compare-and-set: Alive →
// Down after failThreshold consecutive failures (ownership is retained —
// see PeerState); Down → Alive on one success; Leaving → Gone on failure.
// Gone is sticky under probing: a drained peer's revival is announced by
// its hello, never inferred from a port answering mid-drain. A failing
// peer's probes back off exponentially to MaxInterval, and every wait is
// jittered ±20% by an rng seeded from (Self, peer), so N replicas never
// converge on one cadence and storm a recovering peer, and the schedule
// stays deterministic under test.
type Prober struct {
	Peers    []string
	Self     string
	Table    *Table
	Probe    ProbeFunc
	Interval time.Duration // base probe period (default 2s)
	// MaxInterval caps the per-peer backoff (default 30s).
	MaxInterval time.Duration
	// OnChange, if set, is called after a state transition, outside all
	// locks: the serve layer hooks the rebalance sweep here (Gone→Alive
	// means the revived peer's tenants must be shipped back to it).
	OnChange func(peer string, from, to PeerState)
	// Sleep waits out one jittered delay; nil selects a timer that honors
	// ctx cancellation, as RetryPolicy's does. Tests inject a stepped
	// clock here.
	Sleep func(ctx context.Context, d time.Duration) error

	done sync.WaitGroup
}

// failThreshold is how many consecutive failures demote Alive→Down: one
// blip should not trigger a rebalance.
const failThreshold = 2

func (p *Prober) interval() time.Duration {
	if p.Interval > 0 {
		return p.Interval
	}
	return 2 * time.Second
}

func (p *Prober) maxInterval() time.Duration {
	if p.MaxInterval > 0 {
		return p.MaxInterval
	}
	return 30 * time.Second
}

// probeTimeout bounds one probe's context independently of the (possibly
// backed-off) wait: a peer 30s into its backoff still fails a dead dial in
// about a second. It is the base interval capped at one second.
func (p *Prober) probeTimeout() time.Duration {
	return min(p.interval(), time.Second)
}

// Start launches one probe loop per remote peer; they run until ctx is
// cancelled. Wait blocks until they have returned.
func (p *Prober) Start(ctx context.Context) {
	for _, peer := range p.Peers {
		if peer == p.Self {
			continue
		}
		p.done.Add(1)
		go p.loop(ctx, peer)
	}
}

// Wait blocks until every probe loop has returned after its context was
// cancelled; a Prober that was never started returns at once.
func (p *Prober) Wait() { p.done.Wait() }

// jittered spreads a wait across ±20% of its nominal value.
func jittered(rng *rand.Rand, d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.8 + 0.4*rng.Float64()))
}

// loop probes one peer until ctx ends. Healthy peers are probed every
// ~Interval (jittered); each consecutive failure doubles the wait up to
// MaxInterval, and a success resets it. The probe context is bounded by
// probeTimeout, not by the wait — a backed-off peer still fails fast.
func (p *Prober) loop(ctx context.Context, peer string) {
	defer p.done.Done()
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	rng := rand.New(rand.NewSource(int64(hashKey(p.Self + " " + peer))))
	fails := 0
	wait := p.interval()
	for {
		if sleep(ctx, jittered(rng, wait)) != nil {
			return
		}
		probeCtx, cancel := context.WithTimeout(ctx, p.probeTimeout())
		err := p.Probe(probeCtx, peer)
		cancel()
		if ctx.Err() != nil {
			return // a probe cut short by shutdown says nothing of the peer
		}
		if err == nil {
			fails = 0
			wait = p.interval()
			p.transition(peer, Down, Alive)
		} else {
			fails++
			wait = min(2*wait, p.maxInterval())
			if fails >= failThreshold {
				p.transition(peer, Alive, Down)
				p.transition(peer, Leaving, Gone)
			}
		}
	}
}

// transition applies from→to as one compare-and-set on the table, then fires
// OnChange outside the table's lock.
func (p *Prober) transition(peer string, from, to PeerState) {
	if p.Table.Transition(peer, from, to) && p.OnChange != nil {
		p.OnChange(peer, from, to)
	}
}
