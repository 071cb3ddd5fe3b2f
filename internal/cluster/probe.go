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
// Down after FailThreshold consecutive failures (ownership is retained —
// see PeerState); Down → Alive on one success; Leaving → Gone on failure.
// Gone is sticky under probing: a drained peer's revival is announced by
// its hello, never inferred from a port answering mid-drain. A failing
// peer's probes back off exponentially to MaxInterval, and every wait is
// jittered ±20% by a per-peer seeded rng, so N replicas never converge on
// one cadence and storm a recovering peer, and the schedule stays
// deterministic under test.
type Prober struct {
	Peers    []string
	Self     string
	Table    *Table
	Probe    ProbeFunc
	Interval time.Duration // base probe period (default 2s)
	// MaxInterval caps the per-peer backoff (default 30s).
	MaxInterval time.Duration
	// ProbeTimeout bounds one probe's context independently of the (possibly
	// backed-off) wait interval: a peer 30s into its backoff should still
	// fail a dead dial in about a second, not keep a connection attempt
	// pinned for the whole 30s. 0 selects min(Interval, 1s).
	ProbeTimeout time.Duration
	// Seed derives each peer's jitter stream (mixed with the peer's own
	// hash, so two loops never share a schedule). Zero is a valid seed.
	Seed int64
	// FailThreshold is how many consecutive failures demote Alive→Gone
	// (default 2 — one blip should not trigger a rebalance).
	FailThreshold int
	// OnChange, if set, is called after a state transition, outside all
	// locks: the serve layer hooks the rebalance sweep here (Gone→Alive
	// means the revived peer's tenants must be shipped back to it).
	OnChange func(peer string, from, to PeerState)
	// Sleep replaces the inter-probe wait in tests: it receives the
	// jittered delay and returns once the wait would have elapsed. Nil
	// selects a real timer. Stop still interrupts the loop between waits.
	Sleep func(d time.Duration)

	stop chan struct{}
	done sync.WaitGroup
	once sync.Once
}

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

// probeTimeout returns the per-probe context budget: explicit when set,
// otherwise the base interval capped at one second.
func (p *Prober) probeTimeout() time.Duration {
	if p.ProbeTimeout > 0 {
		return p.ProbeTimeout
	}
	if iv := p.interval(); iv < time.Second {
		return iv
	}
	return time.Second
}

func (p *Prober) failThreshold() int {
	if p.FailThreshold > 0 {
		return p.FailThreshold
	}
	return 2
}

// Start launches one probe loop per remote peer. Call Stop to halt them.
func (p *Prober) Start() {
	p.stop = make(chan struct{})
	for _, peer := range p.Peers {
		if peer == p.Self {
			continue
		}
		p.done.Add(1)
		go p.loop(peer)
	}
}

// Stop halts the probe loops and waits for them to exit. Safe to call more
// than once; a Prober that was never Started is a no-op.
func (p *Prober) Stop() {
	if p.stop == nil {
		return
	}
	p.once.Do(func() { close(p.stop) })
	p.done.Wait()
}

// jittered spreads a wait across ±20% of its nominal value.
func jittered(rng *rand.Rand, d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.8 + 0.4*rng.Float64()))
}

// wait blocks for the jittered delay or until Stop; false means stop.
func (p *Prober) wait(d time.Duration) bool {
	if p.Sleep != nil {
		p.Sleep(d)
		select {
		case <-p.stop:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-p.stop:
		return false
	case <-t.C:
		return true
	}
}

// loop probes one peer forever. Healthy peers are probed every ~Interval
// (jittered); each consecutive failure doubles the wait up to MaxInterval,
// and a success resets it. The probe context is bounded by probeTimeout, not
// by the wait — a backed-off peer still fails fast.
func (p *Prober) loop(peer string) {
	defer p.done.Done()
	rng := rand.New(rand.NewSource(p.Seed ^ int64(hashKey(peer))))
	fails := 0
	wait := p.interval()
	for {
		if !p.wait(jittered(rng, wait)) {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), p.probeTimeout())
		err := p.Probe(ctx, peer)
		cancel()
		if err == nil {
			fails = 0
			wait = p.interval()
			p.transition(peer, Down, Alive)
		} else {
			fails++
			if wait *= 2; wait > p.maxInterval() {
				wait = p.maxInterval()
			}
			if fails >= p.failThreshold() {
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
