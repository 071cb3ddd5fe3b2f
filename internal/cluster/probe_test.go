package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// stepClock replaces the prober's wait with a counted release valve: the test
// admits probe rounds one at a time, so every assertion below is about an
// exact number of probes, not about timers racing a wall clock.
type stepClock struct {
	mu    sync.Mutex
	waits []time.Duration
	admit chan struct{}
}

func newStepClock() *stepClock {
	return &stepClock{admit: make(chan struct{}, 64)}
}

func (c *stepClock) sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.waits = append(c.waits, d)
	c.mu.Unlock()
	select {
	case <-c.admit:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// step admits n probe rounds.
func (c *stepClock) step(n int) {
	for i := 0; i < n; i++ {
		c.admit <- struct{}{}
	}
}

// recorded waits until n waits have been requested and returns the first n.
func (c *stepClock) recorded(t *testing.T, n int) []time.Duration {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c.mu.Lock()
		waits := append([]time.Duration(nil), c.waits...)
		c.mu.Unlock()
		if len(waits) >= n {
			return waits[:n]
		}
		if time.Now().After(deadline) {
			t.Fatalf("recorded %d waits, want %d: %v", len(waits), n, waits)
		}
		time.Sleep(time.Millisecond)
	}
}

// runProber starts p's loops and returns a stop that cancels them and
// waits for them to return; the test's cleanup stops them too.
func runProber(t *testing.T, p *Prober) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	p.Start(ctx)
	stop = func() {
		cancel()
		p.Wait()
	}
	t.Cleanup(stop)
	return stop
}

// stepProber wires a prober against a single remote peer with the stepped
// clock and an OnChange recorder.
func stepProber(t *testing.T, flip *failFlip) (*Prober, *Table, *stepClock, chan [2]PeerState) {
	t.Helper()
	peers := testPeers(2)
	mem := newTestTable(t, peers)
	clock := newStepClock()
	changes := make(chan [2]PeerState, 64)
	p := &Prober{
		Peers:       peers,
		Self:        peers[0],
		Table:       mem,
		Probe:       flip.probe,
		Interval:    100 * time.Millisecond,
		MaxInterval: 800 * time.Millisecond,
		Sleep:       clock.sleep,
		OnChange:    func(_ string, from, to PeerState) { changes <- [2]PeerState{from, to} },
	}
	runProber(t, p)
	return p, mem, clock, changes
}

func waitState(t *testing.T, mem *Table, peer string, want PeerState) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for mem.Get(peer) != want {
		if time.Now().After(deadline) {
			t.Fatalf("peer %s state = %v, want %v", peer, mem.Get(peer), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProberDownToAliveOnSingleSuccess: demotion needs failThreshold strikes;
// recovery needs exactly one.
func TestProberDownToAliveOnSingleSuccess(t *testing.T) {
	peer := testPeers(2)[1]
	flip := &failFlip{down: map[string]bool{peer: true}}
	_, mem, clock, changes := stepProber(t, flip)

	// One failed probe: below threshold, still Alive.
	clock.step(1)
	select {
	case ch := <-changes:
		t.Fatalf("transition %v after one strike (threshold 2)", ch)
	case <-time.After(50 * time.Millisecond):
	}
	// Second strike demotes.
	clock.step(1)
	waitState(t, mem, peer, Down)
	if ch := <-changes; ch != [2]PeerState{Alive, Down} {
		t.Fatalf("transition %v, want Alive→Down", ch)
	}

	// One success revives — no threshold on the way up.
	flip.set(peer, false)
	clock.step(1)
	waitState(t, mem, peer, Alive)
	if ch := <-changes; ch != [2]PeerState{Down, Alive} {
		t.Fatalf("transition %v, want Down→Alive", ch)
	}
}

// TestProberGoneStaysGoneUnderPassingProbes: Gone requires an announced
// revival; green health checks alone must not resurrect a drained peer.
func TestProberGoneStaysGoneUnderPassingProbes(t *testing.T) {
	peer := testPeers(2)[1]
	flip := &failFlip{down: map[string]bool{}}
	_, mem, clock, changes := stepProber(t, flip)

	mem.Set(peer, Gone)
	clock.step(5)
	select {
	case ch := <-changes:
		t.Fatalf("transition %v for a Gone peer with passing probes", ch)
	case <-time.After(100 * time.Millisecond):
	}
	if got := mem.Get(peer); got != Gone {
		t.Fatalf("state = %v, want Gone to stick", got)
	}
}

// TestProberBackoffGrowsAndResets: consecutive failures double the wait up to
// MaxInterval; one success snaps it back to Interval. The stepped clock
// records every requested wait, so the whole schedule is assertable.
func TestProberBackoffGrowsAndResets(t *testing.T) {
	peer := testPeers(2)[1]
	flip := &failFlip{down: map[string]bool{peer: true}}
	_, mem, clock, _ := stepProber(t, flip)

	clock.step(5) // five failures: waits requested after them are 200,400,800,800,800ms nominal
	waitState(t, mem, peer, Down)
	flip.set(peer, false)
	clock.step(1) // success: next wait back to 100ms nominal
	waitState(t, mem, peer, Alive)
	clock.step(1) // force the post-success wait to be recorded

	waits := clock.recorded(t, 7)
	nominal := []time.Duration{
		100 * time.Millisecond, // initial
		200 * time.Millisecond, // after fail 1
		400 * time.Millisecond, // fail 2
		800 * time.Millisecond, // fail 3 (capped)
		800 * time.Millisecond, // fail 4
		800 * time.Millisecond, // fail 5
		100 * time.Millisecond, // reset after success
	}
	for i, want := range nominal {
		lo := time.Duration(float64(want) * 0.8)
		hi := time.Duration(float64(want) * 1.2)
		if waits[i] < lo || waits[i] > hi {
			t.Fatalf("wait[%d] = %s, want within ±20%% of %s (all: %v)", i, waits[i], want, waits)
		}
	}
}

// TestProberJitterIsSeededAndSpread: each loop's jitter is seeded by
// (Self, peer). Two replicas probing one peer draw different schedules, so
// they do not converge on one cadence; one replica draws the same schedule
// on every run, and the schedule is not a constant.
func TestProberJitterIsSeededAndSpread(t *testing.T) {
	peers := testPeers(3)
	schedule := func(self string) []time.Duration {
		clock := newStepClock()
		stop := runProber(t, &Prober{
			Peers:    []string{self, peers[2]},
			Self:     self,
			Table:    newTestTable(t, peers),
			Probe:    func(context.Context, string) error { return nil },
			Interval: time.Second,
			Sleep:    clock.sleep,
		})
		defer stop()
		clock.step(7)
		return clock.recorded(t, 8)
	}
	a, again, b := schedule(peers[0]), schedule(peers[0]), schedule(peers[1])
	if !slices.Equal(a, again) {
		t.Fatalf("one replica drew two schedules: %v and %v", a, again)
	}
	if slices.Equal(a, b) {
		t.Fatalf("replicas %s and %s drew the same schedule for one peer: %v", peers[0], peers[1], a)
	}
	distinct := false
	for i := range a {
		if a[i] < 800*time.Millisecond || a[i] > 1200*time.Millisecond {
			t.Fatalf("jittered wait %s outside ±20%% of 1s", a[i])
		}
		if i > 0 && a[i] != a[i-1] {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("jitter produced a constant schedule")
	}
}

// TestProberTimeoutDecoupledFromBackoff: a peer deep in backoff still gets a
// short probe context — the probe deadline tracks probeTimeout, not the
// (possibly 30s) wait interval.
func TestProberTimeoutDecoupledFromBackoff(t *testing.T) {
	p := &Prober{Interval: 10 * time.Second}
	if got := p.probeTimeout(); got != time.Second {
		t.Fatalf("default probe timeout = %s, want 1s cap", got)
	}
	p = &Prober{Interval: 200 * time.Millisecond}
	if got := p.probeTimeout(); got != 200*time.Millisecond {
		t.Fatalf("probe timeout = %s, want the sub-second interval", got)
	}

	// And the context handed to the probe actually carries that deadline.
	got := make(chan time.Duration, 1)
	peer := testPeers(2)[1]
	clock := newStepClock()
	pr := &Prober{
		Peers:    testPeers(2),
		Self:     testPeers(2)[0],
		Table:    newTestTable(t, testPeers(2)),
		Interval: 5 * time.Second,
		Sleep:    clock.sleep,
		Probe: func(ctx context.Context, _ string) error {
			if dl, ok := ctx.Deadline(); ok {
				got <- time.Until(dl)
			} else {
				got <- -1
			}
			return errors.New("probe: down")
		},
	}
	runProber(t, pr)
	clock.step(1)
	select {
	case d := <-got:
		if d <= 0 || d > time.Second {
			t.Fatalf("probe context deadline %s away, want (0, 1s]", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("probe never ran (peer %s)", peer)
	}
}
