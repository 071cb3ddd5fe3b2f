package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// ReplQueue is the asynchronous half of warm-standby replication: a bounded,
// coalescing, per-peer queue between the serve layer's snapshot-save path and
// the network. Its contract is shaped entirely by where it sits:
//
//   - Offer never blocks and performs no IO. It is called with the session
//     mutex held (right after a durable snapshot save), so anything slower
//     than a map update would put the network back under the tick path — the
//     exact failure mode the queue exists to prevent.
//   - Entries coalesce newest-per-tenant. A snapshot fully supersedes every
//     older snapshot of the same tenant, so a slow standby costs staleness
//     (bounded by the shipping rate), never unbounded memory.
//   - The queue is bounded per peer; when it is full, NEW tenants are
//     dropped (and counted), existing tenants still coalesce. Replication is
//     an availability optimisation over an already-durable local snapshot —
//     dropping a copy degrades the standby's freshness, blocking a tick
//     request would degrade the service itself.
//
// One drainer goroutine per peer pops entries in FIFO tenant order and hands
// them to Ship (the serve layer wires Sender.Send; its records are copies).
// Redelivery, duplication, and reordering are all absorbed by the receiver's
// ticks-idempotency, so the drainer retries nothing beyond what Ship itself
// retries — a failed ship is dropped and the next snapshot of that tenant
// re-offers naturally.
type ReplQueue struct {
	// Cap bounds the distinct tenants buffered per peer (default 256).
	Cap int
	// Ship delivers one snapshot record to a peer, outside every queue
	// lock. Required before Start.
	Ship func(ctx context.Context, peer string, h Handoff) error
	// Now stamps enqueue times so shipping can observe queue lag. Nil
	// disables lag tracking (this package must not read the wall clock
	// itself — detrand — so the caller injects it).
	Now func() time.Time
	// OnLag, if set, observes one shipped record's queue lag (enqueue to
	// acknowledged ship). Called outside every queue lock.
	OnLag func(d time.Duration)

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu    sync.Mutex
	peers map[string]*peerQueue

	enqueued  atomic.Int64
	coalesced atomic.Int64
	dropped   atomic.Int64
	shipped   atomic.Int64
	errors    atomic.Int64
}

// peerQueue is one peer's buffered snapshots: FIFO by first enqueue, newest
// record per tenant.
type peerQueue struct {
	peer string
	wake chan struct{} // 1-buffered doorbell

	mu    sync.Mutex
	order []string
	items map[string]replItem
}

type replItem struct {
	h      Handoff
	queued time.Time
}

func (q *ReplQueue) capPerPeer() int {
	if q.Cap > 0 {
		return q.Cap
	}
	return 256
}

// Start launches one drainer per remote peer. Call Stop to halt them.
func (q *ReplQueue) Start(peers []string, self string) {
	q.ctx, q.cancel = context.WithCancel(context.Background())
	q.mu.Lock()
	q.peers = make(map[string]*peerQueue, len(peers))
	for _, p := range peers {
		if p == self {
			continue
		}
		pq := &peerQueue{peer: p, wake: make(chan struct{}, 1), items: make(map[string]replItem)}
		q.peers[p] = pq
		q.wg.Add(1)
		go q.drain(q.ctx, pq)
	}
	q.mu.Unlock()
}

// Stop cancels in-flight ships and waits for the drainers to exit. Buffered
// entries are discarded — the local snapshots they mirror stay durable.
func (q *ReplQueue) Stop() {
	if q.cancel == nil {
		return
	}
	q.cancel()
	q.wg.Wait()
}

// Offer enqueues one snapshot for peer, coalescing onto any queued entry for
// the same tenant. It never blocks and performs no IO: a full queue drops
// the record (counted) rather than stalling the caller, who may be holding a
// session mutex. Returns false when the record was dropped or the peer is
// unknown.
func (q *ReplQueue) Offer(peer string, h Handoff) bool {
	q.mu.Lock()
	pq := q.peers[peer]
	q.mu.Unlock()
	if pq == nil {
		q.dropped.Add(1)
		return false
	}
	var queued time.Time
	if q.Now != nil {
		queued = q.Now()
	}
	pq.mu.Lock()
	if old, ok := pq.items[h.Tenant]; ok {
		// Coalesce: replace in place, keep the original FIFO slot and
		// enqueue stamp (lag measures how long the tenant waited, not how
		// fresh its newest record is).
		if h.Ticks >= old.h.Ticks {
			pq.items[h.Tenant] = replItem{h: h, queued: old.queued}
		}
		pq.mu.Unlock()
		q.coalesced.Add(1)
		return true
	}
	if len(pq.order) >= q.capPerPeer() {
		pq.mu.Unlock()
		q.dropped.Add(1)
		return false
	}
	pq.order = append(pq.order, h.Tenant)
	pq.items[h.Tenant] = replItem{h: h, queued: queued}
	pq.mu.Unlock()
	q.enqueued.Add(1)
	select {
	case pq.wake <- struct{}{}:
	default:
	}
	return true
}

// pop removes the oldest queued tenant.
func (pq *peerQueue) pop() (replItem, bool) {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	if len(pq.order) == 0 {
		return replItem{}, false
	}
	tenant := pq.order[0]
	pq.order = pq.order[1:]
	item := pq.items[tenant]
	delete(pq.items, tenant)
	return item, true
}

// drain ships one peer's queue until the context ends. Ship runs outside
// every queue lock, so a slow peer stalls only its own drainer while Offer
// keeps coalescing fresh state behind it.
func (q *ReplQueue) drain(ctx context.Context, pq *peerQueue) {
	defer q.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-pq.wake:
		}
		for {
			item, ok := pq.pop()
			if !ok {
				break
			}
			if err := q.Ship(ctx, pq.peer, item.h); err != nil {
				q.errors.Add(1)
			} else {
				q.shipped.Add(1)
				if q.OnLag != nil && q.Now != nil && !item.queued.IsZero() {
					q.OnLag(q.Now().Sub(item.queued))
				}
			}
			if ctx.Err() != nil {
				return
			}
		}
	}
}

// Depth reports how many records are currently buffered across all peers.
func (q *ReplQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, pq := range q.peers {
		pq.mu.Lock()
		n += len(pq.order)
		pq.mu.Unlock()
	}
	return n
}

// ReplStats is a snapshot of the queue's counters.
type ReplStats struct {
	Enqueued  int64 // records accepted as new queue entries
	Coalesced int64 // records folded onto an already-queued tenant
	Dropped   int64 // records refused because the peer queue was full
	Shipped   int64 // records delivered and acknowledged
	Errors    int64 // ships that exhausted their retries
}

// Stats returns the queue's counters.
func (q *ReplQueue) Stats() ReplStats {
	return ReplStats{
		Enqueued:  q.enqueued.Load(),
		Coalesced: q.coalesced.Load(),
		Dropped:   q.dropped.Load(),
		Shipped:   q.shipped.Load(),
		Errors:    q.errors.Load(),
	}
}
