package serve

import (
	"net/http"

	"mdes/internal/cluster"
)

// Warm-standby replication: after every durable local snapshot save, the
// owner asynchronously ships the snapshot to Table.Replica, which keeps it
// in a standby store keyed by (owner, tenant). The copy is insurance, never
// served while the owner is reachable: when the owner is Down, a tick at its
// standby (Table.Route's Adopt) promotes it in acquire instead of answering
// 503. DESIGN.md §8 states the invariants.

// replicateLocked offers h, the record just persisted, to Table.Replica
// as a copy filed under the owner it names: the same payload, no second
// marshal. Called from persistLocked with the session mutex held: Offer is
// a bounded map update with no IO, and the ship happens on the queue's
// drainer goroutines.
func (s *Server) replicateLocked(h cluster.Handoff) {
	q := s.repl
	if q == nil {
		return
	}
	owner, target := s.table.Replica(h.Tenant)
	if target == "" {
		return // nowhere to replicate (single replica, or everyone else down)
	}
	h.From, h.Copy = owner, true
	q.Offer(target, h)
}

// storeCopy is handleTransfer's copy branch: persist one peer's snapshot
// copy in the standby store, filed under the tenant's owner (h.From). No
// session is installed and ownership does not move. The frame is stored
// verbatim — the bytes that passed the CRC check are the bytes in the slot.
func (s *Server) storeCopy(w http.ResponseWriter, h cluster.Handoff, frame []byte) {
	if s.opts.StandbyDir == "" {
		// Terminal on purpose: a peer without a standby store will never
		// accept copies, so the sender must stop retrying.
		http.Error(w, "standby store not configured", http.StatusNotFound)
		return
	}
	if h.From == "" {
		http.Error(w, "standby copy without owner", http.StatusBadRequest)
		return
	}
	stored, err := s.keepCopy(h, frame)
	if err != nil {
		// Retryable: the store may heal, and overwriting a held copy that
		// cannot be read could discard ticks it has and this frame lacks.
		s.retryAfterHeader(w)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if stored {
		s.met.replReceived.Add(1)
	}
	w.WriteHeader(http.StatusOK)
}

// keepCopy files frame, the encoded h, as the standby copy of h.Tenant held
// for owner h.From — unless the held copy is as fresh or fresher (duplicate
// or reordered ships), by the envelopes' Ticks: neither payload is decoded.
// It reports whether it wrote. An error (counted) means the held copy could
// not be read or the write failed.
func (s *Server) keepCopy(h cluster.Handoff, frame []byte) (bool, error) {
	old, ok, _, err := s.store.read(h.From, h.Tenant)
	if err == nil && ok && old.Ticks >= h.Ticks {
		return false, nil
	}
	if err == nil {
		err = s.store.write(h.From, h, frame)
	}
	return err == nil, err
}

// adoptedCount counts resident adopted sessions (metrics gauge).
func (s *Server) adoptedCount() int64 {
	n := int64(0)
	for _, sess := range s.reg.all() {
		sess.mu.Lock()
		if sess.adopted && !sess.gone {
			n++
		}
		sess.mu.Unlock()
	}
	return n
}

// standbyHeldCount counts standby copies across all owners (metrics gauge).
func (s *Server) standbyHeldCount() int64 {
	return int64(len(s.store.tenants(false, true)))
}
