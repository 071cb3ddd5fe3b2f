package serve

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"path/filepath"

	"mdes/internal/cluster"
	"mdes/internal/faultfs"
)

// Warm-standby replication: after every durable local snapshot save, the
// owner asynchronously ships the snapshot to Table.Replica, which keeps it
// in a standby store keyed by (owner, tenant). The copy is insurance, never
// served while the owner is reachable: when the owner is Down, its standby
// (Table.Route's Adopt) promotes it instead of answering 503. DESIGN.md §8
// states the invariants.

// standbyPath names a standby copy. Both owner and tenant are hex-encoded
// (same reasoning as snapshotPath) and joined with "-", which cannot appear
// in hex, so the mapping is bijective. The store is one flat directory:
// faultfs.FS has no Mkdir, and a flat namespace keeps the injected
// filesystem and the real one behaviourally identical.
func standbyPath(dir, owner, tenant string) string {
	return filepath.Join(dir, hex.EncodeToString([]byte(owner))+"-"+hex.EncodeToString([]byte(tenant))+".standby")
}

// saveStandbyFrame durably stores one replicated record, already in its
// CRC-framed wire form, in the copy's slot file — the frame that survived
// the network CRC check is byte-for-byte the frame in the slot, so there is
// no re-encode step to corrupt.
func saveStandbyFrame(files *slotFiles, dir, owner, tenant string, frame []byte) error {
	return files.save(dir, standbyPath(dir, owner, tenant), frame)
}

// loadStandby reads a standby copy if one exists. Missing files and files
// with no intact record are (zero, false, nil) — a broken copy is as useless
// as an absent one, and the caller treats both as "no standby state".
func loadStandby(fsys faultfs.FS, dir, owner, tenant string) (cluster.Handoff, bool, error) {
	data, err := ReadSnapshotFrame(fsys, standbyPath(dir, owner, tenant))
	if errors.Is(err, fs.ErrNotExist) {
		return cluster.Handoff{}, false, nil
	}
	if err != nil {
		return cluster.Handoff{}, false, fmt.Errorf("serve: read standby copy for %q: %w", tenant, err)
	}
	h, err := cluster.DecodeHandoff(data)
	if errors.Is(err, cluster.ErrBadFrame) {
		return cluster.Handoff{}, false, nil
	}
	if err != nil {
		return cluster.Handoff{}, false, fmt.Errorf("serve: decode standby copy for %q: %w", tenant, err)
	}
	return h, true, nil
}

// standbyTenantsFor lists the tenants with a standby copy held for owner,
// or for any owner when owner is empty.
func standbyTenantsFor(fsys faultfs.FS, dir, owner string) ([]string, error) {
	prefix := ""
	if owner != "" {
		prefix = hex.EncodeToString([]byte(owner)) + "-"
	}
	return listTenants(fsys, dir, prefix, ".standby")
}

// deleteStandby removes a standby copy durably; missing files are fine.
func deleteStandby(files *slotFiles, dir, owner, tenant string) error {
	return files.remove(dir, standbyPath(dir, owner, tenant))
}

// replicateLocked offers the just-persisted snapshot to Table.Replica,
// filed under the owner it names. Called from persistLocked with the
// session mutex held: Offer is a bounded map update with no IO, and the
// ship happens on the queue's drainer goroutines.
func (s *Server) replicateLocked(tenant string, snap sessionSnapshot) {
	q := s.repl
	if q == nil {
		return
	}
	owner, target := s.table.Replica(tenant)
	if target == "" {
		return // nowhere to replicate (single replica, or everyone else down)
	}
	h, err := handoffOf(tenant, snap, owner, true)
	if err != nil {
		return // the durable local save already succeeded; skip this copy
	}
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
// or reordered ships). It reports whether it wrote. An error (counted) means
// the held copy could not be read or the write failed.
func (s *Server) keepCopy(h cluster.Handoff, frame []byte) (bool, error) {
	old, ok, err := loadStandby(s.fs, s.opts.StandbyDir, h.From, h.Tenant)
	if err == nil && ok && old.Ticks >= h.Ticks {
		return false, nil
	}
	if err == nil {
		err = saveStandbyFrame(s.files, s.opts.StandbyDir, h.From, h.Tenant, frame)
	}
	if err != nil {
		s.met.replStoreErrors.Add(1)
		return false, err
	}
	return true, nil
}

// tryAdopt promotes tenant for its Down owner once Table.Route has answered
// Adopt. True means "proceed: a resident session exists and is marked
// adopted". It serves the freshest state held here — a resident session,
// its own snapshot of an earlier adoption, or a standby copy: a session left
// resident by an earlier adoption is retired when the owner has since
// served on and replicated a fresher copy here. Held state must exist: a
// tenant whose copy was dropped is never fresh-started — it stays 503 until
// its owner returns, same as a tenant with no standby at all.
func (s *Server) tryAdopt(tenant, owner string) bool {
	snap, ok, _, err := s.stored(tenant, true) // a copy, or an earlier adoption's snapshot
	ok = ok && err == nil
	if sess := s.reg.get(tenant); sess != nil {
		// Already resident and as fresh as anything stored: (re)mark it. A
		// gone one lost a race with an eviction; install below.
		sess.mu.Lock()
		if !sess.gone && (!ok || sess.stream.Ticks() >= snap.Stream.Ticks) {
			sess.adopted = true
			sess.mu.Unlock()
			return true
		}
		if !sess.gone {
			sess.gone = true
			s.reg.remove(sess)
		}
		sess.mu.Unlock()
	}
	if !ok {
		return false
	}
	sess, err := s.restoreSession(tenant, snap)
	if err != nil {
		if !errors.Is(err, errUnknownModel) {
			s.met.replStoreErrors.Add(1)
		}
		return false
	}
	sess.adopted, sess.dirty = true, true // the first release persists it here

	s.reg.mu.Lock()
	if existing := s.reg.sessions[tenant]; existing != nil {
		// Another request won the install race; serve through its session.
		s.reg.mu.Unlock()
		existing.mu.Lock()
		won := !existing.gone
		if won {
			existing.adopted = true
		}
		existing.mu.Unlock()
		return won
	}
	s.reg.sessions[tenant] = sess
	s.reg.mu.Unlock()

	s.met.replPromotions.Add(1)
	log.Printf("serve: promoted tenant %q from standby copy of %s at %d ticks", tenant, owner, snap.Stream.Ticks)
	return true
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
	names, _ := standbyTenantsFor(s.fs, s.opts.StandbyDir, "")
	return int64(len(names))
}

// loadSnapshotNoted is loadSnapshot plus torn-snapshot observability: a
// snapshot that silently fresh-starts because its frame was torn or failed
// its CRC is counted and logged. (It used to be fully silent; a disk-level
// corruption then looks exactly like a tenant that never existed, which
// costs someone a confused debugging session.)
func (s *Server) loadSnapshotNoted(tenant string) (sessionSnapshot, bool, error) {
	snap, ok, torn, err := loadSnapshot(s.fs, s.opts.SnapshotDir, tenant)
	if torn {
		s.met.snapshotTorn.Add(1)
		log.Printf("serve: snapshot for tenant %q is torn or corrupt; serving will fresh-start from zero ticks", tenant)
	}
	return snap, ok, err
}
