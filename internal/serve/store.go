package serve

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"path/filepath"
	"strings"

	"mdes"
	"mdes/internal/checkpoint"
	"mdes/internal/cluster"
)

// sessionSnapshot is the durable state of one tenant session: which model it
// runs plus the stream's rolling window. It travels as the payload of a
// cluster.Handoff frame, the one session record (see store).
type sessionSnapshot struct {
	Tenant string              `json:"tenant"`
	Model  string              `json:"model"`
	Stream mdes.StreamSnapshot `json:"stream"`
	// LastScore and Degraded carry the degraded-mode serving state: a
	// session restored (or handed to another replica) while a scoring
	// fault is in effect must keep answering with the same last valid
	// score, or a migrated stream's output would diverge from an
	// unmigrated one.
	LastScore float64 `json:"last_score,omitempty"`
	Degraded  bool    `json:"degraded,omitempty"`
}

// snapshotOfLocked builds the durable form of a session. Caller holds the
// session's mutex.
func snapshotOfLocked(v *session) sessionSnapshot {
	return sessionSnapshot{
		Tenant:    v.tenant,
		Model:     v.model,
		Stream:    v.stream.Snapshot(),
		LastScore: v.lastScore,
		Degraded:  v.degraded,
	}
}

// store holds a replica's session records by (owner, tenant): owner "" is
// the replica's own snapshot of a tenant, any other owner a standby copy kept
// for that peer. Every record is one cluster.Handoff frame — the frame a
// transfer carries, byte for byte — in a slot file (slots.go), so a restart
// can tell an intact record from a torn one the way the training journal
// does. An own record has Copy false and From this replica ("" standalone);
// a copy is filed as it arrived. Failed IO is counted here, by record kind.
type store struct {
	files      *slotFiles
	snapDir    string   // own records; "" when durability is off
	standbyDir string   // copies; "" without a standby store
	self       string   // From of own records
	owners     []string // peers whose copies drop removes
	met        *metrics
}

// path names owner's record of tenant and its directory ("" when that kind
// of record is not kept). Names are hex-encoded, so arbitrary tenant names
// (slashes, dots, unicode) cannot escape the directory or collide; a copy
// joins owner and tenant with "-", which hex cannot contain. Both stores are
// flat directories: faultfs.FS has no Mkdir, and a flat namespace keeps the
// injected filesystem and the real one behaviourally identical.
func (st *store) path(owner, tenant string) (dir, path string) {
	name, dir := hex.EncodeToString([]byte(tenant))+".snap", st.snapDir
	if owner != "" {
		name, dir = hex.EncodeToString([]byte(owner))+"-"+hex.EncodeToString([]byte(tenant))+".standby", st.standbyDir
	}
	if dir == "" {
		return "", ""
	}
	return dir, filepath.Join(dir, name)
}

// failed counts err, if any: on a copy as a standby store error, on an own
// record as a snapshot write or load error.
func (st *store) failed(isCopy, write bool, err error) error {
	switch {
	case err == nil:
	case isCopy:
		st.met.replStoreErrors.Add(1)
	case write:
		st.met.snapshotErrors.Add(1)
	default:
		st.met.snapshotLoadErrors.Add(1)
	}
	return err
}

// record frames snap as this replica's own record of its tenant. It is the
// one place a session is marshalled; a standby copy and a transfer reuse
// the payload under their own From and Copy.
func (st *store) record(snap sessionSnapshot) (cluster.Handoff, error) {
	payload, err := json.Marshal(snap)
	if err != nil {
		return cluster.Handoff{}, fmt.Errorf("serve: encode snapshot for %q: %w", snap.Tenant, err)
	}
	return cluster.Handoff{Tenant: snap.Tenant, Model: snap.Model, Ticks: snap.Stream.Ticks, From: st.self, Payload: payload}, nil
}

// write durably stores h as owner's record of its tenant. frame is h
// encoded, when the caller holds it: a copy is filed as the bytes that passed
// the transfer's CRC check, with no re-encode step to corrupt them.
func (st *store) write(owner string, h cluster.Handoff, frame []byte) error {
	var err error
	if frame == nil {
		frame, err = cluster.EncodeHandoff(h)
	}
	if err == nil {
		dir, path := st.path(owner, h.Tenant)
		if err = st.files.save(dir, path, frame); err != nil {
			err = fmt.Errorf("serve: write record of %q for %q: %w", h.Tenant, owner, err)
		}
	}
	return st.failed(owner != "", true, err)
}

// read returns owner's record of tenant. A missing file is (zero, false,
// false, nil); a file with no intact record — every slot torn or failing
// its CRC — loads nothing but reports torn. One torn slot beside an intact
// one is a routine crash mid-save, not torn. The caller decides whether the
// resulting fresh start is worth surfacing. A frame that is intact but does
// not decode is a real error.
func (st *store) read(owner, tenant string) (h cluster.Handoff, ok, torn bool, err error) {
	_, path := st.path(owner, tenant)
	if path == "" {
		return h, false, false, nil
	}
	frame, err := ReadSnapshotFrame(st.files.fs, path)
	if errors.Is(err, fs.ErrNotExist) {
		return h, false, false, nil
	}
	if err == nil {
		h, err = decodeRecord(frame, owner == "")
	}
	if errors.Is(err, cluster.ErrBadFrame) {
		return cluster.Handoff{}, false, len(frame) > 0, nil
	}
	if err != nil {
		err = fmt.Errorf("serve: read record of %q for %q: %w", tenant, owner, err)
		return cluster.Handoff{}, false, false, st.failed(owner != "", false, err)
	}
	return h, true, false, nil
}

// decodeRecord decodes a record's frame. An own record in the format
// written before every record was a handoff frame — a bare session snapshot
// — is read here and framed the way record frames it (From empty), so no
// reader past this point sees two formats. Nothing writes that format.
func decodeRecord(frame []byte, own bool) (cluster.Handoff, error) {
	h, err := cluster.DecodeHandoff(frame)
	if err != nil || h.Payload != nil || !own {
		return h, err
	}
	payload, _, _ := checkpoint.NextFrame(frame) // intact: DecodeHandoff read it
	var snap sessionSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return cluster.Handoff{}, fmt.Errorf("decode snapshot: %w", err)
	}
	return cluster.Handoff{Tenant: snap.Tenant, Model: snap.Model, Ticks: snap.Stream.Ticks, Payload: payload}, nil
}

// handoffSnapshot decodes the session a record carries and checks it against
// the envelope — the one reading of a session every consumer (restart
// restore, transfer receipt, standby promotion, session read) goes through.
// The envelope's Tenant/Ticks/Model duplicate the payload so the freshest of
// several records can be picked without decoding them. They must agree: a
// disagreement means the sender framed one session's metadata around
// another session's payload, and acting on either reading could lose ticks
// silently.
func handoffSnapshot(h cluster.Handoff) (sessionSnapshot, error) {
	var snap sessionSnapshot
	if err := json.Unmarshal(h.Payload, &snap); err != nil {
		return sessionSnapshot{}, fmt.Errorf("decode handoff payload: %v", err)
	}
	if snap.Tenant != h.Tenant || snap.Stream.Ticks != h.Ticks || snap.Model != h.Model {
		return sessionSnapshot{}, fmt.Errorf("handoff envelope/payload mismatch: envelope says %q at %d ticks on model %q, payload %q at %d ticks on model %q",
			h.Tenant, h.Ticks, h.Model, snap.Tenant, snap.Stream.Ticks, snap.Model)
	}
	return snap, nil
}

// tenants lists the tenants with an own record (own) and with a copy held
// for any owner (copies), one entry per record. A missing directory is an
// empty list; temp files and foreign names are skipped.
func (st *store) tenants(own, copies bool) []string {
	var out []string
	for _, kind := range []struct {
		on       bool
		dir, ext string
	}{{own, st.snapDir, ".snap"}, {copies, st.standbyDir, ".standby"}} {
		if !kind.on || kind.dir == "" {
			continue
		}
		names, err := st.files.fs.ReadDir(kind.dir)
		if !errors.Is(err, fs.ErrNotExist) {
			_ = st.failed(kind.ext == ".standby", false, err)
		}
		for _, name := range names {
			rest, ok := strings.CutSuffix(name, kind.ext)
			if _, t, isCopy := strings.Cut(rest, "-"); isCopy {
				rest = t // a standby copy's name without its owner
			}
			if raw, err := hex.DecodeString(rest); ok && rest != "" && err == nil {
				out = append(out, string(raw))
			}
		}
	}
	return out
}

// drop removes tenant's records held for each owner ("" is the replica's
// own) — with no owners, its own record and every owner's copy — and makes
// the removals durable. Missing files are fine.
func (st *store) drop(tenant string, owners ...string) error {
	if len(owners) == 0 {
		owners = append([]string{""}, st.owners...)
	}
	for _, owner := range owners {
		dir, path := st.path(owner, tenant)
		if dir == "" {
			continue
		}
		if err := st.files.remove(dir, path); err != nil {
			if owner != "" {
				st.met.replStoreErrors.Add(1)
			}
			return err
		}
	}
	return nil
}

// stored is the freshest record of tenant on this replica's disks: its own
// or, with copies, a fresher standby copy held for any owner (fromCopy) — so
// a replica never restores, adopts or ships older state than it holds.
// Records are ordered by their envelopes' Ticks and none is decoded here.
// An own record found torn is counted and logged: the tenant fresh-starts,
// and silence there makes disk corruption look like a tenant that never
// existed. An unreadable copy is counted and passed over.
func (s *Server) stored(tenant string, copies bool) (h cluster.Handoff, ok, fromCopy bool, err error) {
	h, ok, torn, err := s.store.read("", tenant)
	if torn {
		s.met.snapshotTorn.Add(1)
		log.Printf("serve: snapshot for tenant %q is torn or corrupt; serving will fresh-start from zero ticks", tenant)
	}
	if err != nil || !copies {
		return h, ok, false, err
	}
	for _, owner := range s.store.owners {
		if c, found, _, err := s.store.read(owner, tenant); err == nil && found && (!ok || c.Ticks > h.Ticks) {
			h, ok, fromCopy = c, true, true
		}
	}
	return h, ok, fromCopy, nil
}

// held is how fresh the state of tenant held here is, decoding nothing:
// live, its resident session's ticks, when one is resident (live >= 0),
// else the envelope ticks of the freshest stored record (stored; copies
// adds the standby copies held for any owner). -1 means nothing is held.
func (s *Server) held(tenant string, live int, copies bool) (int, error) {
	if live >= 0 {
		return live, nil
	}
	h, ok, _, err := s.stored(tenant, copies)
	if !ok {
		return -1, err
	}
	return h.Ticks, nil
}

// storedSnapshot is the record stored finds, copies included, decoded when
// its envelope shows more ticks than have (-1 takes any): the state a
// restore or an adoption loads, or a session read reports. Only that record
// is decoded. A payload that does not match its envelope is counted and is
// an error.
func (s *Server) storedSnapshot(tenant string, have int) (sessionSnapshot, bool, error) {
	h, ok, fromCopy, err := s.stored(tenant, true)
	if !ok || err != nil || h.Ticks <= have {
		return sessionSnapshot{}, false, err
	}
	snap, err := handoffSnapshot(h)
	if err != nil {
		return sessionSnapshot{}, false, s.store.failed(fromCopy, false, fmt.Errorf("serve: stored record of %q: %w", tenant, err))
	}
	return snap, true, nil
}
