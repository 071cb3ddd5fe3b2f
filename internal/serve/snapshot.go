package serve

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"mdes"
	"mdes/internal/checkpoint"
	"mdes/internal/faultfs"
)

// sessionSnapshot is the durable state of one tenant session: which model it
// runs plus the stream's rolling window. It is encoded as one
// checkpoint-framed record (length + CRC-32 + JSON payload) and stored in a
// slot of the tenant's slot file, so a restart can tell an intact snapshot
// from a torn or truncated one the same way the training journal does.
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

// snapshotPath returns the snapshot file for a tenant. Tenant names are
// hex-encoded so arbitrary names (slashes, dots, unicode) cannot escape the
// snapshot directory or collide after sanitisation.
func snapshotPath(dir, tenant string) string {
	return filepath.Join(dir, hex.EncodeToString([]byte(tenant))+".snap")
}

// saveSnapshot durably stores the tenant's snapshot in its slot file (see
// slots.go for the crash-safety argument).
func saveSnapshot(files *slotFiles, dir, tenant string, snap sessionSnapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("serve: encode snapshot for %q: %w", tenant, err)
	}
	frame := checkpoint.AppendFrame(make([]byte, 0, len(payload)+8), payload)
	if err := files.save(dir, snapshotPath(dir, tenant), frame); err != nil {
		return fmt.Errorf("serve: write snapshot for %q: %w", tenant, err)
	}
	return nil
}

// loadSnapshot reads a tenant's snapshot if one exists. A missing file is
// (zero, false, false, nil); a file with no intact record — every slot torn
// or failing its CRC — loads nothing but reports torn=true. One torn slot
// beside an intact one is a routine crash mid-save, not torn. The caller
// decides whether the resulting fresh start is worth surfacing (the Server
// wrapper counts and logs it; silence here cost a debugging session once).
// A frame that is intact but does not decode is a real error.
func loadSnapshot(fsys faultfs.FS, dir, tenant string) (snap sessionSnapshot, ok, torn bool, err error) {
	data, err := ReadSnapshotFrame(fsys, snapshotPath(dir, tenant))
	if errors.Is(err, fs.ErrNotExist) {
		return sessionSnapshot{}, false, false, nil
	}
	if err != nil {
		return sessionSnapshot{}, false, false, fmt.Errorf("serve: read snapshot for %q: %w", tenant, err)
	}
	payloads, valid, _ := checkpoint.Frames(data)
	if len(payloads) == 0 {
		// Bytes exist but no frame survived: torn mid-write or corrupted.
		return sessionSnapshot{}, false, len(data) > 0, nil
	}
	// Last intact record wins, mirroring the journal's duplicate resolution;
	// trailing garbage after the last intact frame still counts as torn.
	if err := json.Unmarshal(payloads[len(payloads)-1], &snap); err != nil {
		return sessionSnapshot{}, false, false, fmt.Errorf("serve: decode snapshot for %q: %w", tenant, err)
	}
	return snap, true, valid != len(data), nil
}

// listTenants decodes the tenant names of dir's files named prefix +
// hex(tenant) + suffix, sorted: snapshots are ("", ".snap"), one owner's
// standby copies (hex(owner)+"-", ".standby"). A missing directory is an
// empty list; temp files and foreign names are skipped.
func listTenants(fsys faultfs.FS, dir, prefix, suffix string) ([]string, error) {
	names, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: list %s: %w", dir, err)
	}
	var tenants []string
	for _, name := range names {
		rest, ok := strings.CutSuffix(name, suffix)
		if !ok {
			continue
		}
		if rest, ok = strings.CutPrefix(rest, prefix); !ok || rest == "" {
			continue
		}
		if _, t, ok := strings.Cut(rest, "-"); ok {
			rest = t // a standby copy's name without its owner
		}
		if raw, err := hex.DecodeString(rest); err == nil {
			tenants = append(tenants, string(raw))
		}
	}
	sort.Strings(tenants)
	return tenants, nil
}

// deleteSnapshot removes a tenant's snapshot and makes the removal durable;
// missing files are fine.
func deleteSnapshot(files *slotFiles, dir, tenant string) error {
	return files.remove(dir, snapshotPath(dir, tenant))
}
