package serve

import (
	"reflect"
	"testing"

	"mdes"
	"mdes/internal/checkpoint"
	"mdes/internal/cluster"
	"mdes/internal/faultfs"
)

// bytesFS serves fixed bytes as every file, so the damage sweeps below load
// thousands of variants without touching a disk. Loads call only ReadFile.
type bytesFS struct {
	faultfs.FS
	data []byte
}

func (b bytesFS) ReadFile(string) ([]byte, error) { return b.data, nil }

// snapAt builds one realistic session snapshot at the given tick count.
func snapAt(ticks int) sessionSnapshot {
	return sessionSnapshot{
		Tenant: "plant",
		Model:  "default",
		Stream: mdes.StreamSnapshot{
			Ticks:   ticks,
			Emitted: ticks / 12,
			Windows: map[string][]string{"a": {"ON", "OFF"}, "b": {"OFF", "ON"}},
		},
	}
}

// dirStore is a standalone replica's store over fsys's directories.
func dirStore(fsys faultfs.FS, snapDir, standbyDir string) *store {
	return &store{files: newSlotFiles(fsys), snapDir: snapDir, standbyDir: standbyDir, met: new(metrics)}
}

// testStore keeps own records in "snaps" and copies in "standby".
func testStore(fsys faultfs.FS) *store { return dirStore(fsys, "snaps", "standby") }

// readCopy reads st's copy of tenant held for owner.
func readCopy(st *store, owner, tenant string) (cluster.Handoff, bool, error) {
	h, ok, _, err := st.read(owner, tenant)
	return h, ok, err
}

// putCopy files frame, an encoded handoff, as st's copy of tenant held for
// owner, the way a received copy is filed.
func putCopy(st *store, owner, tenant string, frame []byte) error {
	return st.write(owner, cluster.Handoff{Tenant: tenant}, frame)
}

// putSnapshot writes snap as st's own record, the way a persist does.
func putSnapshot(st *store, snap sessionSnapshot) error {
	h, err := st.record(snap)
	if err != nil {
		return err
	}
	return st.write("", h, nil)
}

// readSnapshot reads st's own record of tenant and decodes its session, the
// way a restore does.
func readSnapshot(st *store, tenant string) (snap sessionSnapshot, ok, torn bool, err error) {
	h, ok, torn, err := st.read("", tenant)
	if ok {
		snap, err = handoffSnapshot(h)
	}
	return snap, ok && err == nil, torn, err
}

// refSlotFile saves two snapshots through one writer — the first replaces
// (creates) the file, the second goes in place — and returns them with the
// file's bytes: slot 0 holds prev, slot 1 newest.
func refSlotFile(t *testing.T) (prev, newest sessionSnapshot, data []byte) {
	t.Helper()
	ifs := faultfs.NewInject(1, faultfs.Faults{})
	st := testStore(ifs)
	prev, newest = snapAt(42), snapAt(48)
	for _, s := range []sessionSnapshot{prev, newest} {
		if err := putSnapshot(st, s); err != nil {
			t.Fatal(err)
		}
	}
	_, path := st.path("", "plant")
	data, err := ifs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2*slotAlign {
		t.Fatalf("slot file is %d bytes, want two %d-byte slots", len(data), slotAlign)
	}
	return prev, newest, data
}

// recordEnd is the length of the intact record at the start of slot.
func recordEnd(t *testing.T, slot []byte) int {
	t.Helper()
	_, n, ok := checkpoint.NextFrame(slot)
	if !ok {
		t.Fatal("reference slot holds no intact record")
	}
	return n
}

// expectLoad loads data as a snapshot file and asserts the outcome: want
// nil means a clean miss (torn iff bytes exist), otherwise exactly *want and
// not torn. Never an error, never a mutated snapshot.
func expectLoad(t *testing.T, data []byte, want *sessionSnapshot, label string) {
	t.Helper()
	got, ok, torn, err := readSnapshot(testStore(bytesFS{data: data}), "plant")
	switch {
	case err != nil:
		t.Fatalf("%s: load error: %v", label, err)
	case want == nil && (ok || torn != (len(data) > 0)):
		t.Fatalf("%s: loaded ok=%v torn=%v (%d bytes), want a clean miss", label, ok, torn, len(data))
	case want != nil && (!ok || torn || !reflect.DeepEqual(got, *want)):
		t.Fatalf("%s: loaded ok=%v torn=%v ticks=%d, want ticks=%d", label, ok, torn, got.Stream.Ticks, want.Stream.Ticks)
	}
}

// TestSnapshotTruncationSweep cuts a two-slot file at every byte length: cut
// inside slot 0's record, nothing loads (torn); cut before slot 1's record
// ends, the previous record loads; otherwise the newest.
func TestSnapshotTruncationSweep(t *testing.T) {
	prev, newest, data := refSlotFile(t)
	size := len(data) / 2
	end0, end1 := recordEnd(t, data), size+recordEnd(t, data[size:])
	for cut := 0; cut <= len(data); cut++ {
		switch {
		case cut < end0:
			expectLoad(t, data[:cut], nil, "cut in slot 0's record")
		case cut < end1:
			expectLoad(t, data[:cut], &prev, "cut in slot 1's record")
		default:
			expectLoad(t, data[:cut], &newest, "cut in slot 1's padding")
		}
	}
}

// TestSnapshotBitFlipSweep flips a single bit at every offset of a two-slot
// file: a flip inside the newest record loads the previous one, anywhere
// else the newest — the CRC catches every one.
func TestSnapshotBitFlipSweep(t *testing.T) {
	prev, newest, data := refSlotFile(t)
	size := len(data) / 2
	end1 := size + recordEnd(t, data[size:])
	for off := 0; off < len(data); off++ {
		want := &newest
		if off >= size && off < end1 {
			want = &prev
		}
		for bit := byte(1); bit != 0; bit <<= 1 {
			data[off] ^= bit
			expectLoad(t, data, want, "flip")
			data[off] ^= bit
		}
	}
}
