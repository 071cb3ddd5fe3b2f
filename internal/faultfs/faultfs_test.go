package faultfs

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// writeSync creates path, writes data, syncs the file, and closes it.
func writeSync(t *testing.T, fsys FS, path string, data []byte) {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tmp, err := OS.CreateTemp(dir, ".t-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "final")
	if err := OS.Rename(tmp.Name(), final); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := OS.ReadFile(final)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if err := OS.Remove(final); err != nil {
		t.Fatal(err)
	}
	if _, err := OS.ReadFile(final); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("after remove: %v, want ErrNotExist", err)
	}
}

func TestInjectSyncedPrefixSurvivesCrash(t *testing.T) {
	ifs := NewInject(1, Faults{})
	a, b := []byte("frame-A-synced"), []byte("frame-B-unsynced")
	f, err := ifs.OpenFile("j", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(a); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ifs.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	ifs.Crash()
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash: %v, want ErrCrashed", err)
	}
	ifs.Recover()
	got, err := ifs.ReadFile("j")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < len(a) || !bytes.Equal(got[:len(a)], a) {
		t.Fatalf("synced prefix damaged: %q", got)
	}
	if len(got) > len(a)+len(b) {
		t.Fatalf("recovered file longer than ever written: %d bytes", len(got))
	}
}

func TestInjectDirEntryDurability(t *testing.T) {
	// Without SyncDir the freshly created file must vanish for at least one
	// seed; with SyncDir it must survive every seed.
	lost := false
	for seed := int64(0); seed < 32; seed++ {
		ifs := NewInject(seed, Faults{})
		writeSync(t, ifs, "d/f", []byte("x"))
		ifs.Crash()
		ifs.Recover()
		if _, err := ifs.ReadFile("d/f"); errors.Is(err, fs.ErrNotExist) {
			lost = true
		}

		ifs = NewInject(seed, Faults{})
		writeSync(t, ifs, "d/f", []byte("x"))
		if err := ifs.SyncDir("d"); err != nil {
			t.Fatal(err)
		}
		ifs.Crash()
		ifs.Recover()
		if got, err := ifs.ReadFile("d/f"); err != nil || string(got) != "x" {
			t.Fatalf("seed %d: dir-synced file lost: %q, %v", seed, got, err)
		}
	}
	if !lost {
		t.Fatal("no seed ever dropped an un-SyncDir'd entry; crash model too lenient")
	}
}

func TestInjectRenameIsAtomicWhenContentSynced(t *testing.T) {
	oldContent, newContent := []byte("old-old-old"), []byte("new-new")
	for seed := int64(0); seed < 64; seed++ {
		ifs := NewInject(seed, Faults{})
		writeSync(t, ifs, "d/target", oldContent)
		if err := ifs.SyncDir("d"); err != nil {
			t.Fatal(err)
		}
		writeSync(t, ifs, "d/tmp", newContent)
		if err := ifs.Rename("d/tmp", "d/target"); err != nil {
			t.Fatal(err)
		}
		// Crash before SyncDir: the reader must see exactly old or new.
		ifs.Crash()
		ifs.Recover()
		got, err := ifs.ReadFile("d/target")
		if err != nil {
			t.Fatalf("seed %d: target vanished after rename: %v", seed, err)
		}
		if !bytes.Equal(got, oldContent) && !bytes.Equal(got, newContent) {
			t.Fatalf("seed %d: torn rename target %q", seed, got)
		}
	}
}

func TestInjectCrashAfterTearsWrite(t *testing.T) {
	ifs := NewInject(7, Faults{})
	f, err := ifs.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644) // op 1
	if err != nil {
		t.Fatal(err)
	}
	ifs.CrashAfter(1)
	buf := bytes.Repeat([]byte{0xAB}, 100)
	n, err := f.Write(buf)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("write at crash point: n=%d err=%v, want ErrCrashed", n, err)
	}
	if n >= len(buf) {
		t.Fatalf("crashing write persisted everything (n=%d)", n)
	}
	if _, err := f.Write(buf); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v, want ErrCrashed", err)
	}
	if err := ifs.SyncDir("."); !errors.Is(err, ErrCrashed) {
		t.Fatalf("syncdir after crash: %v, want ErrCrashed", err)
	}
	st := ifs.Stats()
	if st.TornWrites != 1 || st.FrozenOps < 2 {
		t.Fatalf("stats = %+v, want 1 torn write and ≥2 frozen ops", st)
	}
}

func TestInjectStandingFaults(t *testing.T) {
	ifs := NewInject(3, Faults{WriteENOSPC: 1})
	f, err := ifs.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("xyz")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write = %v, want ErrNoSpace", err)
	}

	ifs.SetFaults(Faults{ShortWrite: 1})
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, io.ErrShortWrite) || n <= 0 || n >= 10 {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}

	ifs.SetFaults(Faults{SyncFail: 1})
	if err := f.Sync(); !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("sync = %v, want ErrSyncFailed", err)
	}

	ifs.SetFaults(Faults{RenameFail: 1})
	if err := ifs.Rename("f", "g"); !errors.Is(err, ErrRenameFailed) {
		t.Fatalf("rename = %v, want ErrRenameFailed", err)
	}
	if _, err := ifs.ReadFile("f"); err != nil {
		t.Fatalf("failed rename must leave the old path intact: %v", err)
	}

	ifs.SetFaults(Faults{})
	if err := ifs.Rename("f", "g"); err != nil {
		t.Fatalf("clean rename: %v", err)
	}
}

func TestInjectDeterministicAcrossRuns(t *testing.T) {
	run := func() (Stats, []byte) {
		ifs := NewInject(42, Faults{ShortWrite: 0.3, SyncFail: 0.3, WriteENOSPC: 0.1})
		f, err := ifs.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			_, _ = f.Write([]byte("payload-payload-payload"))
			_ = f.Sync()
		}
		ifs.CrashAfter(3)
		for i := 0; i < 10; i++ {
			_, _ = f.Write([]byte("after-the-cliff"))
		}
		ifs.Recover()
		data, err := ifs.ReadFile("f")
		if err != nil {
			// the entry itself may be lost; that too must be deterministic
			data = nil
		}
		return ifs.Stats(), data
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 || !bytes.Equal(d1, d2) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", s1, s2)
	}
}

func TestInjectSeekAndTruncate(t *testing.T) {
	ifs := NewInject(1, Faults{})
	f, err := ifs.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if pos, err := f.Seek(0, io.SeekStart); err != nil || pos != 0 {
		t.Fatalf("seek: %d, %v", pos, err)
	}
	got, err := io.ReadAll(f)
	if err != nil || string(got) != "0123" {
		t.Fatalf("after truncate: %q, %v", got, err)
	}
	if pos, err := f.Seek(0, io.SeekEnd); err != nil || pos != 4 {
		t.Fatalf("seek end: %d, %v", pos, err)
	}
}

// TestInjectInPlaceWriteStaysInRange: an in-place overwrite of a synced
// file (open, seek, write, fsync, close — the serve slot-file save) crashed
// at any of its operations, under many adversarial recoveries, never changes
// a byte outside the range it wrote, nor the file's size. That is what lets
// a two-slot file trust its other slot.
func TestInjectInPlaceWriteStaysInRange(t *testing.T) {
	orig := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB
	patch := bytes.Repeat([]byte{0xA5}, 1800)
	const off = 4096
	for seed := int64(1); seed <= 32; seed++ {
		for k := int64(1); k <= 4; k++ {
			ifs := NewInject(seed, Faults{})
			writeSync(t, ifs, "slots", orig)
			if err := ifs.SyncDir("."); err != nil {
				t.Fatal(err)
			}
			ifs.CrashAfter(k)
			if f, err := ifs.OpenFile("slots", os.O_RDWR, 0); err == nil {
				if _, err := f.Seek(off, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(patch); err == nil {
					if err := f.Sync(); err == nil {
						_ = f.Close() // the crash lands here at k = 4
					}
				}
			}
			if !ifs.Crashed() {
				t.Fatalf("seed %d: crash point %d never fired", seed, k)
			}
			ifs.Recover()
			got, err := ifs.ReadFile("slots")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(orig) {
				t.Fatalf("seed %d crash %d: size %d, want %d", seed, k, len(got), len(orig))
			}
			if !bytes.Equal(got[:off], orig[:off]) || !bytes.Equal(got[off+len(patch):], orig[off+len(patch):]) {
				t.Fatalf("seed %d crash %d: bytes outside the written range changed", seed, k)
			}
		}
	}
}
