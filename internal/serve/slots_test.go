package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mdes/internal/checkpoint"
	"mdes/internal/cluster"
	"mdes/internal/faultfs"
)

// TestLegacySnapshotLoadsAndConverts: snapshots written before every record
// was a handoff frame — one bare session-snapshot frame, alone in the file
// (before slot files) or in a slot record — still restore bit for bit, and
// the next save (always a replacement, being the first after a start)
// converts them to a slot file holding the handoff record.
func TestLegacySnapshotLoadsAndConverts(t *testing.T) {
	old, next := snapAt(42), snapAt(48)
	payload, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	legacy := checkpoint.AppendFrame(nil, payload)
	for cut := 0; cut < len(legacy); cut++ {
		expectLoad(t, legacy[:cut], nil, "truncated legacy snapshot")
	}
	expectLoad(t, legacy, &old, "legacy snapshot")
	slotted := make([]byte, 2*slotAlign)
	copy(slotted, slotRecord(1, slotAlign, legacy))
	expectLoad(t, slotted, &old, "legacy slot file")

	ifs := faultfs.NewInject(1, faultfs.Faults{})
	put := func(path string, data []byte) {
		t.Helper()
		f, err := ifs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// converted checks path is a slot file now and returns the record in it.
	converted := func(path string) cluster.Handoff {
		t.Helper()
		data, err := ifs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frame, _, ok := newestSlot(data)
		if !ok || len(data) != 2*slotAlign {
			t.Fatalf("%s not converted to a slot file: %d bytes", path, len(data))
		}
		h, err := cluster.DecodeHandoff(frame)
		if err != nil {
			t.Fatalf("%s holds no handoff record: %v", path, err)
		}
		return h
	}

	for _, file := range [][]byte{legacy, slotted} {
		st := testStore(ifs) // a start: the first save replaces the file
		_, path := st.path("", "plant")
		put(path, file)
		if got, ok, torn, err := readSnapshot(st, "plant"); err != nil || !ok || torn || !reflect.DeepEqual(got, old) {
			t.Fatalf("legacy snapshot on disk: ok=%v torn=%v err=%v", ok, torn, err)
		}
		if err := putSnapshot(st, next); err != nil {
			t.Fatal(err)
		}
		if h := converted(path); h.Payload == nil || h.Ticks != 48 || h.Copy || h.From != "" {
			t.Fatalf("converted snapshot is not an own handoff record: %+v", h)
		}
		if got, ok, _, err := readSnapshot(st, "plant"); err != nil || !ok || !reflect.DeepEqual(got, next) {
			t.Fatalf("converted snapshot: ok=%v err=%v ticks=%d", ok, err, got.Stream.Ticks)
		}
	}

	st := testStore(ifs)
	h := cluster.Handoff{Tenant: "plant", Model: "default", Ticks: 42, From: "http://owner:1", Payload: []byte(`{"x":1}`)}
	frame, err := cluster.EncodeHandoff(h)
	if err != nil {
		t.Fatal(err)
	}
	_, path := st.path(h.From, h.Tenant)
	put(path, frame)
	if got, ok, _, err := st.read(h.From, h.Tenant); err != nil || !ok || !reflect.DeepEqual(got, h) {
		t.Fatalf("legacy standby copy: ok=%v err=%v got=%+v", ok, err, got)
	}
	h.Ticks = 48
	if err := st.write(h.From, h, nil); err != nil {
		t.Fatal(err)
	}
	converted(path)
	if got, ok, _, err := st.read(h.From, h.Tenant); err != nil || !ok || !reflect.DeepEqual(got, h) {
		t.Fatalf("converted standby copy: ok=%v err=%v got=%+v", ok, err, got)
	}
}

// loadTicks loads the "plant" snapshot off fsys: its tick count, or -1 for
// a miss. A load error fails the test.
func loadTicks(t *testing.T, fsys faultfs.FS) int {
	t.Helper()
	got, ok, _, err := readSnapshot(testStore(fsys), "plant")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !ok {
		return -1
	}
	return got.Stream.Ticks
}

// TestSlotSaveCrashSweep crashes a save at every one of its IO operations,
// under many adversarial recoveries, for both save paths: in place (the
// writer knows the file) and replacing (the first save after a restart).
// Recovery always loads the record before the save or the one it wrote.
func TestSlotSaveCrashSweep(t *testing.T) {
	for _, restart := range []bool{false, true} {
		for seed := int64(1); seed <= 16; seed++ {
			for k := int64(1); ; k++ {
				ifs := faultfs.NewInject(seed, faultfs.Faults{})
				st := testStore(ifs)
				for _, ticks := range []int{6, 12} {
					if err := putSnapshot(st, snapAt(ticks)); err != nil {
						t.Fatal(err)
					}
				}
				if restart {
					st = testStore(ifs)
				}
				ifs.CrashAfter(k)
				err := putSnapshot(st, snapAt(18))
				crashed := ifs.Crashed()
				ifs.Recover()
				got := loadTicks(t, ifs)
				if !crashed {
					if err != nil || got != 18 {
						t.Fatalf("restart=%v: uncrashed save: err=%v, loads @%d", restart, err, got)
					}
					break
				}
				if got != 12 && got != 18 {
					t.Fatalf("restart=%v seed %d: crash at IO %d of the save loads @%d, want @12 or @18", restart, seed, k, got)
				}
			}
		}
	}
}

// TestSlotFailedSyncKeepsASlot: a save whose fsync fails, then a successful
// save, then a crash anywhere in that save or the next, never loses both
// slots — because the save after a failure replaces the file. A writer that
// takes the failed save as landed and keeps going in place overwrites the
// only intact slot, and the same sweep must catch it losing both.
func TestSlotFailedSyncKeepsASlot(t *testing.T) {
	for _, trust := range []bool{false, true} {
		lost := 0
		for seed := int64(1); seed <= 32; seed++ {
			for k := int64(1); ; k++ {
				ifs := faultfs.NewInject(seed, faultfs.Faults{})
				st := testStore(ifs)
				st.files.trustFailedWrites = trust
				save := func(ticks int) error { return putSnapshot(st, snapAt(ticks)) }
				if err := save(6); err != nil {
					t.Fatal(err)
				}
				if err := save(12); err != nil {
					t.Fatal(err)
				}
				ifs.SetFaults(faultfs.Faults{SyncFail: 1})
				if err := save(18); err == nil {
					t.Fatal("save with a failing fsync succeeded")
				}
				ifs.SetFaults(faultfs.Faults{})
				ifs.CrashAfter(k)
				if save(24) == nil {
					_ = save(30) // the crash may land here instead
				}
				crashed := ifs.Crashed()
				ifs.Recover()
				if loadTicks(t, ifs) < 0 {
					if !trust {
						t.Fatalf("seed %d: crash at IO %d after a failed fsync lost both slots", seed, k)
					}
					lost++
				}
				if !crashed {
					break
				}
			}
		}
		if trust && lost == 0 {
			t.Fatal("a writer ignoring the failed-write rule never lost both slots: the sweep has no teeth")
		}
	}
}

// TestSlotFilesConcurrentSaves: replicate requests for one standby copy can
// race, so saves to one path serialise and saves to different paths don't
// interfere — every save succeeds and each file ends up holding one of the
// records written to it.
func TestSlotFilesConcurrentSaves(t *testing.T) {
	ifs := faultfs.NewInject(1, faultfs.Faults{})
	st := testStore(ifs)
	tenants := []string{"plant", "other"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 20; i++ {
				snap := snapAt(100*g + i)
				snap.Tenant = tenants[g%2]
				if err := putSnapshot(st, snap); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, tenant := range tenants {
		got, ok, torn, err := readSnapshot(st, tenant)
		if err != nil || !ok || torn || got.Stream.Ticks%100 == 0 || got.Stream.Ticks%100 > 20 {
			t.Fatalf("%s after concurrent saves: ok=%v torn=%v err=%v ticks=%d", tenant, ok, torn, err, got.Stream.Ticks)
		}
	}
}

// countingFS counts the calls only a replacing save makes.
type countingFS struct {
	faultfs.FS
	creates, renames, dirSyncs atomic.Int64
}

func (c *countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	c.creates.Add(1)
	return c.FS.CreateTemp(dir, pattern)
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldpath, newpath)
}

func (c *countingFS) SyncDir(dir string) error {
	c.dirSyncs.Add(1)
	return c.FS.SyncDir(dir)
}

// TestHealthySaveIsInPlace: the first save of a tenant creates its slot
// file; every later per-request save of the healthy tenant is one open,
// write, fsync and close — no temp file, rename or directory fsync.
func TestHealthySaveIsInPlace(t *testing.T) {
	ifs := faultfs.NewInject(1, faultfs.Faults{})
	cfs := &countingFS{FS: ifs}
	_, _, c := newTestServer(t, Options{SnapshotDir: "snaps", FS: cfs})
	ds := coupledDataset(rand.New(rand.NewSource(41)), 36)
	push := func(from int) {
		t.Helper()
		if _, err := c.PushTicks(context.Background(), "plant", ticksOf(ds, from, from+6)); err != nil {
			t.Fatal(err)
		}
	}
	push(0)
	if cfs.creates.Load() != 1 || cfs.renames.Load() != 1 || cfs.dirSyncs.Load() != 1 {
		t.Fatalf("first save: %d creates, %d renames, %d dir fsyncs; want 1 each",
			cfs.creates.Load(), cfs.renames.Load(), cfs.dirSyncs.Load())
	}
	for from := 6; from < 36; from += 6 {
		before := ifs.Ops()
		push(from)
		if ops := ifs.Ops() - before; ops != 4 {
			t.Fatalf("request @%d: %d IO operations, want 4 (open, write, fsync, close)", from, ops)
		}
	}
	if cfs.creates.Load() != 1 || cfs.renames.Load() != 1 || cfs.dirSyncs.Load() != 1 {
		t.Fatalf("in-place saves made %d creates, %d renames, %d dir fsyncs in all; want only the first save's",
			cfs.creates.Load(), cfs.renames.Load(), cfs.dirSyncs.Load())
	}
}

// TestNewRemovesLeftoverTempFiles: temp files a crash inside writeDurable
// left behind are removed by New, durably, in both state directories.
func TestNewRemovesLeftoverTempFiles(t *testing.T) {
	ifs := faultfs.NewInject(1, faultfs.Faults{})
	for _, dir := range []string{"snaps", "standby"} {
		tmp, err := ifs.CreateTemp(dir, tempPrefix+"*")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tmp.Write([]byte("half a snapshot")); err != nil {
			t.Fatal(err)
		}
		if err := tmp.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ifs.SyncDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := putSnapshot(testStore(ifs), snapAt(6)); err != nil {
		t.Fatal(err)
	}
	newTestServer(t, Options{SnapshotDir: "snaps", StandbyDir: "standby", FS: ifs})
	ifs.Crash() // the removals must already be durable
	ifs.Recover()
	for _, dir := range []string{"snaps", "standby"} {
		names, err := ifs.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasPrefix(name, tempPrefix) {
				t.Fatalf("%s/%s survived New", dir, name)
			}
		}
	}
	if got := loadTicks(t, ifs); got != 6 {
		t.Fatalf("the snapshot beside the temp files loads @%d, want @6", got)
	}
}

// FuzzSnapshotFile throws arbitrary bytes at the slot-file reader and the
// store's record reader on top of it, read as an own record and as a copy:
// nothing panics, a slot record returned is CRC-intact — its frame sits
// inside an intact checkpoint frame with the slot header and sequence it
// reported — and an own record read is a handoff with a payload, the
// format written before handoff records included. Each input is
// read as a file twice: as is, and as slot0 padded out to the page boundary
// with slot1 behind it, so small inputs reach the second slot (a page-sized
// input would spend the fuzzer's time minimising padding).
func FuzzSnapshotFile(f *testing.F) {
	snap := []byte(`{"tenant":"plant","model":"default","stream":{"ticks":6}}`)
	legacy := checkpoint.AppendFrame(nil, snap) // a bare snapshot frame
	own := checkpoint.AppendFrame(nil, []byte(`{"tenant":"plant","model":"default","ticks":6,"from":"","payload":`+string(snap)+`}`))
	copied := checkpoint.AppendFrame(nil, []byte(`{"tenant":"plant","model":"default","ticks":6,"from":"o","copy":true,"payload":`+string(snap)+`}`))
	rec1, rec2 := slotRecord(1, slotAlign, legacy), slotRecord(2, slotAlign, own)
	f.Add([]byte{}, []byte{})
	f.Add(legacy, []byte{}) // a file written before slot files
	f.Add(rec1, []byte{})   // a slot file holding a bare snapshot
	f.Add(rec1, rec2)
	f.Add(rec1, rec2[:20]) // torn newest slot
	f.Add(rec2[:20], rec1) // torn first slot
	f.Add(slotRecord(1, slotAlign, copied), []byte{})
	f.Add(make([]byte, 64), make([]byte, 64))

	f.Fuzz(func(t *testing.T, slot0, slot1 []byte) {
		checkSlotFile(t, slot0)
		file := make([]byte, slotAlign, slotAlign+len(slot1))
		copy(file, slot0)
		checkSlotFile(t, append(file, slot1...))
	})
}

func checkSlotFile(t *testing.T, data []byte) {
	t.Helper()
	got, seq, ok := newestSlot(data)
	if ok {
		at := cap(data) - cap(got) // got aliases data
		if at < frameBytes+slotHeader || at+len(got) > len(data) {
			t.Fatalf("frame at %d..%d outside the %d-byte file", at, at+len(got), len(data))
		}
		p, _, intact := checkpoint.NextFrame(data[at-frameBytes-slotHeader:])
		if !intact || len(p) != slotHeader+len(got) || !bytes.Equal(p[:4], slotMagic) {
			t.Fatalf("returned frame is not the body of an intact slot record")
		}
		if s := binary.LittleEndian.Uint64(p[8:16]); s != seq {
			t.Fatalf("reported sequence %d, record says %d", seq, s)
		}
	}
	st := testStore(bytesFS{data: data})
	for _, owner := range []string{"", "owner"} {
		h, ok, torn, err := st.read(owner, "plant")
		if ok && (torn || err != nil || h.Tenant == "" || (owner == "" && h.Payload == nil)) {
			t.Fatalf("read as owner %q: ok with torn=%v err=%v record %+v", owner, torn, err, h)
		}
		if ok {
			_, _ = handoffSnapshot(h) // never panics either
		}
	}
}

// BenchmarkSnapshotSave times one save of a bench-sized (~1.8 KB) snapshot
// frame on the real filesystem: replace is the temp file, fsync, rename and
// directory fsync every save paid before slot files (and the first save after
// a start still pays); in-place is the pwrite and fsync into the known slot.
func BenchmarkSnapshotSave(b *testing.B) {
	frame := checkpoint.AppendFrame(nil, bytes.Repeat([]byte("x"), 1753))
	b.Run("replace", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			if err := newSlotFiles(faultfs.OS).save(dir, dir+"/plant.snap", frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("in-place", func(b *testing.B) {
		dir := b.TempDir()
		files := newSlotFiles(faultfs.OS)
		if err := files.save(dir, dir+"/plant.snap", frame); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := files.save(dir, dir+"/plant.snap", frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
