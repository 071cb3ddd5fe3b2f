package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"mdes/internal/checkpoint"
	"mdes/internal/faultfs"
)

// Session snapshots and standby copies live in slot files: one small file
// per tenant (per owner and tenant in the standby store) made of two
// page-aligned slots of equal size. A slot holds at most one record,
//
//	checkpoint frame of [4B magic][4B LE slot size][8B LE sequence][frame]
//
// where frame is one session record's CRC frame (a handoff frame, store.go;
// an older snapshot's may be a bare session snapshot), byte for byte the
// frame such a file held alone before slots existed.
// The rest of a slot is zeros (a zero length field ends a checkpoint frame
// scan). A slot file never changes size after it is created.
//
// A save writes its record into the slot that does not hold the newest
// record, then fsyncs: no temp file, no rename, no directory fsync. A crash
// mid-save can tear only that slot, so a load — the intact record with the
// higher sequence number — returns the new record or the previous one.
//
// writeDurable replaces the whole file instead to create it, to convert a
// legacy single-frame file, or to grow slots the record no longer fits, and
// for the first save to a path after the process starts and the next save
// after any failed one. In-place saves trust this process's memory of which
// slot is newest; after a failed write — or in an earlier process, whose
// failures this one never saw — the page cache may hold a record the disk
// does not, and writing "the other slot" could overwrite the only intact one.
const (
	slotAlign  = 4096 // slot sizes are whole pages
	slotHeader = 16   // magic, slot size, sequence
	frameBytes = 8    // checkpoint frame header: length + CRC
)

var slotMagic = []byte("mds2")

// tempPrefix names writeDurable's temp files; New removes leftovers.
const tempPrefix = ".snap-"

// slotRecord encodes frame as record seq of a file whose slots are size
// bytes.
func slotRecord(seq uint64, size int, frame []byte) []byte {
	payload := make([]byte, slotHeader, slotHeader+len(frame))
	copy(payload, slotMagic)
	binary.LittleEndian.PutUint32(payload[4:8], uint32(size))
	binary.LittleEndian.PutUint64(payload[8:16], seq)
	payload = append(payload, frame...)
	return checkpoint.AppendFrame(make([]byte, 0, frameBytes+len(payload)), payload)
}

// newestSlot returns the frame of the intact slot record with the highest
// sequence number in data. Records are looked for at every page boundary,
// so a file cut short or torn in its first slot still yields its second; a
// record counts only where it says its slot starts (offset 0, or its slot
// size). ok is false for a legacy file and for one whose slots are all torn.
func newestSlot(data []byte) (frame []byte, seq uint64, ok bool) {
	for off := 0; off < len(data); off += slotAlign {
		p, _, intact := checkpoint.NextFrame(data[off:])
		if !intact || len(p) < slotHeader || !bytes.Equal(p[:4], slotMagic) {
			continue
		}
		if size := int(binary.LittleEndian.Uint32(p[4:8])); off != 0 && off != size {
			continue
		}
		if s := binary.LittleEndian.Uint64(p[8:16]); !ok || s > seq {
			frame, seq, ok = p[slotHeader:], s, true
		}
	}
	return frame, seq, ok
}

// ReadSnapshotFrame reads a session snapshot or standby file and returns the
// CRC frame it holds: the newest intact slot's frame or, for a legacy
// single-frame file and for a slot file with no intact slot, the file's
// bytes as they are, for the frame decoder to accept or refuse. Errors are
// fsys.ReadFile's.
func ReadSnapshotFrame(fsys faultfs.FS, path string) ([]byte, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if frame, _, ok := newestSlot(data); ok {
		return frame, nil
	}
	return data, nil
}

// slotFiles writes slot files. It remembers, for each path saved since the
// process started, where that file's newest record sits; a path it has no
// memory of is replaced whole.
type slotFiles struct {
	fs faultfs.FS
	// trustFailedWrites breaks the failed-write rule: a failed save is
	// remembered as landed and the next one goes in place. Only the chaos
	// harness self-test sets it, to prove the soak catches the lost snapshot.
	trustFailedWrites bool

	mu    sync.Mutex
	paths map[string]*slotState
}

// slotState is what this process knows of one slot file.
type slotState struct {
	mu   sync.Mutex // serialises the saves and removal of one path
	seq  uint64     // newest record's sequence number; 0 = unknown, replace
	slot int        // slot holding record seq
	size int        // slot size in bytes
}

func newSlotFiles(fsys faultfs.FS) *slotFiles {
	return &slotFiles{fs: fsys, paths: make(map[string]*slotState)}
}

// lock returns path's state with its mutex held; the caller unlocks it once
// its IO on path is done.
func (w *slotFiles) lock(path string) *slotState {
	w.mu.Lock()
	st := w.paths[path]
	if st == nil {
		st = &slotState{}
		w.paths[path] = st
	}
	w.mu.Unlock()
	st.mu.Lock()
	return st
}

// save durably stores frame as path's newest record: in place when this
// process knows the file and the record fits its slots, by replacing the
// file otherwise. A failed save forgets the file, so the next one replaces
// it.
func (w *slotFiles) save(dir, path string, frame []byte) error {
	st := w.lock(path)
	defer st.mu.Unlock()
	seq, slot, size := uint64(1), 0, st.size
	var err error
	if need := frameBytes + slotHeader + len(frame); st.seq > 0 && need <= size {
		seq, slot = st.seq+1, 1-st.slot
		err = writeSlot(w.fs, path, int64(slot*size), slotRecord(seq, size, frame))
	} else {
		size = (need + slotAlign - 1) / slotAlign * slotAlign
		file := make([]byte, 2*size)
		copy(file, slotRecord(seq, size, frame))
		err = writeDurable(w.fs, dir, path, file)
	}
	if err != nil && !w.trustFailedWrites {
		st.seq = 0 // the page cache may now disagree with the disk
		return err
	}
	st.seq, st.slot, st.size = seq, slot, size
	return err
}

// remove deletes path and makes the removal durable; a missing file is fine.
func (w *slotFiles) remove(dir, path string) error {
	st := w.lock(path)
	defer st.mu.Unlock()
	st.seq = 0
	err := w.fs.Remove(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return w.fs.SyncDir(dir)
}

// writeSlot overwrites one slot of an existing slot file and fsyncs it.
func writeSlot(fsys faultfs.FS, path string, off int64, rec []byte) error {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		_ = f.Close() // the seek error is the one reported
		return err
	}
	if _, err := f.Write(rec); err != nil {
		_ = f.Close() // the write error is the one reported
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the one reported
		return err
	}
	return f.Close()
}

// writeDurable durably replaces path with data: temp file in dir, write,
// fsync, close, rename over path, fsync the directory. A crash at any point
// leaves either the old intact file or the new one — never a torn file that
// parses. The directory fsync matters: without it the rename (or the very
// first file's creation) lives only in the dirty directory page and can be
// undone by power loss.
func writeDurable(fsys faultfs.FS, dir, path string, data []byte) error {
	tmp, err := fsys.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // the write error is the one reported
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // the sync error is the one reported
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// removeTempFiles deletes the temp files a crash inside writeDurable left in
// dir, then makes the removals durable with one directory fsync.
func removeTempFiles(fsys faultfs.FS, dir string) error {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	removed := false
	for _, name := range names {
		if !strings.HasPrefix(name, tempPrefix) {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		removed = true
	}
	if !removed {
		return nil
	}
	return fsys.SyncDir(dir)
}
