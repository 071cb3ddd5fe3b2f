package mdes

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mdes/internal/seqio"
)

// The snapshot goldens under testdata/ were written by the stream whose
// windows were maps of raw event strings, before the window became a byte
// row; they pin the StreamSnapshot format across that change. Each holds
// the state after pushing the first cut ticks of snapshotTraffic.
var snapshotGoldens = []struct {
	file    string
	cut     int
	unknown bool // the traffic carries events outside the alphabets
}{
	{"snapshot-known-5.json", 5, false}, // before the window fills
	{"snapshot-known-75.json", 75, false},
	{"snapshot-unknown-75.json", 75, true},
}

// snapshotTraffic is the traffic the goldens were cut from. The unknown
// variant puts "MELTDOWN" in sensor a's window and the literal event "?" —
// the unknown char's own spelling — in sensor c's newest slot.
func snapshotTraffic(unknown bool) *seqio.Dataset {
	ds := coupledDataset(rand.New(rand.NewSource(93)), 160)
	if unknown {
		a, _ := ds.Find("a")
		c, _ := ds.Find("c")
		for i := 70; i < 74; i++ {
			a.Events[i] = "MELTDOWN"
		}
		c.Events[74] = "?"
	}
	return ds
}

func readGolden(t *testing.T, file string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSnapshotBytesMatchGolden: over events every alphabet knows, a
// snapshot is byte for byte what the string-window stream wrote.
func TestSnapshotBytesMatchGolden(t *testing.T) {
	model := trainTiny(t)
	for _, g := range snapshotGoldens {
		if g.unknown {
			continue
		}
		s := model.NewStream()
		pushAll(t, s, snapshotTraffic(false), 0, g.cut)
		got, err := json.Marshal(s.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if want := readGolden(t, g.file); !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s: snapshot\n%s\ngolden\n%s", g.file, got, want)
		}
	}
}

// TestGoldenSnapshotsRestoreBitForBit: every golden, the one whose window
// holds unknown events included, restores and continues exactly like a
// stream that never stopped.
func TestGoldenSnapshotsRestoreBitForBit(t *testing.T) {
	model := trainTiny(t)
	for _, g := range snapshotGoldens {
		ds := snapshotTraffic(g.unknown)
		control := model.NewStream()
		want := pushAll(t, control, ds, 0, ds.Ticks())

		var snap StreamSnapshot
		if err := json.Unmarshal(readGolden(t, g.file), &snap); err != nil {
			t.Fatal(err)
		}
		restored, err := model.RestoreStream(snap)
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		head := want[:restored.Emitted()]
		samePoints(t, g.file, append(head, pushAll(t, restored, ds, g.cut, ds.Ticks())...), want)
	}
}

// TestSnapshotRestoreIsFixedPoint: Snapshot → RestoreStream → Snapshot
// returns the snapshot it started from, and the restored window the
// stream's chars, at every fill of the window and with unknown events in
// it; and from a golden's raw unknown events onwards.
func TestSnapshotRestoreIsFixedPoint(t *testing.T) {
	model := trainTiny(t)
	roundTrip := func(label string, snap StreamSnapshot) StreamSnapshot {
		t.Helper()
		s, err := model.RestoreStream(snap)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return s.Snapshot()
	}
	same := func(label string, a, b StreamSnapshot) {
		t.Helper()
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%s: restored snapshot\n%s\nwant\n%s", label, jb, ja)
		}
	}
	for _, unknown := range []bool{false, true} {
		ds := snapshotTraffic(unknown)
		s := model.NewStream()
		for cut := 0; cut <= ds.Ticks(); cut++ {
			snap := s.Snapshot()
			same("traffic", snap, roundTrip("traffic", snap))
			// The restored window holds the same chars, so it continues alike.
			restored, _ := model.RestoreStream(snap)
			fill := min(cut, s.span)
			for i := range s.lay.names {
				end := (i + 1) * s.span
				if got, want := restored.win[end-fill:end], s.win[end-fill:end]; !bytes.Equal(got, want) {
					t.Fatalf("cut %d, sensor %d: restored window %q, stream's %q", cut, i, got, want)
				}
			}
			if cut < ds.Ticks() {
				pushAll(t, s, ds, cut, cut+1)
			}
		}
	}
	var golden StreamSnapshot
	if err := json.Unmarshal(readGolden(t, "snapshot-unknown-75.json"), &golden); err != nil {
		t.Fatal(err)
	}
	once := roundTrip("golden", golden)
	same("golden", once, roundTrip("golden again", once))
}
