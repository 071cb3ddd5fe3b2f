package checkpoint

import (
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mdes/internal/nmt"
)

func testRecord(src, tgt string, bleu float64) PairRecord {
	return PairRecord{
		Src: src, Tgt: tgt, BLEU: bleu, Runtime: 3 * time.Second,
		State: nmt.State{
			Config: nmt.Config{
				SrcVocab: 5, TgtVocab: 5, Embed: 2, Hidden: 2, Layers: 1,
				LearningRate: 1e-3, TrainSteps: 1, BatchSize: 1, MaxDecodeLen: 4,
			},
			Weights: map[string][]float64{"w": {0.25, -1.5}},
		},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.journal")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Records()) != 0 || j.Torn() {
		t.Fatalf("fresh journal not empty: %d records, torn=%v", len(j.Records()), j.Torn())
	}
	recs := []PairRecord{testRecord("a", "b", 81.5), testRecord("b", "a", 79.25)}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.Records()
	if len(got) != len(recs) || j2.Torn() {
		t.Fatalf("replayed %d records (torn=%v), want %d", len(got), j2.Torn(), len(recs))
	}
	for i, r := range got {
		if r.Src != recs[i].Src || r.Tgt != recs[i].Tgt || r.BLEU != recs[i].BLEU ||
			r.Runtime != recs[i].Runtime {
			t.Fatalf("record %d = %+v, want %+v", i, r, recs[i])
		}
		if r.State.Weights["w"][1] != -1.5 {
			t.Fatalf("record %d weights lost: %v", i, r.State.Weights)
		}
	}
	pairs := j2.Pairs()
	if _, ok := pairs[[2]string{"a", "b"}]; !ok {
		t.Fatal("Pairs() missing a->b")
	}
}

// TestJournalTornTail simulates a crash mid-append: the final record is
// truncated at various byte offsets, and Open must keep every intact record,
// drop the torn one, and leave the file appendable.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	build := func(path string) int64 {
		j, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(testRecord("a", "b", 81)); err != nil {
			t.Fatal(err)
		}
		prefix, err := j.f.Seek(0, io.SeekCurrent)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(testRecord("b", "a", 79)); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return prefix
	}

	// Cut inside the header, inside the payload, and one byte short.
	for _, cut := range []int64{3, 20, -1} {
		path := filepath.Join(dir, "torn.journal")
		prefix := build(path)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		size := prefix + cut
		if cut == -1 {
			size = fi.Size() - 1
		}
		if err := os.Truncate(path, size); err != nil {
			t.Fatal(err)
		}

		j, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !j.Torn() {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		recs := j.Records()
		if len(recs) != 1 || recs[0].Src != "a" {
			t.Fatalf("cut %d: records = %+v, want the single intact a->b", cut, recs)
		}
		// The torn bytes must be gone so appends start at a clean frame.
		if fi, err := os.Stat(path); err != nil || fi.Size() != prefix {
			t.Fatalf("cut %d: file not truncated to %d: %v %v", cut, prefix, fi.Size(), err)
		}
		if err := j.Append(testRecord("b", "a", 80)); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := j2.Records(); len(got) != 2 || got[1].BLEU != 80 || j2.Torn() {
			t.Fatalf("cut %d: post-repair journal = %+v torn=%v", cut, got, j2.Torn())
		}
		j2.Close()
		os.Remove(path)
	}
}

// TestJournalZeroFilledTail: a power loss can leave an appended-to file
// extended with zeros instead of the record's bytes. However many zeros,
// Open must replay the intact records, report the tail torn and truncate it
// — not refuse the journal as corrupt because 8 zero bytes pass the CRC.
func TestJournalZeroFilledTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zeros.journal")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []PairRecord{testRecord("a", "b", 81), testRecord("b", "a", 79)}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for zeros := 1; zeros <= 4096; zeros++ {
		if err := os.WriteFile(path, append(append([]byte(nil), intact...), make([]byte, zeros)...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path)
		if err != nil {
			t.Fatalf("%d zeros: %v", zeros, err)
		}
		n, torn := len(j.Records()), j.Torn()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if n != len(recs) || !torn {
			t.Fatalf("%d zeros: %d records, torn=%v; want %d, true", zeros, n, torn, len(recs))
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(intact)) {
			t.Fatalf("%d zeros: file not truncated to the valid end %d (err %v)", zeros, len(intact), err)
		}
	}
}

// TestJournalCorruptFlaggedNotDropped: a record whose CRC matches but whose
// payload is not valid JSON is corruption, not a torn tail — Open must fail
// loudly instead of silently discarding training work.
func TestJournalCorruptFlaggedNotDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.journal")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord("a", "b", 81)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Flip a payload byte and fix up the CRC so framing still validates.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderSize] = '!' // breaks JSON ('{' -> '!')
	payload := data[frameHeaderSize:]
	sum := crc32.ChecksumIEEE(payload)
	data[4], data[5], data[6], data[7] = byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestJournalDuplicatePairsLatestWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.journal")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(testRecord("a", "b", 10)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord("a", "b", 90)); err != nil {
		t.Fatal(err)
	}
	if got := j.Pairs()[[2]string{"a", "b"}].BLEU; got != 90 {
		t.Fatalf("duplicate resolution kept BLEU %v, want 90", got)
	}
}
