package checkpoint

import (
	"bytes"
	"testing"
)

func TestFrameRoundtrip(t *testing.T) {
	var buf []byte
	records := [][]byte{[]byte("alpha"), []byte("b"), []byte("a longer third record")}
	for _, r := range records {
		buf = AppendFrame(buf, r)
	}
	payloads, valid, torn := Frames(buf)
	if torn {
		t.Fatal("intact buffer reported torn")
	}
	if valid != len(buf) {
		t.Fatalf("valid = %d, want %d", valid, len(buf))
	}
	if len(payloads) != len(records) {
		t.Fatalf("got %d payloads, want %d", len(payloads), len(records))
	}
	for i := range records {
		if !bytes.Equal(payloads[i], records[i]) {
			t.Fatalf("payload %d = %q, want %q", i, payloads[i], records[i])
		}
	}
}

func TestFramesTornTail(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, []byte("keep me"))
	intact := len(buf)
	buf = AppendFrame(buf, []byte("torn away"))

	for cut := intact + 1; cut < len(buf); cut++ {
		payloads, valid, torn := Frames(buf[:cut])
		if !torn {
			t.Fatalf("cut at %d: torn tail not reported", cut)
		}
		if valid != intact {
			t.Fatalf("cut at %d: valid = %d, want %d", cut, valid, intact)
		}
		if len(payloads) != 1 || string(payloads[0]) != "keep me" {
			t.Fatalf("cut at %d: payloads = %q", cut, payloads)
		}
	}
}

func TestFramesCRCMismatch(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, []byte("first"))
	intact := len(buf)
	buf = AppendFrame(buf, []byte("second"))
	buf[len(buf)-1] ^= 0xFF // corrupt the last payload byte

	payloads, valid, torn := Frames(buf)
	if !torn {
		t.Fatal("CRC mismatch not reported as torn")
	}
	if valid != intact || len(payloads) != 1 {
		t.Fatalf("valid = %d payloads = %d, want %d and 1", valid, len(payloads), intact)
	}
}

func TestFramesOversizedLength(t *testing.T) {
	// A header claiming an absurd payload length must stop the scan, not
	// attempt a huge read.
	buf := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	payloads, valid, torn := Frames(buf)
	if len(payloads) != 0 || valid != 0 || !torn {
		t.Fatalf("oversized length accepted: %d payloads, valid=%d, torn=%v", len(payloads), valid, torn)
	}
}

// TestFramesZeroLengthEndsPrefix: 8 zero bytes carry a matching CRC (the
// CRC-32 of nothing is 0), yet they are a zero-filled tail, not a record.
func TestFramesZeroLengthEndsPrefix(t *testing.T) {
	buf := AppendFrame(nil, []byte("keep me"))
	intact := len(buf)
	buf = append(buf, make([]byte, 16)...)
	buf = AppendFrame(buf, []byte("behind the zeros"))
	payloads, valid, torn := Frames(buf)
	if !torn || valid != intact || len(payloads) != 1 {
		t.Fatalf("zero frame: %d payloads, valid=%d, torn=%v; want 1, %d, true", len(payloads), valid, torn, intact)
	}
	if _, _, ok := NextFrame(AppendFrame(nil, nil)); ok {
		t.Fatal("an empty frame parsed as intact")
	}
}

func TestFramesEmpty(t *testing.T) {
	payloads, valid, torn := Frames(nil)
	if len(payloads) != 0 || valid != 0 || torn {
		t.Fatalf("empty input: %d payloads, valid=%d, torn=%v", len(payloads), valid, torn)
	}
}
