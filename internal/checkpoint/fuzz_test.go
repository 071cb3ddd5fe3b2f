package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzFrames throws arbitrary byte streams — including torn and bit-flipped
// journals — at the frame parser and checks its structural invariants:
//
//   - valid never exceeds len(data), and torn is exactly "bytes remain";
//   - re-encoding the parsed payloads with AppendFrame reproduces the valid
//     prefix byte for byte (the codec is a bijection on intact journals);
//   - re-parsing the valid prefix is stable: same payloads, nothing torn.
//
// Together these are the crash-recovery contract Journal.replay relies on.
func FuzzFrames(f *testing.F) {
	// Seed with the shapes the unit tests cover: an empty journal, intact
	// journals of one and several payloads, a zero-length frame (which ends
	// the intact prefix), and torn or corrupt variants of each.
	f.Add([]byte{})
	f.Add(AppendFrame(nil, []byte("pair a->b")))
	intact := AppendFrame(nil, []byte("alpha"))
	intact = AppendFrame(intact, []byte(""))
	intact = AppendFrame(intact, bytes.Repeat([]byte("x"), 300))
	f.Add(intact)
	f.Add(intact[:len(intact)-1]) // torn mid-payload
	f.Add(intact[:5])             // torn mid-header
	corrupt := append([]byte(nil), intact...)
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)                                    // CRC mismatch in the last frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // oversized length field

	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, valid, torn := Frames(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		if torn != (valid < len(data)) {
			t.Fatalf("torn = %v but valid = %d of %d", torn, valid, len(data))
		}
		var re []byte
		for _, p := range payloads {
			re = AppendFrame(re, p)
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("re-encoding %d payloads gives %d bytes, want the %d-byte valid prefix", len(payloads), len(re), valid)
		}
		again, validAgain, tornAgain := Frames(data[:valid])
		if tornAgain || validAgain != valid || len(again) != len(payloads) {
			t.Fatalf("re-parsing the valid prefix: %d payloads, valid %d, torn %v; want %d, %d, false",
				len(again), validAgain, tornAgain, len(payloads), valid)
		}
		for i := range again {
			if !bytes.Equal(again[i], payloads[i]) {
				t.Fatalf("payload %d differs on re-parse", i)
			}
		}
	})
}
