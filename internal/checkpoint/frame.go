package checkpoint

import (
	"encoding/binary"
	"hash/crc32"
)

// The length+CRC record framing is shared by the training journal and the
// serve-layer session snapshots: every durable artefact in the repo uses the
// same crash-safe frame, so torn tails are detected the same way everywhere.
//
//	[4-byte little-endian payload length][4-byte CRC-32 (IEEE) of payload][payload]
//
// A zero length field never starts a frame. The CRC-32 of an empty payload
// is 0, so an "empty frame" is 8 zero bytes — exactly what a power loss
// leaves in a zero-filled tail, and what pads a serve slot file after its
// record. Payloads must therefore be non-empty; every writer frames JSON.

// AppendFrame appends one framed payload to dst and returns the extended
// slice. payload must be non-empty (see above).
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// NextFrame parses the frame at the start of data. ok is false when data
// does not start with an intact frame: short header, zero or oversized
// length field, short payload, or CRC mismatch. n is the frame's length in
// bytes. The payload aliases data.
func NextFrame(data []byte) (payload []byte, n int, ok bool) {
	if len(data) < frameHeaderSize {
		return nil, 0, false
	}
	size := binary.LittleEndian.Uint32(data[:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if size == 0 || size > maxPayload || len(data)-frameHeaderSize < int(size) {
		return nil, 0, false
	}
	n = frameHeaderSize + int(size)
	payload = data[frameHeaderSize:n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, n, true
}

// Frames parses the framed records at the start of data. It returns the
// payloads of the longest intact prefix, the byte offset where that prefix
// ends, and whether trailing bytes follow it (a torn final frame, or a
// zero-filled tail). Payloads alias data; copy them to retain past the
// buffer's lifetime.
func Frames(data []byte) (payloads [][]byte, valid int, torn bool) {
	for valid < len(data) {
		payload, n, ok := NextFrame(data[valid:])
		if !ok {
			break
		}
		payloads = append(payloads, payload)
		valid += n
	}
	return payloads, valid, valid < len(data)
}
