// Package serve is the online deployment layer of the framework: a
// multi-tenant HTTP server that loads trained models and runs one
// mdes.Stream per tenant, scoring ticks as they arrive (§II-A2's
// "detection can be performed every minute" served continuously).
//
// The subsystem is stdlib-only. Its pieces:
//
//   - a session registry with per-tenant streams, single-writer ordering,
//     idle-TTL and LRU eviction (evicted sessions are snapshotted first, so
//     eviction is memory management, not data loss);
//   - a bounded worker pool that fans pairwise relationship scoring out
//     across the valid relationships of all concurrently active sessions;
//   - request admission with explicit backpressure (429 + Retry-After once
//     the configured number of tick requests is in flight);
//   - durability: session windows are checkpointed to disk with the same
//     CRC frame internal/checkpoint journals use, and a restarted server
//     resumes every tenant's rolling window bit-for-bit;
//   - observability: /metrics in Prometheus text format, /healthz, /readyz.
package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"

	"mdes"
)

// WirePoint is the NDJSON wire form of one detection point, shared by the
// server, the client helper, the load generator, and mdes-detect's JSON
// output so everything on the wire composes.
type WirePoint struct {
	T      int         `json:"t"`
	Score  float64     `json:"score"`
	Valid  int         `json:"valid"`
	Broken []WireAlert `json:"broken,omitempty"`
	// Degraded marks a point that could not be scored in time (deadline
	// miss or missing pair model): Score repeats the session's last valid
	// score and Valid/Broken are empty. See Options.ScoreDeadline.
	Degraded bool `json:"degraded,omitempty"`
}

// WireAlert is one broken pairwise relationship on the wire.
type WireAlert struct {
	Src   string  `json:"src"`
	Tgt   string  `json:"tgt"`
	Train float64 `json:"train"`
	Test  float64 `json:"test"`
}

// PointWire converts a detection point to its wire form.
func PointWire(p mdes.Point) WirePoint {
	wp := WirePoint{T: p.T, Score: p.Score, Valid: p.Valid}
	for _, a := range p.Broken {
		wp.Broken = append(wp.Broken, WireAlert{
			Src: a.Src, Tgt: a.Tgt, Train: a.TrainScore, Test: a.TestScore,
		})
	}
	return wp
}

// wireError is the NDJSON error trailer emitted when a tick fails after the
// response status has already been written.
type wireError struct {
	Error string `json:"error"`
}

// tickScanner wraps an NDJSON tick stream in a line scanner whose buffer
// starts at a typical request's size and grows on demand to admit one
// maximum-size tick line.
func tickScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxTickLine)
	return sc
}

// decodeTick parses one NDJSON line into a tick. Blank lines separate
// nothing and are skipped; any other line must be a flat JSON object mapping
// sensor names to event strings. The returned strings own their bytes — the
// stream's windows and snapshots retain them long after line's buffer is
// reused.
func decodeTick(line []byte) (tick map[string]string, skip bool, err error) {
	if len(line) == 0 {
		return nil, true, nil
	}
	if tick, ok := decodePlainTick(line); ok {
		return tick, false, nil
	}
	if err := json.Unmarshal(line, &tick); err != nil {
		return nil, false, err
	}
	return tick, false, nil
}

// decodePlainTick is the reflection-free decoder for the wire shape the
// server documents: one flat object of string → string whose strings are
// plain — printable ASCII with no escapes. It reports ok=false for anything
// else (escapes, control or non-ASCII bytes, non-string values, nesting,
// trailing bytes, malformed input), which decodeTick then hands to
// encoding/json, so what is accepted, what is rejected and every decoded
// byte are exactly encoding/json's (FuzzWireDecode holds the two together).
// The line is copied once; keys and values are slices of that copy.
func decodePlainTick(line []byte) (map[string]string, bool) {
	s := string(line)
	i := skipSpace(s, 0)
	if i == len(s) || s[i] != '{' {
		return nil, false
	}
	// Four quotes per pair sizes the map without a second parse.
	tick := make(map[string]string, strings.Count(s, `"`)/4)
	if i = skipSpace(s, i+1); i < len(s) && s[i] == '}' {
		return tick, skipSpace(s, i+1) == len(s)
	}
	for {
		key, next, ok := plainString(s, i)
		if !ok {
			return nil, false
		}
		if i = skipSpace(s, next); i == len(s) || s[i] != ':' {
			return nil, false
		}
		val, next, ok := plainString(s, skipSpace(s, i+1))
		if !ok {
			return nil, false
		}
		tick[key] = val // a duplicate key keeps its last value, as in encoding/json
		if i = skipSpace(s, next); i == len(s) {
			return nil, false
		}
		switch s[i] {
		case ',':
			i = skipSpace(s, i+1)
		case '}':
			return tick, skipSpace(s, i+1) == len(s)
		default:
			return nil, false
		}
	}
}

// plainString reads the JSON string literal opening at s[i], provided it
// needs no unescaping and no UTF-8 validation; next is the index past its
// closing quote.
func plainString(s string, i int) (str string, next int, ok bool) {
	if i >= len(s) || s[i] != '"' {
		return "", 0, false
	}
	for j := i + 1; j < len(s); j++ {
		switch c := s[j]; {
		case c == '"':
			return s[i+1 : j], j + 1, true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return "", 0, false
		}
	}
	return "", 0, false
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n') {
		i++
	}
	return i
}

// SessionInfo describes one live or queried session.
type SessionInfo struct {
	Tenant       string `json:"tenant"`
	Model        string `json:"model"`
	Ticks        int    `json:"ticks"`
	Emitted      int    `json:"emitted"`
	SentenceSpan int    `json:"sentence_span"`
	// Degraded reports whether the session's most recent point was served
	// degraded (see WirePoint.Degraded).
	Degraded bool `json:"degraded,omitempty"`
	// Adopted reports that the session is being served by the tenant's
	// warm-standby replica while its ring owner is down. The state is real
	// (restored from the replicated snapshot), so Degraded stays false.
	Adopted bool `json:"adopted,omitempty"`
}
