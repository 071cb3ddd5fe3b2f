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
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"mdes"
)

// WirePoint is the NDJSON wire form of one detection point, shared by the
// server, the client helper, the load generator, and mdes-detect's JSON
// output so everything on the wire composes.
//
// Both directions of the wire — tick lines the client writes and the server
// reads, point lines the server writes and the client reads — are the bytes
// encoding/json writes and the values it reads. The hand-written codecs below
// take a line themselves only when it is plain: strings of printable ASCII
// that encoding/json writes verbatim, finite floats, and for points exactly
// the keys in the order the server writes them. Every other line goes through
// encoding/json, so old and new builds interoperate byte for byte
// (FuzzWireDecode and FuzzPointWire hold the two implementations together).
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
	if len(p.Broken) > 0 {
		wp.Broken = make([]WireAlert, len(p.Broken))
		for i, a := range p.Broken {
			wp.Broken[i] = WireAlert{Src: a.Src, Tgt: a.Tgt, Train: a.TrainScore, Test: a.TestScore}
		}
	}
	return wp
}

// AppendPoint appends p's NDJSON wire line to dst: exactly the bytes
// json.NewEncoder writes for PointWire(p), newline included. Like
// encoding/json it fails on a NaN or infinite score.
func AppendPoint(dst []byte, p mdes.Point) ([]byte, error) {
	return appendPoint(dst, &p, false)
}

// appendPoint is AppendPoint for a point that may be degraded (see
// WirePoint.Degraded); a degraded point carries only T and Score.
func appendPoint(dst []byte, p *mdes.Point, degraded bool) ([]byte, error) {
	// Room for the longest line p can make: a number is at most 25 bytes.
	room := 120
	for i := range p.Broken {
		room += 90 + len(p.Broken[i].Src) + len(p.Broken[i].Tgt)
	}
	dst = slices.Grow(dst, room)
	start := len(dst)
	ok := true
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, int64(p.T), 10)
	dst = append(dst, `,"score":`...)
	dst, ok = appendFloat(dst, p.Score, ok)
	dst = append(dst, `,"valid":`...)
	dst = strconv.AppendInt(dst, int64(p.Valid), 10)
	if len(p.Broken) > 0 {
		dst = append(dst, `,"broken":[`...)
		for i := range p.Broken {
			a := &p.Broken[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"src":`...)
			dst, ok = appendString(dst, a.Src, ok)
			dst = append(dst, `,"tgt":`...)
			dst, ok = appendString(dst, a.Tgt, ok)
			dst = append(dst, `,"train":`...)
			dst, ok = appendFloat(dst, a.TrainScore, ok)
			dst = append(dst, `,"test":`...)
			dst, ok = appendFloat(dst, a.TestScore, ok)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if ok {
		return append(dst, '}', '\n'), nil
	}
	wp := PointWire(*p)
	wp.Degraded = degraded
	return appendJSONLine(dst[:start], wp)
}

// appendJSONLine appends what json.NewEncoder writes for v: its encoding
// (HTML-safe, as json.Marshal's) and a newline.
func appendJSONLine(dst []byte, v any) ([]byte, error) {
	line, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(append(dst, line...), '\n'), nil
}

// appendFloat appends f as encoding/json formats a float64: the shortest
// round-tripping digits, in exponent form below 1e-6 and from 1e21 on, with a
// one-digit negative exponent unpadded. It leaves ok false once it or an
// earlier append met a value encoding/json would not write this way — here
// NaN and ±Inf, which encoding/json refuses.
func appendFloat(dst []byte, f float64, ok bool) ([]byte, bool) {
	if !ok || math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst, true
}

// appendString appends s as a JSON string when encoding/json would write its
// bytes verbatim, and leaves ok false otherwise (see appendFloat).
func appendString(dst []byte, s string, ok bool) ([]byte, bool) {
	if !ok {
		return dst, false
	}
	for i := 0; i < len(s); i++ {
		if !wireVerbatim[s[i]] {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// wireVerbatim marks the bytes encoding/json writes inside a string as
// themselves: printable ASCII except the quote and backslash, which it
// escapes, and '<', '>' and '&', which its HTML-safe default escapes too.
var wireVerbatim = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// tickEntry is one sensor → event pair of a tick being encoded.
type tickEntry struct{ sensor, event string }

// appendTicks appends the NDJSON request body json.NewEncoder writes for
// ticks — one object per line, keys sorted — to dst. A batch's ticks
// normally share one key set, so the sorted keys of one tick are reused for
// the next whenever it has the same keys: one lookup per key, no sort. A
// tick with a string encoding/json would escape, or a nil tick, is encoded
// by encoding/json.
func appendTicks(dst []byte, ticks []map[string]string) []byte {
	var entries []tickEntry // the last tick's entries in key order
	for i, tick := range ticks {
		if !refillTick(entries, tick) {
			entries = slices.Grow(entries[:0], len(tick))
			for s, e := range tick {
				entries = append(entries, tickEntry{s, e})
			}
			slices.SortFunc(entries, func(a, b tickEntry) int { return strings.Compare(a.sensor, b.sensor) })
			// Size the body for the rest of the batch at this tick's width.
			width := 3
			for _, en := range entries {
				width += len(en.sensor) + len(en.event) + 6
			}
			dst = slices.Grow(dst, width*(len(ticks)-i))
		}
		start := len(dst)
		ok := tick != nil
		dst = append(dst, '{')
		for j, en := range entries {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst, ok = appendString(dst, en.sensor, ok)
			dst = append(dst, ':')
			dst, ok = appendString(dst, en.event, ok)
		}
		dst = append(dst, '}', '\n')
		if !ok {
			dst, _ = appendJSONLine(dst[:start], tick) // a map[string]string always encodes
		}
	}
	return dst
}

// refillTick loads tick's events into entries when tick has exactly
// entries' sensors, and reports whether it did.
func refillTick(entries []tickEntry, tick map[string]string) bool {
	if len(tick) != len(entries) {
		return false
	}
	for i := range entries {
		e, ok := tick[entries[i].sensor]
		if !ok {
			return false
		}
		entries[i].event = e
	}
	return true
}

// decodePoint parses one point line of a response. Lines the server writes
// for plain points are parsed by parsePoint; every other line by
// encoding/json, into a point and the error trailer (wireError) at once. A
// trailer ends the stream: everything before it was processed, the erroring
// tick and the rest of the batch were not.
func decodePoint(line []byte) (WirePoint, error) {
	if wp, ok := parsePoint(string(line)); ok {
		return wp, nil
	}
	var v struct {
		WirePoint
		wireError
	}
	err := json.Unmarshal(line, &v)
	if v.Error != "" {
		return WirePoint{}, errors.New(v.Error)
	}
	if err != nil {
		return WirePoint{}, fmt.Errorf("serve: decode point: %w", err)
	}
	return v.WirePoint, nil
}

// parsePoint is the reflection-free decoder for the point lines the server
// writes: keys in the server's order, plain strings, numbers as JSON spells
// them, and no whitespace. It reports ok=false for anything else (case-folded
// or repeated keys, a null or empty broken list, a false degraded flag,
// escapes, a number out of range, the error trailer), which decodePoint hands
// to encoding/json — so every value it returns is the one json.Unmarshal
// returns. Names are substrings of s: one allocation per line, not two per
// alert.
func parsePoint(s string) (wp WirePoint, ok bool) {
	p := pointParser{s: s, ok: true}
	p.lit(`{"t":`)
	wp.T = p.readInt()
	p.lit(`,"score":`)
	wp.Score = p.readFloat()
	p.lit(`,"valid":`)
	wp.Valid = p.readInt()
	if p.skip(`,"broken":[`) {
		// A plain name holds no quote, so every `{"src":` opens an alert.
		wp.Broken = make([]WireAlert, 0, strings.Count(s[p.i:], `{"src":`))
		for p.ok {
			var a WireAlert
			p.lit(`{"src":`)
			a.Src = p.readString()
			p.lit(`,"tgt":`)
			a.Tgt = p.readString()
			p.lit(`,"train":`)
			a.Train = p.readFloat()
			p.lit(`,"test":`)
			a.Test = p.readFloat()
			p.lit(`}`)
			wp.Broken = append(wp.Broken, a)
			if !p.skip(`,`) {
				break
			}
		}
		p.lit(`]`)
	}
	wp.Degraded = p.skip(`,"degraded":true`)
	p.lit(`}`)
	return wp, p.ok && p.i == len(s)
}

// pointParser is parsePoint's cursor. Once a step fails ok stays false, and
// every later step is a no-op.
type pointParser struct {
	s  string
	i  int
	ok bool
}

// skip consumes want if the input continues with it.
func (p *pointParser) skip(want string) bool {
	if p.ok && strings.HasPrefix(p.s[p.i:], want) {
		p.i += len(want)
		return true
	}
	return false
}

// lit consumes want, which must come next.
func (p *pointParser) lit(want string) {
	p.ok = p.skip(want)
}

// readString reads a plain string literal (see plainString).
func (p *pointParser) readString() string {
	if !p.ok {
		return ""
	}
	s, next, ok := plainString(p.s, p.i)
	p.i, p.ok = next, ok
	return s
}

// readInt reads an integer that fits an int, as encoding/json requires of
// an int field.
func (p *pointParser) readInt() int {
	n, err := strconv.Atoi(p.number(false))
	p.ok = p.ok && err == nil
	return n
}

// readFloat reads a number that fits a float64: strconv.ParseFloat refuses
// one out of range, such as 1e400, and so does encoding/json.
func (p *pointParser) readFloat() float64 {
	f, err := strconv.ParseFloat(p.number(true), 64)
	p.ok = p.ok && err == nil
	return f
}

// number consumes a literal of JSON's number grammar, -?(0|[1-9][0-9]*)
// followed, when frac is set, by an optional fraction and exponent, and
// returns it. strconv accepts more (a '+' sign, "Inf", hex, underscores), so
// the grammar is checked here.
func (p *pointParser) number(frac bool) string {
	if !p.ok {
		return ""
	}
	s, start := p.s, p.i
	i := start
	if i < len(s) && s[i] == '-' {
		i++
	}
	lead := i
	i = skipDigits(s, i)
	p.ok = i > lead && (s[lead] != '0' || i == lead+1)
	if frac && p.ok && i < len(s) && s[i] == '.' {
		j := skipDigits(s, i+1)
		p.ok, i = j > i+1, j
	}
	if frac && p.ok && i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := skipDigits(s, i)
		p.ok, i = j > i, j
	}
	p.i = i
	return s[start:i]
}

// skipDigits returns the index of the first byte at or after i that is not
// a decimal digit.
func skipDigits(s string, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
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

// decodeTick parses one non-blank NDJSON tick line, which must be a flat
// JSON object mapping sensor names to event strings, into row. A plain line
// (see decodePlainRow) is read straight from its bytes; any other line is
// decoded by encoding/json and its map set into row, so what is accepted,
// what is rejected and every decoded byte are exactly encoding/json's
// (FuzzWireDecode holds the two paths together).
func decodeTick(line []byte, row *mdes.Row) error {
	if decodePlainRow(line, row) {
		return nil
	}
	var tick map[string]string
	if err := json.Unmarshal(line, &tick); err != nil {
		return err
	}
	row.Reset()
	for sensor, event := range tick {
		row.Set([]byte(sensor), []byte(event))
	}
	return nil
}

// decodePlainRow is the reflection-free decoder for the wire shape the
// server documents: one flat object of string → string whose strings are
// plain — printable ASCII with no escapes. It resets row and sets every
// pair into it, straight from line's bytes; a duplicate key keeps its last
// value, as in encoding/json. It reports false for anything else (escapes,
// control or non-ASCII bytes, non-string values, nesting, trailing bytes,
// malformed input), leaving row partly filled.
//
//mdes:noalloc
func decodePlainRow(line []byte, row *mdes.Row) bool {
	row.Reset()
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return false
	}
	if i = skipSpace(line, i+1); i < len(line) && line[i] == '}' {
		return skipSpace(line, i+1) == len(line)
	}
	for {
		key, next, ok := plainString(line, i)
		if !ok {
			return false
		}
		if i = skipSpace(line, next); i == len(line) || line[i] != ':' {
			return false
		}
		val, next, ok := plainString(line, skipSpace(line, i+1))
		if !ok {
			return false
		}
		row.Set(key, val)
		if i = skipSpace(line, next); i == len(line) {
			return false
		}
		switch line[i] {
		case ',':
			i = skipSpace(line, i+1)
		case '}':
			return skipSpace(line, i+1) == len(line)
		default:
			return false
		}
	}
}

// plainString reads the JSON string literal opening at s[i], provided it
// needs no unescaping and no UTF-8 validation; next is the index past its
// closing quote.
func plainString[S string | []byte](s S, i int) (str S, next int, ok bool) {
	if i >= len(s) || s[i] != '"' {
		return str, 0, false
	}
	for j := i + 1; j < len(s); j++ {
		switch c := s[j]; {
		case c == '"':
			return s[i+1 : j], j + 1, true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return str, 0, false
		}
	}
	return str, 0, false
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace[S string | []byte](s S, i int) int {
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
