package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzWireDecode runs arbitrary byte streams through the NDJSON tick path
// handleTicks uses (tickScanner + decodeTick) and holds decodeTick — the
// hand-written plain-tick parser with its encoding/json fallback — to
// encoding/json alone, the decoder it replaced:
//
//   - scanning and decoding never panic;
//   - a blank line, and only a blank line, skips;
//   - every other line is accepted or rejected exactly as json.Unmarshal into
//     a map[string]string accepts or rejects it, with identical content;
//   - the decoded strings own their bytes: they survive the scanner's buffer
//     being overwritten (stream windows and snapshots retain them).
//
// TestTickScannerRefusesOversizedLines covers the memory bound separately (a
// megabyte seed would stall the fuzzer's throughput).
func FuzzWireDecode(f *testing.F) {
	// Seeds mirror the E2E test corpus: well-formed ticks, blank separators,
	// malformed JSON, and wrong JSON shapes.
	f.Add([]byte(`{"temp":"a","pressure":"b"}` + "\n" + `{"temp":"c","pressure":"d"}` + "\n"))
	f.Add([]byte("\n\n{\"s1\":\"x\"}\n"))
	f.Add([]byte(`{"temp":`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"temp":42}`))
	f.Add([]byte(`{"":""}`))
	// Everything the plain parser must hand to encoding/json, or get right
	// on its own.
	for _, seed := range plainTickCases {
		f.Add([]byte(seed.line))
	}
	f.Add([]byte(`{"long":"` + strings.Repeat("x", 5000) + `","s":"on"}` + "\n" + `{"s":"off"}`)) // grows the 4 KiB buffer

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := tickScanner(bytes.NewReader(data))
		lines := 0
		for sc.Scan() {
			lines++
			if lines > 1<<16 {
				return // enough structure exercised; keep iterations fast
			}
			line := sc.Bytes()
			var want map[string]string
			wantErr := json.Unmarshal(line, &want)
			tick, skip, err := decodeTick(line)
			if skip {
				if len(line) != 0 {
					t.Fatalf("non-empty line %q skipped", line)
				}
				continue
			}
			shown := string(line)
			for i := range line {
				line[i] = 'X'
			}
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("line %q: decodeTick error %v, encoding/json error %v", shown, err, wantErr)
			}
			if err != nil {
				continue // rejected lines surface a 400 upstream; nothing more to check
			}
			if (tick == nil) != (want == nil) || len(tick) != len(want) {
				t.Fatalf("line %q: decoded %#v, encoding/json %#v", shown, tick, want)
			}
			for k, v := range want {
				if got, ok := tick[k]; !ok || got != v {
					t.Fatalf("line %q: key %q = %q (present %v), encoding/json %q", shown, k, got, ok, v)
				}
			}
		}
	})
}

// plainTickCases are lines around the edge of the wire shape
// decodePlainTick recognises; plain says which side each is on.
var plainTickCases = []struct {
	line  string
	plain bool
}{
	{`{"temp":"a","pressure":"b"}`, true},
	{`{}`, true},
	{` { "s1" : "x" ,` + "\t" + `"s2":"y" } ` + "\r", true}, // inner whitespace
	{`{"a":"1","a":"2"}`, true},                             // duplicate keys: the last wins
	{`{"sp ace":"~!@#$%^&*()[]{}:,"}`, true},                // structural bytes inside plain strings
	{`{"a":"x\"y"}`, false},                                 // escapes
	{`{"a":"x\\y"}`, false},
	{`{"a":"\u0041"}`, false}, // \u sequences
	{`{"a\u0062":"\ud83d\ude00"}`, false},
	{`{"a":"\ud800"}`, false},          // lone surrogate: U+FFFD in encoding/json
	{"{\"a\":\"caf\xc3\xa9\"}", false}, // non-ASCII
	{"{\"a\":\"\xff\xfe\"}", false},    // invalid UTF-8: U+FFFD in encoding/json
	{"{\"a\":\"x\x01y\"}", false},      // control byte: a syntax error
	{"{\"a\":\"x\x7fy\"}", false},      // DEL: valid JSON, left to encoding/json
	{`{"a":null}`, false},              // non-string values
	{`{"a":42}`, false},
	{`{"a":true,"b":"x"}`, false},
	{`{"a":{"b":"c"}}`, false}, // nesting
	{`{"a":["b"]}`, false},
	{`null`, false},
	{`"a"`, false},
	{`{"a":"b"}x`, false}, // trailing garbage
	{`{"a":"b"}{"c":"d"}`, false},
	{`{"a":"b",}`, false},
	{`{"a":"b"`, false},
	{`{"a":"b`, false},
	{`{"a"}`, false},
	{`{a:"b"}`, false},
	{`{`, false},
}

// TestDecodePlainTick pins which lines the hand-written parser takes itself
// and that, on those, it decodes what encoding/json decodes; FuzzWireDecode
// extends the agreement to decodeTick on every input.
func TestDecodePlainTick(t *testing.T) {
	for _, tc := range plainTickCases {
		got, ok := decodePlainTick([]byte(tc.line))
		if ok != tc.plain {
			t.Errorf("line %q: plain %v, want %v", tc.line, ok, tc.plain)
			continue
		}
		if !ok {
			continue
		}
		var want map[string]string
		if err := json.Unmarshal([]byte(tc.line), &want); err != nil {
			t.Errorf("line %q: the plain parser accepted what encoding/json rejects: %v", tc.line, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("line %q: decoded %#v, encoding/json %#v", tc.line, got, want)
		}
	}
}

// TestTickScannerRefusesOversizedLines pins the memory bound: a line past
// maxTickLine makes the scanner stop with bufio.ErrTooLong instead of
// buffering it, so one client cannot balloon the server.
func TestTickScannerRefusesOversizedLines(t *testing.T) {
	sc := tickScanner(bytes.NewReader(bytes.Repeat([]byte("x"), maxTickLine+2)))
	for sc.Scan() {
		if len(sc.Bytes()) > maxTickLine {
			t.Fatalf("scanner yielded a %d-byte line past the %d cap", len(sc.Bytes()), maxTickLine)
		}
	}
	if err := sc.Err(); err == nil {
		t.Fatal("oversized line scanned without error")
	}
}
