package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mdes"
)

// FuzzWireDecode runs arbitrary byte streams through the NDJSON tick path
// handleTicks uses (tickScanner + decodeTick) and holds decodeTick — the
// hand-written plain-row decoder with its encoding/json fallback — to
// encoding/json alone, the decoder it replaced:
//
//   - scanning and decoding never panic;
//   - every line is accepted or rejected exactly as json.Unmarshal into a
//     map[string]string accepts or rejects it;
//   - every accepted line, plain or not, yields exactly the row Stream.Push
//     lays out from encoding/json's map (see sameRowAsMap);
//   - the client's tick encoder (appendTicks) writes, for every tick decoded
//     from the stream, exactly the body json.NewEncoder writes.
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

	model := testModel(f)
	row := model.NewRow()
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := tickScanner(bytes.NewReader(data))
		lines := 0
		var ticks []map[string]string
		for sc.Scan() {
			lines++
			if lines > 1<<16 {
				break // enough structure exercised; keep iterations fast
			}
			line := sc.Bytes()
			if len(line) == 0 {
				continue // handleTicks skips blank lines before decoding
			}
			var want map[string]string
			wantErr := json.Unmarshal(line, &want)
			err := decodeTick(line, row)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("line %q: decodeTick error %v, encoding/json error %v", line, err, wantErr)
			}
			if err != nil {
				continue // rejected lines surface a 400 upstream; nothing more to check
			}
			if err := sameRowAsMap(model, row, want); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			ticks = append(ticks, want)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		for _, tick := range ticks {
			if err := enc.Encode(tick); err != nil {
				t.Fatal(err)
			}
		}
		if got := appendTicks(nil, ticks); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("ticks %q: appendTicks wrote\n%s\nencoding/json\n%s", ticks, got, want.Bytes())
		}
	})
}

// sameRowAsMap holds a decoded row to the tick map encoding/json decodes
// from the same line, through the stream API alone, on two fresh streams of
// model. For each modelled sensor in sorted order that the map lacks, both
// pushes must fail with the same error (naming that sensor) before the
// sensor is filled alike on both sides; so the row lacks exactly the
// sensors the map lacks. Once both pushes succeed, the windows they leave
// must be the same, so every present sensor's event ranked the same.
func sameRowAsMap(model *mdes.Model, row *mdes.Row, tick map[string]string) error {
	byRow, byMap := model.NewStream(), model.NewStream()
	tick = maps.Clone(tick)
	if tick == nil {
		tick = map[string]string{}
	}
	var names []string
	for name := range byMap.Snapshot().Windows {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if _, ok := tick[name]; ok {
			continue
		}
		_, errRow := byRow.PushRow(row)
		_, errMap := byMap.Push(tick)
		if errRow == nil || errMap == nil || errRow.Error() != errMap.Error() {
			return fmt.Errorf("sensor %q missing: row push error %v, map push error %v", name, errRow, errMap)
		}
		row.Set([]byte(name), []byte("ON"))
		tick[name] = "ON"
	}
	_, errRow := byRow.PushRow(row)
	_, errMap := byMap.Push(tick)
	if errRow != nil || errMap != nil {
		return fmt.Errorf("complete tick: row push error %v, map push error %v", errRow, errMap)
	}
	if got, want := byRow.Snapshot(), byMap.Snapshot(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("row left window %v, map %v", got.Windows, want.Windows)
	}
	return nil
}

// plainTickCases are lines around the edge of the wire shape
// decodePlainRow recognises; plain says which side each is on.
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
	// The test model's sensors a, b and c, whose events are ON and OFF.
	{`{"a":"ON","b":"OFF","c":"ON"}`, true},
	{`{"c":"ON","extra":"1","a":"OFF","b":"ON"}`, true},    // unsorted, unknown sensor
	{`{"a":"ON","b":"ON","c":"OFF","a":"MELTDOWN"}`, true}, // the last of a duplicate wins, unknown event
	{`{"a":"ON","c":"OFF"}`, true},                         // b missing
	{`{"a":"OFF","b":"ON","c":"?"}`, true},                 // "?" is an unknown event too
}

// TestDecodePlainRow pins which lines the hand-written parser takes itself
// and that, on those, it fills the row Stream.Push lays out from what
// encoding/json decodes; FuzzWireDecode extends the agreement to decodeTick
// on every input.
func TestDecodePlainRow(t *testing.T) {
	model := testModel(t)
	row := model.NewRow()
	for _, tc := range plainTickCases {
		ok := decodePlainRow([]byte(tc.line), row)
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
		if err := sameRowAsMap(model, row, want); err != nil {
			t.Errorf("line %q: %v", tc.line, err)
		}
	}
}

// TestDecodePlainRowAllocs pins the plain decode of a tick line at zero
// allocations: keys resolve and events rank straight from the line's bytes.
func TestDecodePlainRowAllocs(t *testing.T) {
	row := testModel(t).NewRow()
	line := []byte(`{"a":"ON","b":"OFF","c":"ON","extra":"1"}`)
	if got := testing.AllocsPerRun(100, func() {
		if !decodePlainRow(line, row) {
			t.Fatal("plain line declined")
		}
	}); got != 0 {
		t.Fatalf("plain row decode allocates %v times per line, want 0", got)
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

// FuzzPointWire holds the point codecs to encoding/json, the implementation
// they replace on the wire:
//
//   - appendPoint writes exactly what json.NewEncoder writes for the point's
//     WirePoint, and fails exactly when it fails (NaN, ±Inf);
//   - what appendPoint writes for a point of plain names, parsePoint reads
//     back to the same bits;
//   - on any line, parsePoint either declines or returns exactly what
//     json.Unmarshal returns into the client's struct{WirePoint; wireError},
//     with no error and no trailer.
func FuzzPointWire(f *testing.F) {
	lines := []string{
		`{"t":3,"score":0.025,"valid":40,"broken":[{"src":"s01","tgt":"s02","train":0.71,"test":0.2}]}`,
		`{"t":4,"score":0.5,"valid":0,"degraded":true}`,
		`{"error":"tick 7: unknown sensor"}`,             // the error trailer
		`{"T":1,"score":0,"valid":1}`,                    // case-folded key
		`{"t":1,"t":2,"score":0,"valid":1}`,              // duplicate key
		`{"t":1,"score":0,"valid":1,"broken":null}`,      // null list
		`{"t":1,"score":0,"valid":1,"broken":[]}`,        // empty list
		`{"t":1,"score":0,"valid":1,"degraded":false}`,   // false flag
		`{"t":1,"score":-0,"valid":1}`,                   // −0
		`{"t":1,"score":1e-7,"valid":1}`,                 // exponent below 1e-6
		`{"t":1,"score":1e21,"valid":1}`,                 // exponent from 1e21
		`{"t":99999999999999999999,"score":0,"valid":1}`, // int overflow
		`{"t":1,"score":1e400,"valid":1}`,                // float overflow
		`{"t":01,"score":0,"valid":1}`,                   // leading zero
		`{"t":1,"score":.5,"valid":1}`,                   // bare fraction
		`{"t":1,"score":0,"valid":1,"broken":[{"src":"a<b","tgt":"b","train":1,"test":0}]}`,
	}
	for i, line := range lines {
		f.Add([]byte(line), i, []float64{0.025, -0.0, 1e-7, 1e21, 5e-324, 123456789.125}[i%6], 40, "s01", "s02", 0.71, 0.2, uint8(i%3), i%2 == 1)
	}
	f.Add([]byte(`{}`), 0, math.Inf(1), 1, "a<b", `x"y`, math.NaN(), 0.5, uint8(2), false)
	f.Add([]byte(`{}`), -7, 1.0, 1, "ünï", "&", 1e20, 1e-6, uint8(1), true)

	f.Fuzz(func(t *testing.T, line []byte, tt int, score float64, valid int,
		src, tgt string, train, test float64, alerts uint8, degraded bool) {
		p := mdes.Point{T: tt, Score: score, Valid: valid}
		for i := 0; i < int(alerts%4); i++ {
			p.Broken = append(p.Broken, mdes.Alert{Src: src, Tgt: tgt, TrainScore: train, TestScore: test})
			src, tgt, train, test = tgt, src, test, train
		}
		wp := PointWire(p)
		wp.Degraded = degraded
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(wp)
		got, err := appendPoint([]byte("prefix"), &p, degraded)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: appendPoint error %v, encoding/json error %v", wp, err, wantErr)
		}
		if err == nil {
			if !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) {
				t.Fatalf("%+v: appendPoint wrote\n%s\nencoding/json\n%s", wp, got, want.Bytes())
			}
			// A line of printable ASCII with no escapes is the plain form.
			plain := bytes.IndexFunc(bytes.TrimSuffix(want.Bytes(), []byte("\n")), func(r rune) bool {
				return r < 0x20 || r >= 0x7f || r == '\\'
			}) < 0
			if plain {
				back, ok := parsePoint(strings.TrimSuffix(string(got[len("prefix"):]), "\n"))
				if !ok || !sameWirePoint(back, wp) {
					t.Fatalf("%s: parsed back %+v (ok %v), want %+v", want.Bytes(), back, ok, wp)
				}
			}
		}

		parsed, ok := parsePoint(string(line))
		if !ok {
			return
		}
		var v struct {
			WirePoint
			wireError
		}
		if err := json.Unmarshal(line, &v); err != nil || v.Error != "" {
			t.Fatalf("%q: parsePoint took what encoding/json rejects (error %v, trailer %q)", line, err, v.Error)
		}
		if !sameWirePoint(parsed, v.WirePoint) {
			t.Fatalf("%q: parsePoint %+v, encoding/json %+v", line, parsed, v.WirePoint)
		}
	})
}

// sameWirePoint compares two points bit for bit: floats by their bits (−0
// is not 0) and a nil alert list apart from an empty one.
func sameWirePoint(a, b WirePoint) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.T != b.T || !same(a.Score, b.Score) || a.Valid != b.Valid || a.Degraded != b.Degraded ||
		(a.Broken == nil) != (b.Broken == nil) || len(a.Broken) != len(b.Broken) {
		return false
	}
	for i, x := range a.Broken {
		y := b.Broken[i]
		if x.Src != y.Src || x.Tgt != y.Tgt || !same(x.Train, y.Train) || !same(x.Test, y.Test) {
			return false
		}
	}
	return true
}
