package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mdes"
	"mdes/internal/seqio"
)

// TestClientReadsLongPointLines pins the client's response-line bound to the
// size a point can reach, not to the server's bound on one tick: a point
// with 14,000 broken relationships between 40-character sensors — inside a
// paper-scale model's 16,256 — is a 2 MiB line, and by the time the client
// reads it the server has consumed the ticks, so refusing the line would lose
// them.
func TestClientReadsLongPointLines(t *testing.T) {
	name := func(i int) string { return fmt.Sprintf("sensor-%033d", i) }
	var want WirePoint
	for i := 0; i < 14000; i++ {
		want.Broken = append(want.Broken, WireAlert{
			Src: name(i), Tgt: name(i + 1), Train: 61.53846153846154, Test: 42.857142857142854,
		})
	}
	want.Valid, want.Score = len(want.Broken), 1
	line, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(line) < 2<<20 {
		t.Fatalf("point line is %d bytes, want at least 2 MiB", len(line))
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(append(line, '\n'))
	}))
	defer hs.Close()
	client := &Client{BaseURL: hs.URL}
	got, err := client.PushTicks(context.Background(), "plant", []map[string]string{{"a": "ON"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !sameWirePoint(got[0], want) {
		t.Fatalf("decoded %d points, want the one %d-alert point", len(got), len(want.Broken))
	}
}

// TestNonPlainTrafficRoundTrips sends traffic the hand-written codecs must
// leave to encoding/json — a tenant "ünï", a sensor "a<b", an event `x"y`
// and an event containing '&' — through a real server, and holds every
// point, alert names and scores included, to offline Detect over the same
// ticks.
func TestNonPlainTrafficRoundTrips(t *testing.T) {
	rename := map[string]string{"a": "a<b", "ON": `x"y`, "OFF": "on&off"}
	escaped := func(ds *seqio.Dataset) *seqio.Dataset {
		out := &seqio.Dataset{}
		for _, seq := range ds.Sequences {
			s := seqio.Sequence{Sensor: seq.Sensor, Events: make([]string, len(seq.Events))}
			if r, ok := rename[s.Sensor]; ok {
				s.Sensor = r
			}
			for i, e := range seq.Events {
				if r, ok := rename[e]; ok {
					e = r
				}
				s.Events[i] = e
			}
			out.Sequences = append(out.Sequences, s)
		}
		return out
	}
	full := escaped(coupledDataset(rand.New(rand.NewSource(42)), 500))
	train, dev, _, err := full.Split(380, 120)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.NMT.TrainSteps = 60
	cfg.ValidRange = mdes.Range{Lo: 0, Hi: 100}
	fw, err := mdes.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := fw.Train(context.Background(), train, dev)
	if err != nil {
		t.Fatal(err)
	}
	_, _, client := newTestServer(t, Options{Models: map[string]*mdes.Model{"default": m}})

	ds := escaped(coupledDataset(rand.New(rand.NewSource(9)), 160))
	var got []WirePoint
	for off := 0; off < ds.Ticks(); off += 7 {
		points, err := client.PushTicks(context.Background(), "ünï", ticksOf(ds, off, min(off+7, ds.Ticks())))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, points...)
	}
	want, err := m.Detect(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("server emitted %d points, Detect %d", len(got), len(want))
	}
	escapedAlerts := 0
	for i := range want {
		if !sameWirePoint(got[i], PointWire(want[i])) {
			t.Fatalf("point %d: served %+v, Detect %+v", i, got[i], want[i])
		}
		for _, a := range got[i].Broken {
			if a.Src == "a<b" || a.Tgt == "a<b" {
				escapedAlerts++
			}
		}
	}
	if escapedAlerts == 0 {
		t.Fatal(`no alert named "a<b": the escaped point path never ran`)
	}
	info, err := client.Session(context.Background(), "ünï")
	if err != nil || info.Ticks != ds.Ticks() {
		t.Fatalf("session ünï: %+v, %v; want %d ticks", info, err, ds.Ticks())
	}
}

// TestPlainAndEscapedTicksServeAlike sends every request twice, to two
// tenants: once as plain lines, which decode straight into the session's
// row, and once with the key "a" spelled as the JSON escape "\u0061", which
// sends every line through encoding/json and Stream.Push. Status, points and
// error bodies must be identical, for clean traffic, for a tick missing a
// sensor and for a malformed line.
func TestPlainAndEscapedTicksServeAlike(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{Models: map[string]*mdes.Model{"default": testModel(t)}})
	ds := coupledDataset(rand.New(rand.NewSource(31)), 60)
	missing := ticksOf(ds, 45, 46)[0]
	delete(missing, "b")
	requests := []struct {
		name string
		body []byte
		want string // in the plain answer
	}{
		{"clean", appendTicks(nil, ticksOf(ds, 0, 40)), `"score"`},
		{"missing b", appendTicks(appendTicks(nil, ticksOf(ds, 40, 45)), []map[string]string{missing}), `\"b\" missing from tick 45`},
		{"malformed", append(appendTicks(nil, ticksOf(ds, 45, 50)), `{"a":"ON","b":"OFF","c":"ON"`+"\n"...), `tick 50: unexpected end of JSON input`},
		{"first bad", []byte(`{"a":"ON","c":"OFF"}` + "\n"), `"b" missing from tick 50`},
	}
	post := func(tenant string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/streams/"+tenant+"/ticks", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(got)
	}
	for _, req := range requests {
		escaped := bytes.ReplaceAll(req.body, []byte(`"a":`), []byte(`"\u0061":`))
		if bytes.Equal(escaped, req.body) {
			t.Fatalf("%s: nothing to escape", req.name)
		}
		codeP, plain := post("plain", req.body)
		codeE, esc := post("escaped", escaped)
		if codeP != codeE || plain != esc {
			t.Fatalf("%s: plain answered %d\n%s\nescaped answered %d\n%s", req.name, codeP, plain, codeE, esc)
		}
		if !strings.Contains(plain, req.want) {
			t.Fatalf("%s: answer %q lacks %q", req.name, plain, req.want)
		}
	}
}

// BenchmarkWireCodec times the wire codecs beside the encoding/json path
// each replaces: a request of 13 ticks × 16 sensors (the serving bench's
// shape) encoded, and decoded into a row against the map decode, and one
// point with 8 broken relationships encoded and decoded.
func BenchmarkWireCodec(b *testing.B) {
	ticks := make([]map[string]string, 13)
	for i := range ticks {
		ticks[i] = make(map[string]string, 16)
		for s := 0; s < 16; s++ {
			ticks[i][fmt.Sprintf("s%02d", s)] = fmt.Sprintf("%c%d", 'A'+(i+s)%3, s%5)
		}
	}
	p := mdes.Point{T: 1234, Score: 0.2, Valid: 40}
	for i := 0; i < 8; i++ {
		p.Broken = append(p.Broken, mdes.Alert{
			Src: fmt.Sprintf("s%02d", i), Tgt: fmt.Sprintf("s%02d", 15-i),
			TrainScore: 61.53846153846154 + float64(i), TestScore: 42.857142857142854 / float64(i+1),
		})
	}
	line, err := AppendPoint(nil, p)
	if err != nil {
		b.Fatal(err)
	}
	line = bytes.TrimSpace(line)

	body := appendTicks(nil, ticks)
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	row := untrainedModel(b, 16, mdes.LanguageConfig{WordLen: 4, WordStride: 1, SentenceLen: 13, SentenceStride: 13}).NewRow()
	b.Run("ticks-decode/row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				if !decodePlainRow(line, row) {
					b.Fatalf("plain line %q declined", line)
				}
			}
		}
	})
	b.Run("ticks-decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				var tick map[string]string
				if err := json.Unmarshal(line, &tick); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	sink := wireSink[:0]
	b.Run("ticks-encode/fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = appendTicks(nil, ticks)
		}
	})
	b.Run("ticks-encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var body bytes.Buffer
			enc := json.NewEncoder(&body)
			for _, tick := range ticks {
				if err := enc.Encode(tick); err != nil {
					b.Fatal(err)
				}
			}
			sink = body.Bytes()
		}
	})
	b.Run("point-encode/fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sink, err = appendPoint(sink[:0], &p, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("point-encode/json", func(b *testing.B) {
		b.ReportAllocs()
		var w bytes.Buffer
		enc := json.NewEncoder(&w)
		for i := 0; i < b.N; i++ {
			w.Reset()
			if err := enc.Encode(PointWire(p)); err != nil {
				b.Fatal(err)
			}
		}
	})
	wp := &wirePointSink
	b.Run("point-decode/fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if *wp, err = decodePoint(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("point-decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var v struct {
				WirePoint
				wireError
			}
			if err := json.Unmarshal(line, &v); err != nil {
				b.Fatal(err)
			}
			*wp = v.WirePoint
		}
	})
	wireSink = sink
}

// The benchmarks' results land here, so the compiler cannot drop the calls.
var (
	wireSink      []byte
	wirePointSink WirePoint
)

// TestSensorlessModelStreams: Load accepts a model with no sensors, and its
// streams take ticks, the window being empty.
func TestSensorlessModelStreams(t *testing.T) {
	m := untrainedModel(t, 0, mdes.LanguageConfig{WordLen: 2, WordStride: 1, SentenceLen: 2, SentenceStride: 1})
	st := m.NewStream()
	for i := 0; i < 5; i++ {
		if _, err := st.Push(map[string]string{"x": "y"}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.PushRow(m.NewRow()); err != nil {
			t.Fatal(err)
		}
	}
	if st.Ticks() != 10 {
		t.Fatalf("%d ticks consumed, want 10", st.Ticks())
	}
}

// untrainedModel loads a model of sensors sensors s00, s01, … with no edges
// and no pair models, so it costs no training: sensor i's alphabet is A, B
// and C suffixed with the digit i%5, the events BenchmarkWireCodec sends.
func untrainedModel(tb testing.TB, sensors int, lc mdes.LanguageConfig) *mdes.Model {
	tb.Helper()
	type language struct {
		Sensor   string              `json:"sensor"`
		Alphabet []string            `json:"alphabet"`
		Words    []string            `json:"words"`
		Config   mdes.LanguageConfig `json:"config"`
	}
	cfg := tinyConfig()
	cfg.Language = lc
	langs := make(map[string]language, sensors)
	for i := 0; i < sensors; i++ {
		name := fmt.Sprintf("s%02d", i)
		var alphabet []string
		for c := 'A'; c <= 'C'; c++ {
			alphabet = append(alphabet, fmt.Sprintf("%c%d", c, i%5))
		}
		langs[name] = language{Sensor: name, Alphabet: alphabet, Words: []string{}, Config: lc}
	}
	raw, err := json.Marshal(map[string]any{"config": cfg, "languages": langs, "edges": []any{}, "pairs": map[string]any{}})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := mdes.Load(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
