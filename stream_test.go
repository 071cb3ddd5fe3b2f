package mdes

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"mdes/internal/seqio"
)

// TestStreamMatchesBatchDetection verifies that feeding ticks one at a time
// produces exactly the same anomaly scores as batch Detect, provided the
// sentence windows line up (non-overlapping sentences).
func TestStreamMatchesBatchDetection(t *testing.T) {
	model := trainTiny(t)
	rng := rand.New(rand.NewSource(55))
	ds := coupledDataset(rng, 240)

	batch, err := model.Detect(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}

	stream := model.NewStream()
	var streamed []Point
	for tick := 0; tick < ds.Ticks(); tick++ {
		reading := make(map[string]string, len(ds.Sequences))
		for _, s := range ds.Sequences {
			reading[s.Sensor] = s.Events[tick]
		}
		p, err := stream.Push(reading)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			streamed = append(streamed, *p)
		}
	}

	if len(streamed) != len(batch) {
		t.Fatalf("stream emitted %d points, batch %d", len(streamed), len(batch))
	}
	for i := range batch {
		if math.Abs(streamed[i].Score-batch[i].Score) > 1e-12 {
			t.Fatalf("point %d: stream %.4f vs batch %.4f", i, streamed[i].Score, batch[i].Score)
		}
		if len(streamed[i].Broken) != len(batch[i].Broken) {
			t.Fatalf("point %d: alert counts differ", i)
		}
	}
	if stream.Ticks() != 240 || stream.Emitted() != len(batch) {
		t.Fatalf("stream counters = %d ticks, %d emitted", stream.Ticks(), stream.Emitted())
	}
}

func TestStreamCadence(t *testing.T) {
	model := trainTiny(t)
	stream := model.NewStream()
	// tinyTestConfig: word 4 stride 1, sentence 5 stride 5
	// -> span = 4 + 4*1 = 8 ticks, stride = 5 ticks.
	if stream.SentenceSpan() != 8 {
		t.Fatalf("span = %d, want 8", stream.SentenceSpan())
	}
	emittedAt := []int{}
	for tick := 0; tick < 30; tick++ {
		reading := map[string]string{"a": "ON", "b": "ON", "c": "OFF"}
		p, err := stream.Push(reading)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			emittedAt = append(emittedAt, tick)
		}
	}
	want := []int{7, 12, 17, 22, 27} // first at span, then every stride
	if len(emittedAt) != len(want) {
		t.Fatalf("emissions at %v, want %v", emittedAt, want)
	}
	for i := range want {
		if emittedAt[i] != want[i] {
			t.Fatalf("emissions at %v, want %v", emittedAt, want)
		}
	}
}

func TestStreamErrors(t *testing.T) {
	model := trainTiny(t)
	stream := model.NewStream()
	// Missing modelled sensor.
	if _, err := stream.Push(map[string]string{"a": "ON"}); err == nil {
		t.Fatal("missing sensor accepted")
	}
	// Extra sensors are fine.
	reading := map[string]string{"a": "ON", "b": "ON", "c": "OFF", "extra": "42"}
	if _, err := stream.Push(reading); err != nil {
		t.Fatalf("extra sensor rejected: %v", err)
	}
}

// TestStreamBadTickLeavesStateIntact is the regression test for the Push
// bug where a tick missing one modelled sensor advanced the buffers of
// sensors iterated before the error was noticed: a rejected tick must leave
// the stream state untouched, so a bad tick followed by good ones behaves
// exactly like the good ticks alone.
func TestStreamBadTickLeavesStateIntact(t *testing.T) {
	model := trainTiny(t)
	rng := rand.New(rand.NewSource(57))
	ds := coupledDataset(rng, 120)

	dirty := model.NewStream()
	control := model.NewStream()
	readingAt := func(tick int) map[string]string {
		r := make(map[string]string, len(ds.Sequences))
		for _, s := range ds.Sequences {
			r[s.Sensor] = s.Events[tick]
		}
		return r
	}

	for tick := 0; tick < ds.Ticks(); tick++ {
		// Hammer the dirty stream with invalid ticks; map iteration order is
		// random, so repeating makes it overwhelmingly likely some sensor
		// would have been (wrongly) advanced under the old code.
		if tick == 3 {
			for i := 0; i < 10; i++ {
				bad := readingAt(tick)
				delete(bad, "b")
				if _, err := dirty.Push(bad); err == nil {
					t.Fatal("tick missing a modelled sensor accepted")
				}
			}
			// A rejected tick must not advance state.
			if dirty.Ticks() != control.Ticks() {
				t.Fatalf("bad ticks consumed: %d vs %d", dirty.Ticks(), control.Ticks())
			}
			if !bytes.Equal(dirty.win, control.win) {
				t.Fatalf("window changed by rejected tick: %q vs %q", dirty.win, control.win)
			}
			if fd, fc := min(dirty.ticks, dirty.span), min(control.ticks, control.span); fd != fc {
				t.Fatalf("window fill advanced by rejected tick: %d vs %d", fd, fc)
			}
		}
		r := readingAt(tick)
		pd, errD := dirty.Push(r)
		pc, errC := control.Push(r)
		if errD != nil || errC != nil {
			t.Fatalf("tick %d: %v / %v", tick, errD, errC)
		}
		if (pd == nil) != (pc == nil) {
			t.Fatalf("tick %d: emission mismatch after bad tick", tick)
		}
		if pd != nil && pd.Score != pc.Score {
			t.Fatalf("tick %d: score %v diverged from control %v", tick, pd.Score, pc.Score)
		}
	}
}

// TestStreamDetectsLiveBreak runs a live scenario: normal ticks, then the
// coupling breaks mid-stream and scores must rise.
func TestStreamDetectsLiveBreak(t *testing.T) {
	model := trainTiny(t)
	rng := rand.New(rand.NewSource(56))
	ds := coupledDataset(rng, 300)
	stream := model.NewStream()

	var before, after []float64
	for tick := 0; tick < ds.Ticks(); tick++ {
		reading := make(map[string]string, len(ds.Sequences))
		for _, s := range ds.Sequences {
			reading[s.Sensor] = s.Events[tick]
		}
		if tick >= 150 { // live decoupling of sensor b
			if rng.Float64() < 0.5 {
				reading["b"] = "ON"
			} else {
				reading["b"] = "OFF"
			}
		}
		p, err := stream.Push(reading)
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			continue
		}
		if tick < 150 {
			before = append(before, p.Score)
		} else if tick >= 160 { // give the window time to fill with broken data
			after = append(after, p.Score)
		}
	}
	if len(before) == 0 || len(after) == 0 {
		t.Fatal("missing samples")
	}
	if avg(after) <= avg(before) {
		t.Fatalf("live break not detected: before %.3f, after %.3f", avg(before), avg(after))
	}
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// trainTinyCfg trains a tiny model under a mutated config, for cadence tests
// that need non-default sentence strides.
func trainTinyCfg(t *testing.T, mutate func(*Config)) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	full := coupledDataset(rng, 500)
	train, dev, _, err := full.Split(380, 120)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyTestConfig()
	mutate(&cfg)
	fw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := fw.Train(context.Background(), train, dev)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func pushAll(t *testing.T, stream *Stream, ds *seqio.Dataset, from, to int) []Point {
	t.Helper()
	var out []Point
	for tick := from; tick < to; tick++ {
		reading := make(map[string]string, len(ds.Sequences))
		for _, s := range ds.Sequences {
			reading[s.Sensor] = s.Events[tick]
		}
		p, err := stream.Push(reading)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// TestStreamOverlappingSentenceStride exercises SentenceStride > 1 but below
// SentenceLen: sentences overlap, so emissions come every
// SentenceStride*WordStride ticks and must still match batch Detect exactly.
func TestStreamOverlappingSentenceStride(t *testing.T) {
	model := trainTinyCfg(t, func(c *Config) { c.Language.SentenceStride = 2 })
	rng := rand.New(rand.NewSource(91))
	ds := coupledDataset(rng, 150)

	batch, err := model.Detect(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	stream := model.NewStream()
	// word 4 stride 1, sentence 5 stride 2 -> span 8, stride 2.
	if stream.SentenceSpan() != 8 {
		t.Fatalf("span = %d, want 8", stream.SentenceSpan())
	}
	streamed := pushAll(t, stream, ds, 0, ds.Ticks())

	// Cadence: first point after span ticks, then every 2 ticks.
	wantCount := (ds.Ticks()-8)/2 + 1
	if len(streamed) != wantCount {
		t.Fatalf("emitted %d points over %d ticks, want %d", len(streamed), ds.Ticks(), wantCount)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("stream emitted %d points, batch %d", len(streamed), len(batch))
	}
	for i := range batch {
		if math.Abs(streamed[i].Score-batch[i].Score) > 1e-12 {
			t.Fatalf("point %d: stream %.4f vs batch %.4f", i, streamed[i].Score, batch[i].Score)
		}
	}
}

// TestStreamUnknownEvents feeds events never seen in training: they must map
// to the unknown char (not error) and match batch Detect on the same data.
func TestStreamUnknownEvents(t *testing.T) {
	model := trainTiny(t)
	rng := rand.New(rand.NewSource(92))
	ds := coupledDataset(rng, 120)
	// Corrupt a stretch of sensor a with an event outside the alphabet.
	seqA, _ := ds.Find("a")
	for i := 40; i < 60; i++ {
		seqA.Events[i] = "MELTDOWN"
	}

	batch, err := model.Detect(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	streamed := pushAll(t, model.NewStream(), ds, 0, ds.Ticks())
	if len(streamed) != len(batch) {
		t.Fatalf("stream emitted %d points, batch %d", len(streamed), len(batch))
	}
	for i := range batch {
		if math.Abs(streamed[i].Score-batch[i].Score) > 1e-12 {
			t.Fatalf("point %d: stream %.4f vs batch %.4f", i, streamed[i].Score, batch[i].Score)
		}
	}
}

// TestStreamSnapshotRestore cuts a stream mid-window, round-trips the
// snapshot through JSON, and verifies the restored stream emits exactly the
// points the uninterrupted control emits.
func TestStreamSnapshotRestore(t *testing.T) {
	model := trainTiny(t)
	rng := rand.New(rand.NewSource(93))
	ds := coupledDataset(rng, 160)
	cut := 75 // not aligned with the emission cadence

	control := model.NewStream()
	wantAll := pushAll(t, control, ds, 0, ds.Ticks())

	first := model.NewStream()
	head := pushAll(t, first, ds, 0, cut)
	snap := first.Snapshot()
	// The snapshot must own its windows: keep pushing the original stream and
	// confirm the snapshot is unaffected.
	pushAll(t, first, ds, cut, ds.Ticks())

	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded StreamSnapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := model.RestoreStream(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Ticks() != cut || restored.Emitted() != len(head) {
		t.Fatalf("restored counters: %d ticks %d emitted, want %d and %d",
			restored.Ticks(), restored.Emitted(), cut, len(head))
	}
	tail := pushAll(t, restored, ds, cut, ds.Ticks())

	got := append(append([]Point(nil), head...), tail...)
	if len(got) != len(wantAll) {
		t.Fatalf("restored run emitted %d points, control %d", len(got), len(wantAll))
	}
	for i := range wantAll {
		if got[i].T != wantAll[i].T || math.Abs(got[i].Score-wantAll[i].Score) > 1e-12 {
			t.Fatalf("point %d: restored (t=%d, %.4f) vs control (t=%d, %.4f)",
				i, got[i].T, got[i].Score, wantAll[i].T, wantAll[i].Score)
		}
	}
}

func TestRestoreStreamRejectsBadSnapshots(t *testing.T) {
	model := trainTiny(t)
	stream := model.NewStream()
	pushAll(t, stream, coupledDataset(rand.New(rand.NewSource(94)), 30), 0, 30)
	good := stream.Snapshot()

	mutate := func(f func(*StreamSnapshot)) StreamSnapshot {
		var s StreamSnapshot
		raw, _ := json.Marshal(good)
		json.Unmarshal(raw, &s)
		f(&s)
		return s
	}
	bads := map[string]StreamSnapshot{
		"negative ticks":  mutate(func(s *StreamSnapshot) { s.Ticks = -1 }),
		"missing sensor":  mutate(func(s *StreamSnapshot) { delete(s.Windows, "a") }),
		"foreign sensor":  mutate(func(s *StreamSnapshot) { s.Windows["zz"] = []string{"ON"} }),
		"short window":    mutate(func(s *StreamSnapshot) { s.Windows["a"] = s.Windows["a"][:2] }),
		"emitted too big": mutate(func(s *StreamSnapshot) { s.Emitted = 999 }),
	}
	for name, snap := range bads {
		if _, err := model.RestoreStream(snap); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := model.RestoreStream(good); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
}

// TestStreamPushSteadyStateAllocs pins the hot path: once the window is full,
// a non-emitting Push must not allocate at all, and a full stride cycle may
// allocate only the detection outputs that escape to the caller.
func TestStreamPushSteadyStateAllocs(t *testing.T) {
	model := trainTiny(t)
	stream := model.NewStream()
	// Stub scorer: maximal BLEU everywhere, so no Alert slices are built and
	// the measurement isolates Push's own bookkeeping.
	stream.SetScorer(func(jobs []ScoreJob, row []float64) error {
		for i := range jobs {
			row[i] = 100
		}
		return nil
	})
	reading := map[string]string{"a": "ON", "b": "ON", "c": "OFF"}
	// Reach steady state: window full and first emissions done.
	for i := 0; i < 40; i++ {
		if _, err := stream.Push(reading); err != nil {
			t.Fatal(err)
		}
	}

	if stream.Ticks()%5 != 0 { // keep runs stride-aligned (stride = 5)
		t.Fatalf("alignment broken: %d ticks", stream.Ticks())
	}
	perPush := testing.AllocsPerRun(50, func() {
		// One full stride: 4 silent pushes + 1 emission.
		for i := 0; i < 5; i++ {
			p, err := stream.Push(reading)
			if err != nil {
				t.Fatal(err)
			}
			if i == 2 && p == nil { // ticks≡0 mod 5; emission at (t-8)%5==0 → 3rd push
				t.Fatal("expected an emission in each stride cycle")
			}
		}
	})
	// Two escaping allocations per emitted point (Evaluate's out slice and the
	// returned *Point); everything else is reused scratch.
	if perPush > 2 {
		t.Fatalf("stride cycle allocates %v, want <= 2 (Push hot path regressed)", perPush)
	}

	row := model.NewRow()
	row.Set([]byte("c"), []byte("OFF"))
	row.Set([]byte("a"), []byte("ON"))
	row.Set([]byte("b"), []byte("ON"))
	perPushRow := testing.AllocsPerRun(50, func() {
		for i := 0; i < 5; i++ {
			p, err := stream.PushRow(row)
			if err != nil {
				t.Fatal(err)
			}
			if i == 2 && p == nil {
				t.Fatal("expected an emission in each stride cycle")
			}
		}
	})
	if perPushRow > 2 {
		t.Fatalf("stride cycle of PushRow allocates %v, want <= 2", perPushRow)
	}
}

// TestPushRowMatchesPush holds the row path to the map path on the same
// traffic, rejected ticks included: the same points bit for bit, the same
// error text, and the same window after every push.
func TestPushRowMatchesPush(t *testing.T) {
	model := trainTiny(t)
	ds := snapshotTraffic(true)
	byMap, byRow := model.NewStream(), model.NewStream()
	row := model.NewRow()
	for tick := 0; tick < ds.Ticks(); tick++ {
		reading := map[string]string{"extra": "1"}
		row.Reset()
		row.Set([]byte("extra"), []byte("1"))
		for i := len(ds.Sequences) - 1; i >= 0; i-- { // unsorted on purpose
			s := ds.Sequences[i]
			if tick%17 == 3 && s.Sensor == "b" {
				continue // a rejected tick
			}
			reading[s.Sensor] = s.Events[tick]
			row.Set([]byte(s.Sensor), []byte(s.Events[tick]))
		}
		pm, errM := byMap.Push(reading)
		pr, errR := byRow.PushRow(row)
		if (errM == nil) != (errR == nil) || errM != nil && errM.Error() != errR.Error() {
			t.Fatalf("tick %d: Push error %v, PushRow error %v", tick, errM, errR)
		}
		if (pm == nil) != (pr == nil) {
			t.Fatalf("tick %d: Push point %v, PushRow point %v", tick, pm, pr)
		}
		if pm != nil {
			samePoints(t, "PushRow", []Point{*pr}, []Point{*pm})
		}
		if !bytes.Equal(byMap.win, byRow.win) || byMap.ticks != byRow.ticks {
			t.Fatalf("tick %d: windows diverged: %q vs %q", tick, byMap.win, byRow.win)
		}
	}
	foreign := trainTiny(t).NewRow()
	for _, name := range []string{"a", "b", "c"} {
		foreign.Set([]byte(name), []byte("ON"))
	}
	if _, err := byRow.PushRow(foreign); err == nil {
		t.Fatal("a complete row of another model was accepted")
	}
}
