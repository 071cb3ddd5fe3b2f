package mdes

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestStreamMatchesDetectAcrossConfigs holds the online stream to batch
// Detect, bit for bit, over seeded language configurations — word lengths
// 1–5, word strides 1–3 (also above the word length, where words skip
// chars), sentence lengths 2–6 and every sentence stride up to the sentence
// length — on test data with events outside the training alphabets. Each
// stream is also snapshotted mid-way and restored, and the restored stream
// must emit exactly the rest of Detect's points.
func TestStreamMatchesDetectAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	configs := []LanguageConfig{{WordLen: 1, WordStride: 3, SentenceLen: 3, SentenceStride: 2}}
	for len(configs) < 10 {
		sl := 2 + rng.Intn(5)
		configs = append(configs, LanguageConfig{
			WordLen:        1 + rng.Intn(5),
			WordStride:     1 + rng.Intn(3),
			SentenceLen:    sl,
			SentenceStride: 1 + rng.Intn(sl),
		})
	}
	for _, lc := range configs {
		t.Run(fmt.Sprintf("w%d.%d-s%d.%d", lc.WordLen, lc.WordStride, lc.SentenceLen, lc.SentenceStride), func(t *testing.T) {
			model := trainTinyCfg(t, func(c *Config) {
				c.Language = lc
				c.NMT.TrainSteps = 30
				c.ValidRange = Range{Lo: 0, Hi: 100}
			})
			ds := coupledDataset(rng, 160)
			a, _ := ds.Find("a")
			c, _ := ds.Find("c")
			for i := 50; i < 70; i++ {
				a.Events[i] = "MELTDOWN"
				c.Events[i+20] = "?" // the unknown char's own spelling
			}
			batch, err := model.Detect(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != lc.NumSentences(ds.Ticks()) || len(batch) == 0 || batch[0].Valid == 0 {
				t.Fatalf("Detect gave %d points over %d ticks (NumSentences %d), valid relationships %d",
					len(batch), ds.Ticks(), lc.NumSentences(ds.Ticks()), batch[0].Valid)
			}
			samePoints := func(what string, got, want []Point) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d points, Detect %d", what, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) || !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%s: point %d = %+v, Detect %+v", what, i, got[i], want[i])
					}
				}
			}

			stream := model.NewStream()
			if stream.SentenceSpan() != lc.Span() {
				t.Fatalf("span = %d, want %d", stream.SentenceSpan(), lc.Span())
			}
			cut := lc.Span() + rng.Intn(ds.Ticks()-lc.Span())
			head := pushAll(t, stream, ds, 0, cut)
			samePoints("stream before the cut", head, batch[:lc.NumSentences(cut)])

			raw, err := json.Marshal(stream.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var snap StreamSnapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			restored, err := model.RestoreStream(snap)
			if err != nil {
				t.Fatal(err)
			}
			samePoints("restored stream", pushAll(t, restored, ds, cut, ds.Ticks()), batch[lc.NumSentences(cut):])
			samePoints("uncut stream", append(head, pushAll(t, stream, ds, cut, ds.Ticks())...), batch)
		})
	}
}
