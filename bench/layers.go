package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mdes"
	"mdes/internal/bleu"
	"mdes/internal/checkpoint"
	"mdes/internal/cluster"
	"mdes/internal/infer"
	"mdes/internal/lang"
	"mdes/internal/mat"
	"mdes/internal/nmt"
	"mdes/internal/pairmine"
)

// sink keeps measured calls' results alive so the compiler cannot drop them.
var sink float64

// timeEach returns the nanoseconds one call of fn takes: n calls are timed in
// five equal batches and the fastest batch counts, since whatever else the
// host was doing can only have slowed a batch down.
func timeEach(n int, fn func(i int)) float64 {
	per := n/5 + 1
	best := 0.0
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := b * per; i < (b+1)*per; i++ {
			fn(i)
		}
		if took := float64(time.Since(start)) / float64(per); b == 0 || took < best {
			best = took
		}
	}
	return best
}

// timeOnce returns the milliseconds one call of fn takes.
func timeOnce(fn func()) float64 {
	start := time.Now()
	fn()
	return ms(time.Since(start))
}

// pairSample is one trained pair lifted out of the model's wire format, with
// encoded test sentences to score: the unit every per-layer scoring
// measurement runs on.
type pairSample struct {
	state    nmt.State
	src, ref [][]int
}

// samplePair decodes the saved model for the state of its first pair (in key
// order) and encodes that pair's test sentences with languages rebuilt from
// the training split, exactly as training built them.
func samplePair(saved []byte, p *plant, cfg mdes.Config) (*pairSample, error) {
	var wire struct {
		Pairs map[string]nmt.State `json:"pairs"`
	}
	if err := json.Unmarshal(saved, &wire); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(wire.Pairs))
	for k := range wire.Pairs {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("saved model holds no pairs")
	}
	sort.Strings(keys)
	names := bytes.SplitN([]byte(keys[0]), []byte{0x1f}, 2)
	if len(names) != 2 {
		return nil, fmt.Errorf("malformed pair key %q", keys[0])
	}
	ps := &pairSample{state: wire.Pairs[keys[0]]}
	for i, name := range names {
		trainSeq, ok := p.train.Find(string(name))
		if !ok {
			return nil, fmt.Errorf("sensor %q missing from the training split", name)
		}
		l, err := lang.Build(trainSeq, cfg.Language)
		if err != nil {
			return nil, err
		}
		testSeq, _ := p.test.Find(string(name))
		sents, err := l.SentencesFor(testSeq)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			ps.src = sents
		} else {
			ps.ref = sents
		}
	}
	return ps, nil
}

// layerSuite times each layer's public functions at the bench model's shapes.
// It is the same on every workload: these numbers describe the code, not the
// traffic.
func layerSuite(ctx context.Context, model *mdes.Model, p *plant, sz sizes, tmpRoot string, out map[string]float64) error {
	cfg := model.Config()
	n := sz.microIters

	// model IO: save, load, quantize.
	f64 := model
	if model.ScorePrecision() != mdes.PrecisionF64 {
		c, err := cloneModel(model)
		if err != nil {
			return err
		}
		if err := c.Quantize(mdes.PrecisionF64); err != nil {
			return err
		}
		f64 = c
	}
	var saved bytes.Buffer
	if err := f64.Save(&saved); err != nil {
		return err
	}
	out["model.save_bytes"] = float64(saved.Len())
	savedBytes := append([]byte(nil), saved.Bytes()...)
	var loaded *mdes.Model
	var err error
	out["model.load_ms"] = timeOnce(func() { loaded, err = mdes.Load(&saved) })
	if err != nil {
		return err
	}
	out["model.quantize_ms"] = timeOnce(func() { err = loaded.Quantize(mdes.PrecisionF32) })
	if err != nil {
		return err
	}
	out["infer.model_bytes_f32"] = float64(loaded.PairModelBytes())
	if err := loaded.Quantize(mdes.PrecisionInt8); err != nil {
		return err
	}
	out["infer.model_bytes_int8"] = float64(loaded.PairModelBytes())

	// nmt / infer: one pair's scoring cost with the translation cache off, so
	// every call decodes.
	ps, err := samplePair(savedBytes, p, cfg)
	if err != nil {
		return err
	}
	ns := len(ps.src)
	m64, err := nmt.LoadModel(ps.state)
	if err != nil {
		return err
	}
	m64.SetTranslationCaching(false)
	out["nmt.score_us_per_sentence"] = timeEach(n/4+1, func(i int) {
		sink += nmt.ScoreSentence(m64, ps.src[i%ns], ps.ref[i%ns])
	}) / 1e3
	const batch = 32
	srcB, refB, outB := make([][]int, batch), make([][]int, batch), make([]float64, batch)
	for i := range srcB {
		srcB[i], refB[i] = ps.src[i%ns], ps.ref[i%ns]
	}
	for _, pc := range []struct {
		prec infer.Precision
		one  string
		many string
	}{
		{infer.F32, "infer.f32.batch1_us_per_sentence", "infer.f32.batch32_us_per_sentence"},
		{infer.Int8, "", "infer.int8.batch32_us_per_sentence"},
	} {
		im, err := infer.FromState(ps.state, pc.prec)
		if err != nil {
			return err
		}
		im.SetTranslationCaching(false)
		if pc.one != "" {
			out[pc.one] = timeEach(n, func(i int) {
				sink += im.ScoreSentence(ps.src[i%ns], ps.ref[i%ns])
			}) / 1e3
		}
		out[pc.many] = timeEach(n/batch+1, func(int) {
			im.ScoreBatch(srcB, refB, outB)
			sink += outB[0]
		}) / 1e3 / batch
	}

	// Operation and byte counts per decoded sentence, computed from the
	// tensor shapes (not measured): one encoder step per source token, one
	// decoder step per target token plus EOS, general attention over the
	// source, the combine projection and the output projection.
	nc := ps.state.Config
	e, h, v := float64(nc.Embed), float64(nc.Hidden), float64(nc.TgtVocab)
	srcLen, steps := float64(sentenceLen), float64(sentenceLen+1)
	lstm := 0.0
	for l := 0; l < nc.Layers; l++ {
		in := h
		if l == 0 {
			in = e
		}
		lstm += 4 * h * (in + h)
	}
	attn := h*h + 2*srcLen*h + 2*h*h // scores via Wa, context, combine
	out["infer.decode_macs_per_sentence"] = srcLen*lstm + steps*(lstm+attn+v*h)
	out["infer.weight_bytes_per_sentence"] = 4 * (srcLen*lstm + steps*(lstm+3*h*h+v*h))

	// mat: the gate GEMM at the model's shapes (4H×H weights, batch 32).
	rng := rand.New(rand.NewSource(1))
	hh, g := nc.Hidden, 4*nc.Hidden
	w64 := mat.New(g, hh)
	w64.UniformFill(rng, 1)
	x64, y64 := make([]float64, hh), make([]float64, g)
	for i := range x64 {
		x64[i] = rng.Float64()
	}
	d := timeEach(n*20, func(int) { w64.MulVec(y64, x64) })
	out["mat.f64.mulvec_gflops"] = 2 * float64(g*hh) / d
	wT := mat.New(hh, g)
	wT.UniformFill(rng, 1)
	a64 := mat.New(batch, hh)
	a64.UniformFill(rng, 1)
	w32, a32, d32 := wT.To32(), a64.To32(), mat.NewMatrix32(batch, g)
	d = timeEach(n, func(int) { a32.MulMat(d32, w32) })
	out["mat.f32.mulmat_gflops"] = 2 * float64(batch*g*hh) / d
	q8 := mat.QuantizeQ8(w64)
	aq, scales := make([]int8, batch*hh), make([]float32, batch)
	for i := 0; i < batch; i++ {
		scales[i] = mat.QuantizeVec8(aq[i*hh:(i+1)*hh], a32.Row(i))
	}
	d = timeEach(n, func(int) { q8.MulMatQ8(d32, aq, scales) })
	out["mat.q8.mulmat_gops"] = 2 * float64(batch*g*hh) / d
	sink += y64[0] + float64(d32.At(0, 0))
	out["mat.simd_enabled"] = 0
	if mat.SIMDEnabled() {
		out["mat.simd_enabled"] = 1
	}

	// bleu: one smoothed sentence score, reference against a shifted copy.
	scorer := bleu.NewScorer()
	out["bleu.sentence_ns"] = timeEach(n*5, func(i int) {
		sink += scorer.SentenceIDs(ps.ref[i%ns], ps.src[(i+1)%ns], bleu.MaxOrder, bleu.SmoothAddOne)
	})

	// lang + pairmine: language building and the candidate screen over the
	// training split.
	sensors := make([]pairmine.Sensor, 0, len(p.train.Sequences))
	filtered, _ := p.train.FilterConstant()
	out["lang.build_ms"] = timeOnce(func() {
		for _, seq := range filtered.Sequences {
			var l *lang.Language
			if l, err = lang.Build(seq, cfg.Language); err != nil {
				return
			}
			if _, err = l.SentencesFor(seq); err != nil {
				return
			}
			sensors = append(sensors, pairmine.Sensor{Name: seq.Sensor, Chars: lang.Encrypt(seq.Events, l.Alphabet)})
		}
	})
	if err != nil {
		return err
	}
	var res *pairmine.Result
	out["pairmine.screen_ms"] = timeOnce(func() { res, err = pairmine.Screen(ctx, sensors, cfg.Screen, 0) })
	if err != nil {
		return err
	}
	out["pairmine.pairs_scored_per_s"] = float64(len(res.Ranked)) / (out["pairmine.screen_ms"] / 1e3)
	out["pairmine.selected_share"] = float64(len(res.Selected)) / float64(len(res.Ranked))

	// checkpoint: durable journal appends of a real pair record, and the bare
	// CRC framing on a snapshot-sized payload.
	jdir, err := os.MkdirTemp(tmpRoot, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(jdir)
	j, err := checkpoint.Open(filepath.Join(jdir, "train.journal"))
	if err != nil {
		return err
	}
	rec := checkpoint.PairRecord{Src: "a", Tgt: "b", BLEU: 50, State: ps.state}
	appends := n/50 + 2
	var appendErr error
	d = timeEach(appends, func(int) {
		if err := j.Append(rec); err != nil {
			appendErr = err
		}
	})
	if err := j.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	if appendErr != nil {
		return appendErr
	}
	out["checkpoint.journal_append_us"] = d / 1e3

	// stream + cluster: the state a handoff or a snapshot moves.
	stream := model.NewStream()
	ticks := newTickMaps(1, len(p.test.Sequences))
	for t := 0; t < spanTicks+3; t++ {
		for _, seq := range p.test.Sequences {
			ticks[0][seq.Sensor] = seq.Events[t]
		}
		if _, err := stream.Push(ticks[0]); err != nil {
			return err
		}
	}
	var snap mdes.StreamSnapshot
	out["stream.snapshot_us"] = timeEach(n, func(int) { snap = stream.Snapshot() }) / 1e3
	var restoreErr error
	out["stream.restore_us"] = timeEach(n, func(int) {
		if _, err := model.RestoreStream(snap); err != nil {
			restoreErr = err
		}
	}) / 1e3
	if restoreErr != nil {
		return restoreErr
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	var frame []byte
	out["checkpoint.frame_ns"] = timeEach(n*5, func(int) {
		frame = checkpoint.AppendFrame(frame[:0], payload)
		got, _, _ := checkpoint.Frames(frame)
		sink += float64(len(got))
	})
	ho := cluster.Handoff{Tenant: "t00", Model: modelName, Ticks: snap.Ticks, From: "http://127.0.0.1:1", Payload: payload}
	var enc []byte
	var hoErr error
	out["cluster.handoff_encode_us"] = timeEach(n, func(int) {
		if enc, err = cluster.EncodeHandoff(ho); err != nil {
			hoErr = err
		}
	}) / 1e3
	out["cluster.handoff_bytes"] = float64(len(enc))
	out["cluster.handoff_decode_us"] = timeEach(n, func(int) {
		if _, err := cluster.DecodeHandoff(enc); err != nil {
			hoErr = err
		}
	}) / 1e3
	if hoErr != nil {
		return hoErr
	}
	peers := []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}
	ring, err := cluster.NewRing(peers, 0)
	if err != nil {
		return err
	}
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
	}
	out["cluster.ring_owner_ns"] = timeEach(n*20, func(i int) {
		sink += float64(len(ring.Owner(names[i%len(names)])))
	})
	q := &cluster.ReplQueue{
		Ship: func(context.Context, string, cluster.Handoff) error { return nil },
		Now:  time.Now,
	}
	q.Start(peers, peers[0])
	out["cluster.repl_offer_ns"] = timeEach(n*5, func(i int) {
		ho.Tenant = names[i%len(names)]
		q.Offer(peers[1+i%2], ho)
	})
	q.Stop()
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
