package infer

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mdes/internal/mat"
	"mdes/internal/nmt"
)

// refInput is what a stack's input table replaces — its embedding and its
// layer-0 Wx — frozen again from the state for the reference decode.
type refInput struct {
	emb *mat.Matrix32
	wx  weight
}

func refInputs(st nmt.State, prec Precision) (enc, dec refInput) {
	cfg := st.Config
	f := freezer{weights: st.Weights, prec: prec}
	enc = refInput{f.f32Mat("src_emb", cfg.SrcVocab, cfg.Embed), f.gemm("enc.l0.Wx", 4*cfg.Hidden, cfg.Embed)}
	dec = refInput{f.f32Mat("tgt_emb", cfg.TgtVocab, cfg.Embed), f.gemm("dec.l0.Wx", 4*cfg.Hidden, cfg.Embed)}
	return enc, dec
}

// refDecodeGroup is decodeGroup without input tables or attention kernels:
// every step copies embedding rows and runs the layer-0 Wx GEMM, attention
// scores are one Dot32 per source position and the context one Axpy32 per
// source position. The engine's decode must match it bit for bit.
func (m *Model) refDecodeGroup(w *ws, encIn, decIn *refInput, srcs [][]int, group []int, hyps [][]int) {
	bN := len(group)
	sN := len(srcs[group[0]])
	h, layers := m.cfg.Hidden, m.cfg.Layers
	maxLen := m.cfg.MaxDecodeLen

	x := w.matrix(bN, m.cfg.Embed)
	g := w.matrix(bN, 4*h)
	w.states(layers, bN, h)

	encTop := w.matrix(bN*sN, h)
	for s := 0; s < sN; s++ {
		for b, i := range group {
			copy(x.Row(b), encIn.emb.Row(m.enc.clamp(srcs[i][s])))
		}
		m.refStepStack(w, x, m.enc.cells, &encIn.wx, g)
		top := w.hs[layers-1]
		for b := 0; b < bN; b++ {
			copy(encTop.Row(b*sN+s), top.Row(b))
		}
	}

	waEnc := w.matrix(bN*sN, h)
	m.mulInto(w, waEnc, encTop, &m.wa, false)

	scores := w.matrix(bN, sN)
	ctx := w.matrix(bN, h)
	cat := w.matrix(bN, 2*h)
	htl := w.matrix(bN, h)
	logits := w.matrix(bN, m.cfg.TgtVocab)

	tok := w.intsBuf(bN)
	done := w.intsBuf(bN)
	lens := w.intsBuf(bN)
	outTok := w.intsBuf(bN * maxLen)
	for b := range tok {
		tok[b] = nmt.BosID
	}
	remaining := bN
	for t := 0; t < maxLen && remaining > 0; t++ {
		for b := range tok {
			copy(x.Row(b), decIn.emb.Row(m.dec.clamp(tok[b])))
		}
		m.refStepStack(w, x, m.dec.cells, &decIn.wx, g)
		hTop := w.hs[layers-1]

		for b := 0; b < bN; b++ {
			hb := hTop.Row(b)
			sc := scores.Row(b)
			for s := 0; s < sN; s++ {
				sc[s] = mat.Dot32(hb, waEnc.Row(b*sN+s))
			}
		}

		for b := 0; b < bN; b++ {
			sc := scores.Row(b)
			mat.Softmax32(sc, sc)
			cr := ctx.Row(b)
			for j := range cr {
				cr[j] = 0
			}
			for s := 0; s < sN; s++ {
				mat.Axpy32(sc[s], encTop.Row(b*sN+s), cr)
			}
			cc := cat.Row(b)
			copy(cc[:h], cr)
			copy(cc[h:], hTop.Row(b))
		}
		m.mulInto(w, htl, cat, &m.wc, false)
		for b := 0; b < bN; b++ {
			mat.Add32(m.wcB, htl.Row(b))
		}
		mat.Tanh32(htl.Data)
		m.mulInto(w, logits, htl, &m.outW, false)

		for b := 0; b < bN; b++ {
			if done[b] != 0 {
				continue
			}
			lr := logits.Row(b)
			mat.Add32(m.outB, lr)
			lr[nmt.BosID] = negInf32
			nt := mat.ArgMax32(lr)
			if nt == nmt.EosID {
				done[b] = 1
				remaining--
				continue
			}
			outTok[b*maxLen+lens[b]] = nt
			lens[b]++
			tok[b] = nt
		}
	}
	for b, i := range group {
		hyps[i] = outTok[b*maxLen : b*maxLen+lens[b]]
	}
}

// refStepStack is stepStack with layer 0 always a GEMM of the staged
// embeddings x against wx0.
func (m *Model) refStepStack(w *ws, x *mat.Matrix32, cells []cell, wx0 *weight, g *mat.Matrix32) {
	in := x
	for l := range cells {
		c := &cells[l]
		h := c.hid
		wx := &c.wx
		if l == 0 {
			wx = wx0
		}
		m.mulInto(w, g, in, wx, false)
		m.mulInto(w, g, w.hs[l], &c.wh, true)
		hl, cl := w.hs[l], w.cs[l]
		for b := 0; b < g.Rows; b++ {
			gr := g.Row(b)
			mat.Add32(c.b, gr)
			mat.SigTanhGates32(gr, h)
			cr, hr := cl.Row(b), hl.Row(b)
			for j := 0; j < h; j++ {
				cj := gr[h+j]*cr[j] + gr[j]*gr[2*h+j]
				cr[j] = cj
				hr[j] = cj
			}
			mat.Tanh32(hr)
			for j := 0; j < h; j++ {
				hr[j] *= gr[3*h+j]
			}
		}
		in = hl
	}
}

// TestDecodeMatchesReference pins the decode's bit-identity to the
// per-step reference: frozen input tables in place of the embedding copy and
// layer-0 GEMM, and the attention kernels in place of per-position Dot32 and
// Axpy32, change no hypothesis and no score — at f32 and int8, with 1 and 2
// layers, with tables on neither, either or both stacks, at batch sizes 1, 7
// and 64 with ragged source lengths, on the SIMD kernels and the portable
// loops. The model is frozen under the kernels it decodes with.
func TestDecodeMatchesReference(t *testing.T) {
	shapes := []struct {
		src, tgt, embed, hidden int
		tables                  map[Precision][2]bool // enc, dec
	}{
		// E = h = 8: f32 tables up to V = 10, int8 up to V = 4.
		{9, 14, 8, 8, map[Precision][2]bool{F32: {true, false}, Int8: {false, false}}},
		{14, 10, 8, 8, map[Precision][2]bool{F32: {false, true}, Int8: {false, false}}},
		// E = 20, h = 4: the table is always smaller.
		{12, 12, 20, 4, map[Precision][2]bool{F32: {true, true}, Int8: {true, true}}},
	}
	prev := mat.SetSIMD(true)
	defer mat.SetSIMD(prev)
	for _, simd := range []bool{true, false} {
		mat.SetSIMD(simd)
		for _, sh := range shapes {
			for _, layers := range []int{1, 2} {
				cfg := nmt.Config{
					SrcVocab: sh.src, TgtVocab: sh.tgt,
					Embed: sh.embed, Hidden: sh.hidden, Layers: layers,
					LearningRate: 1e-3, ClipNorm: 5, TrainSteps: 1, BatchSize: 1, MaxDecodeLen: 10,
				}
				nm, err := nmt.NewModel(cfg, int64(7*layers+sh.src))
				if err != nil {
					t.Fatal(err)
				}
				st := nm.State()
				for _, prec := range []Precision{F32, Int8} {
					name := fmt.Sprintf("simd=%v/V=%d,%d/E=%d/h=%d/layers=%d/%v", simd, sh.src, sh.tgt, sh.embed, sh.hidden, layers, prec)
					m, err := FromState(st, prec)
					if err != nil {
						t.Fatal(err)
					}
					if got := [2]bool{m.enc.in0 != nil, m.dec.in0 != nil}; got != sh.tables[prec] {
						t.Fatalf("%s: tables (enc, dec) = %v, want %v", name, got, sh.tables[prec])
					}
					m.SetTranslationCaching(false)
					encIn, decIn := refInputs(st, prec)
					rng := rand.New(rand.NewSource(int64(layers)))
					for _, n := range []int{1, 7, 64} {
						srcs := randSentences(rng, n, 9, sh.src+2) // ragged; ids past the vocabulary clamp to <unk>
						refs := randSentences(rng, n, 9, sh.tgt)
						checkDecode(t, fmt.Sprintf("%s/batch=%d", name, n), m, &encIn, &decIn, srcs, refs)
					}
				}
			}
		}
	}
}

// checkDecode decodes srcs grouped by source length with both decodes, and
// scores them through ScoreBatch, requiring equal hypotheses and
// bit-identical scores.
func checkDecode(t *testing.T, name string, m *Model, encIn, decIn *refInput, srcs, refs [][]int) {
	t.Helper()
	got := make([]float64, len(srcs))
	m.ScoreBatch(srcs, refs, got)
	w, rw := m.getWS(), m.getWS()
	defer m.putWS(w)
	defer m.putWS(rw)
	hyps, refHyps := make([][]int, len(srcs)), make([][]int, len(srcs))
	for l := 1; l <= 9; l++ {
		var group []int
		for i, s := range srcs {
			if len(s) == l {
				group = append(group, i)
			}
		}
		if len(group) == 0 {
			continue
		}
		m.decodeGroup(w, srcs, group, hyps)
		m.refDecodeGroup(rw, encIn, decIn, srcs, group, refHyps)
		// A low-order bit rarely flips an argmax, so compare the floats
		// too: both decodes hand out the combine input, its projection and
		// the logits as their last three matrices, which leaves the final
		// step's in the workspace, beside every layer's final state.
		for k := 1; k <= 3; k++ {
			sameBits(t, fmt.Sprintf("%s: length %d: final-step matrix -%d", name, l, k), w.mats[w.matN-k], rw.mats[rw.matN-k])
		}
		for layer := range w.hs {
			sameBits(t, name+": final h", w.hs[layer], rw.hs[layer])
			sameBits(t, name+": final c", w.cs[layer], rw.cs[layer])
		}
	}
	sc := nmt.NewSentenceScorer()
	for i := range srcs {
		if !slices.Equal(hyps[i], refHyps[i]) {
			t.Fatalf("%s: sentence %d (%v): hypothesis %v, reference %v", name, i, srcs[i], hyps[i], refHyps[i])
		}
		if want := sc.Score(refs[i], refHyps[i]); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: sentence %d: score %v, reference %v", name, i, got[i], want)
		}
	}
}

func sameBits(t *testing.T, what string, got, want *mat.Matrix32) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, reference %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %v, reference %v", what, i, v, want.Data[i])
		}
	}
}

// TestInputTablesNeverGrowMemory pins the table rule's promise: over a grid
// of shapes on both sides of the break-even, every frozen model's
// MemoryBytes is at most what it was with the embeddings and every Wx kept
// (all weights float32, GEMM weights int8 plus a float32 scale per row at
// Int8) — and the break-evens the docs quote hold: V ≤ 21 at f32 with
// E = h = 16 (the bench shape), V ≤ 85 at E = h = 64 (PaperConfig).
func TestInputTablesNeverGrowMemory(t *testing.T) {
	type shape struct{ embed, hidden, src, tgt int }
	var grid []shape
	vocabs := []int{3, 4, 5, 10, 11, 21, 22, 40, 85, 86}
	for _, eh := range [][2]int{{8, 8}, {16, 16}, {20, 4}, {4, 20}, {64, 64}} {
		for i, v := range vocabs {
			grid = append(grid, shape{eh[0], eh[1], v, vocabs[len(vocabs)-1-i]})
		}
	}
	for _, sh := range grid {
		for _, layers := range []int{1, 2} {
			cfg := nmt.Config{
				SrcVocab: sh.src, TgtVocab: sh.tgt, Embed: sh.embed, Hidden: sh.hidden, Layers: layers,
				LearningRate: 1e-3, ClipNorm: 5, TrainSteps: 1, BatchSize: 1, MaxDecodeLen: 4,
			}
			nm, err := nmt.NewModel(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			st := nm.State()
			for _, prec := range []Precision{F32, Int8} {
				m, err := FromState(st, prec)
				if err != nil {
					t.Fatal(err)
				}
				if got, kept := m.MemoryBytes(), untabulatedBytes(cfg, st, prec); got > kept {
					t.Errorf("%+v layers=%d %v: MemoryBytes %d > %d without tables", sh, layers, prec, got, kept)
				}
				if prec != F32 || sh.embed != sh.hidden {
					continue
				}
				breakEven := map[int]int{16: 21, 64: 85}[sh.hidden]
				if breakEven == 0 {
					continue
				}
				for _, s := range []struct {
					v     int
					table bool
				}{{sh.src, m.enc.in0 != nil}, {sh.tgt, m.dec.in0 != nil}} {
					if want := s.v <= breakEven; s.table != want {
						t.Errorf("%+v layers=%d: V=%d table %v, want %v (break-even V ≤ %d)", sh, layers, s.v, s.table, want, breakEven)
					}
				}
			}
		}
	}
}

// untabulatedBytes is MemoryBytes as counted before input tables: every
// weight of the state float32, except that at Int8 the GEMM weights are one
// byte per element plus a float32 scale per output row.
func untabulatedBytes(cfg nmt.Config, st nmt.State, prec Precision) int {
	h := cfg.Hidden
	gemmRows := map[string]int{"attn.Wa": h, "attn.Wc.W": h, "out.W": cfg.TgtVocab}
	for _, s := range []string{"enc", "dec"} {
		for l := 0; l < cfg.Layers; l++ {
			gemmRows[fmt.Sprintf("%s.l%d.Wx", s, l)] = 4 * h
			gemmRows[fmt.Sprintf("%s.l%d.Wh", s, l)] = 4 * h
		}
	}
	total := 0
	for name, w := range st.Weights {
		rows, gemm := gemmRows[name]
		if prec == Int8 && gemm {
			total += len(w) + 4*rows
		} else {
			total += 4 * len(w)
		}
	}
	return total
}
