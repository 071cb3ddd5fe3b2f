package infer

import (
	"fmt"
	"slices"

	"mdes/internal/mat"
	"mdes/internal/nmt"
)

// ScoreBatch scores n sentences against this pair model: out[i] is the
// smoothed sentence BLEU of the greedy translation of srcs[i] against
// refs[i] — batched f(i,j) of Algorithm 2. Sentences of equal source length
// are decoded together through GEMM kernels; because every kernel is
// row-independent, each score is bit-identical to ScoreSentence on the same
// input. Safe for concurrent use.
func (m *Model) ScoreBatch(srcs, refs [][]int, out []float64) {
	if len(refs) != len(srcs) || len(out) != len(srcs) {
		panic(fmt.Sprintf("infer: ScoreBatch length mismatch: %d srcs, %d refs, %d out",
			len(srcs), len(refs), len(out)))
	}
	if len(srcs) == 0 {
		return
	}
	w := m.getWS()
	defer m.putWS(w)
	m.scoreBatch(w, srcs, refs, out)
}

// ScoreSentence scores one sentence (a batch of one).
func (m *Model) ScoreSentence(src, ref []int) float64 {
	w := m.getWS()
	defer m.putWS(w)
	w.src1[0], w.ref1[0] = src, ref
	m.scoreBatch(w, w.src1[:], w.ref1[:], w.out1[:])
	return w.out1[0]
}

// Translate greedily decodes one source sentence through the translation
// cache, returning target token ids (no BOS/EOS) in a fresh slice the caller
// may keep. Frozen engines match the float64 decode up to precision.
func (m *Model) Translate(src []int) []int {
	if len(src) == 0 {
		return nil
	}
	w := m.getWS()
	defer m.putWS(w)
	w.src1[0] = src
	w.hyps = resizeOuterInts(w.hyps, 1)
	group := w.intsBuf(1)
	m.translateGroup(w, w.src1[:], group, w.hyps, w.intsBuf(1))
	return append([]int(nil), w.hyps[0]...)
}

// CachedScore returns the memoised f(i,j) of src against the observed target
// sentence ref, if a scoring call has stored one. It allocates nothing.
func (m *Model) CachedScore(src, ref []int) (float64, bool) { return m.cache.Score(src, ref) }

// scoreBatch is ScoreBatch on a caller-held workspace, and the one site that
// writes the score memo. Sentence pairs the memo already holds are answered
// from it; the rest are translated and scored, and memoised when their
// source was seen before: its translation cached, or decoded once for this
// batch (the second sighting on — see nmt.TransCache.StoreScore).
//
//mdes:noalloc
func (m *Model) scoreBatch(w *ws, srcs, refs [][]int, out []float64) {
	n := len(srcs)
	idx := w.intsBuf(n)[:0]
	for i := range srcs {
		if score, ok := m.cache.Score(srcs[i], refs[i]); ok {
			out[i] = score
		} else {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return
	}
	// Group the misses by source length: each equal-length run decodes as one
	// rectangular GEMM batch. Insertion sort on indices is stable (original
	// order within a run), alloc-free, and cheap at serving batch sizes.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && len(srcs[idx[j-1]]) > len(srcs[idx[j]]); j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	w.hyps = resizeOuterInts(w.hyps, n)
	hyps := w.hyps
	cached := w.intsBuf(n)
	for lo := 0; lo < len(idx); {
		hi := lo + 1
		l := len(srcs[idx[lo]])
		for hi < len(idx) && len(srcs[idx[hi]]) == l {
			hi++
		}
		if l > 0 {
			// Empty sources translate to nothing; their hyps stay nil.
			m.translateGroup(w, srcs, idx[lo:hi], hyps, cached)
		}
		lo = hi
	}
	for _, i := range idx {
		out[i] = w.scorer.Score(refs[i], hyps[i])
		if cached[i] != 0 {
			m.cache.StoreScore(srcs[i], refs[i], out[i])
		}
	}
}

// translateGroup fills hyps[i] for every i in group (all sources the same
// nonzero length), consulting the translation cache around one batched
// decode of the distinct misses, and sets cached[i] where the cache or an
// earlier copy in the group answered. Cached hypotheses are decoded into
// workspace buffers, decoded ones live in the workspace (at F64, on the
// heap); either way they last until reset and are read-only for the caller.
func (m *Model) translateGroup(w *ws, srcs [][]int, group []int, hyps [][]int, cached []int) {
	miss := w.intsBuf(len(group))[:0]
	reps := w.intsBuf(2 * len(group))[:0] // (repeat, first copy) pairs
	// buf is the next hit's buffer: a miss leaves it for the next probe.
	var buf []int
scan:
	for _, i := range group {
		if buf == nil {
			buf = w.intsBuf(m.cfg.MaxDecodeLen)
		}
		if hyp, ok := m.cache.Lookup(srcs[i], buf); ok {
			hyps[i], cached[i] = hyp, 1
			buf = nil
			continue
		}
		for _, j := range miss {
			if slices.Equal(srcs[i], srcs[j]) {
				reps = append(reps, i, j)
				continue scan
			}
		}
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return
	}
	if m.f64 != nil {
		for _, i := range miss {
			hyps[i] = m.f64.Decode(srcs[i])
		}
	} else {
		m.decodeGroup(w, srcs, miss, hyps)
	}
	for _, i := range miss {
		m.cache.Store(srcs[i], hyps[i])
	}
	for k := 0; k < len(reps); k += 2 {
		hyps[reps[k]], cached[reps[k]] = hyps[reps[k+1]], 1
	}
}

// decodeGroup greedily decodes a batch of equal-length sources in lockstep:
// one GEMM per weight per step instead of one GEMV per sentence per step.
// Output row b of every kernel depends only on input row b, so each
// hypothesis is exactly what a batch of one would produce.
//
//mdes:noalloc
func (m *Model) decodeGroup(w *ws, srcs [][]int, group []int, hyps [][]int) {
	bN := len(group)
	sN := len(srcs[group[0]])
	h, layers := m.cfg.Hidden, m.cfg.Layers
	maxLen := m.cfg.MaxDecodeLen

	x := w.matrix(bN, m.cfg.Embed) // input embeddings of a stack without a table
	g := w.matrix(bN, 4*h)         // packed LSTM gate activations
	w.states(layers, bN, h)

	// Encoder: top-layer hidden per (sentence, source position), laid out so
	// sentence b's positions are the contiguous rows [b*sN, (b+1)*sN).
	encTop := w.matrix(bN*sN, h)
	ids := w.intsBuf(bN)
	for s := 0; s < sN; s++ {
		for b, i := range group {
			ids[b] = srcs[i][s]
		}
		m.stepStack(w, &m.enc, ids, x, g)
		top := w.hs[layers-1]
		for b := 0; b < bN; b++ {
			copy(encTop.Row(b*sN+s), top.Row(b))
		}
	}

	// Attention scores h·(Wa·ē_s); Wa·ē_s is decode-invariant, so project the
	// whole encoding once.
	waEnc := w.matrix(bN*sN, h)
	m.mulInto(w, waEnc, encTop, &m.wa, false)

	// The decoder starts from the encoder's final state and the encoder never
	// steps again, so w.hs/w.cs carry over in place.
	scores := w.matrix(bN, sN)
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
		// Finished rows keep stepping with their last token so the batch
		// stays rectangular; their outputs are ignored below.
		m.stepStack(w, &m.dec, tok, x, g)
		hTop := w.hs[layers-1]

		for b := 0; b < bN; b++ {
			// Attention scores against every source position: one MulVec
			// over the sentence's rows of Wa·ē, whose row blocks add each
			// score's terms in Dot32's order.
			sc := scores.Row(b)
			keys := mat.Matrix32{Rows: sN, Cols: h, Data: waEnc.Data[b*sN*h : (b+1)*sN*h]}
			keys.MulVec(sc, hTop.Row(b))
			mat.Softmax32(sc, sc)

			// Context Σ_s a_s·ē_s into the first half of the combine input,
			// each element's terms added in s order from zero — Axpy32's
			// per-position accumulation, fused into one loop.
			cc := cat.Row(b)
			ctx := cc[:h]
			clear(ctx)
			for s, a := range sc {
				for j, v := range encTop.Data[(b*sN+s)*h : (b*sN+s+1)*h] {
					ctx[j] += a * v
				}
			}
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
			// Never emit BOS; treat it as masked out.
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

// stepStack advances a stacked LSTM one step for the whole batch, row b
// reading token ids[b]: for each layer, gates = in·Wxᵀ + hPrev·Whᵀ + b
// through SigTanhGates, then the cell and hidden state matrices in w.hs/w.cs
// update in place. Layer 0's in·Wxᵀ is a copied row of the stack's input
// table when it has one, else the embedding rows (staged in x) times Wx.
//
//mdes:noalloc
func (m *Model) stepStack(w *ws, st *stack, ids []int, x, g *mat.Matrix32) {
	for l := range st.cells {
		c := &st.cells[l]
		h := c.hid
		switch {
		case l > 0:
			m.mulInto(w, g, w.hs[l-1], &c.wx, false)
		case st.in0 != nil:
			for b, tok := range ids {
				copy(g.Row(b), st.in0.Row(st.clamp(tok)))
			}
		default:
			for b, tok := range ids {
				copy(x.Row(b), st.emb.Row(st.clamp(tok)))
			}
			m.mulInto(w, g, x, &c.wx, false)
		}
		m.mulInto(w, g, w.hs[l], &c.wh, true)
		hl, cl := w.hs[l], w.cs[l]
		for b := 0; b < g.Rows; b++ {
			gr := g.Row(b)
			mat.Add32(c.b, gr)
			mat.SigTanhGates32(gr, h)
			cr, hr := cl.Row(b), hl.Row(b)
			for j := 0; j < h; j++ {
				// C = f·C_prev + i·g̃ ; H = o·tanh(C), gates packed i|f|g̃|o.
				cj := gr[h+j]*cr[j] + gr[j]*gr[2*h+j]
				cr[j] = cj
				hr[j] = cj
			}
			mat.Tanh32(hr)
			for j := 0; j < h; j++ {
				hr[j] *= gr[3*h+j]
			}
		}
	}
}
