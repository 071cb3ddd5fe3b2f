package bleu

// Scorer computes BLEU over integer token sequences without maps or strings:
// n-gram matches are counted on bitsets of reference positions, in scratch
// that survives between calls (grown, never shrunk), so steady-state scoring
// allocates nothing. This is the counter behind Scorer.SentenceIDs — the
// sentence BLEU both scoring engines run per decoded sentence — and behind
// CorpusIDs, training's dev-set score.
//
// A Scorer is not safe for concurrent use; pool one per worker.
type Scorer struct {
	// buf backs eq, cur (len(hyp) rows of words uint64s each) and used
	// (one row), where words = ⌈len(ref)/64⌉.
	buf []uint64
}

// NewScorer returns a Scorer; its scratch grows on first use.
func NewScorer() *Scorer { return &Scorer{} }

// SentenceIDs returns exactly what the package-level SentenceIDs returns for
// the same inputs (scorer_test.go pins the equivalence), without allocating.
//
//mdes:noalloc
func (s *Scorer) SentenceIDs(ref, hyp []int, maxN int, smoothing Smoothing) float64 {
	if len(ref) == 0 || len(hyp) == 0 {
		return 0
	}
	maxN = clampOrder(maxN)
	var matches, totals [MaxOrder]float64
	s.accumulate(ref, hyp, maxN, &matches, &totals)
	return combine(matches[:maxN], totals[:maxN], len(ref), len(hyp), smoothing)
}

// accumulate adds one sentence pair's clipped n-gram matches and hypothesis
// n-gram totals for every order 1..maxN — the integer counts the string
// accumulate adds, so float64 sums of them are exact and equal in any order.
//
// Row i of eq holds the reference positions whose token equals hyp[i]. Row i
// of cur holds the positions where a reference n-gram equal to the hypothesis
// n-gram at i starts: eq[i] at order 1, and cur[i] &= eq[i+n-1] >> (n-1) to
// step from order n-1 to n. Equal hypothesis n-grams share one cur row and
// unequal ones have disjoint rows, so letting each hypothesis n-gram take the
// lowest equal reference n-gram not yet taken matches min(c_hyp, c_ref) of
// every distinct n-gram: the clipped count.
//
//mdes:noalloc
func (s *Scorer) accumulate(ref, hyp []int, maxN int, matches, totals *[MaxOrder]float64) {
	words := (len(ref) + 63) / 64
	rows := len(hyp) * words
	if need := 2*rows + words; cap(s.buf) < need {
		//mdes:allow(noalloc) grow-once scratch: amortised to zero at steady state
		s.buf = make([]uint64, need)
	}
	eq, cur, used := s.buf[:rows], s.buf[rows:2*rows], s.buf[2*rows:2*rows+words]
	clear(eq)
	for i, tok := range hyp {
		row := eq[i*words : (i+1)*words]
		for j, r := range ref {
			if r == tok {
				row[j>>6] |= 1 << (j & 63)
			}
		}
	}
	copy(cur, eq)
	for n := 1; n <= maxN && n <= len(hyp); n++ {
		grams := len(hyp) - n + 1
		if n > 1 {
			shift := uint(n - 1)
			for i := 0; i < grams; i++ {
				c := cur[i*words : (i+1)*words]
				e := eq[(i+n-1)*words : (i+n)*words]
				for w := range c {
					next := e[w] >> shift
					if w+1 < words {
						next |= e[w+1] << (64 - shift)
					}
					c[w] &= next
				}
			}
		}
		clear(used)
		var m int
		for i := 0; i < grams; i++ {
			c := cur[i*words : (i+1)*words]
			for w, bits := range c {
				if free := bits &^ used[w]; free != 0 {
					used[w] |= free & -free
					m++
					break
				}
			}
		}
		matches[n-1] += float64(m)
		totals[n-1] += float64(grams)
	}
}
