// Package bleu implements the BiLingual Evaluation Understudy score
// (Papineni et al. 2002), the metric the paper uses to quantify the strength
// of a pairwise sensor relationship. Scores are on the 0–100 scale. Both
// corpus-level BLEU (used for the training score s(i,j)) and smoothed
// sentence-level BLEU (used for the per-timestamp test score f(i,j)) are
// provided.
package bleu

import (
	"math"
	"strconv"
	"strings"
)

// MaxOrder is the conventional highest n-gram order.
const MaxOrder = 4

// Smoothing selects how zero n-gram precisions are handled for short or
// poor sentence-level hypotheses.
type Smoothing int

const (
	// SmoothNone leaves zero precisions alone; any zero drives the score
	// to 0 (the corpus-BLEU convention).
	SmoothNone Smoothing = iota + 1
	// SmoothAddOne adds one to numerator and denominator for orders > 1
	// (Lin & Och 2004, method 1 variant), the usual sentence-BLEU choice.
	SmoothAddOne
	// SmoothEpsilon substitutes a tiny constant for zero numerators.
	SmoothEpsilon
)

// Corpus returns corpus-level BLEU-N for aligned references and hypotheses,
// with n-gram counts pooled over all sentence pairs before computing the
// modified precisions. maxN is clamped to [1, MaxOrder]. Pairs where either
// side is empty are skipped; an effectively empty corpus scores 0.
func Corpus(refs, hyps [][]string, maxN int) float64 {
	maxN = clampOrder(maxN)
	matches := make([]float64, maxN)
	totals := make([]float64, maxN)
	var refLen, hypLen int
	n := len(refs)
	if len(hyps) < n {
		n = len(hyps)
	}
	for i := 0; i < n; i++ {
		ref, hyp := refs[i], hyps[i]
		if len(ref) == 0 || len(hyp) == 0 {
			continue
		}
		refLen += len(ref)
		hypLen += len(hyp)
		accumulate(ref, hyp, maxN, matches, totals)
	}
	if hypLen == 0 || refLen == 0 {
		return 0
	}
	return combine(matches, totals, refLen, hypLen, SmoothNone)
}

// Sentence returns smoothed sentence-level BLEU-N for one reference and one
// hypothesis.
func Sentence(ref, hyp []string, maxN int, smoothing Smoothing) float64 {
	if len(ref) == 0 || len(hyp) == 0 {
		return 0
	}
	maxN = clampOrder(maxN)
	matches := make([]float64, maxN)
	totals := make([]float64, maxN)
	accumulate(ref, hyp, maxN, matches, totals)
	return combine(matches, totals, len(ref), len(hyp), smoothing)
}

// CorpusIDs is Corpus over integer token sequences — training's dev-set
// score s(i,j). It counts on the Scorer's bitsets rather than string maps;
// the counts are the same integers, so the score is Corpus's bit for bit
// (scorer_test.go pins it over stringified tokens).
func CorpusIDs(refs, hyps [][]int, maxN int) float64 {
	maxN = clampOrder(maxN)
	var matches, totals [MaxOrder]float64
	var refLen, hypLen int
	var s Scorer
	for i := 0; i < len(refs) && i < len(hyps); i++ {
		ref, hyp := refs[i], hyps[i]
		if len(ref) == 0 || len(hyp) == 0 {
			continue
		}
		refLen += len(ref)
		hypLen += len(hyp)
		s.accumulate(ref, hyp, maxN, &matches, &totals)
	}
	if hypLen == 0 || refLen == 0 {
		return 0
	}
	return combine(matches[:maxN], totals[:maxN], refLen, hypLen, SmoothNone)
}

// SentenceIDs is Sentence over integer token sequences: the string-keyed
// reference the Scorer is tested against.
func SentenceIDs(ref, hyp []int, maxN int, smoothing Smoothing) float64 {
	return Sentence(stringifyOne(ref), stringifyOne(hyp), maxN, smoothing)
}

func clampOrder(maxN int) int {
	if maxN < 1 {
		return 1
	}
	if maxN > MaxOrder {
		return MaxOrder
	}
	return maxN
}

// accumulate adds one sentence pair's clipped n-gram matches and hypothesis
// n-gram totals for every order 1..maxN.
func accumulate(ref, hyp []string, maxN int, matches, totals []float64) {
	for n := 1; n <= maxN; n++ {
		hypGrams := countNgrams(hyp, n)
		if len(hypGrams) == 0 {
			continue
		}
		refGrams := countNgrams(ref, n)
		for g, c := range hypGrams {
			totals[n-1] += float64(c)
			if rc, ok := refGrams[g]; ok {
				if c < rc {
					matches[n-1] += float64(c)
				} else {
					matches[n-1] += float64(rc)
				}
			}
		}
	}
}

func combine(matches, totals []float64, refLen, hypLen int, smoothing Smoothing) float64 {
	var logSum float64
	var orders int
	for n := range matches {
		num, den := matches[n], totals[n]
		if den == 0 {
			// Hypothesis too short to contain this order at all:
			// exclude the order rather than zeroing the score.
			continue
		}
		if num == 0 {
			switch smoothing {
			case SmoothAddOne:
				if n > 0 { // never smooth unigrams
					num, den = num+1, den+1
				}
			case SmoothEpsilon:
				num = 1e-9
			}
		}
		if num == 0 {
			return 0
		}
		logSum += math.Log(num / den)
		orders++
	}
	if orders == 0 {
		return 0
	}
	precision := math.Exp(logSum / float64(orders))
	bp := 1.0
	if hypLen < refLen {
		bp = math.Exp(1 - float64(refLen)/float64(hypLen))
	}
	return 100 * bp * precision
}

// countNgrams returns n-gram counts keyed by a join of the tokens. The 0x1f
// unit separator cannot appear in sensor-language words, so keys are
// collision-free.
func countNgrams(tokens []string, n int) map[string]int {
	if len(tokens) < n {
		return nil
	}
	out := make(map[string]int, len(tokens)-n+1)
	var sb strings.Builder
	for i := 0; i+n <= len(tokens); i++ {
		sb.Reset()
		for j := 0; j < n; j++ {
			if j > 0 {
				sb.WriteByte(0x1f)
			}
			sb.WriteString(tokens[i+j])
		}
		out[sb.String()]++
	}
	return out
}

func stringifyOne(s []int) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[i] = strconv.Itoa(v)
	}
	return out
}
