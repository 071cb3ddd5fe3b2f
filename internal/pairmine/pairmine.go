// Package pairmine screens candidate sensor pairs before pairwise NMT
// training. Algorithm 1 trains one seq2seq model per ordered pair — N·(N−1)
// models, 11–72 s each at paper scale (DESIGN §9) — which caps the framework
// at tens of sensors. Screening ranks every ordered pair by a cheap association score
// computed from co-occurring event-word patterns over the training split, so
// the expensive NMT sweep runs only on the most promising few percent.
//
// The score fuses two views of the same aligned pattern streams:
//
//   - rule confidence, in the association-rule-mining sense: for each source
//     pattern the confidence of its best rule (the most frequent co-occurring
//     target pattern), weighted by the source pattern's support. This is the
//     accuracy of the Bayes-optimal single-pattern predictor — an upper bound
//     proxy for how well a translation model could do;
//   - normalized mutual information between the two pattern streams,
//     I(S;T)/sqrt(H(S)·H(T)), which discounts pairs whose high confidence
//     comes only from a near-constant target.
//
// Screening is deterministic: the same sensors and configuration produce a
// bit-identical ranking and selection regardless of worker count or
// scheduling, because every per-pair computation is self-contained and the
// final ordering uses a total (score, src, tgt) key.
package pairmine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
)

// Defaults applied by Config.withDefaults for zero fields.
const (
	// DefaultWordLen is the screening pattern length in encrypted
	// characters — shorter than the NMT word length because screening only
	// needs enough context to expose coupling, not a full language model.
	DefaultWordLen = 4
	// DefaultMaxVocab caps the per-sensor pattern vocabulary; rarer
	// patterns collapse into a single "other" bucket.
	DefaultMaxVocab = 256
	// DefaultMaxSamples caps the aligned window positions scored per pair.
	DefaultMaxSamples = 2048
)

// Config controls candidate-pair screening. The zero value disables
// screening entirely (Enabled returns false), preserving the paper's exact
// train-every-pair behaviour.
type Config struct {
	// TopK keeps at most K ordered pairs, best fused score first (stable
	// (score desc, src asc, tgt asc) tie-break). 0 means no cap.
	TopK int `json:"top_k,omitempty"`
	// Threshold keeps only pairs whose fused score is >= this value.
	// 0 means no floor.
	Threshold float64 `json:"threshold,omitempty"`
	// WordLen is the screening pattern length in encrypted characters;
	// 0 selects DefaultWordLen.
	WordLen int `json:"word_len,omitempty"`
	// Stride is the distance between consecutive screening windows;
	// 0 selects WordLen (non-overlapping windows).
	Stride int `json:"stride,omitempty"`
	// MaxVocab caps each sensor's pattern vocabulary by descending
	// frequency (ties lexicographic); 0 selects DefaultMaxVocab.
	MaxVocab int `json:"max_vocab,omitempty"`
	// MaxSamples caps how many aligned window positions each pair is
	// scored on (an even subsample over the split); 0 selects
	// DefaultMaxSamples.
	MaxSamples int `json:"max_samples,omitempty"`
}

// Enabled reports whether the configuration asks for any screening at all.
func (c Config) Enabled() bool { return c.TopK > 0 || c.Threshold > 0 }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.TopK < 0:
		return fmt.Errorf("pairmine: top-k %d negative", c.TopK)
	case c.Threshold < 0 || c.Threshold > 1:
		return fmt.Errorf("pairmine: threshold %v outside [0,1]", c.Threshold)
	case c.WordLen < 0 || c.Stride < 0:
		return fmt.Errorf("pairmine: word length %d / stride %d negative", c.WordLen, c.Stride)
	case c.MaxVocab < 0 || c.MaxSamples < 0:
		return fmt.Errorf("pairmine: max vocab %d / max samples %d negative", c.MaxVocab, c.MaxSamples)
	}
	return nil
}

// withDefaults fills zero tunables with the package defaults.
func (c Config) withDefaults() Config {
	if c.WordLen == 0 {
		c.WordLen = DefaultWordLen
	}
	if c.Stride == 0 {
		c.Stride = c.WordLen
	}
	if c.MaxVocab == 0 {
		c.MaxVocab = DefaultMaxVocab
	}
	if c.MaxSamples == 0 {
		c.MaxSamples = DefaultMaxSamples
	}
	return c
}

// Sensor is one sensor's encrypted training stream (the same character
// encoding lang.Encrypt produces for language building).
type Sensor struct {
	Name  string
	Chars []byte
}

// PairScore is one ordered pair's screening outcome.
type PairScore struct {
	Src, Tgt string
	// Confidence is the support-weighted best-rule confidence
	// Σ_s P(s)·max_t P(t|s) over co-occurring patterns.
	Confidence float64
	// NMI is I(S;T)/sqrt(H(S)·H(T)), or 0 when either stream has zero
	// entropy.
	NMI float64
	// Fused is the selection score, the mean of Confidence and NMI.
	Fused float64
}

// Result is a full screening pass: every ordered pair ranked, plus the
// selected candidate subset.
type Result struct {
	// Ranked holds all N·(N−1) ordered pairs, best fused score first, with
	// the stable (score desc, src asc, tgt asc) tie-break.
	Ranked []PairScore
	// Selected is the prefix of Ranked that survived Threshold and TopK.
	Selected []PairScore
}

// SelectedSet indexes the selected pairs for O(1) membership tests.
func (r *Result) SelectedSet() map[[2]string]bool {
	out := make(map[[2]string]bool, len(r.Selected))
	for _, p := range r.Selected {
		out[[2]string{p.Src, p.Tgt}] = true
	}
	return out
}

// Errors surfaced by Screen.
var (
	ErrTooFewSensors = errors.New("pairmine: need at least two sensors")
	ErrTooShort      = errors.New("pairmine: stream too short for one screening window")
)

// stream is one sensor's screening-ready state: its pattern-id samples and
// marginal statistics.
type stream struct {
	name    string
	ids     []int32 // pattern id per sampled window position; 0 = rare/other
	vocab   int     // distinct ids including the 0 bucket
	counts  []int   // marginal pattern counts over the samples
	entropy float64 // H(S) in nats over the samples
}

// Screen ranks every ordered sensor pair and selects candidates per cfg.
// workers bounds the parallel per-source sweeps (<= 0 uses GOMAXPROCS); the
// context cancels outstanding work. The result is bit-identical for the same
// sensors and configuration regardless of workers.
func Screen(ctx context.Context, sensors []Sensor, cfg Config, workers int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(sensors) < 2 {
		return nil, ErrTooFewSensors
	}

	ordered := append([]Sensor(nil), sensors...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Name < ordered[j].Name })
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Name == ordered[i-1].Name {
			return nil, fmt.Errorf("pairmine: duplicate sensor %q", ordered[i].Name)
		}
	}

	// Windows are aligned across sensors, so every stream must yield the
	// same count; a mismatch means the caller passed misaligned splits.
	windows := -1
	for _, s := range ordered {
		n := numWindows(len(s.Chars), cfg)
		if n == 0 {
			return nil, fmt.Errorf("%w: sensor %q has %d chars, window %d", ErrTooShort, s.Name, len(s.Chars), cfg.WordLen)
		}
		if windows == -1 {
			windows = n
		} else if n != windows {
			return nil, fmt.Errorf("pairmine: sensor %q yields %d windows, others %d", s.Name, n, windows)
		}
	}
	samples := sampleIndices(windows, cfg.MaxSamples)

	streams := make([]*stream, len(ordered))
	for i, s := range ordered {
		streams[i] = buildStream(s, cfg, samples)
	}

	// Parallel sweep: one task per source sensor, each filling its own row
	// of pair scores, so assembly order never affects the result.
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(streams) {
		workers = len(streams)
	}
	rows := make([][]PairScore, len(streams))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue
				}
				rows[i] = scoreRow(ctx, streams, i)
			}
		}()
	}
feed:
	for i := range streams {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{Ranked: make([]PairScore, 0, len(streams)*(len(streams)-1))}
	for _, row := range rows {
		res.Ranked = append(res.Ranked, row...)
	}
	sort.Slice(res.Ranked, func(i, j int) bool {
		a, b := res.Ranked[i], res.Ranked[j]
		if a.Fused != b.Fused {
			return a.Fused > b.Fused
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Tgt < b.Tgt
	})

	selected := res.Ranked
	if cfg.Threshold > 0 {
		cut := len(selected)
		for k, p := range selected {
			if p.Fused < cfg.Threshold {
				cut = k
				break
			}
		}
		selected = selected[:cut]
	}
	if cfg.TopK > 0 && len(selected) > cfg.TopK {
		selected = selected[:cfg.TopK]
	}
	res.Selected = selected
	return res, nil
}

// numWindows counts the screening windows a stream of n chars yields.
func numWindows(n int, cfg Config) int {
	if n < cfg.WordLen {
		return 0
	}
	return (n-cfg.WordLen)/cfg.Stride + 1
}

// sampleIndices picks up to max evenly spread window positions out of n.
func sampleIndices(n, max int) []int {
	if n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, max)
	for k := range out {
		// Integer arithmetic keeps the spread exact and deterministic.
		out[k] = k * n / max
	}
	return out
}

// buildStream converts one sensor into pattern-id samples plus marginal
// statistics. Pattern ids are assigned by descending frequency over the
// *sampled* positions (ties lexicographic), capped at MaxVocab; everything
// past the cap shares the rare bucket id 0.
func buildStream(s Sensor, cfg Config, samples []int) *stream {
	freq := make(map[string]int, cfg.MaxVocab)
	for _, t := range samples {
		off := t * cfg.Stride
		freq[string(s.Chars[off:off+cfg.WordLen])]++
	}
	patterns := make([]string, 0, len(freq))
	for p := range freq {
		patterns = append(patterns, p)
	}
	sort.Slice(patterns, func(i, j int) bool {
		if freq[patterns[i]] != freq[patterns[j]] {
			return freq[patterns[i]] > freq[patterns[j]]
		}
		return patterns[i] < patterns[j]
	})
	if len(patterns) > cfg.MaxVocab {
		patterns = patterns[:cfg.MaxVocab]
	}
	id := make(map[string]int32, len(patterns))
	for i, p := range patterns {
		id[p] = int32(i + 1) // 0 stays the rare/other bucket
	}

	st := &stream{
		name:   s.Name,
		ids:    make([]int32, len(samples)),
		vocab:  len(patterns) + 1,
		counts: make([]int, len(patterns)+1),
	}
	for k, t := range samples {
		off := t * cfg.Stride
		w := id[string(s.Chars[off:off+cfg.WordLen])] // absent -> 0
		st.ids[k] = w
		st.counts[w]++
	}
	n := float64(len(samples))
	for _, c := range st.counts {
		if c > 0 {
			p := float64(c) / n
			st.entropy -= p * math.Log(p)
		}
	}
	return st
}

// scoreRow scores every ordered pair with source streams[i]. The context is
// consulted once per target; a cancelled row returns what it has (Screen
// discards it and reports ctx.Err()).
func scoreRow(ctx context.Context, streams []*stream, i int) []PairScore {
	src := streams[i]
	row := make([]PairScore, 0, len(streams)-1)
	// joint counts co-occurring (srcID, tgtID) patterns, keyed
	// srcID·tgtVocab+tgtID; reused across targets to bound allocation.
	joint := make(map[int64]int, 256)
	keys := make([]int64, 0, 256)
	for j, tgt := range streams {
		if j == i {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		for k := range joint {
			delete(joint, k)
		}
		tv := int64(tgt.vocab)
		for t, sw := range src.ids {
			joint[int64(sw)*tv+int64(tgt.ids[t])]++
		}
		// Sorted keys make every float accumulation order-deterministic
		// and group rows by source pattern (keys sharing sw/tv are
		// contiguous), which the confidence pass exploits.
		keys = keys[:0]
		for k := range joint {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })

		n := float64(len(src.ids))
		var mi, conf float64
		var groupSrc int64 = -1
		best := 0
		for _, k := range keys {
			sw, tw := k/tv, k%tv
			c := joint[k]
			pxy := float64(c) / n
			px := float64(src.counts[sw]) / n
			py := float64(tgt.counts[tw]) / n
			mi += pxy * math.Log(pxy/(px*py))
			if sw != groupSrc {
				conf += float64(best)
				groupSrc = sw
				best = 0
			}
			if c > best {
				best = c
			}
		}
		conf += float64(best)
		conf /= n

		ps := PairScore{Src: src.name, Tgt: tgt.name, Confidence: conf}
		if src.entropy > 0 && tgt.entropy > 0 {
			nmi := mi / math.Sqrt(src.entropy*tgt.entropy)
			// Guard tiny negative/overshoot float residue so the fused
			// score stays in [0,1].
			if nmi < 0 {
				nmi = 0
			}
			if nmi > 1 {
				nmi = 1
			}
			ps.NMI = nmi
		}
		ps.Fused = (ps.Confidence + ps.NMI) / 2
		row = append(row, ps)
	}
	return row
}
