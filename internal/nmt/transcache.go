package nmt

import (
	"encoding/binary"
	"sync"
)

// TransCache memoises, per pair model, greedy translations by source
// sentence and relationship scores f(i,j) by (source, observed target)
// sentence pair. Greedy decoding is deterministic, the score is a pure
// function of (weights, source, target), and discrete event languages repeat
// the same sentences constantly. Every infer.Model puts one in front of its
// decoder: a frozen engine its own, the F64 engine its training model's
// (Model.Cache), which already holds the dev set's translations from
// ScoreCorpus. The translation map is the dedupe that makes corpus scoring
// and detection on new targets cheap; the score memo, written only by
// infer.Model's scoring, lets a replayed window skip the hypothesis and BLEU
// too, and lets a Stream answer it without handing its scorer a job. The two
// maps share one lifecycle: the owner drops both whenever its weights
// change, and SetCaching(false) disables both. The zero value is an empty,
// enabled cache; it is safe for concurrent use.
type TransCache struct {
	mu      sync.Mutex
	entries map[string][]int
	scores  map[string]float64
	off     bool
}

// transCacheCap bounds the translation map and, separately, the score memo;
// when either is full, that whole map is dropped (deterministic, and a full
// drop is simpler than eviction for the tiny, highly repetitive languages the
// framework builds).
const transCacheCap = 4096

// keyBufLen sizes the stack buffers cache keys are built in: enough for the
// sentence pairs the framework's languages produce (a key byte or two per
// token), so probes allocate nothing. Longer keys spill to the heap and stay
// correct.
const keyBufLen = 128

// SetCaching turns the cache on or off. Either way it drops every entry.
func (c *TransCache) SetCaching(on bool) {
	c.mu.Lock()
	c.off = !on
	c.entries, c.scores = nil, nil
	c.mu.Unlock()
}

// Drop empties the cache; the owner calls it whenever its weights change.
func (c *TransCache) Drop() {
	c.mu.Lock()
	c.entries, c.scores = nil, nil
	c.mu.Unlock()
}

// Len reports how many translations are cached.
func (c *TransCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// ScoreLen reports how many scores are memoised.
func (c *TransCache) ScoreLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.scores)
}

// Lookup returns the cached translation of src. The slice is cache-owned and
// never written again: callers may read it without the lock but must copy it
// before handing it to code that may modify it. Lookup allocates nothing.
func (c *TransCache) Lookup(src []int) ([]int, bool) {
	var buf [keyBufLen]byte
	key := appendTokens(buf[:0], src)
	c.mu.Lock()
	hyp, ok := c.entries[string(key)]
	c.mu.Unlock()
	return hyp, ok
}

// Store records a copy of hyp as the translation of src; a no-op with
// caching off.
func (c *TransCache) Store(src, hyp []int) {
	var buf [keyBufLen]byte
	key := appendTokens(buf[:0], src)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.off {
		return
	}
	if len(c.entries) >= transCacheCap {
		c.entries = nil
	}
	if c.entries == nil {
		c.entries = make(map[string][]int)
	}
	c.entries[string(key)] = append([]int(nil), hyp...)
}

// Score returns the memoised score of translating src against the observed
// reference ref. The key is the exact token sequences, never a hash: a
// collision would break the bit-identity of memoised and computed scores.
// Score allocates nothing.
func (c *TransCache) Score(src, ref []int) (float64, bool) {
	var buf [keyBufLen]byte
	key := appendScoreKey(buf[:0], src, ref)
	c.mu.Lock()
	score, ok := c.scores[string(key)]
	c.mu.Unlock()
	return score, ok
}

// StoreScore memoises score for (src, ref); a no-op with caching off.
// infer.Model calls it only for a source seen before: translation cached, or
// decoded earlier in the same batch. The translation map is the memo's
// doorkeeper, so one-off sentences (novel traffic) never occupy it.
func (c *TransCache) StoreScore(src, ref []int, score float64) {
	var buf [keyBufLen]byte
	key := appendScoreKey(buf[:0], src, ref)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.off {
		return
	}
	if len(c.scores) >= transCacheCap {
		c.scores = nil
	}
	if c.scores == nil {
		c.scores = make(map[string]float64)
	}
	c.scores[string(key)] = score
}

// appendTokens packs a token sequence onto dst as self-delimiting varints.
func appendTokens(dst []byte, toks []int) []byte {
	for _, t := range toks {
		dst = binary.AppendVarint(dst, int64(t))
	}
	return dst
}

// appendScoreKey packs a (src, ref) pair: the source length keeps the split
// between the two sequences unambiguous.
func appendScoreKey(dst []byte, src, ref []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	return appendTokens(appendTokens(dst, src), ref)
}
