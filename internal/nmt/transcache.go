package nmt

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"
)

// TransCache memoises, per pair model, greedy translations by source
// sentence and relationship scores f(i,j) by (source, observed target)
// sentence pair. Greedy decoding is deterministic, the score is a pure
// function of (weights, source, target), and discrete event languages repeat
// the same sentences constantly. Every infer.Model puts one in front of its
// decoder: a frozen engine its own, the F64 engine its training model's
// (Model.Cache), which already holds the dev set's translations from
// ScoreCorpus. The translation table is the dedupe that makes corpus scoring
// and detection on new targets cheap; the score memo, written only by
// infer.Model's scoring, lets a replayed window skip the hypothesis and BLEU
// too, and lets a Stream answer it without handing its scorer a job. The two
// tables share one lifecycle: the owner drops both whenever its weights
// change, and SetCaching(false) disables both. The zero value is an empty,
// enabled cache; it is safe for concurrent use.
//
// Each table is a packedTable: entries packed back to back in one byte slab
// and found through an open-addressed index of slab offsets, two arrays with
// no pointer for the collector to trace. The cache owns its bytes and hands
// none of them out: Lookup decodes a hit into the caller's buffer.
type TransCache struct {
	mu     sync.Mutex
	hyps   packedTable // source sentence → greedy hypothesis
	scores packedTable // (source, observed target) → score
	off    bool
}

// transCacheCap bounds the translation table and, separately, the score
// memo; when either is full, that whole table is dropped (deterministic, and
// a full drop is simpler than eviction for the tiny, highly repetitive
// languages the framework builds).
const transCacheCap = 4096

// keyBufLen sizes the stack buffers cache keys and values are built in:
// enough for the sentence pairs the framework's languages produce (a key
// byte or two per token), so probes allocate nothing. Longer keys spill to
// the heap and stay correct.
const keyBufLen = 128

// SetCaching turns the cache on or off. Either way it drops every entry.
func (c *TransCache) SetCaching(on bool) {
	c.mu.Lock()
	c.off = !on
	c.hyps, c.scores = packedTable{}, packedTable{}
	c.mu.Unlock()
}

// Drop empties the cache; the owner calls it whenever its weights change.
func (c *TransCache) Drop() {
	c.mu.Lock()
	c.hyps, c.scores = packedTable{}, packedTable{}
	c.mu.Unlock()
}

// Len reports how many translations are cached.
func (c *TransCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hyps.n
}

// ScoreLen reports how many scores are memoised.
func (c *TransCache) ScoreLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scores.n
}

// Lookup decodes the cached translation of src into dst's storage and
// returns it (dst[:0] and false on a miss). The result is the caller's; it
// allocates only if the hypothesis outgrows cap(dst).
//
//mdes:noalloc
func (c *TransCache) Lookup(src, dst []int) ([]int, bool) {
	var buf [keyBufLen]byte
	key := appendTokens(buf[:0], src)
	tag := hashKey(key)
	c.mu.Lock()
	_, val, ok := c.hyps.find(key, tag)
	out := dst[:cap(dst)]
	n := 0
	for i := 0; i < len(val); n++ {
		b := val[i]
		tok, k := int(b>>1)^-int(b&1), 1 // a one-byte zigzag varint, inline
		if b >= 0x80 {
			t, tk := binary.Varint(val[i:])
			tok, k = int(t), tk
		}
		if n < len(out) {
			out[n] = tok
		} else {
			out = append(out, tok)
		}
		i += k
	}
	c.mu.Unlock()
	return out[:n], ok
}

// Store records hyp as the translation of src; a no-op with caching off.
// It allocates nothing unless the table has to grow.
//
//mdes:noalloc
func (c *TransCache) Store(src, hyp []int) {
	var kbuf, vbuf [keyBufLen]byte
	key := appendTokens(kbuf[:0], src)
	val := appendTokens(vbuf[:0], hyp)
	tag := hashKey(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.off {
		return
	}
	if c.hyps.n >= transCacheCap {
		c.hyps = packedTable{}
	}
	c.hyps.put(key, tag, val)
}

// Score returns the memoised score of translating src against the observed
// reference ref. A hit compares the exact token sequences, never just a
// hash: a collision would break the bit-identity of memoised and computed
// scores. Score allocates nothing.
//
//mdes:noalloc
func (c *TransCache) Score(src, ref []int) (float64, bool) {
	var buf [keyBufLen]byte
	key := appendScoreKey(buf[:0], src, ref)
	tag := hashKey(key)
	c.mu.Lock()
	_, val, ok := c.scores.find(key, tag)
	var score float64
	if ok {
		score = math.Float64frombits(binary.LittleEndian.Uint64(val))
	}
	c.mu.Unlock()
	return score, ok
}

// StoreScore memoises score for (src, ref); a no-op with caching off.
// infer.Model calls it only for a source seen before: translation cached, or
// decoded earlier in the same batch. The translation table is the memo's
// doorkeeper, so one-off sentences (novel traffic) never occupy it. It
// allocates nothing unless the memo has to grow.
//
//mdes:noalloc
func (c *TransCache) StoreScore(src, ref []int, score float64) {
	var kbuf [keyBufLen]byte
	var vbuf [8]byte
	key := appendScoreKey(kbuf[:0], src, ref)
	binary.LittleEndian.PutUint64(vbuf[:], math.Float64bits(score))
	tag := hashKey(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.off {
		return
	}
	if c.scores.n >= transCacheCap {
		c.scores = packedTable{}
	}
	c.scores.put(key, tag, vbuf[:])
}

// packedTable maps byte keys to byte values in two pointer-free arrays. The
// slab holds the entries back to back, each a uvarint key length, a uvarint
// value length, the key and the value. The index is open-addressed (linear
// probing, power-of-two size, at most 3/4 full) with two words per slot: the
// key's hash tag, and the entry's slab offset plus one (0 marks an empty
// slot). A probe compares tags first, so a miss reads only the index; a tag
// match is a hit only if the full key bytes match. The zero value is empty.
type packedTable struct {
	slab  []byte
	index []uint32
	n     int // live entries
}

// find returns the slot holding key (whose hashKey is tag) and its value,
// read in place from the slab, or the empty slot where key belongs.
func (t *packedTable) find(key []byte, tag uint32) (slot int, val []byte, ok bool) {
	if len(t.index) == 0 {
		return 0, nil, false
	}
	mask := len(t.index)/2 - 1
	for s := int(tag) & mask; ; s = (s + 1) & mask {
		off := t.index[2*s+1]
		if off == 0 {
			return s, nil, false
		}
		if t.index[2*s] == tag {
			if k, v := t.entry(off - 1); bytes.Equal(k, key) {
				return s, v, true
			}
		}
	}
}

// entry decodes the entry at slab offset off.
func (t *packedTable) entry(off uint32) (key, val []byte) {
	e := t.slab[off:]
	kl, n := binary.Uvarint(e)
	e = e[n:]
	vl, n := binary.Uvarint(e)
	e = e[n:]
	return e[:kl], e[kl : kl+vl]
}

// put stores val under key. A key already present keeps its slot: its value
// is overwritten in place when the length matches, else the slot points at a
// fresh copy of the entry. Growing the slab or the index is put's only
// allocation. An entry that would take the slab past what a uint32 offset
// addresses is not stored.
func (t *packedTable) put(key []byte, tag uint32, val []byte) {
	if 4*(t.n+1) > 3*(len(t.index)/2) {
		t.growIndex()
	}
	s, old, ok := t.find(key, tag)
	if ok && len(old) == len(val) {
		copy(old, val)
		return
	}
	off := len(t.slab)
	if uint64(off)+uint64(2*binary.MaxVarintLen64+len(key)+len(val)) >= math.MaxUint32 {
		return
	}
	t.slab = binary.AppendUvarint(t.slab, uint64(len(key)))
	t.slab = binary.AppendUvarint(t.slab, uint64(len(val)))
	t.slab = append(t.slab, key...)
	t.slab = append(t.slab, val...)
	t.index[2*s], t.index[2*s+1] = tag, uint32(off)+1
	if !ok {
		t.n++
	}
}

// growIndex doubles the index (or creates it, at 16 slots) and re-slots
// every entry by its tag alone, never touching the slab.
func (t *packedTable) growIndex() {
	slots := max(16, len(t.index))
	old := t.index
	t.index = make([]uint32, 2*slots)
	mask := slots - 1
	for i := 0; i < len(old); i += 2 {
		if old[i+1] == 0 {
			continue
		}
		s := int(old[i]) & mask
		for t.index[2*s+1] != 0 {
			s = (s + 1) & mask
		}
		t.index[2*s], t.index[2*s+1] = old[i], old[i+1]
	}
}

// keySeed seeds every table's key hash. A tag only picks a slot and
// screens out misses, never decides a hit, so the per-process seed changes
// no answer.
var keySeed = maphash.MakeSeed()

// hashKey is a packed key's hash tag: the runtime's hash, a plain function
// (no hash.Hash, no interface call under the cache's lock).
func hashKey(k []byte) uint32 { return uint32(maphash.Bytes(keySeed, k)) }

// appendTokens packs a token sequence onto dst as self-delimiting varints.
// Ids in [-64, 64), which small vocabularies never leave, take one byte each
// and are written in place while dst has room for one byte per token.
func appendTokens(dst []byte, toks []int) []byte {
	n := len(dst)
	if cap(dst)-n < len(toks) {
		return appendVarints(dst, toks)
	}
	out := dst[:n+len(toks)]
	for i, t := range toks {
		if uint(t+64) >= 128 {
			return appendVarints(out[:n+i], toks[i:])
		}
		out[n+i] = byte(t<<1 ^ t>>63) // the zigzag varint binary.AppendVarint writes
	}
	return out
}

// appendVarints is appendTokens one binary.AppendVarint at a time.
func appendVarints(dst []byte, toks []int) []byte {
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
