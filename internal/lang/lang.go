// Package lang turns discrete event sequences into sensor "languages"
// (paper §II-A1/§II-A2): events are encrypted into characters by
// alphanumeric rank, characters are grouped into fixed-length words with a
// sliding window, words into fixed-length sentences with a second sliding
// window, and each sensor's distinct words form its vocabulary.
//
// Token-id conventions (shared with internal/nmt): 0 = <unk>, 1 = <s>,
// 2 = </s>; real words start at id 3.
package lang

import (
	"errors"
	"fmt"
	"sort"

	"mdes/internal/seqio"
)

// Reserved vocabulary entries.
const (
	UnkWord = "<unk>"
	BosWord = "<s>"
	EosWord = "</s>"

	UnkID = 0
	BosID = 1
	EosID = 2

	numReserved = 3
)

// UnknownChar encodes an event never seen during training (the paper's
// reserved <unk> system state). It sorts outside the 'a'.. alphabet range.
// Exported so streaming callers that pre-compute event ranks map unseen
// events exactly like Encrypt does.
const UnknownChar = '?'

// MaxAlphabet is the largest event alphabet Encrypt can represent without
// collisions: ranks are single bytes 'a'..0xFF, so only 256-'a' distinct
// events fit. Past that, byte('a'+i) silently wraps — ranks collide with
// each other and, at i = 222, with UnknownChar itself, corrupting words
// with no error anywhere downstream. Build enforces the bound; so must any
// loader that rebuilds rank tables from a persisted alphabet.
const MaxAlphabet = 256 - 'a'

// ErrAlphabetTooLarge indicates a sensor with more distinct events than the
// byte-rank encryption can represent.
var ErrAlphabetTooLarge = errors.New("lang: alphabet exceeds representable range")

// Config controls word and sentence generation. The paper's plant settings
// are WordLen 10, WordStride 1, SentenceLen 20, SentenceStride 20; the HDD
// settings are WordLen 5, WordStride 1, SentenceLen 7, SentenceStride 1.
type Config struct {
	WordLen        int
	WordStride     int
	SentenceLen    int
	SentenceStride int
	// MaxVocab caps the per-sensor vocabulary by training frequency
	// (ties broken lexicographically); 0 means unlimited. Words beyond
	// the cap encode as <unk>.
	MaxVocab int
}

// PlantConfig returns the paper's physical-plant language settings (§III-A1).
func PlantConfig() Config {
	return Config{WordLen: 10, WordStride: 1, SentenceLen: 20, SentenceStride: 20}
}

// HDDConfig returns the paper's Backblaze language settings (§IV-C).
func HDDConfig() Config {
	return Config{WordLen: 5, WordStride: 1, SentenceLen: 7, SentenceStride: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.WordLen <= 0 || c.WordStride <= 0:
		return fmt.Errorf("lang: word length %d / stride %d must be positive", c.WordLen, c.WordStride)
	case c.SentenceLen <= 0 || c.SentenceStride <= 0:
		return fmt.Errorf("lang: sentence length %d / stride %d must be positive", c.SentenceLen, c.SentenceStride)
	case c.MaxVocab < 0:
		return fmt.Errorf("lang: max vocab %d must be non-negative", c.MaxVocab)
	}
	return nil
}

// Span returns how many chars — ticks — one sentence window covers: the i-th
// sentence of a sequence is encoded from chars[i*Stride() : i*Stride()+Span()].
func (c Config) Span() int { return c.WordLen + (c.SentenceLen-1)*c.WordStride }

// Stride returns how many ticks apart consecutive sentence windows start.
func (c Config) Stride() int { return c.SentenceStride * c.WordStride }

// NumSentences returns the number of sentences produced from `ticks` events,
// 0 when the input is too short. It is also the number of detection points a
// stream has due after `ticks` ticks.
func (c Config) NumSentences(ticks int) int {
	if ticks < c.Span() {
		return 0
	}
	return (ticks-c.Span())/c.Stride() + 1
}

// Rank returns the encrypted char of an event: 'a'+i for its last position i
// in the alphabet, or UnknownChar for an event outside it. Alphabets are tiny
// — the paper's average 2.07 events, at most 7 — so the scan beats hashing
// the event string.
func Rank[E string | []byte](alphabet []string, event E) byte {
	for i := len(alphabet) - 1; i >= 0; i-- {
		if alphabet[i] == string(event) {
			return byte('a' + i)
		}
	}
	return UnknownChar
}

// Encrypt maps each event to a character by alphanumeric rank within the
// training alphabet (see Rank): the i-th distinct event becomes 'a'+i and
// events outside the alphabet become UnknownChar. Alphabets longer than 26
// extend into subsequent ASCII; sensors in this domain have single-digit
// cardinality (paper: mean 2.07, max 7). The alphabet must hold at most
// MaxAlphabet events — Build rejects anything larger — or ranks would wrap
// and collide.
func Encrypt(events []string, alphabet []string) []byte {
	out := make([]byte, len(events))
	for i, e := range events {
		out[i] = Rank(alphabet, e)
	}
	return out
}

// words is the sensor language's one word window: it slides a WordLen window
// with WordStride over one sentence window of chars and encodes each word
// with id into dst's storage, returning the ids.
//
//mdes:noalloc
func (c Config) words(dst []int, window []byte, id func(word []byte) int) []int {
	ids := dst[:0]
	for j := 0; j+c.WordLen <= len(window); j += c.WordStride {
		ids = append(ids, id(window[j:j+c.WordLen]))
	}
	return ids
}

// sentences encodes every sentence window of chars with id into one slab.
func (c Config) sentences(chars []byte, id func(word []byte) int) [][]int {
	n, span, stride := c.NumSentences(len(chars)), c.Span(), c.Stride()
	slab := make([]int, n*c.SentenceLen)
	out := make([][]int, n)
	for i := range out {
		slot := slab[i*c.SentenceLen : (i+1)*c.SentenceLen : (i+1)*c.SentenceLen]
		out[i] = c.words(slot, chars[i*stride:i*stride+span], id)
	}
	return out
}

// Vocab is one sensor's word vocabulary with reserved entries.
type Vocab struct {
	words []string       // id -> word; ids 0..2 reserved
	index map[string]int // word -> id
}

// VocabFromWords rebuilds a vocabulary from real words in id order (as
// persisted by a model save); ids are reassigned 3, 4, … in slice order.
func VocabFromWords(words []string) *Vocab {
	v := &Vocab{
		words: append([]string{UnkWord, BosWord, EosWord}, words...),
		index: make(map[string]int, len(words)+numReserved),
	}
	for id, w := range v.words {
		v.index[w] = id
	}
	return v
}

// Size returns the vocabulary size including the three reserved tokens.
func (v *Vocab) Size() int { return len(v.words) }

// WordCount returns the number of real (non-reserved) words.
func (v *Vocab) WordCount() int { return len(v.words) - numReserved }

// IDBytes returns the id of a word spelled as raw encrypted characters, or
// UnkID if absent. The compiler elides the []byte→string conversion inside
// the map lookup, so encoding a window of a reused character buffer
// allocates nothing.
func (v *Vocab) IDBytes(word []byte) int {
	if id, ok := v.index[string(word)]; ok {
		return id
	}
	return UnkID
}

// Word returns the word for an id, or <unk> for out-of-range ids.
func (v *Vocab) Word(id int) string {
	if id < 0 || id >= len(v.words) {
		return UnkWord
	}
	return v.words[id]
}

// Language is one sensor's trained language: its event alphabet, vocabulary,
// and the configuration that produced them.
type Language struct {
	Sensor   string
	Alphabet []string
	Vocab    *Vocab
	Config   Config
}

// ErrTooShort indicates a sequence shorter than one sentence.
var ErrTooShort = errors.New("lang: sequence too short for one sentence")

// Build learns a sensor language from its training sequence.
func Build(seq seqio.Sequence, cfg Config) (*Language, error) {
	l, _, _, err := Learn(seq, cfg)
	return l, err
}

// Learn is Build that also returns what it encoded on the way: the training
// sequence's encrypted chars and its sentences, exactly as SentencesFor
// would encode them, so a trainer encrypts each sequence once.
//
// The vocabulary is the words of the sentence windows, counted per window
// (overlapping windows count a shared word once each), kept by descending
// frequency (ties lexicographic) up to MaxVocab, with ids in that order.
func Learn(seq seqio.Sequence, cfg Config) (l *Language, chars []byte, sentences [][]int, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if cfg.NumSentences(len(seq.Events)) == 0 {
		return nil, nil, nil, fmt.Errorf("%w: sensor %q has %d ticks", ErrTooShort, seq.Sensor, len(seq.Events))
	}
	alphabet := seq.Alphabet()
	if len(alphabet) > MaxAlphabet {
		return nil, nil, nil, fmt.Errorf("%w: sensor %q has %d distinct events, max %d",
			ErrAlphabetTooLarge, seq.Sensor, len(alphabet), MaxAlphabet)
	}
	chars = Encrypt(seq.Events, alphabet)

	// Number the words by first sight, counting them, then renumber the
	// encoded sentences into vocabulary order.
	seen := make(map[string]int)
	var words []string
	var freq []int
	sentences = cfg.sentences(chars, func(word []byte) int {
		n, ok := seen[string(word)]
		if !ok {
			n = len(words)
			words = append(words, string(word))
			freq = append(freq, 0)
			seen[words[n]] = n
		}
		freq[n]++
		return n
	})
	order := make([]int, len(words)) // vocabulary position -> first-sight number
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if freq[a] != freq[b] {
			return freq[a] > freq[b]
		}
		return words[a] < words[b]
	})
	if cfg.MaxVocab > 0 && len(order) > cfg.MaxVocab {
		order = order[:cfg.MaxVocab]
	}
	id := make([]int, len(words)) // first-sight number -> id; UnkID past the cap
	kept := make([]string, len(order))
	for pos, n := range order {
		id[n] = numReserved + pos
		kept[pos] = words[n]
	}
	for _, sent := range sentences {
		for j, n := range sent {
			sent[j] = id[n]
		}
	}
	l = &Language{Sensor: seq.Sensor, Alphabet: alphabet, Vocab: VocabFromWords(kept), Config: cfg}
	return l, chars, sentences, nil
}

// Sentence encodes one sentence window of encrypted chars — Config.Span() of
// them — into dst's storage and returns it: one id per word, <unk> for words
// outside the vocabulary. It is the one chars → word-id encoder: offline
// encoding, training and live streams all go through it.
//
//mdes:noalloc
func (l *Language) Sentence(dst []int, window []byte) []int {
	return l.Config.words(dst, window, l.Vocab.IDBytes)
}

// SentencesFor converts any aligned sequence of the same sensor (train, dev,
// or test split) into encoded sentences using the *training* alphabet and
// vocabulary; unseen events flow through UnknownChar into <unk> words.
func (l *Language) SentencesFor(seq seqio.Sequence) ([][]int, error) {
	if cnt := l.Config.NumSentences(len(seq.Events)); cnt == 0 {
		return nil, fmt.Errorf("%w: sensor %q has %d ticks", ErrTooShort, seq.Sensor, len(seq.Events))
	}
	return l.Config.sentences(Encrypt(seq.Events, l.Alphabet), l.Vocab.IDBytes), nil
}

// VocabularySize reports the number of distinct real words — Fig 3(b)'s
// per-sensor vocabulary size statistic.
func (l *Language) VocabularySize() int { return l.Vocab.WordCount() }
