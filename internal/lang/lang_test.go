package lang

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mdes/internal/seqio"
)

// The string pipeline below is the paper's sensor language spelled out step
// by step — chars → word strings → sentences of words → ids — and the
// reference Build, SentencesFor and Sentence are held to.

// numWords returns how many words a sequence of `ticks` events yields.
func numWords(c Config, ticks int) int {
	if ticks < c.WordLen {
		return 0
	}
	return (ticks-c.WordLen)/c.WordStride + 1
}

// refWords slides a WordLen window with WordStride over the chars.
func refWords(c Config, chars []byte) []string {
	var out []string
	for i := 0; i+c.WordLen <= len(chars); i += c.WordStride {
		out = append(out, string(chars[i:i+c.WordLen]))
	}
	return out
}

// refSentences slides a SentenceLen window with SentenceStride over words.
func refSentences(c Config, words []string) [][]string {
	var out [][]string
	for i := 0; i+c.SentenceLen <= len(words); i += c.SentenceStride {
		out = append(out, append([]string(nil), words[i:i+c.SentenceLen]...))
	}
	return out
}

// refVocab collects the distinct words of the sentences, keeps at most
// maxVocab of them by descending frequency (ties lexicographic), and
// assigns ids in that order.
func refVocab(sentences [][]string, maxVocab int) *Vocab {
	freq := make(map[string]int)
	for _, sent := range sentences {
		for _, w := range sent {
			freq[w]++
		}
	}
	words := make([]string, 0, len(freq))
	for w := range freq {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool {
		if freq[words[i]] != freq[words[j]] {
			return freq[words[i]] > freq[words[j]]
		}
		return words[i] < words[j]
	})
	if maxVocab > 0 && len(words) > maxVocab {
		words = words[:maxVocab]
	}
	return VocabFromWords(words)
}

// refID returns the id of a word, or UnkID if absent.
func refID(v *Vocab, word string) int {
	if id, ok := v.index[word]; ok {
		return id
	}
	return UnkID
}

// refEncode maps sentences of words to id sequences.
func refEncode(v *Vocab, sentences [][]string) [][]int {
	out := make([][]int, len(sentences))
	for i, sent := range sentences {
		out[i] = make([]int, len(sent))
		for j, w := range sent {
			out[i][j] = refID(v, w)
		}
	}
	return out
}

// refLanguage is Build by the string pipeline: the vocabulary and the
// training sentences' ids.
func refLanguage(events, alphabet []string, cfg Config) (*Vocab, [][]int) {
	sents := refSentences(cfg, refWords(cfg, Encrypt(events, alphabet)))
	v := refVocab(sents, cfg.MaxVocab)
	return v, refEncode(v, sents)
}

func TestConfigValidate(t *testing.T) {
	good := Config{WordLen: 3, WordStride: 1, SentenceLen: 2, SentenceStride: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bads := []Config{
		{WordLen: 0, WordStride: 1, SentenceLen: 2, SentenceStride: 1},
		{WordLen: 3, WordStride: 0, SentenceLen: 2, SentenceStride: 1},
		{WordLen: 3, WordStride: 1, SentenceLen: 0, SentenceStride: 1},
		{WordLen: 3, WordStride: 1, SentenceLen: 2, SentenceStride: 0},
		{WordLen: 3, WordStride: 1, SentenceLen: 2, SentenceStride: 1, MaxVocab: -1},
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPaperConfigs(t *testing.T) {
	p := PlantConfig()
	if p.WordLen != 10 || p.WordStride != 1 || p.SentenceLen != 20 || p.SentenceStride != 20 {
		t.Fatalf("PlantConfig = %+v deviates from §III-A1", p)
	}
	h := HDDConfig()
	if h.WordLen != 5 || h.SentenceLen != 7 || h.SentenceStride != 1 {
		t.Fatalf("HDDConfig = %+v deviates from §IV-C", h)
	}
	// Paper arithmetic: 1440 chars/day, sentence window 20 with stride 20
	// and word stride 1 → 72 sentences/day... verified over one day:
	day := 1440
	if got := numWords(p, day); got != 1431 {
		t.Fatalf("NumWords(1440) = %d, want 1431", got)
	}
	if got := p.NumSentences(day); got != 71 {
		// (1431-20)/20+1 = 71 full sentences fit in a single isolated day;
		// the paper's 72/day arises from a continuous month of samples.
		t.Fatalf("NumSentences(1440) = %d, want 71", got)
	}
}

func TestEncryptRanksAlphanumerically(t *testing.T) {
	events := []string{"on", "off", "on", "mid"}
	alpha := []string{"mid", "off", "on"} // sorted
	got := Encrypt(events, alpha)
	want := "cbca"
	if string(got) != want {
		t.Fatalf("Encrypt = %q, want %q", got, want)
	}
}

func TestEncryptUnknownEvent(t *testing.T) {
	got := Encrypt([]string{"on", "NEW", "off"}, []string{"off", "on"})
	if string(got) != "b?a" {
		t.Fatalf("Encrypt with unknown = %q, want \"b?a\"", got)
	}
}

// decode maps ids back to words.
func decode(v *Vocab, ids []int) string {
	words := make([]string, len(ids))
	for i, id := range ids {
		words[i] = v.Word(id)
	}
	return strings.Join(words, ",")
}

func TestWordsSlidingWindow(t *testing.T) {
	l := &Language{
		Vocab:  VocabFromWords([]string{"abc", "bcd", "cde"}),
		Config: Config{WordLen: 3, WordStride: 1, SentenceLen: 3, SentenceStride: 1},
	}
	if got := decode(l.Vocab, l.Sentence(nil, []byte("abcde"))); got != "abc,bcd,cde" {
		t.Fatalf("Sentence words = %s, want abc,bcd,cde", got)
	}
	l.Config.WordStride, l.Config.SentenceLen = 2, 2
	if got := decode(l.Vocab, l.Sentence(nil, []byte("abcdef"))); got != "abc,cde" {
		t.Fatalf("strided Sentence words = %s, want abc,cde", got)
	}
	if got := l.Sentence(nil, []byte("ab")); len(got) != 0 {
		t.Fatalf("too-short window produced words: %v", got)
	}
	// A word stride past the word length skips the chars between words.
	l.Config = Config{WordLen: 1, WordStride: 3, SentenceLen: 2, SentenceStride: 1}
	l.Vocab = VocabFromWords([]string{"a", "d"})
	if span := l.Config.Span(); span != 4 {
		t.Fatalf("Span = %d, want 4", span)
	}
	if got := decode(l.Vocab, l.Sentence(nil, []byte("abcd"))); got != "a,d" {
		t.Fatalf("gapped Sentence words = %s, want a,d", got)
	}
}

func TestSentencesWindow(t *testing.T) {
	cfg := Config{WordLen: 1, WordStride: 1, SentenceLen: 2, SentenceStride: 2}
	pos := func(word []byte) int { return int(word[0] - 'a') }
	sents := cfg.sentences([]byte("abcde"), pos)
	if fmt.Sprint(sents) != "[[0 1] [2 3]]" {
		t.Fatalf("sentences = %v, want [[0 1] [2 3]] (no partial sentences)", sents)
	}
	if got := refSentences(cfg, []string{"w1", "w2", "w3", "w4", "w5"}); fmt.Sprint(got) != "[[w1 w2] [w3 w4]]" {
		t.Fatalf("reference sentences = %v", got)
	}
	// Overlapping sentences with stride 1.
	cfg.SentenceStride = 1
	if got := cfg.sentences([]byte("abc"), pos); fmt.Sprint(got) != "[[0 1] [1 2]]" {
		t.Fatalf("overlapping sentences = %v, want [[0 1] [1 2]]", got)
	}
}

func TestNumWordsSentencesMatchGeneration(t *testing.T) {
	f := func(ticksRaw, wlRaw, wsRaw, slRaw, ssRaw uint8) bool {
		cfg := Config{
			WordLen:        int(wlRaw)%5 + 1,
			WordStride:     int(wsRaw)%3 + 1,
			SentenceLen:    int(slRaw)%4 + 1,
			SentenceStride: int(ssRaw)%3 + 1,
		}
		ticks := int(ticksRaw) % 60
		chars := make([]byte, ticks)
		for i := range chars {
			chars[i] = byte('a' + i%2)
		}
		words := refWords(cfg, chars)
		if len(words) != numWords(cfg, ticks) {
			return false
		}
		return len(refSentences(cfg, words)) == cfg.NumSentences(ticks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// vocabSeq is a one-char-word training sequence whose chars occur with the
// frequencies c:3, a:2, d:2, b:1 (alphabet mid, off, on, up → a, b, c, d).
var vocabSeq = seqio.Sequence{Sensor: "s", Events: []string{"on", "mid", "on", "up", "off", "mid", "up", "on"}}

func TestBuildVocabReservedAndOrder(t *testing.T) {
	cfg := Config{WordLen: 1, WordStride: 1, SentenceLen: 1, SentenceStride: 1}
	l, err := Build(vocabSeq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := l.Vocab
	if v.Size() != 7 || v.WordCount() != 4 {
		t.Fatalf("vocab size = %d/%d", v.Size(), v.WordCount())
	}
	if refID(v, UnkWord) != UnkID || refID(v, BosWord) != BosID || refID(v, EosWord) != EosID {
		t.Fatal("reserved ids wrong")
	}
	// Descending frequency, ties lexicographic: c, then a before d, then b.
	if got := decode(v, []int{3, 4, 5, 6}); got != "c,a,d,b" {
		t.Fatalf("vocabulary order = %s, want c,a,d,b", got)
	}
	if v.IDBytes([]byte("zz")) != UnkID {
		t.Fatal("unknown word must map to UnkID")
	}
	if v.Word(99) != UnkWord || v.Word(-1) != UnkWord {
		t.Fatal("out-of-range Word must return <unk>")
	}
}

func TestBuildVocabCap(t *testing.T) {
	cfg := Config{WordLen: 1, WordStride: 1, SentenceLen: 1, SentenceStride: 1, MaxVocab: 2}
	l, _, sents, err := Learn(vocabSeq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := l.Vocab
	if v.WordCount() != 2 {
		t.Fatalf("capped WordCount = %d, want 2", v.WordCount())
	}
	if v.IDBytes([]byte("c")) == UnkID || v.IDBytes([]byte("a")) == UnkID {
		t.Fatal("top-frequency words must survive the cap")
	}
	if v.IDBytes([]byte("d")) != UnkID || v.IDBytes([]byte("b")) != UnkID {
		t.Fatal("capped-out words must be <unk>")
	}
	// Learn's training sentences encode the capped-out words as <unk> too.
	if fmt.Sprint(sents) != "[[3] [4] [3] [0] [0] [4] [0] [3]]" {
		t.Fatalf("Learn sentences = %v", sents)
	}
}

func TestVocabEncodeDecodeRoundTrip(t *testing.T) {
	l := &Language{
		Vocab:  VocabFromWords([]string{"x", "y", "z"}),
		Config: Config{WordLen: 1, WordStride: 1, SentenceLen: 3, SentenceStride: 1},
	}
	if got := decode(l.Vocab, l.Sentence(nil, []byte("xz?"))); got != "x,z,"+UnkWord {
		t.Fatalf("decoded Sentence = %s", got)
	}
	if got := refEncode(l.Vocab, [][]string{{"x", "y"}, {"y", "z"}}); fmt.Sprint(got) != "[[3 4] [4 5]]" {
		t.Fatalf("reference encoding = %v", got)
	}
}

func TestBuildLanguage(t *testing.T) {
	events := make([]string, 30)
	for i := range events {
		if i%3 == 0 {
			events[i] = "on"
		} else {
			events[i] = "off"
		}
	}
	seq := seqio.Sequence{Sensor: "s1", Events: events}
	cfg := Config{WordLen: 4, WordStride: 1, SentenceLen: 3, SentenceStride: 3}
	l, err := Build(seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Sensor != "s1" || len(l.Alphabet) != 2 {
		t.Fatalf("Language = %+v", l)
	}
	if l.VocabularySize() == 0 {
		t.Fatal("vocabulary must be non-empty")
	}
	sents, err := l.SentencesFor(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(sents) != cfg.NumSentences(30) {
		t.Fatalf("SentencesFor count = %d, want %d", len(sents), cfg.NumSentences(30))
	}
	for _, s := range sents {
		for _, id := range s {
			if id == UnkID {
				t.Fatal("training data must not encode to <unk>")
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	seq := seqio.Sequence{Sensor: "s", Events: []string{"a", "b"}}
	cfg := Config{WordLen: 10, WordStride: 1, SentenceLen: 2, SentenceStride: 1}
	if _, err := Build(seq, cfg); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short sequence error = %v", err)
	}
	if _, err := Build(seq, Config{}); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestSentencesForUnknownEventsBecomeUnk(t *testing.T) {
	train := seqio.Sequence{Sensor: "s", Events: repeat([]string{"on", "off"}, 20)}
	cfg := Config{WordLen: 3, WordStride: 1, SentenceLen: 2, SentenceStride: 2}
	l, err := Build(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Test split contains a state never seen in training.
	test := seqio.Sequence{Sensor: "s", Events: repeat([]string{"FAULT"}, 12)}
	sents, err := l.SentencesFor(test)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sents {
		for _, id := range s {
			if id != UnkID {
				t.Fatalf("unseen events must encode to <unk>, got id %d", id)
			}
		}
	}
	// Too-short test split errors cleanly.
	if _, err := l.SentencesFor(seqio.Sequence{Sensor: "s", Events: []string{"on"}}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short test error = %v", err)
	}
}

func repeat(pattern []string, n int) []string {
	out := make([]string, 0, n*len(pattern))
	for i := 0; i < n; i++ {
		out = append(out, pattern...)
	}
	return out
}

// Property: aligned sensors always yield the same sentence count, which is
// what lets Algorithm 2 index test sentences by timestamp across sensors.
func TestAlignedSentenceCountsQuick(t *testing.T) {
	f := func(ticksRaw uint8) bool {
		ticks := int(ticksRaw)%80 + 20
		a := make([]string, ticks)
		b := make([]string, ticks)
		for i := range a {
			a[i] = string(rune('a' + i%2))
			b[i] = string(rune('x' + i%3))
		}
		cfg := Config{WordLen: 4, WordStride: 1, SentenceLen: 3, SentenceStride: 2}
		la, err1 := Build(seqio.Sequence{Sensor: "a", Events: a}, cfg)
		lb, err2 := Build(seqio.Sequence{Sensor: "b", Events: b}, cfg)
		if err1 != nil || err2 != nil {
			return true // too short for a sentence: nothing to compare
		}
		sa, _ := la.SentencesFor(seqio.Sequence{Sensor: "a", Events: a})
		sb, _ := lb.SentencesFor(seqio.Sequence{Sensor: "b", Events: b})
		return len(sa) == len(sb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIDBytesMatchesIDAndDoesNotAllocate(t *testing.T) {
	v := VocabFromWords([]string{"abca", "bcab", "cabc"})
	for _, w := range []string{"abca", "bcab", "cabc", "zzzz", ""} {
		if got, want := v.IDBytes([]byte(w)), refID(v, w); got != want {
			t.Fatalf("IDBytes(%q) = %d, ID = %d", w, got, want)
		}
	}
	// The []byte->string conversion in the map lookup must be elided by the
	// compiler: this is what keeps the streaming hot path allocation-free.
	word := []byte("bcab")
	allocs := testing.AllocsPerRun(100, func() {
		if v.IDBytes(word) == UnkID {
			t.Fatal("known word mapped to UnkID")
		}
	})
	if allocs != 0 {
		t.Fatalf("IDBytes allocates %v per call, want 0", allocs)
	}
	// Nor does Sentence encoding a window into a buffer with room.
	l := &Language{Vocab: v, Config: Config{WordLen: 4, WordStride: 1, SentenceLen: 3, SentenceStride: 1}}
	window, dst := []byte("bcabca"), make([]int, 0, 3)
	if allocs := testing.AllocsPerRun(100, func() { dst = l.Sentence(dst, window) }); allocs != 0 {
		t.Fatalf("Sentence allocates %v per call, want 0", allocs)
	}
}

// TestBuildAlphabetBound pins the byte-rank encryption boundary: exactly
// MaxAlphabet distinct events must encrypt collision-free (and never collide
// with UnknownChar), while one more event must be rejected by Build instead
// of silently wrapping byte('a'+i) into colliding — or '?'-aliasing — ranks.
func TestBuildAlphabetBound(t *testing.T) {
	cfg := Config{WordLen: 1, WordStride: 1, SentenceLen: 1, SentenceStride: 1}
	mkSeq := func(card int) seqio.Sequence {
		events := make([]string, card)
		for i := range events {
			events[i] = fmt.Sprintf("ev%03d", i)
		}
		return seqio.Sequence{Sensor: "wide", Events: events}
	}

	seq := mkSeq(MaxAlphabet)
	l, err := Build(seq, cfg)
	if err != nil {
		t.Fatalf("Build at the %d-event boundary: %v", MaxAlphabet, err)
	}
	chars := Encrypt(seq.Events, l.Alphabet)
	seen := make(map[byte]string, len(chars))
	for i, c := range chars {
		if c == UnknownChar {
			t.Fatalf("in-alphabet event %q encrypted to UnknownChar", seq.Events[i])
		}
		if prev, dup := seen[c]; dup {
			t.Fatalf("rank collision: %q and %q both encrypt to %q", prev, seq.Events[i], c)
		}
		seen[c] = seq.Events[i]
	}

	if _, err := Build(mkSeq(MaxAlphabet+1), cfg); !errors.Is(err, ErrAlphabetTooLarge) {
		t.Fatalf("Build past the boundary: err = %v, want ErrAlphabetTooLarge", err)
	}
}

// FuzzSentences holds the one chars → ids encoder to the string pipeline:
// over a fuzzed alphabet (1 to MaxAlphabet events), configuration and event
// sequence, with test events outside the alphabet, Build's vocabulary (words
// and ids) and Learn's chars and sentences equal the reference's, and
// SentencesFor and Sentence encode every sequence exactly as refEncode
// does, into NumSentences sentences.
func FuzzSentences(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(1), uint8(4), uint8(2), uint8(0), []byte("\x00\x01\x01\x00\x02\x00\x01\x01\x00\x01\x03\x00"))
	f.Add(uint8(3), uint8(1), uint8(3), uint8(2), uint8(1), uint8(2), []byte("\x00\x01\x02\x02\x01\x00\x04\x01\x02\x00"))
	f.Add(uint8(200), uint8(12), uint8(2), uint8(3), uint8(3), uint8(5), []byte("\x07\x10\x9f\xa0\xa1\x03"))
	f.Fuzz(func(t *testing.T, alpha, wl, ws, sl, ss, maxVocab uint8, data []byte) {
		cfg := Config{
			WordLen:        int(wl)%12 + 1,
			WordStride:     int(ws)%6 + 1,
			SentenceLen:    int(sl)%8 + 1,
			SentenceStride: int(ss)%8 + 1,
			MaxVocab:       int(maxVocab) % 8,
		}
		// Events e000.. sort in index order; the training sequence holds
		// each of the n once, then the data's. The test sequence also
		// draws from two events outside the alphabet.
		n := int(alpha)%MaxAlphabet + 1
		event := func(i int) string {
			switch i - n {
			case 0:
				return string(UnknownChar)
			case 1:
				return "zz"
			}
			return fmt.Sprintf("e%03d", i)
		}
		var train, test []string
		for i := 0; i < n; i++ {
			train = append(train, event(i))
		}
		for _, b := range data {
			train = append(train, event(int(b)%n))
			test = append(test, event(int(b)%(n+2)))
		}

		l, chars, sents, err := Learn(seqio.Sequence{Sensor: "s", Events: train}, cfg)
		if cfg.NumSentences(len(train)) == 0 {
			if !errors.Is(err, ErrTooShort) {
				t.Fatalf("%+v: %d training ticks: err = %v, want ErrTooShort", cfg, len(train), err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		wantVocab, wantSents := refLanguage(train, l.Alphabet, cfg)
		if !reflect.DeepEqual(l.Vocab.words, wantVocab.words) {
			t.Fatalf("%+v: vocabulary %q, reference %q", cfg, l.Vocab.words, wantVocab.words)
		}
		if want := Encrypt(train, l.Alphabet); string(chars) != string(want) {
			t.Fatalf("%+v: Learn chars %q, Encrypt %q", cfg, chars, want)
		}
		if !reflect.DeepEqual(sents, wantSents) {
			t.Fatalf("%+v: Learn sentences %v, reference %v", cfg, sents, wantSents)
		}

		for _, events := range [][]string{train, test} {
			chars := Encrypt(events, l.Alphabet)
			want := refEncode(l.Vocab, refSentences(cfg, refWords(cfg, chars)))
			if len(want) != cfg.NumSentences(len(events)) {
				t.Fatalf("%+v: reference has %d sentences over %d ticks, NumSentences %d", cfg, len(want), len(events), cfg.NumSentences(len(events)))
			}
			got, err := l.SentencesFor(seqio.Sequence{Sensor: "s", Events: events})
			if len(want) == 0 {
				if !errors.Is(err, ErrTooShort) {
					t.Fatalf("%+v: %d ticks: err = %v, want ErrTooShort", cfg, len(events), err)
				}
				continue
			}
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: SentencesFor %v (err %v), reference %v", cfg, got, err, want)
			}
			var dst []int
			for i, sent := range want {
				dst = l.Sentence(dst, chars[i*cfg.Stride():i*cfg.Stride()+cfg.Span()])
				if !reflect.DeepEqual(dst, sent) {
					t.Fatalf("%+v: Sentence %d = %v, reference %v", cfg, i, dst, sent)
				}
			}
		}
	})
}
