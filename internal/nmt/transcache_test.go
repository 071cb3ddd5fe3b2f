package nmt

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refCache is the translation cache as two Go maps, each dropped whole at
// transCacheCap: the behaviour the packed tables must reproduce answer for
// answer.
type refCache struct {
	entries map[string][]int
	scores  map[string]float64
	off     bool
}

func (r *refCache) lookup(src []int) ([]int, bool) {
	hyp, ok := r.entries[string(appendTokens(nil, src))]
	return hyp, ok
}

func (r *refCache) store(src, hyp []int) {
	if r.off {
		return
	}
	if len(r.entries) >= transCacheCap {
		r.entries = nil
	}
	if r.entries == nil {
		r.entries = make(map[string][]int)
	}
	r.entries[string(appendTokens(nil, src))] = slices.Clone(hyp)
}

func (r *refCache) score(src, ref []int) (float64, bool) {
	s, ok := r.scores[string(appendScoreKey(nil, src, ref))]
	return s, ok
}

func (r *refCache) storeScore(src, ref []int, s float64) {
	if r.off {
		return
	}
	if len(r.scores) >= transCacheCap {
		r.scores = nil
	}
	if r.scores == nil {
		r.scores = make(map[string]float64)
	}
	r.scores[string(appendScoreKey(nil, src, ref))] = s
}

// fuzzTokens are the token ids fuzzed sequences draw from: the small ids a
// language uses, and negative and huge ids whose varints run long.
var fuzzTokens = []int{0, 1, 2, 3, 4, 5, 18, 63, 64, 127, 128, 300, -1, -64, -65, -1 << 20, 1 << 40, math.MaxInt64, math.MinInt64}

// FuzzTransCache drives the packed cache and refCache with the same
// operations (Lookup, Store, Score, StoreScore, Drop, SetCaching, and bulk
// stores that cross the cap) and requires equal answers and equal
// Len/ScoreLen after every one.
func FuzzTransCache(f *testing.F) {
	f.Add([]byte{1, 3, 0, 1, 2, 2, 1, 2, 0, 3, 0, 1, 2})
	f.Add([]byte{3, 4, 1, 2, 3, 4, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 2, 4, 1, 2, 3, 4, 2})
	f.Add([]byte{6, 130, 1, 0, 0, 3, 0, 0, 6, 200, 2, 0, 0, 5, 0, 1, 1, 1})
	f.Add([]byte{1, 60, 12, 13, 14, 15, 16, 17, 18, 12, 13, 14, 15, 16, 17, 18, 12, 13, 14, 15, 1, 0, 5, 1, 0, 60, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// Sequences run up to 63 tokens, so keys pass keyBufLen.
		seq := func() []int {
			s := make([]int, next()%64)
			for i := range s {
				s[i] = fuzzTokens[next()%len(fuzzTokens)]
			}
			return s
		}
		var c TransCache
		var r refCache
		buf := make([]int, 0, 4)
		for op := 0; len(data) > 0; op++ {
			switch next() % 7 {
			case 0:
				src := seq()
				got, ok := c.Lookup(src, buf)
				want, wok := r.lookup(src)
				if ok != wok || !slices.Equal(got, want) {
					t.Fatalf("op %d: Lookup(%v) = %v, %v; want %v, %v", op, src, got, ok, want, wok)
				}
				clear(got) // the result is the caller's to overwrite
			case 1:
				src, hyp := seq(), seq()
				c.Store(src, hyp)
				r.store(src, hyp)
				clear(hyp) // the cache keeps its own copy
			case 2:
				src, ref := seq(), seq()
				got, ok := c.Score(src, ref)
				want, wok := r.score(src, ref)
				if ok != wok || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("op %d: Score(%v, %v) = %v, %v; want %v, %v", op, src, ref, got, ok, want, wok)
				}
			case 3:
				src, ref := seq(), seq()
				var b [8]byte
				for i := range b {
					b[i] = byte(next())
				}
				s := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
				c.StoreScore(src, ref, s)
				r.storeScore(src, ref, s)
			case 4:
				c.Drop()
				r.entries, r.scores = nil, nil
			case 5:
				on := next()%2 == 0
				c.SetCaching(on)
				r.off, r.entries, r.scores = !on, nil, nil
			case 6:
				// Bulk stores of distinct short sequences, up to twice the cap.
				n, base := next()*32, next()
				for i := 0; i < n; i++ {
					src := []int{base, i % 19, i / 19 % 19, i / 361}
					c.Store(src, src[1:])
					r.store(src, src[1:])
					c.StoreScore(src, src, float64(i))
					r.storeScore(src, src, float64(i))
				}
			}
			if c.Len() != len(r.entries) || c.ScoreLen() != len(r.scores) {
				t.Fatalf("op %d: Len/ScoreLen %d/%d, want %d/%d", op, c.Len(), c.ScoreLen(), len(r.entries), len(r.scores))
			}
		}
	})
}

// TestTagCollisionIsNotAHit finds two keys with the same hash tag and checks
// that each is a miss for the other and both are answered once stored: a
// hash match alone is never a hit.
func TestTagCollisionIsNotAHit(t *testing.T) {
	seen := make(map[uint32]int)
	var a, b []int
	for i := 0; a == nil; i++ {
		if i == 1<<22 {
			t.Fatal("no tag collision among 4M keys")
		}
		tag := hashKey(appendTokens(nil, []int{i}))
		if j, ok := seen[tag]; ok {
			a, b = []int{j}, []int{i}
		}
		seen[tag] = i
	}
	var c TransCache
	c.Store(a, []int{1})
	if got, ok := c.Lookup(b, nil); ok {
		t.Fatalf("%v shares %v's tag and must miss, got %v", b, a, got)
	}
	c.StoreScore(a, nil, 1)
	if _, ok := c.Score(b, nil); ok {
		t.Fatalf("score memo: %v shares %v's tag and must miss", b, a)
	}
	c.Store(b, []int{2})
	ga, _ := c.Lookup(a, nil)
	gb, _ := c.Lookup(b, nil)
	if !slices.Equal(ga, []int{1}) || !slices.Equal(gb, []int{2}) || c.Len() != 2 {
		t.Fatalf("colliding keys: %v→%v, %v→%v, %d entries", a, ga, b, gb, c.Len())
	}
}

// BenchmarkTransCache fills each table with transCacheCap entries at bench
// shape (13-token sentences over a 19-token vocabulary, 13-token
// hypotheses), reports the heap bytes an entry costs, and times a hit.
func BenchmarkTransCache(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	sentence := func() []int {
		s := make([]int, 13)
		for i := range s {
			s[i] = rng.Intn(19)
		}
		return s
	}
	srcs, refs := make([][]int, transCacheCap), make([][]int, transCacheCap)
	for i := range srcs {
		srcs[i], refs[i] = sentence(), sentence()
	}
	// fill returns the live heap bytes per entry that transCacheCap calls
	// of store add.
	fill := func(store func(i int)) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range srcs {
			store(i)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return float64(after.HeapAlloc-before.HeapAlloc) / transCacheCap
	}
	b.Run("translations", func(b *testing.B) {
		c := new(TransCache)
		perEntry := fill(func(i int) { c.Store(srcs[i], refs[i]) })
		buf := make([]int, 0, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, _ = c.Lookup(srcs[i%len(srcs)], buf)
		}
		b.ReportMetric(perEntry, "bytes/entry")
	})
	b.Run("scores", func(b *testing.B) {
		c := new(TransCache)
		perEntry := fill(func(i int) { c.StoreScore(srcs[i], refs[i], float64(i)) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Score(srcs[i%len(srcs)], refs[i%len(refs)])
		}
		b.ReportMetric(perEntry, "bytes/entry")
	})
}
