package nmt

import (
	"encoding/binary"
	"sync"
)

// TransCache memoises greedy translations per source sentence. Greedy
// decoding is deterministic, and discrete event languages repeat the same
// sentences constantly, so both engines — Model here and the frozen
// infer.Model — put one in front of their decoder: it is the dedupe that
// makes corpus scoring and online detection cheap. The zero value is an
// empty, enabled cache; it is safe for concurrent use.
type TransCache struct {
	mu      sync.Mutex
	entries map[string][]int
	off     bool
}

// transCacheCap bounds the translation cache; when full, the whole map is
// dropped (deterministic, and a full drop is simpler than eviction for the
// tiny, highly repetitive languages the framework builds).
const transCacheCap = 4096

// SetCaching turns the cache on or off. Either way it drops every entry.
func (c *TransCache) SetCaching(on bool) {
	c.mu.Lock()
	c.off = !on
	c.entries = nil
	c.mu.Unlock()
}

// Drop empties the cache; the owner calls it whenever its weights change.
func (c *TransCache) Drop() {
	c.mu.Lock()
	c.entries = nil
	c.mu.Unlock()
}

// Len reports how many translations are cached.
func (c *TransCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Lookup returns the cached translation of src. The slice is cache-owned and
// never written again: callers may read it without the lock but must copy it
// before handing it to code that may modify it. With caching off Lookup
// allocates nothing.
func (c *TransCache) Lookup(src []int) ([]int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.off {
		return nil, false
	}
	hyp, ok := c.entries[transKey(src)]
	return hyp, ok
}

// Store records a copy of hyp as the translation of src; a no-op with
// caching off.
func (c *TransCache) Store(src, hyp []int) {
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
	c.entries[transKey(src)] = append([]int(nil), hyp...)
}

// transKey packs a token sequence into a map key.
func transKey(toks []int) string {
	var tmp [binary.MaxVarintLen64]byte
	buf := make([]byte, 0, 2*len(toks))
	for _, t := range toks {
		n := binary.PutVarint(tmp[:], int64(t))
		buf = append(buf, tmp[:n]...)
	}
	return string(buf)
}
