package mat

// The scratch mechanics every hot loop shares: the training workspace
// (nn.Workspace), the inference workspace (infer's ws) and the BLEU scorer
// keep their steady state allocation-free with a Slab per element type and
// Resize for buffers that live beside one. Both grow in exactly one place
// each, so the growth stays visible to the noalloc analyzer.

// Slab bump-allocates zeroed slices of T that stay valid until Reset. A full
// buffer is set aside for a fresh one twice its size (what it handed out
// stays alive through its users), and Reset folds the set-aside capacity
// into one buffer of the total, so once the largest unit of work has run the
// slab is a single buffer and Take allocates nothing. New makes it the free
// list of a struct type too. The zero value is ready; a Slab is not safe for
// concurrent use.
type Slab[T any] struct {
	buf     []T
	off     int
	spilled int // capacity set aside since the last Reset
}

// minSlab is the smallest buffer a Slab allocates, in elements.
const minSlab = 64

// Take returns a zeroed, capacity-capped length-n slice valid until Reset.
//
//mdes:noalloc
func (s *Slab[T]) Take(n int) []T {
	if s.off+n > len(s.buf) {
		s.grow(n)
	}
	v := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	clear(v)
	return v
}

// New returns a zeroed *T valid until Reset: the slab as a free list of
// cache structs, whose slots are handed out again after Reset.
//
//mdes:noalloc
func (s *Slab[T]) New() *T { return &s.Take(1)[0] }

// Last returns the last n elements handed out, oldest first, or nil if they
// do not all lie in the current buffer: a test's view of what a computation
// left behind.
func (s *Slab[T]) Last(n int) []T {
	if n > s.off {
		return nil
	}
	return s.buf[s.off-n : s.off : s.off]
}

// Reset recycles everything handed out since the previous Reset. After a
// spill it replaces the buffers of that unit of work with one as large as
// all of them together.
//
//mdes:noalloc
func (s *Slab[T]) Reset() {
	if s.spilled > 0 {
		total := s.spilled + len(s.buf)
		s.buf, s.spilled = nil, 0
		s.grow(total)
	}
	s.off = 0
}

// grow sets the current buffer aside for one of max(2·len, minSlab, n).
//
//mdes:noalloc
func (s *Slab[T]) grow(n int) {
	s.spilled += len(s.buf)
	//mdes:allow(noalloc) slab growth: folded by Reset, so only warm-up allocates
	s.buf = make([]T, max(2*len(s.buf), minSlab, n))
	s.off = 0
}

// Resize returns s with length n, reusing its array when it is big enough;
// otherwise a new one, the old contents not copied. Either way the contents
// are the caller's to overwrite or clear.
//
//mdes:noalloc
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		//mdes:allow(noalloc) grow-once scratch: only the largest shape yet allocates
		return make([]T, n)
	}
	return s[:n]
}
