package mat

import "testing"

// TestSlabSpillAndFold drives a cold slab through several growth steps:
// slices handed out before a growth keep their contents, Reset folds every
// buffer into one of their total size, and the same demand then allocates
// nothing and gets zeroed memory.
func TestSlabSpillAndFold(t *testing.T) {
	var s Slab[int]
	var held [][]int
	for i := 0; i < 6; i++ {
		v := s.Take(minSlab/2 + i)
		if cap(v) != len(v) {
			t.Fatalf("Take(%d) has cap %d, want it capped", len(v), cap(v))
		}
		for j := range v {
			v[j] = i + 1
		}
		held = append(held, v)
	}
	for i, v := range held {
		for _, x := range v {
			if x != i+1 {
				t.Fatalf("slice %d changed after the slab grew: %v", i, v)
			}
		}
	}
	used := s.spilled + len(s.buf)
	s.Reset()
	if s.spilled != 0 || len(s.buf) != used {
		t.Fatalf("Reset left %d spilled and a %d buffer, want 0 and %d", s.spilled, len(s.buf), used)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 6; i++ {
			for _, x := range s.Take(minSlab/2 + i) {
				if x != 0 {
					t.Fatal("Take after Reset returned dirty memory")
				}
			}
		}
		s.Reset()
	})
	if allocs != 0 {
		t.Fatalf("warm slab allocates %v times per run, want 0", allocs)
	}
}

// TestSlabNewIsAFreeList checks New hands out distinct zeroed structs and,
// after Reset, the same slots again.
func TestSlabNewIsAFreeList(t *testing.T) {
	type pair struct{ a, b []float64 }
	var s Slab[pair]
	p, q := s.New(), s.New()
	if p == q {
		t.Fatal("New returned the same struct twice before Reset")
	}
	p.a = []float64{1}
	s.Reset()
	if r := s.New(); r != p || r.a != nil {
		t.Fatalf("New after Reset = %p (a %v), want the first slot %p cleared", r, r.a, p)
	}
}

func TestResizeReusesBigEnoughArrays(t *testing.T) {
	a := Resize[int](nil, 8)
	a[7] = 1
	if b := Resize(a, 4); &b[0] != &a[0] || len(b) != 4 {
		t.Fatal("Resize reallocated a big-enough array")
	}
	if c := Resize(a[:0], 8); &c[0] != &a[0] || c[7] != 1 {
		t.Fatal("Resize did not reslice up to the array's capacity")
	}
	if d := Resize(a, 9); len(d) != 9 || &d[0] == &a[0] {
		t.Fatal("Resize did not grow a too-small array")
	}
}
