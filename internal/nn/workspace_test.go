package nn

import (
	"math/rand"
	"testing"
)

func TestWorkspaceVecZeroedAndCapped(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Vec(8)
	for i := range a {
		a[i] = float64(i + 1)
	}
	b := ws.Vec(4)
	for _, v := range b {
		if v != 0 {
			t.Fatalf("Vec returned non-zero memory: %v", b)
		}
	}
	if cap(a) != 8 || cap(b) != 4 {
		t.Fatalf("Vec slices not capacity-capped: cap(a)=%d cap(b)=%d", cap(a), cap(b))
	}
	ws.Reset()
	c := ws.Vec(8)
	for _, v := range c {
		if v != 0 {
			t.Fatalf("Vec after Reset returned dirty memory: %v", c)
		}
	}
}

func TestWorkspaceIntsZeroed(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Ints(6)
	for i := range a {
		a[i] = i + 1
	}
	ws.Reset()
	b := ws.Ints(6)
	for _, v := range b {
		if v != 0 {
			t.Fatalf("Ints after Reset returned dirty memory: %v", b)
		}
	}
}

// TestWorkspaceVecsSurviveGrowth fills the per-position arena past its first
// slab: what was handed out before the growth must keep its contents (the
// training loop holds those slices until the example ends), and after Reset
// the same demand is met with nil entries and no allocation.
func TestWorkspaceVecsSurviveGrowth(t *testing.T) {
	ws := NewWorkspace()
	marker := []float64{1}
	first := ws.Vecs(minArena - 1)
	first[0] = marker
	second := ws.Vecs(minArena) // does not fit beside first: the arena grows
	second[0] = marker
	if &first[0][0] != &marker[0] || len(first) != minArena-1 || cap(second) != minArena {
		t.Fatal("growth disturbed a slice handed out earlier")
	}
	ws.Reset()
	allocs := testing.AllocsPerRun(10, func() {
		a, b := ws.Vecs(minArena-1), ws.Vecs(minArena)
		if a[0] != nil || b[0] != nil {
			t.Fatal("Vecs after Reset returned stale entries")
		}
		a[0], b[0] = marker, marker
		ws.Reset()
	})
	if allocs != 0 {
		t.Fatalf("warm arena still allocates: %v allocs/run", allocs)
	}
}

// TestWorkspaceResetCoalesces drives the arena past its slab size so it
// spills, then checks Reset folds the spill into one slab large enough that a
// repeat of the same allocation pattern allocates nothing.
func TestWorkspaceResetCoalesces(t *testing.T) {
	ws := NewWorkspace()
	pattern := func() {
		for i := 0; i < 8; i++ {
			ws.Vec(minSlab / 2) // forces several growth steps on a cold arena
		}
	}
	pattern()
	ws.Reset()
	allocs := testing.AllocsPerRun(10, func() {
		pattern()
		ws.Reset()
	})
	if allocs != 0 {
		t.Fatalf("warm workspace still allocates: %v allocs/run", allocs)
	}
}

func newBenchCell(t testing.TB, in, hidden int) (*LSTMCell, []float64, []float64, []float64) {
	t.Helper()
	var p Params
	rng := rand.New(rand.NewSource(1))
	cell := NewLSTMCell(&p, "cell", in, hidden, rng)
	p.AllocGrad()
	x := make([]float64, in)
	h := make([]float64, hidden)
	c := make([]float64, hidden)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range h {
		h[i] = rng.NormFloat64()
		c[i] = rng.NormFloat64()
	}
	return cell, x, h, c
}

// TestLSTMStepWSAllocationFree pins the headline workspace property: once the
// arena is warm, a forward LSTM step performs zero heap allocations.
func TestLSTMStepWSAllocationFree(t *testing.T) {
	cell, x, h, c := newBenchCell(t, 24, 32)
	ws := NewWorkspace()
	cell.StepWS(ws, x, h, c) // warm the slab and free lists
	ws.Reset()
	allocs := testing.AllocsPerRun(20, func() {
		cell.StepWS(ws, x, h, c)
		ws.Reset()
	})
	if allocs != 0 {
		t.Fatalf("StepWS allocates %v times per step on a warm workspace, want 0", allocs)
	}
}

// TestLSTMStepBackwardWSAllocationFree pins the same property for backprop.
func TestLSTMStepBackwardWSAllocationFree(t *testing.T) {
	cell, x, h, c := newBenchCell(t, 24, 32)
	ws := NewWorkspace()
	dh := make([]float64, 32)
	dc := make([]float64, 32)
	dx := make([]float64, 24)
	dhPrev := make([]float64, 32)
	dcPrev := make([]float64, 32)
	for i := range dh {
		dh[i] = 0.01 * float64(i)
	}
	run := func() {
		st := cell.StepWS(ws, x, h, c)
		cell.StepBackwardWS(ws, st, dh, dc, dx, dhPrev, dcPrev)
		ws.Reset()
	}
	run() // warm
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("StepWS+StepBackwardWS allocates %v times per step on a warm workspace, want 0", allocs)
	}
}

// TestStackedStepWSAllocationFree covers the full stack path including dropout
// mask buffers, which also come out of the workspace.
func TestStackedStepWSAllocationFree(t *testing.T) {
	var p Params
	rng := rand.New(rand.NewSource(2))
	stack := NewStackedLSTM(&p, "enc", 3, 16, 32, 0.2, rng)
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dropRNG := rand.New(rand.NewSource(3))
	ws := NewWorkspace()
	run := func() {
		st := stack.ZeroStateWS(ws)
		stack.StepWS(ws, st, x, dropRNG)
		ws.Reset()
	}
	run() // warm
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("StackedLSTM.StepWS allocates %v times per step on a warm workspace, want 0", allocs)
	}
}

// TestNameLayerDoubleDigits is the regression test for the old
// string(rune('0'+i)) bug, which produced ":" ";" "<" … for layers ≥ 10.
func TestNameLayerDoubleDigits(t *testing.T) {
	cases := map[int]string{0: "enc.l0", 9: "enc.l9", 10: "enc.l10", 11: "enc.l11", 42: "enc.l42"}
	for i, want := range cases {
		if got := nameLayer("enc", i); got != want {
			t.Errorf("nameLayer(enc, %d) = %q, want %q", i, got, want)
		}
	}

	// Parameter names of a 12-layer stack must be unique and well-formed.
	var p Params
	rng := rand.New(rand.NewSource(4))
	NewStackedLSTM(&p, "deep", 12, 8, 8, 0, rng)
	seen := map[string]bool{}
	for _, prm := range p.All() {
		if seen[prm.Name] {
			t.Errorf("duplicate parameter name %q", prm.Name)
		}
		seen[prm.Name] = true
	}
	for _, name := range []string{"deep.l10.Wx", "deep.l11.Wh"} {
		if !seen[name] {
			t.Errorf("expected parameter %q in a 12-layer stack; got names %v", name, keysOf(seen))
		}
	}
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
