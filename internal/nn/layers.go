package nn

import (
	"math/rand"

	"mdes/internal/mat"
)

// Embedding maps token ids to dense vectors. Row i of the weight matrix is
// the embedding of token i.
type Embedding struct {
	W   *Param
	Dim int
}

// NewEmbedding registers a vocab×dim embedding table initialised uniformly
// from rng; a nil rng leaves it zero, for a restore to fill.
func NewEmbedding(p *Params, name string, vocab, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{W: p.New(name, vocab, dim), Dim: dim}
	if rng != nil {
		e.W.W.UniformFill(rng, 0.1)
	}
	return e
}

// Lookup returns a view of the embedding for token id. Callers must not
// modify it.
func (e *Embedding) Lookup(id int) []float64 { return e.W.W.Row(id) }

// Backward accumulates the gradient for a single looked-up token.
func (e *Embedding) Backward(id int, grad []float64) {
	checkLen("embedding", len(grad), e.Dim)
	mat.Axpy(1, grad, e.W.Grad.Row(id))
}

// Linear is a fully connected layer y = W·x + b.
type Linear struct {
	W, B    *Param
	In, Out int
}

// NewLinear registers an out×in linear layer with Xavier weights drawn from
// rng (zero when rng is nil) and zero bias.
func NewLinear(p *Params, name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		W:  p.New(name+".W", out, in),
		B:  p.New(name+".b", 1, out),
		In: in, Out: out,
	}
	if rng != nil {
		l.W.W.XavierFill(rng)
	}
	return l
}

// Forward writes W·x + b into dst.
func (l *Linear) Forward(dst, x []float64) {
	checkLen("linear in", len(x), l.In)
	checkLen("linear out", len(dst), l.Out)
	l.W.W.MulVec(dst, x)
	mat.Axpy(1, l.B.W.Data, dst)
}

// Backward accumulates parameter gradients for one forward call and writes
// dL/dx into dx (which is accumulated into, not overwritten). x must be the
// input used in Forward; dy is dL/dy.
func (l *Linear) Backward(dx, x, dy []float64) {
	checkLen("linear dx", len(dx), l.In)
	checkLen("linear x", len(x), l.In)
	checkLen("linear dy", len(dy), l.Out)
	l.W.Grad.AddOuter(dy, x)
	mat.Axpy(1, dy, l.B.Grad.Data)
	l.W.W.MulVecTAdd(dx, dy)
}
