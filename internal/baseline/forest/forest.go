// Package forest implements a CART-based random forest classifier with Gini
// impurity splits, bootstrap aggregation, per-split feature subsampling, and
// mean-decrease-in-impurity feature importances — the supervised baseline of
// the paper's Table II and the feature-ranking model of Fig 11(b)
// (scikit-learn's RandomForestClassifier stands in for it in the original).
package forest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Config controls forest training.
type Config struct {
	Trees int
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf.
	MinLeaf int
	// FeaturesPerSplit is the number of candidate features per split;
	// 0 selects ⌈√d⌉.
	FeaturesPerSplit int
	Seed             int64
}

// Default returns a conventional forest configuration.
func Default() Config {
	return Config{Trees: 100, MaxDepth: 0, MinLeaf: 1, FeaturesPerSplit: 0, Seed: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Trees <= 0:
		return fmt.Errorf("forest: trees %d must be positive", c.Trees)
	case c.MaxDepth < 0 || c.MinLeaf < 0 || c.FeaturesPerSplit < 0:
		return fmt.Errorf("forest: negative limits")
	}
	return nil
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature     int
	threshold   float64
	left, right int // child indices within the tree's node slice
	prob        float64
}

type tree struct {
	nodes []node
}

// Forest is a trained random forest.
type Forest struct {
	trees       []tree
	importances []float64
	features    int
}

// Errors returned by Train.
var (
	ErrNoData      = errors.New("forest: empty training set")
	ErrSingleClass = errors.New("forest: training set has a single class")
)

// Train fits a forest on X (rows are samples) with boolean labels y. The
// context is checked between trees; a cancelled run returns ctx.Err().
func Train(ctx context.Context, x [][]float64, y []bool, cfg Config) (*Forest, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(x) == 0 || len(x) != len(y) {
		return nil, ErrNoData
	}
	var pos int
	for _, v := range y {
		if v {
			pos++
		}
	}
	if pos == 0 || pos == len(y) {
		return nil, ErrSingleClass
	}
	d := len(x[0])
	mtry := cfg.FeaturesPerSplit
	if mtry <= 0 {
		mtry = int(math.Ceil(math.Sqrt(float64(d))))
	}
	if mtry > d {
		mtry = d
	}
	minLeaf := cfg.MinLeaf
	if minLeaf < 1 {
		minLeaf = 1
	}

	f := &Forest{importances: make([]float64, d), features: d}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for ti := 0; ti < cfg.Trees; ti++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Bootstrap sample.
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = rng.Intn(len(x))
		}
		b := &builder{
			x: x, y: y, rng: rng, mtry: mtry,
			maxDepth: cfg.MaxDepth, minLeaf: minLeaf,
			importances: f.importances,
		}
		root := b.build(idx, 0)
		f.trees = append(f.trees, tree{nodes: b.nodes})
		_ = root
	}
	// Normalise importances to sum to 1.
	var total float64
	for _, v := range f.importances {
		total += v
	}
	if total > 0 {
		for i := range f.importances {
			f.importances[i] /= total
		}
	}
	return f, nil
}

type builder struct {
	x           [][]float64
	y           []bool
	rng         *rand.Rand
	mtry        int
	maxDepth    int
	minLeaf     int
	nodes       []node
	importances []float64
}

func (b *builder) build(idx []int, depth int) int {
	pos := 0
	for _, i := range idx {
		if b.y[i] {
			pos++
		}
	}
	prob := float64(pos) / float64(len(idx))
	if pos == 0 || pos == len(idx) ||
		(b.maxDepth > 0 && depth >= b.maxDepth) || len(idx) < 2*b.minLeaf {
		return b.leaf(prob)
	}

	feature, threshold, gain := b.bestSplit(idx, prob)
	if feature < 0 {
		return b.leaf(prob)
	}
	var left, right []int
	for _, i := range idx {
		if b.x[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.minLeaf || len(right) < b.minLeaf {
		return b.leaf(prob)
	}
	// Mean decrease in impurity, weighted by the node's sample share.
	b.importances[feature] += gain * float64(len(idx))

	id := len(b.nodes)
	b.nodes = append(b.nodes, node{feature: feature, threshold: threshold})
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.nodes[id].left = l
	b.nodes[id].right = r
	return id
}

func (b *builder) leaf(prob float64) int {
	b.nodes = append(b.nodes, node{feature: -1, prob: prob})
	return len(b.nodes) - 1
}

// bestSplit scans mtry random features for the threshold with maximal Gini
// gain; returns feature -1 when no split improves impurity.
func (b *builder) bestSplit(idx []int, parentProb float64) (int, float64, float64) {
	parentGini := gini(parentProb)
	n := float64(len(idx))
	bestFeature, bestThreshold, bestGain := -1, 0.0, 1e-12

	d := len(b.x[0])
	perm := b.rng.Perm(d)
	type pair struct {
		v   float64
		pos bool
	}
	vals := make([]pair, 0, len(idx))
	for _, fi := range perm[:b.mtry] {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, pair{v: b.x[i][fi], pos: b.y[i]})
		}
		sort.Slice(vals, func(a, c int) bool { return vals[a].v < vals[c].v })

		var posLeft, nLeft float64
		var posTotal float64
		for _, p := range vals {
			if p.pos {
				posTotal++
			}
		}
		for k := 0; k < len(vals)-1; k++ {
			if vals[k].pos {
				posLeft++
			}
			nLeft++
			if vals[k].v == vals[k+1].v {
				continue // can't split between equal values
			}
			nRight := n - nLeft
			giniLeft := gini(posLeft / nLeft)
			giniRight := gini((posTotal - posLeft) / nRight)
			gain := parentGini - (nLeft*giniLeft+nRight*giniRight)/n
			if gain > bestGain {
				bestGain = gain
				bestFeature = fi
				bestThreshold = (vals[k].v + vals[k+1].v) / 2
			}
		}
	}
	return bestFeature, bestThreshold, bestGain
}

func gini(p float64) float64 { return 2 * p * (1 - p) }

// PredictProba returns the mean positive-class probability across trees.
func (f *Forest) PredictProba(x []float64) float64 {
	if len(x) != f.features {
		return math.NaN()
	}
	var sum float64
	for _, t := range f.trees {
		i := 0
		for t.nodes[i].feature >= 0 {
			if x[t.nodes[i].feature] <= t.nodes[i].threshold {
				i = t.nodes[i].left
			} else {
				i = t.nodes[i].right
			}
		}
		sum += t.nodes[i].prob
	}
	return sum / float64(len(f.trees))
}

// Predict returns the majority-vote class.
func (f *Forest) Predict(x []float64) bool { return f.PredictProba(x) >= 0.5 }

// FeatureImportances returns the normalised mean-decrease-in-impurity
// importance per feature (sums to 1 when any split occurred).
func (f *Forest) FeatureImportances() []float64 {
	return append([]float64(nil), f.importances...)
}
