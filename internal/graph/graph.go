// Package graph implements the multivariate relationship graph (MVRG) of the
// paper (§II-A3, §II-B): a directed graph whose nodes are sensors and whose
// edges carry the BLEU translation score of the directional NMT model for
// that sensor pair. It supports the paper's analyses: BLEU-range subgraphs,
// popular-sensor extraction by in-degree, local subgraphs with popular
// sensors removed, degree distributions, and weakly connected components.
package graph

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Edge is one directional relationship i→j with its BLEU score s(i,j).
type Edge struct {
	Src, Tgt string
	Score    float64
}

// Graph is a directed, weighted multivariate relationship graph.
type Graph struct {
	nodes []string
	index map[string]int
	adj   map[int]map[int]float64 // src -> tgt -> score
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[string]int), adj: make(map[int]map[int]float64)}
}

// AddNode ensures a node exists and returns its index.
func (g *Graph) AddNode(name string) int {
	if i, ok := g.index[name]; ok {
		return i
	}
	i := len(g.nodes)
	g.nodes = append(g.nodes, name)
	g.index[name] = i
	return i
}

// AddEdge inserts (or overwrites) the directional edge src→tgt.
func (g *Graph) AddEdge(src, tgt string, score float64) {
	si := g.AddNode(src)
	ti := g.AddNode(tgt)
	m, ok := g.adj[si]
	if !ok {
		m = make(map[int]float64)
		g.adj[si] = m
	}
	m[ti] = score
}

// Score returns the edge weight s(src,tgt) if present.
func (g *Graph) Score(src, tgt string) (float64, bool) {
	si, ok := g.index[src]
	if !ok {
		return 0, false
	}
	ti, ok := g.index[tgt]
	if !ok {
		return 0, false
	}
	s, ok := g.adj[si][ti]
	return s, ok
}

// HasNode reports whether the sensor is present.
func (g *Graph) HasNode(name string) bool {
	_, ok := g.index[name]
	return ok
}

// Nodes returns node names in insertion order.
func (g *Graph) Nodes() []string { return append([]string(nil), g.nodes...) }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	var n int
	for _, m := range g.adj {
		n += len(m)
	}
	return n
}

// Edges returns all edges sorted by (src, tgt) for determinism.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for si, m := range g.adj {
		for ti, s := range m {
			out = append(out, Edge{Src: g.nodes[si], Tgt: g.nodes[ti], Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Tgt < out[j].Tgt
	})
	return out
}

// InDegrees returns every node's in-degree keyed by name.
func (g *Graph) InDegrees() map[string]int {
	out := make(map[string]int, len(g.nodes))
	for _, n := range g.nodes {
		out[n] = 0
	}
	for _, m := range g.adj {
		for ti := range m {
			out[g.nodes[ti]]++
		}
	}
	return out
}

// OutDegrees returns every node's out-degree keyed by name.
func (g *Graph) OutDegrees() map[string]int {
	out := make(map[string]int, len(g.nodes))
	for _, n := range g.nodes {
		out[n] = 0
	}
	for si, m := range g.adj {
		out[g.nodes[si]] += len(m)
	}
	return out
}

// Range is a half-open BLEU interval [Lo, Hi), except that Hi == 100 is
// treated inclusively so the paper's [90, 100] band captures perfect scores.
type Range struct {
	Lo, Hi float64
}

// Contains reports whether a score falls in the range.
func (r Range) Contains(score float64) bool {
	if r.Hi >= 100 {
		return score >= r.Lo && score <= 100
	}
	return score >= r.Lo && score < r.Hi
}

// String renders the range in the paper's notation.
func (r Range) String() string {
	if r.Hi >= 100 {
		return fmt.Sprintf("[%g, %g]", r.Lo, r.Hi)
	}
	return fmt.Sprintf("[%g, %g)", r.Lo, r.Hi)
}

// PaperRanges returns the score bands of Table I.
func PaperRanges() []Range {
	return []Range{{0, 60}, {60, 70}, {70, 80}, {80, 90}, {90, 100}}
}

// BestRange is the [80, 90) band the paper finds most informative for both
// datasets (§III-B, footnote 5).
func BestRange() Range { return Range{80, 90} }

// Subgraph returns the global subgraph for a BLEU range: edges whose score
// falls in the range, and only nodes with at least one such edge (paper
// §III-B1).
func (g *Graph) Subgraph(r Range) *Graph {
	out := New()
	for _, e := range g.Edges() {
		if r.Contains(e.Score) {
			out.AddEdge(e.Src, e.Tgt, e.Score)
		}
	}
	return out
}

// PopularSensors returns the sensors with in-degree >= minInDegree, sorted by
// descending in-degree then name (paper §III-B1: in-degree ≥ 100 marks
// sensors that are critical indicators of system health).
func (g *Graph) PopularSensors(minInDegree int) []string {
	in := g.InDegrees()
	var out []string
	for n, d := range in {
		if d >= minInDegree {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if in[out[i]] != in[out[j]] {
			return in[out[i]] > in[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// WithoutNodes returns the graph with the given nodes and their incident
// edges removed; nodes left isolated are dropped. This converts a global
// subgraph into the paper's local subgraph (§III-B2).
func (g *Graph) WithoutNodes(names []string) *Graph {
	drop := make(map[string]struct{}, len(names))
	for _, n := range names {
		drop[n] = struct{}{}
	}
	out := New()
	for _, e := range g.Edges() {
		if _, d := drop[e.Src]; d {
			continue
		}
		if _, d := drop[e.Tgt]; d {
			continue
		}
		out.AddEdge(e.Src, e.Tgt, e.Score)
	}
	return out
}

// LocalSubgraph composes Subgraph and WithoutNodes(PopularSensors): the
// paper's local subgraph for one BLEU band.
func (g *Graph) LocalSubgraph(r Range, minInDegree int) *Graph {
	sub := g.Subgraph(r)
	return sub.WithoutNodes(sub.PopularSensors(minInDegree))
}

// Undirected collapses the graph into symmetric weights: w(i,j) is the mean
// of the available directional scores. Used by community detection.
func (g *Graph) Undirected() map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(g.nodes))
	add := func(a, b string, w float64) {
		m, ok := out[a]
		if !ok {
			m = make(map[string]float64)
			out[a] = m
		}
		m[b] = w
	}
	for si, m := range g.adj {
		for ti, s := range m {
			a, b := g.nodes[si], g.nodes[ti]
			w := s
			if back, ok := g.adj[ti][si]; ok {
				w = (s + back) / 2
			}
			add(a, b, w)
			add(b, a, w)
		}
	}
	return out
}

// Stats summarises one BLEU band of the full graph — a row of Table I.
type Stats struct {
	Range                Range
	PctRelationships     float64 // share of all edges falling in the band
	NumSensors           int     // nodes with at least one edge in the band
	NumPopular           int     // popular sensors within the band subgraph
	EdgesWithoutPopular  int     // edges of the local subgraph
	TotalEdgesInSubgraph int
}

// BandStats computes Table I's row for each range over the full MVRG, using
// minInDegree as the popularity threshold.
func (g *Graph) BandStats(ranges []Range, minInDegree int) []Stats {
	total := g.NumEdges()
	out := make([]Stats, 0, len(ranges))
	for _, r := range ranges {
		sub := g.Subgraph(r)
		popular := sub.PopularSensors(minInDegree)
		local := sub.WithoutNodes(popular)
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(sub.NumEdges()) / float64(total)
		}
		out = append(out, Stats{
			Range:                r,
			PctRelationships:     pct,
			NumSensors:           sub.NumNodes(),
			NumPopular:           len(popular),
			EdgesWithoutPopular:  local.NumEdges(),
			TotalEdgesInSubgraph: sub.NumEdges(),
		})
	}
	return out
}

// DOT renders the graph in Graphviz format, highlighting the given popular
// nodes (drawn larger, like Fig 6).
func (g *Graph) DOT(name string, popular []string) string {
	pop := make(map[string]struct{}, len(popular))
	for _, p := range popular {
		pop[p] = struct{}{}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	for _, n := range g.nodes {
		if _, ok := pop[n]; ok {
			fmt.Fprintf(&sb, "  %q [width=1.5, penwidth=3];\n", n)
		} else {
			fmt.Fprintf(&sb, "  %q;\n", n)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  %q -> %q [label=\"%.1f\"];\n", e.Src, e.Tgt, e.Score)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Modularity computes Newman modularity of a node partition over the
// undirected projection (weights ignored, multi-edges collapsed).
func (g *Graph) Modularity(partition map[string]int) float64 {
	und := g.Undirected()
	var degSum int // twice the undirected edge count; summed as an int so map order cannot perturb it
	deg := make(map[string]float64, len(und))
	for a, nb := range und {
		deg[a] = float64(len(nb))
		degSum += len(nb)
	}
	m := float64(degSum) / 2
	if m == 0 {
		return 0
	}
	// Q = (1/2m) Σ_ij [A_ij − k_i·k_j/2m] δ(c_i, c_j) over all ordered
	// node pairs, computed per community as (edges_in/m) − (Σ_deg/2m)².
	commDeg := make(map[int]float64)
	commEdges := make(map[int]float64)
	for _, n := range g.nodes {
		c, ok := partition[n]
		if !ok {
			continue
		}
		commDeg[c] += deg[n]
		for b := range und[n] {
			if cb, ok := partition[b]; ok && cb == c {
				commEdges[c]++ // counts each undirected edge twice
			}
		}
	}
	// Sum per-community terms in sorted order so Q is bit-identical run to
	// run regardless of map iteration order.
	comms := make([]int, 0, len(commDeg))
	for c := range commDeg {
		comms = append(comms, c)
	}
	sort.Ints(comms)
	var q float64
	for _, c := range comms {
		d := commDeg[c]
		q += commEdges[c]/(2*m) - (d/(2*m))*(d/(2*m))
	}
	return q
}

// AddEdgeChecked is AddEdge with validation: scores must be finite and in
// [0, 100], and self-loops are rejected.
func (g *Graph) AddEdgeChecked(src, tgt string, score float64) error {
	if src == tgt {
		return fmt.Errorf("graph: self-loop %q", src)
	}
	if math.IsNaN(score) || math.IsInf(score, 0) || score < 0 || score > 100 {
		return fmt.Errorf("graph: score %v for %s->%s outside [0,100]", score, src, tgt)
	}
	g.AddEdge(src, tgt, score)
	return nil
}
