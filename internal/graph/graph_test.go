package graph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildSample() *Graph {
	g := New()
	g.AddEdge("a", "b", 85)
	g.AddEdge("b", "a", 88)
	g.AddEdge("a", "c", 92)
	g.AddEdge("c", "a", 95)
	g.AddEdge("b", "c", 45)
	g.AddEdge("d", "a", 83)
	g.AddEdge("d", "b", 81)
	return g
}

func TestAddAndScore(t *testing.T) {
	g := buildSample()
	if g.NumNodes() != 4 || g.NumEdges() != 7 {
		t.Fatalf("graph shape %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if s, ok := g.Score("a", "b"); !ok || s != 85 {
		t.Fatalf("Score(a,b) = %v %v", s, ok)
	}
	if _, ok := g.Score("a", "zzz"); ok {
		t.Fatal("missing edge must report !ok")
	}
	g.AddEdge("a", "b", 70) // overwrite
	if s, _ := g.Score("a", "b"); s != 70 {
		t.Fatalf("overwrite failed, got %v", s)
	}
	if !g.HasNode("d") || g.HasNode("x") {
		t.Fatal("HasNode wrong")
	}
}

func TestAddEdgeChecked(t *testing.T) {
	g := New()
	if err := g.AddEdgeChecked("a", "a", 50); err == nil {
		t.Fatal("self-loop must be rejected")
	}
	for _, bad := range []float64{-1, 101, math.NaN(), math.Inf(1)} {
		if err := g.AddEdgeChecked("a", "b", bad); err == nil {
			t.Fatalf("score %v must be rejected", bad)
		}
	}
	if err := g.AddEdgeChecked("a", "b", 0); err != nil {
		t.Fatalf("score 0 rejected: %v", err)
	}
	if err := g.AddEdgeChecked("a", "c", 100); err != nil {
		t.Fatalf("score 100 rejected: %v", err)
	}
}

func TestDegrees(t *testing.T) {
	g := buildSample()
	ins := g.InDegrees()
	outs := g.OutDegrees()
	if ins["a"] != 3 || outs["a"] != 2 {
		t.Fatalf("a degrees = %d/%d", ins["a"], outs["a"])
	}
	if ins["d"] != 0 || outs["d"] != 2 {
		t.Fatalf("d degrees = %d/%d", ins["d"], outs["d"])
	}
	if _, ok := ins["missing"]; ok {
		t.Fatal("a node not in the graph must have no degree entry")
	}
	var sumIn, sumOut int
	for _, v := range ins {
		sumIn += v
	}
	for _, v := range outs {
		sumOut += v
	}
	if sumIn != g.NumEdges() || sumOut != g.NumEdges() {
		t.Fatalf("degree sums %d/%d != edges %d", sumIn, sumOut, g.NumEdges())
	}
}

func TestRangeSemantics(t *testing.T) {
	r := Range{80, 90}
	if !r.Contains(80) || r.Contains(90) || r.Contains(79.99) {
		t.Fatal("half-open range semantics wrong")
	}
	top := Range{90, 100}
	if !top.Contains(100) || !top.Contains(90) {
		t.Fatal("top band must be inclusive of 100")
	}
	if r.String() != "[80, 90)" || top.String() != "[90, 100]" {
		t.Fatalf("String() = %q / %q", r.String(), top.String())
	}
	if len(PaperRanges()) != 5 {
		t.Fatal("PaperRanges must have 5 bands")
	}
	if BestRange() != (Range{80, 90}) {
		t.Fatal("BestRange must be [80,90)")
	}
}

func TestSubgraph(t *testing.T) {
	g := buildSample()
	sub := g.Subgraph(Range{80, 90})
	// Edges: a->b 85, b->a 88, d->a 83, d->b 81.
	if sub.NumEdges() != 4 {
		t.Fatalf("subgraph edges = %d, want 4", sub.NumEdges())
	}
	if sub.HasNode("c") {
		t.Fatal("nodes without in-range edges must be dropped")
	}
	top := g.Subgraph(Range{90, 100})
	if top.NumEdges() != 2 || top.HasNode("b") {
		t.Fatalf("top subgraph wrong: %d edges", top.NumEdges())
	}
}

func TestPopularAndLocalSubgraph(t *testing.T) {
	g := buildSample()
	pop := g.PopularSensors(3)
	if len(pop) != 1 || pop[0] != "a" {
		t.Fatalf("PopularSensors(3) = %v", pop)
	}
	local := g.WithoutNodes(pop)
	if local.HasNode("a") {
		t.Fatal("popular node must be removed")
	}
	for _, e := range local.Edges() {
		if e.Src == "a" || e.Tgt == "a" {
			t.Fatal("edges incident to removed nodes must vanish")
		}
	}
	ls := g.LocalSubgraph(Range{80, 90}, 2)
	// In the [80,90) subgraph in-degrees: a:2 (from b,d), b:2 (from a,d).
	// Removing a and b leaves nothing.
	if ls.NumEdges() != 0 {
		t.Fatalf("LocalSubgraph edges = %d, want 0", ls.NumEdges())
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := buildSample()
	a := g.Edges()
	b := g.Edges()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Edges order must be deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Src > a[i].Src {
			t.Fatal("Edges must be sorted by src")
		}
	}
}

func TestBandStats(t *testing.T) {
	g := buildSample()
	stats := g.BandStats(PaperRanges(), 3)
	var pct float64
	for _, s := range stats {
		pct += s.PctRelationships
	}
	if math.Abs(pct-100) > 1e-9 {
		t.Fatalf("band percentages sum to %v", pct)
	}
	// [80,90) has 4 of 7 edges.
	var band Stats
	for _, s := range stats {
		if s.Range == (Range{80, 90}) {
			band = s
		}
	}
	if band.TotalEdgesInSubgraph != 4 || band.NumSensors != 3 {
		t.Fatalf("band stats = %+v", band)
	}
	if band.NumPopular != 0 || band.EdgesWithoutPopular != 4 {
		t.Fatalf("band popular stats = %+v", band)
	}
}

func TestUndirectedAveragesScores(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", 80)
	g.AddEdge("b", "a", 90)
	g.AddEdge("a", "c", 70)
	und := g.Undirected()
	if und["a"]["b"] != 85 || und["b"]["a"] != 85 {
		t.Fatalf("undirected weight = %v", und["a"]["b"])
	}
	if und["c"]["a"] != 70 {
		t.Fatalf("one-way edge weight = %v", und["c"]["a"])
	}
}

func TestModularity(t *testing.T) {
	// Two cliques joined by one edge: the natural partition has high
	// modularity, the merged partition lower.
	g := New()
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}, {"x", "y"}, {"y", "z"}, {"x", "z"}, {"c", "x"}} {
		g.AddEdge(e[0], e[1], 85)
	}
	good := map[string]int{"a": 0, "b": 0, "c": 0, "x": 1, "y": 1, "z": 1}
	bad := map[string]int{"a": 0, "b": 0, "c": 0, "x": 0, "y": 0, "z": 0}
	qGood := g.Modularity(good)
	qBad := g.Modularity(bad)
	if qGood <= qBad {
		t.Fatalf("modularity ordering wrong: good %v <= bad %v", qGood, qBad)
	}
	if qGood < 0.2 {
		t.Fatalf("two-clique modularity too low: %v", qGood)
	}
	if q := New().Modularity(nil); q != 0 {
		t.Fatalf("empty graph modularity = %v", q)
	}
}

func TestDOTOutput(t *testing.T) {
	g := New()
	g.AddEdge("s1", "s2", 85.5)
	dot := g.DOT("test", []string{"s1"})
	for _, want := range []string{"digraph", `"s1" -> "s2"`, "85.5", "penwidth=3"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

// Property: subgraphs partition edges — each edge appears in exactly one
// paper band, and band membership respects the score.
func TestSubgraphPartitionQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n uint8) bool {
		g := New()
		nodes := int(n)%8 + 2
		for i := 0; i < nodes; i++ {
			for j := 0; j < nodes; j++ {
				if i != j && rng.Float64() < 0.5 {
					g.AddEdge(name(i), name(j), rng.Float64()*100)
				}
			}
		}
		var total int
		for _, r := range PaperRanges() {
			sub := g.Subgraph(r)
			total += sub.NumEdges()
			for _, e := range sub.Edges() {
				if !r.Contains(e.Score) {
					return false
				}
			}
		}
		return total == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func name(i int) string { return string(rune('A' + i)) }
