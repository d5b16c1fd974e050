package graph

// Equivalence tests for the unit-weight fast paths and the packed CSR
// adjacency: every specialized query must return bit-identical paths to its
// generic counterpart — not merely equally-short ones. Dijkstra tie-breaking
// is observable through the simulator (different equal-cost paths change
// payment trajectories and therefore figure outputs), so these tests are
// the contract that lets the fast paths replace the generic code in the
// planners.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomTestGraph builds a connected-ish random multigraph.
func randomTestGraph(t *testing.T, seed int64, n, extra int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for v := 1; v < n; v++ {
		u := NodeID(rng.Intn(v))
		if _, err := g.AddEdge(u, NodeID(v), 1+rng.Float64()*99, 1+rng.Float64()*99); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extra; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if _, err := g.AddEdge(u, v, 1+rng.Float64()*99, 1+rng.Float64()*99); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// gridTestGraph builds a rows×cols grid: every interior pair has many
// equal-hop shortest paths, so it stresses tie-breaking the way random
// graphs (few equal-hop ties) do not.
func gridTestGraph(t *testing.T, rows, cols int) *Graph {
	t.Helper()
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := NodeID(r*cols + c)
			if c+1 < cols {
				if _, err := g.AddEdge(v, v+1, 10, 10); err != nil {
					t.Fatal(err)
				}
			}
			if r+1 < rows {
				if _, err := g.AddEdge(v, v+NodeID(cols), 10, 10); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

// edgeDisjointShortestReference is the generic EDS: repeated
// ShortestPath under a weight that is 1 per hop and +Inf on edges already
// extracted.
func edgeDisjointShortestReference(g *Graph, src, dst NodeID, k int) []Path {
	pf := NewPathFinder(g)
	taken := map[EdgeID]bool{}
	w := func(e Edge, _ NodeID) float64 {
		if taken[e.ID] {
			return math.Inf(1)
		}
		return 1
	}
	var out []Path
	for len(out) < k {
		p, ok := pf.ShortestPath(src, dst, w)
		if !ok {
			break
		}
		out = append(out, p)
		for _, eid := range p.Edges {
			taken[eid] = true
		}
	}
	return out
}

// samePaths reports the first index where want and got differ, or -1.
func samePaths(want, got []Path) int {
	for i := range want {
		if i >= len(got) || !pathsEqual(want[i], got[i]) {
			return i
		}
	}
	if len(got) > len(want) {
		return len(want)
	}
	return -1
}

func pathsEqual(a, b Path) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}

func TestUnitShortestPathMatchesGeneric(t *testing.T) {
	check := func(t *testing.T, name string, g *Graph, rng *rand.Rand) {
		t.Helper()
		pfGeneric := NewPathFinder(g)
		pfUnit := NewPathFinder(g)
		for q := 0; q < 200; q++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			want, okW := pfGeneric.ShortestPath(src, dst, UnitWeight)
			got, okG := pfUnit.UnitShortestPath(src, dst)
			if okW != okG {
				t.Fatalf("%s %d->%d: ok mismatch generic=%v unit=%v", name, src, dst, okW, okG)
			}
			if okW && !pathsEqual(want, got) {
				t.Fatalf("%s %d->%d:\ngeneric %v\nunit    %v", name, src, dst, want, got)
			}
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		g := randomTestGraph(t, seed, 120, 240)
		check(t, fmt.Sprintf("random seed %d", seed), g, rand.New(rand.NewSource(seed+1000)))
	}
	// Grids: many equal-hop shortest paths per pair, the case the clean
	// loop's first-sight exit could break ties differently on.
	check(t, "grid", gridTestGraph(t, 6, 7), rand.New(rand.NewSource(1100)))
}

func TestUnitShortestPathsMultiMatchesSingle(t *testing.T) {
	g := randomTestGraph(t, 7, 150, 300)
	pf := NewPathFinder(g)
	rng := rand.New(rand.NewSource(77))
	for q := 0; q < 100; q++ {
		src := NodeID(rng.Intn(g.NumNodes()))
		dsts := make([]NodeID, 5)
		for i := range dsts {
			dsts[i] = NodeID(rng.Intn(g.NumNodes()))
		}
		dsts[4] = dsts[0] // duplicate targets must both resolve
		multi := pf.UnitShortestPaths(src, dsts)
		for i, d := range dsts {
			want, ok := pf.UnitShortestPath(src, d)
			if !ok {
				if multi[i].Len() != 0 || len(multi[i].Nodes) != 0 {
					t.Fatalf("%d->%d unreachable but multi returned %v", src, d, multi[i])
				}
				continue
			}
			if !pathsEqual(want, multi[i]) {
				t.Fatalf("%d->%d:\nsingle %v\nmulti  %v", src, d, want, multi[i])
			}
		}
	}
}

func TestKShortestPathsUnitMatchesGeneric(t *testing.T) {
	check := func(t *testing.T, name string, g *Graph, rng *rand.Rand, queries, k int) {
		t.Helper()
		pfGeneric := NewPathFinder(g)
		pfUnit := NewPathFinder(g)
		for q := 0; q < queries; q++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			if src == dst {
				continue
			}
			want := pfGeneric.KShortestPaths(src, dst, k, UnitWeight)
			got := pfUnit.KShortestPathsUnit(src, dst, k)
			if i := samePaths(want, got); i >= 0 {
				t.Fatalf("%s %d->%d k=%d: first difference at path %d\ngeneric %v\nunit    %v", name, src, dst, k, i, want, got)
			}
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		g := randomTestGraph(t, seed+20, 80, 160)
		check(t, fmt.Sprintf("random seed %d", seed), g, rand.New(rand.NewSource(seed+2000)), 40, 4)
	}
	// Grids: many equal-hop alternatives per spur, the case an early exit
	// in the spur search could reorder.
	grid := gridTestGraph(t, 6, 7)
	for k := 1; k <= 8; k++ {
		check(t, "grid", grid, rand.New(rand.NewSource(int64(k)+2100)), 15, k)
	}
}

// TestEdgeDisjointShortestPathsMatchesGeneric pins EDS extraction (the
// unit fast path with a banned edge set) path-for-path against the generic
// Dijkstra with +Inf weights on extracted edges.
func TestEdgeDisjointShortestPathsMatchesGeneric(t *testing.T) {
	check := func(t *testing.T, name string, g *Graph, rng *rand.Rand, queries, k int) {
		t.Helper()
		pf := NewPathFinder(g)
		for q := 0; q < queries; q++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			if src == dst {
				continue
			}
			want := edgeDisjointShortestReference(g, src, dst, k)
			got := pf.EdgeDisjointShortestPaths(src, dst, k)
			if i := samePaths(want, got); i >= 0 {
				t.Fatalf("%s %d->%d k=%d: first difference at path %d\ngeneric %v\nfinder  %v", name, src, dst, k, i, want, got)
			}
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		g := randomTestGraph(t, seed+60, 100, 250)
		check(t, fmt.Sprintf("random seed %d", seed), g, rand.New(rand.NewSource(seed+4000)), 40, 4)
	}
	grid := gridTestGraph(t, 6, 7)
	for k := 1; k <= 4; k++ {
		check(t, "grid", grid, rand.New(rand.NewSource(int64(k)+4100)), 20, k)
	}
}

// TestEdgeDisjointWidestPathsFinderMatchesClone pins the clone-free masked
// EDW against the reference implementation: clone the graph, zero out the
// extracted edges, rerun WidestPath.
func TestEdgeDisjointWidestPathsFinderMatchesClone(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := randomTestGraph(t, seed+40, 100, 250)
		pf := NewPathFinder(g)
		rng := rand.New(rand.NewSource(seed + 3000))
		for q := 0; q < 40; q++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			if src == dst {
				continue
			}
			got := pf.EdgeDisjointWidestPaths(src, dst, 4)
			// Reference: mask by capacity-zeroing on a clone.
			masked := g.Clone()
			ref := NewPathFinder(masked)
			var want []Path
			for len(want) < 4 {
				p, ok := ref.WidestPath(src, dst)
				if !ok {
					break
				}
				want = append(want, p)
				for _, eid := range p.Edges {
					masked.SetCapacity(eid, 0, 0)
				}
			}
			if len(want) != len(got) {
				t.Fatalf("seed %d %d->%d: %d vs %d paths", seed, src, dst, len(want), len(got))
			}
			for i := range want {
				if !pathsEqual(want[i], got[i]) {
					t.Fatalf("seed %d %d->%d path %d:\nclone  %v\nfinder %v", seed, src, dst, i, want[i], got[i])
				}
			}
		}
	}
}

// TestCSRInvalidation exercises the packed adjacency across topology and
// capacity mutations: results must track the live graph, never a stale
// layout.
func TestCSRInvalidation(t *testing.T) {
	g := New(4)
	e01, _ := g.AddEdge(0, 1, 10, 10)
	_, _ = g.AddEdge(1, 2, 10, 10)
	pf := NewPathFinder(g)
	if p, ok := pf.UnitShortestPath(0, 2); !ok || p.Len() != 2 {
		t.Fatalf("initial path = %v ok=%v", p, ok)
	}
	// Adding a shortcut must be seen.
	if _, err := g.AddEdge(0, 2, 5, 5); err != nil {
		t.Fatal(err)
	}
	if p, ok := pf.UnitShortestPath(0, 2); !ok || p.Len() != 1 {
		t.Fatalf("post-AddEdge path = %v ok=%v", p, ok)
	}
	// Removing it must be seen as well.
	if err := g.RemoveEdge(EdgeID(2)); err != nil {
		t.Fatal(err)
	}
	if p, ok := pf.UnitShortestPath(0, 2); !ok || p.Len() != 2 {
		t.Fatalf("post-RemoveEdge path = %v ok=%v", p, ok)
	}
	// Widest must see capacity rewrites (two writes to the capacity
	// column).
	if p, ok := pf.WidestPath(0, 2); !ok || p.Len() != 2 {
		t.Fatalf("widest = %v ok=%v", p, ok)
	}
	g.SetCapacity(e01, 0, 0) // starve the 0-1 hop
	if _, ok := pf.WidestPath(0, 2); ok {
		t.Fatal("widest found a path through a zero-capacity channel")
	}
	// A node arrival grows the adjacency.
	v := g.AddNode()
	if _, err := g.AddEdge(2, v, 3, 3); err != nil {
		t.Fatal(err)
	}
	if p, ok := pf.UnitShortestPath(1, v); !ok || p.Len() != 2 {
		t.Fatalf("path to new node = %v ok=%v", p, ok)
	}
}
