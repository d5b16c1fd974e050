package graph

// Consistency tests for the packed adjacency: after ANY sequence of shape
// and capacity mutations, each node's arcs must be exactly its live
// incident edges in ascending EdgeID (the order rule, recomputed here from
// the edge table), and the cheap mutations must stay on the incremental
// path (no relayout for a top-up or a single channel open/close).

import (
	"math/rand"
	"testing"
)

// checkCSRLayout checks the internal layout (ValidateSnapshot) and then
// each node's arcs against a reference built by scanning the edge table in
// id order.
func checkCSRLayout(t *testing.T, g *Graph) {
	t.Helper()
	if err := ValidateSnapshot(g); err != nil {
		t.Fatal(err)
	}
	want := make([][]EdgeID, g.NumNodes())
	for id, e := range g.edges {
		if !g.removed[id] {
			want[e.U] = append(want[e.U], EdgeID(id))
			want[e.V] = append(want[e.V], EdgeID(id))
		}
	}
	for u := range want {
		arcs := g.Arcs(NodeID(u))
		if len(arcs) != len(want[u]) {
			t.Fatalf("node %d: %d arcs, %d live incident edges", u, len(arcs), len(want[u]))
		}
		for i, eid := range want[u] {
			if arcs[i].Edge() != eid || arcs[i].To() != g.edges[eid].Other(NodeID(u)) {
				t.Fatalf("node %d arc %d: edge %d to %d, want edge %d to %d",
					u, i, arcs[i].Edge(), arcs[i].To(), eid, g.edges[eid].Other(NodeID(u)))
			}
		}
	}
}

// churnStep applies one random mutation, mirroring what the dynamics layer
// does: joins, channel opens/closes (tombstoning), top-ups.
func churnStep(rng *rand.Rand, g *Graph) {
	switch op := rng.Intn(10); {
	case op == 0:
		g.AddNode()
	case op < 4: // open
		if g.NumNodes() < 2 {
			return
		}
		u := NodeID(rng.Intn(g.NumNodes()))
		v := NodeID(rng.Intn(g.NumNodes()))
		if u == v {
			return
		}
		if _, err := g.AddEdge(u, v, rng.Float64()*100, rng.Float64()*100); err != nil {
			panic(err)
		}
	case op < 7: // close a random live edge
		live := -1
		for tries := 0; tries < 8; tries++ {
			if g.NumEdges() == 0 {
				return
			}
			id := rng.Intn(g.NumEdges())
			if !g.removed[id] {
				live = id
				break
			}
		}
		if live < 0 {
			return
		}
		if err := g.RemoveEdge(EdgeID(live)); err != nil {
			panic(err)
		}
	default: // top-up
		if g.NumEdges() == 0 {
			return
		}
		id := rng.Intn(g.NumEdges())
		if g.removed[id] {
			return
		}
		g.SetCapacity(EdgeID(id), rng.Float64()*200, rng.Float64()*200)
	}
}

// TestCSRMatchesAdjUnderChurn is the property test: after any seeded churn
// timeline, every node's arcs follow the order rule exactly.
func TestCSRMatchesAdjUnderChurn(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTestGraph(t, seed+500, 40, 80)
		checkCSRLayout(t, g)
		for step := 0; step < 600; step++ {
			churnStep(rng, g)
			if step%37 == 0 {
				checkCSRLayout(t, g)
			}
		}
		checkCSRLayout(t, g)
		// And the CSR the queries see is the one we checked: a query after
		// the timeline must agree with a from-scratch finder on a clone
		// (whose CSR is a fresh dense layout).
		pf := NewPathFinder(g)
		ref := NewPathFinder(g.Clone())
		for q := 0; q < 50; q++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			got, okG := pf.UnitShortestPath(src, dst)
			want, okW := ref.UnitShortestPath(src, dst)
			if okG != okW || (okG && !pathsEqual(got, want)) {
				t.Fatalf("seed %d: %d->%d incremental %v/%v vs rebuilt %v/%v", seed, src, dst, got, okG, want, okW)
			}
		}
	}
}

// TestTopUpStaysIncremental pins the dirty-region fix: a one-channel top-up
// must not force a CSR relayout or a full capacity re-sync — it lands as two
// arc-slot writes.
func TestTopUpStaysIncremental(t *testing.T) {
	g := randomTestGraph(t, 42, 200, 400)
	pf := NewPathFinder(g)
	if _, ok := pf.WidestPath(0, 100); !ok {
		t.Fatal("no widest path in connected graph")
	}
	base := g.CSRStats()
	if base.Compactions != 0 {
		t.Fatalf("a growth-only build compacted %d times, want none", base.Compactions)
	}
	e := g.Edge(0)
	g.SetCapacity(0, e.CapFwd+5, e.CapRev+5)
	if _, ok := pf.WidestPath(0, 100); !ok {
		t.Fatal("no widest path after top-up")
	}
	after := g.CSRStats()
	if after.Compactions != base.Compactions {
		t.Fatalf("top-up forced a CSR relayout (%d -> %d)", base.Compactions, after.Compactions)
	}
	if after.CapacityWrites != base.CapacityWrites+1 {
		t.Fatalf("expected 1 incremental capacity write, got %d", after.CapacityWrites-base.CapacityWrites)
	}
	// The write must actually land: starving a bridge changes widest paths.
	p, _ := pf.WidestPath(0, 100)
	g.SetCapacity(p.Edges[0], 0, 0)
	if q, ok := pf.WidestPath(0, 100); ok {
		for _, eid := range q.Edges {
			if eid == p.Edges[0] {
				t.Fatal("widest path used a zero-capacity channel: stale CSR capacity")
			}
		}
	}
}

// TestChurnStaysIncremental pins that channel opens/closes and node joins
// apply in place rather than relaying out the O(E) slab.
func TestChurnStaysIncremental(t *testing.T) {
	g := randomTestGraph(t, 43, 200, 400)
	pf := NewPathFinder(g)
	pf.UnitShortestPath(0, 100)
	base := g.CSRStats()
	id, err := g.AddEdge(0, 100, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
	v := g.AddNode()
	if _, err := g.AddEdge(0, v, 1, 1); err != nil {
		t.Fatal(err)
	}
	pf.UnitShortestPath(0, v)
	after := g.CSRStats()
	if after.Compactions != base.Compactions {
		t.Fatalf("churn forced %d CSR relayouts", after.Compactions-base.Compactions)
	}
	if after.IncrementalOps != base.IncrementalOps+4 {
		t.Fatalf("expected 4 incremental ops, got %d", after.IncrementalOps-base.IncrementalOps)
	}
}

// TestCSRCompaction drives the compaction branch: churn that closes three
// channels per open thins the live arcs below a quarter of a slab longer
// than 1024 slots. The relayout must leave a tight slab, a layout that
// passes every check, and the same answers as a clone's fresh layout, and
// it must keep doing so as churn continues on the compacted slab.
func TestCSRCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomTestGraph(t, 44, 200, 800)
	live := make([]EdgeID, 0, g.NumEdges())
	for id := 0; id < g.NumEdges(); id++ {
		live = append(live, EdgeID(id))
	}
	churn := func() {
		for i := 0; i < 3 && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			if err := g.RemoveEdge(live[j]); err != nil {
				t.Fatal(err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		u, v := NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))
		if u == v {
			return
		}
		id, err := g.AddEdge(u, v, 1+rng.Float64()*99, 1+rng.Float64()*99)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	var before CSRStats
	for step := 0; g.CSRStats().Compactions == 0; step++ {
		if step == 2000 {
			t.Fatal("churn never compacted the slab")
		}
		before = g.CSRStats()
		churn()
	}
	if before.SlabLen <= 1024 || before.SlabLen-before.Arcs <= before.SlabLen/2 {
		t.Fatalf("compacted a slab of %d slots holding %d arcs; want over 1024 slots, over half unused",
			before.SlabLen, before.Arcs)
	}
	if s := g.CSRStats(); s.SlabLen != s.Arcs {
		t.Fatalf("compacted slab has %d slots for %d arcs, want tight", s.SlabLen, s.Arcs)
	}
	for round := 0; round < 2; round++ {
		checkCSRLayout(t, g)
		pf, ref := NewPathFinder(g), NewPathFinder(g.Clone())
		for q := 0; q < 200; q++ {
			src, dst := NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))
			got, okG := pf.UnitShortestPath(src, dst)
			want, okW := ref.UnitShortestPath(src, dst)
			if okG != okW || (okG && !pathsEqual(got, want)) {
				t.Fatalf("round %d: unit %d->%d: %v/%v on g, %v/%v on clone", round, src, dst, got, okG, want, okW)
			}
			got, okG = pf.WidestPath(src, dst)
			want, okW = ref.WidestPath(src, dst)
			if okG != okW || (okG && !pathsEqual(got, want)) {
				t.Fatalf("round %d: widest %d->%d: %v/%v on g, %v/%v on clone", round, src, dst, got, okG, want, okW)
			}
		}
		for i := 0; i < 50; i++ { // growth on the compacted slab migrates every region
			churn()
		}
	}
}

func TestMutationJournal(t *testing.T) {
	g := New(2)
	seq0 := g.MutationSeq()
	id, _ := g.AddEdge(0, 1, 1, 1)
	v := g.AddNode()
	if err := g.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
	muts, ok := g.MutationsSince(seq0)
	if !ok || len(muts) != 3 {
		t.Fatalf("MutationsSince = %v ok=%v, want 3 mutations", muts, ok)
	}
	want := []Mutation{
		{Kind: MutAddEdge, Edge: id, U: 0, V: 1},
		{Kind: MutAddNode, Edge: -1, U: v, V: -1},
		{Kind: MutRemoveEdge, Edge: id, U: 0, V: 1},
	}
	for i, m := range muts {
		if m != want[i] {
			t.Fatalf("mutation %d = %+v, want %+v", i, m, want[i])
		}
	}
	// A cursor taken now sees nothing.
	if muts, ok := g.MutationsSince(g.MutationSeq()); !ok || len(muts) != 0 {
		t.Fatalf("fresh cursor saw %v ok=%v", muts, ok)
	}
	// Overflow trims the window; an old cursor must get ok=false.
	for i := 0; i < maxJournal+10; i++ {
		g.AddNode()
	}
	if _, ok := g.MutationsSince(seq0); ok {
		t.Fatal("cursor survived journal overflow")
	}
	// A future (bogus) cursor is also rejected.
	if _, ok := g.MutationsSince(g.MutationSeq() + 1); ok {
		t.Fatal("future cursor accepted")
	}
}
