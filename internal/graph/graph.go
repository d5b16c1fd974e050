// Package graph implements the graph algorithms Splicer's placement and
// routing layers are built on: shortest paths, Yen's k-shortest paths,
// widest (maximin-capacity) paths, edge-disjoint path extraction, and Dinic
// max-flow for the Flash baseline.
//
// A payment channel network is modeled as an undirected multigraph of nodes
// connected by channels, but every channel has independent per-direction
// state, so the algorithms here operate on a directed view: an undirected
// edge {u, v} contributes arcs u→v and v→u whose weights and capacities may
// differ.
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a node. IDs are dense indices in [0, NumNodes).
type NodeID int

// EdgeID identifies an undirected edge (channel). IDs are dense indices in
// [0, NumEdges).
type EdgeID int

// Edge is an undirected edge between two nodes with a per-direction capacity.
// CapFwd is the capacity in the U→V direction and CapRev in the V→U
// direction; for PCNs these are the channel balances on each side.
type Edge struct {
	ID     EdgeID
	U, V   NodeID
	CapFwd float64
	CapRev float64
}

// Capacity returns the capacity of the edge in the direction from node
// `from`. It panics if from is not an endpoint.
func (e Edge) Capacity(from NodeID) float64 {
	switch from {
	case e.U:
		return e.CapFwd
	case e.V:
		return e.CapRev
	default:
		panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", from, e.ID))
	}
}

// Other returns the endpoint opposite to `from`. It panics if from is not an
// endpoint.
func (e Edge) Other(from NodeID) NodeID {
	switch from {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", from, e.ID))
	}
}

// Graph is an undirected multigraph with per-direction edge capacities.
// The zero value is an empty graph ready to use.
//
// The graph is mutable: nodes can be appended (AddNode) and edges added
// (AddEdge) or removed (RemoveEdge) at any time, which the dynamic-network
// layer uses to model channel opens/closes and node churn. Edge IDs are
// never reused: a removed edge leaves a tombstone slot so that EdgeID-indexed
// side tables (the PCN's channel array) stay aligned across removals.
type Graph struct {
	edges   []Edge
	removed []bool // edge id -> tombstoned by RemoveEdge
	numLive int
	// mutations counts adjacency-shape changes (AddNode/AddEdge/RemoveEdge)
	// and doubles as the shape-journal sequence number; capMutations
	// additionally counts capacity rewrites (SetCapacity). They are cheap
	// change detectors for external caches.
	mutations    uint64
	capMutations uint64
	// csr is the graph's adjacency (see csr.go), maintained in place by the
	// mutators below.
	csr csrState
	// journal records shape mutations for derived-structure observers (see
	// journal.go); journalBase is the sequence number of journal[0].
	journal     []Mutation
	journalBase uint64
}

// CapMutations returns the combined adjacency+capacity mutation counter.
func (g *Graph) CapMutations() uint64 { return g.mutations + g.capMutations }

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	return &Graph{csr: csrState{span: make([]arcSpan, n)}}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.csr.span) }

// NumEdges returns the number of edge slots ever allocated, including
// removed-edge tombstones; valid EdgeIDs are [0, NumEdges). Use NumLiveEdges
// for the count of edges currently in the topology.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumLiveEdges returns the number of edges not removed.
func (g *Graph) NumLiveEdges() int { return g.numLive }

// AddNode appends a new isolated node and returns its ID.
func (g *Graph) AddNode() NodeID {
	id := NodeID(len(g.csr.span))
	g.csrAddNode()
	g.mutations++
	g.journalAppend(Mutation{Kind: MutAddNode, Edge: -1, U: id, V: -1})
	return id
}

// AddEdge adds an undirected edge between u and v with the given directional
// capacities and returns its ID. Self-loops are rejected.
func (g *Graph) AddEdge(u, v NodeID, capFwd, capRev float64) (EdgeID, error) {
	if u == v {
		return 0, fmt.Errorf("graph: self-loop on node %d", u)
	}
	if n := g.NumNodes(); int(u) < 0 || int(u) >= n || int(v) < 0 || int(v) >= n {
		return 0, fmt.Errorf("graph: endpoint out of range: %d-%d with %d nodes", u, v, n)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, U: u, V: v, CapFwd: capFwd, CapRev: capRev})
	g.removed = append(g.removed, false)
	g.numLive++
	g.mutations++
	g.journalAppend(Mutation{Kind: MutAddEdge, Edge: id, U: u, V: v})
	g.csrAddEdge(id)
	return id, nil
}

// RemoveEdge removes an edge (a channel close) from the topology. The edge's
// ID slot is tombstoned, not reused: Edge(id) keeps reporting the endpoints
// (so in-flight bookkeeping can still resolve them) but the edge disappears
// from adjacency, Path.Valid and the traversal algorithms. Removing an edge
// twice is an error.
func (g *Graph) RemoveEdge(id EdgeID) error {
	if int(id) < 0 || int(id) >= len(g.edges) {
		return fmt.Errorf("graph: remove of unknown edge %d", id)
	}
	if g.removed[id] {
		return fmt.Errorf("graph: edge %d already removed", id)
	}
	e := g.edges[id]
	g.csrRemoveEdge(id)
	g.removed[id] = true
	g.numLive--
	g.mutations++
	g.journalAppend(Mutation{Kind: MutRemoveEdge, Edge: id, U: e.U, V: e.V})
	return nil
}

// EdgeRemoved reports whether an edge slot has been tombstoned.
func (g *Graph) EdgeRemoved(id EdgeID) bool {
	return int(id) >= 0 && int(id) < len(g.removed) && g.removed[id]
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// SetCapacity updates the directional capacities of an edge. The rewrite
// lands as two O(1) writes to the adjacency's capacity column.
func (g *Graph) SetCapacity(id EdgeID, capFwd, capRev float64) {
	g.edges[id].CapFwd = capFwd
	g.edges[id].CapRev = capRev
	g.capMutations++
	g.csrSetCapacity(id)
}

// Arcs returns u's arcs: one per live incident edge, in ascending EdgeID
// order. The slice views the graph's packed adjacency without copying, so
// it must not be modified and is valid only until the next shape mutation
// (RemoveEdge compacts it in place).
func (g *Graph) Arcs(u NodeID) []Arc {
	s := g.csr.span[u]
	return g.csr.slab[s.off : s.off+s.n : s.off+s.n]
}

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u NodeID) int { return int(g.csr.span[u].n) }

// HasEdgeBetween reports whether at least one edge directly connects u and v.
func (g *Graph) HasEdgeBetween(u, v NodeID) bool {
	for _, a := range g.Arcs(u) {
		if a.To() == v {
			return true
		}
	}
	return false
}

// Edges returns a copy of all live (non-removed) edges.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numLive)
	for i, e := range g.edges {
		if !g.removed[i] {
			out = append(out, e)
		}
	}
	return out
}

// Clone returns a deep copy of the graph, including removed-edge tombstones
// (edge IDs stay aligned between a graph and its clone). The clone's
// adjacency is densely packed, whatever slack the original carries.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		edges:   append([]Edge(nil), g.edges...),
		removed: append([]bool(nil), g.removed...),
		numLive: g.numLive,
		csr:     csrState{span: append([]arcSpan(nil), g.csr.span...)},
	}
	c.csrPack()
	return c
}

// Path is a walk through the graph expressed as the sequence of nodes
// visited and the edges taken between consecutive nodes
// (len(Edges) == len(Nodes)-1).
type Path struct {
	Nodes []NodeID
	Edges []EdgeID
}

// Len returns the number of hops (edges) in the path.
func (p Path) Len() int { return len(p.Edges) }

// Valid reports whether the path is structurally consistent with g: each
// edge connects the adjacent node pair.
func (p Path) Valid(g *Graph) bool {
	if len(p.Nodes) == 0 || len(p.Edges) != len(p.Nodes)-1 {
		return false
	}
	for i, eid := range p.Edges {
		if int(eid) < 0 || int(eid) >= g.NumEdges() || g.EdgeRemoved(eid) {
			return false
		}
		e := g.Edge(eid)
		u, v := p.Nodes[i], p.Nodes[i+1]
		if !(e.U == u && e.V == v) && !(e.U == v && e.V == u) {
			return false
		}
	}
	return true
}

// Bottleneck returns the minimum directional capacity along the path, i.e.
// the maximum amount routable over it in a single shot.
func (p Path) Bottleneck(g *Graph) float64 {
	b := math.Inf(1)
	for i, eid := range p.Edges {
		c := g.Edge(eid).Capacity(p.Nodes[i])
		if c < b {
			b = c
		}
	}
	return b
}

// Equal reports whether two paths take the same edges through the same
// nodes.
func (p Path) Equal(q Path) bool {
	if len(p.Nodes) != len(q.Nodes) || len(p.Edges) != len(q.Edges) {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i] != q.Nodes[i] {
			return false
		}
	}
	for i := range p.Edges {
		if p.Edges[i] != q.Edges[i] {
			return false
		}
	}
	return true
}

// WeightFunc assigns a traversal cost to using edge e in the direction out of
// node `from`. Returning math.Inf(1) excludes the arc.
type WeightFunc func(e Edge, from NodeID) float64

// UnitWeight weights every arc 1 (hop count).
func UnitWeight(Edge, NodeID) float64 { return 1 }

// CapacityFilteredUnitWeight weights arcs 1 but excludes arcs whose
// directional capacity is below minCap.
func CapacityFilteredUnitWeight(minCap float64) WeightFunc {
	return func(e Edge, from NodeID) float64 {
		if e.Capacity(from) < minCap {
			return math.Inf(1)
		}
		return 1
	}
}

// BFSHops returns the hop distance from src to every node (-1 when
// unreachable), ignoring capacities.
func (g *Graph) BFSHops(src NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.Arcs(u) {
			if v := a.To(); dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected (vacuously true for 0 or
// 1 nodes).
func (g *Graph) Connected() bool {
	if g.NumNodes() <= 1 {
		return true
	}
	dist := g.BFSHops(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

func reconstruct(src, dst NodeID, prevNode []NodeID, prevEdge []EdgeID) Path {
	nodes, edges := reconstructInto(nil, nil, src, dst, prevNode, prevEdge)
	return Path{Nodes: nodes, Edges: edges}
}

// reconstructInto is reconstruct appending into caller-owned buffers, for
// paths that are consumed immediately (Yen spur splicing) rather than
// retained.
func reconstructInto(nodes []NodeID, edges []EdgeID, src, dst NodeID, prevNode []NodeID, prevEdge []EdgeID) ([]NodeID, []EdgeID) {
	for at := dst; ; {
		nodes = append(nodes, at)
		if at == src {
			break
		}
		edges = append(edges, prevEdge[at])
		at = prevNode[at]
	}
	// Reverse in place.
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	return nodes, edges
}

func pathKey(p Path) string {
	b := make([]byte, 0, len(p.Nodes)*4)
	for _, n := range p.Nodes {
		b = append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return string(b)
}
