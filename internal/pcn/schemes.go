// Scheme-agnostic routing helpers shared by the SchemePolicy
// implementations (policy_*.go). Scheme-specific planning itself lives in
// the policies; nothing here branches on the scheme.

package pcn

import (
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/routing"
)

// splitAllocations splits a demand into Min/Max-TU bounded units left for
// the rate controller to place (PathIdx == -1).
func splitAllocations(value, minTU, maxTU float64) ([]Allocation, error) {
	tus, err := routing.SplitDemand(value, minTU, maxTU)
	if err != nil {
		return nil, err
	}
	allocs := make([]Allocation, len(tus))
	for i, v := range tus {
		allocs[i] = Allocation{PathIdx: -1, Value: v}
	}
	return allocs, nil
}

// managingHub returns the hub handling a node's payments (the node itself
// when it is a hub).
func (n *Network) managingHub(v graph.NodeID) graph.NodeID {
	if n.isHub[v] {
		return v
	}
	if h, ok := n.hubOf[v]; ok {
		return h
	}
	return v
}

// accessPath returns the shortest path between a client and its hub (or a
// trivial path when they coincide).
func (n *Network) accessPath(from, to graph.NodeID) (graph.Path, bool) {
	if from == to {
		return graph.Path{Nodes: []graph.NodeID{from}}, true
	}
	return n.unitShortestPath(from, to)
}

// concatPaths joins a→b, b→c, c→d walks sharing their junction nodes.
func concatPaths(parts ...graph.Path) graph.Path {
	var out graph.Path
	for _, p := range parts {
		if len(p.Nodes) == 0 {
			continue
		}
		if len(out.Nodes) == 0 {
			out.Nodes = append(out.Nodes, p.Nodes...)
			out.Edges = append(out.Edges, p.Edges...)
			continue
		}
		// Junction node appears at the end of out and the start of p.
		out.Nodes = append(out.Nodes, p.Nodes[1:]...)
		out.Edges = append(out.Edges, p.Edges...)
	}
	return out
}

// RefreshBalanceView brings a previously built balance view up to date. While
// the live topology's shape is unchanged since the view was built (*shape
// still matches — the common case between gossip rounds), the channel ids in
// the view are aligned with n.chans, so only the capacities are rewritten in
// place: no graph rebuild, no allocations. On a shape change (channel
// open/close, node churn) it falls back to a fresh BalanceView. The returned
// view is value-identical to BalanceView() either way.
func (n *Network) RefreshBalanceView(view *graph.Graph, shape *uint64) *graph.Graph {
	if view == nil || *shape != n.g.MutationSeq() {
		*shape = n.g.MutationSeq()
		return n.BalanceView()
	}
	for i, ch := range n.chans {
		fwd, rev := ch.Balance(0), ch.Balance(1)
		if ch.Closed() {
			fwd, rev = 0, 0
		}
		view.SetCapacity(graph.EdgeID(i), fwd, rev)
	}
	return view
}

// BalanceView snapshots the channels' current spendable balances into a
// graph for max-flow computation. Closed channels appear as zero-capacity
// edges rather than being skipped: the view's edge IDs must stay aligned
// with the network's (flow decompositions come back as paths whose edges
// index n.chans), and zero-capacity arcs carry no flow.
func (n *Network) BalanceView() *graph.Graph {
	view := graph.New(n.g.NumNodes())
	for _, ch := range n.chans {
		fwd, rev := ch.Balance(0), ch.Balance(1)
		if ch.Closed() {
			fwd, rev = 0, 0
		}
		if _, err := view.AddEdge(ch.U, ch.V, fwd, rev); err != nil {
			panic(err) // mirrors a valid existing edge
		}
	}
	return view
}
