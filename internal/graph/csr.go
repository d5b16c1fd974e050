// Packed adjacency (CSR), the graph's only adjacency. Each node owns a
// region of one arc slab, maintained in place by the mutators: AddEdge
// appends into the node's region (amortized-doubling migration to the
// slab's end when full), RemoveEdge compacts the region in place, and
// SetCapacity writes the two affected arc slots directly — so a one-channel
// top-up is O(1) and a churn event is O(degree), never O(E).
//
// Order rule: a node's region holds its live incident edges in ascending
// EdgeID. AddEdge appends the largest id so far, and removal and migration
// preserve order, so the rule holds after any mutation sequence. It is
// load-bearing — Dijkstra tie-breaking is observable through the golden
// CSVs — and it is what lets compaction and Clone lay the slab out afresh
// by a counting sort over the edge table (csrPack).
package graph

// Arc is one entry of a node's packed adjacency: the edge taken and the
// node it leads to.
type Arc uint64

func packArc(to NodeID, eid EdgeID) Arc {
	return Arc(uint64(uint32(to))<<32 | uint64(uint32(eid)))
}

// To returns the arc's far endpoint.
func (a Arc) To() NodeID { return NodeID(a >> 32) }

// Edge returns the edge the arc traverses.
func (a Arc) Edge() EdgeID { return EdgeID(uint32(a)) }

// arcSpan is one node's region of the arc slab: arcs live at
// slab[off : off+n], with room to grow to off+cap before the region
// migrates to the end of the slab.
type arcSpan struct {
	off int32
	n   int32
	cap int32
}

// csrState is the packed adjacency: slab holds the arcs, caps the
// directional capacity out of the arc's source node at the same index, span
// locates each node's region, and pos maps each live edge to the slab
// indices of its two arcs (U-side, V-side) so capacity writes and removals
// are O(1) lookups.
type csrState struct {
	slab  []Arc
	caps  []float64
	span  []arcSpan
	pos   [][2]int32
	stats CSRStats
}

// CSRStats exposes the CSR maintenance counters, so tests (and curious
// benchmarks) can pin that a given workload stays on the incremental path.
type CSRStats struct {
	// Compactions counts O(E) relayouts, triggered when fewer than a
	// quarter of the slab's slots hold live arcs.
	Compactions uint64
	// IncrementalOps counts shape mutations (AddNode/AddEdge/RemoveEdge)
	// applied in place.
	IncrementalOps uint64
	// CapacityWrites counts SetCapacity calls applied as two-slot writes.
	CapacityWrites uint64
	// Arcs is the live arc count (2 per live edge); SlabLen is the backing
	// slab length including growth headroom and abandoned regions.
	Arcs    int
	SlabLen int
}

// CSRStats returns a snapshot of the CSR maintenance counters.
func (g *Graph) CSRStats() CSRStats {
	s := g.csr.stats
	s.Arcs = 2 * g.numLive
	s.SlabLen = len(g.csr.slab)
	return s
}

// csrPack lays the adjacency out afresh in exactly sized arrays: regions in
// node order, each tight (cap == n), filled by one pass over the edge table
// in ascending id — the order rule's order. Only the region sizes in span
// are read, so it serves both compaction (which thereby releases the old
// slab) and a clone holding a bare span copy.
func (g *Graph) csrPack() {
	c := &g.csr
	c.slab = make([]Arc, 2*g.numLive)
	c.caps = make([]float64, 2*g.numLive)
	c.pos = make([][2]int32, len(g.edges))
	off := int32(0)
	for u := range c.span {
		n := c.span[u].n
		c.span[u] = arcSpan{off: off, cap: n}
		off += n
	}
	for id := range g.edges {
		if g.removed[id] {
			c.pos[id] = [2]int32{-1, -1}
			continue
		}
		e := &g.edges[id]
		c.pos[id][0] = c.appendArc(e.U, packArc(e.V, EdgeID(id)), e.CapFwd)
		c.pos[id][1] = c.appendArc(e.V, packArc(e.U, EdgeID(id)), e.CapRev)
	}
}

// appendArc writes an arc into the free slot at the end of u's region,
// which the caller guarantees exists, and returns its slab index.
func (c *csrState) appendArc(u NodeID, arc Arc, capOut float64) int32 {
	s := &c.span[u]
	i := s.off + s.n
	c.slab[i] = arc
	c.caps[i] = capOut
	s.n++
	return i
}

// csrAddNode appends an empty region for a new node.
func (g *Graph) csrAddNode() {
	c := &g.csr
	c.span = append(c.span, arcSpan{off: int32(len(c.slab))})
	c.stats.IncrementalOps++
}

// csrAddEdge appends the new edge's two arcs to its endpoints' regions. It
// is also where the slab is compacted: migrations abandon regions and
// removals leave slack, and once live arcs fill under a quarter of a large
// slab the layout is packed afresh. Pure growth never crosses that line (a
// migrated region of cap C holds over C/2 arcs and abandoned under C
// slots), so only churn pays for compaction.
func (g *Graph) csrAddEdge(id EdgeID) {
	c := &g.csr
	e := g.edges[id]
	c.pos = append(c.pos, [2]int32{-1, -1})
	c.pos[id][0] = g.csrInsertArc(e.U, packArc(e.V, id), e.CapFwd)
	c.pos[id][1] = g.csrInsertArc(e.V, packArc(e.U, id), e.CapRev)
	c.stats.IncrementalOps++
	if len(c.slab) > 1024 && 4*2*g.numLive < len(c.slab) {
		g.csrPack()
		c.stats.Compactions++
	}
}

// csrInsertArc places one arc at the end of u's region and returns its slab
// index, first migrating the region to the slab's end with doubled capacity
// when it is full. Migration preserves arc order.
func (g *Graph) csrInsertArc(u NodeID, arc Arc, capOut float64) int32 {
	c := &g.csr
	s := &c.span[u]
	if s.n == s.cap {
		newCap := 2 * s.cap
		if newCap < 4 {
			newCap = 4
		}
		newOff := int32(len(c.slab))
		c.slab = append(c.slab, c.slab[s.off:s.off+s.n]...)
		c.caps = append(c.caps, c.caps[s.off:s.off+s.n]...)
		for i := newOff; i < newOff+s.n; i++ {
			eid := c.slab[i].Edge()
			c.pos[eid][g.side(eid, u)] = i
		}
		c.slab = append(c.slab, make([]Arc, newCap-s.n)...)
		c.caps = append(c.caps, make([]float64, newCap-s.n)...)
		*s = arcSpan{off: newOff, n: s.n, cap: newCap}
	}
	return c.appendArc(u, arc, capOut)
}

// side is 0 when u is the edge's U endpoint and 1 when it is V: the index
// of u's arc in pos[id].
func (g *Graph) side(id EdgeID, u NodeID) int {
	if g.edges[id].U == u {
		return 0
	}
	return 1
}

// csrRemoveEdge drops the edge's two arcs by ordered in-place compaction of
// each endpoint's region.
func (g *Graph) csrRemoveEdge(id EdgeID) {
	e := g.edges[id]
	g.csrRemoveArc(e.U, id)
	g.csrRemoveArc(e.V, id)
	g.csr.stats.IncrementalOps++
}

func (g *Graph) csrRemoveArc(u NodeID, id EdgeID) {
	c := &g.csr
	s := &c.span[u]
	side := g.side(id, u)
	end := s.off + s.n
	for j := c.pos[id][side]; j < end-1; j++ {
		a := c.slab[j+1]
		c.slab[j] = a
		c.caps[j] = c.caps[j+1]
		c.pos[a.Edge()][g.side(a.Edge(), u)] = j
	}
	c.pos[id][side] = -1
	s.n--
}

// csrSetCapacity applies a capacity rewrite as two direct slot writes; a
// removed edge has no arcs to write.
func (g *Graph) csrSetCapacity(id EdgeID) {
	c := &g.csr
	if g.removed[id] {
		return
	}
	e := &g.edges[id]
	c.caps[c.pos[id][0]] = e.CapFwd
	c.caps[c.pos[id][1]] = e.CapRev
	c.stats.CapacityWrites++
}
