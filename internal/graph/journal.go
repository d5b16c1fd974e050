// Shape-mutation journal. Observers that maintain derived structures over
// the graph (the hub-label precomputation tier) need to know *which*
// mutations happened since they last looked, not just that the counter
// moved — a counter alone forces a full rebuild on every channel open.
// The graph records every shape mutation (AddNode/AddEdge/RemoveEdge) in a
// bounded ring; capacity rewrites are deliberately excluded, both because
// unit-weight derived structures don't depend on capacities and because the
// balance-view refresh issues O(E) SetCapacity calls per gossip tick, which
// would flush the journal between every pair of reads.
package graph

// MutationKind discriminates journal entries.
type MutationKind uint8

const (
	// MutAddNode records an AddNode; U is the new node's id.
	MutAddNode MutationKind = iota + 1
	// MutAddEdge records an AddEdge; Edge is the new id, U/V its endpoints.
	MutAddEdge
	// MutRemoveEdge records a RemoveEdge; Edge is the tombstoned id, U/V
	// the endpoints it connected.
	MutRemoveEdge
)

// Mutation is one journaled shape change.
type Mutation struct {
	Kind MutationKind
	Edge EdgeID
	U, V NodeID
}

// maxJournal bounds journal memory; overflow trims the oldest half, and
// observers whose cursor falls off the retained window get ok=false from
// MutationsSince and must resync from scratch.
const maxJournal = 8192

func (g *Graph) journalAppend(m Mutation) {
	if len(g.journal) >= maxJournal {
		half := len(g.journal) / 2
		n := copy(g.journal, g.journal[half:])
		g.journal = g.journal[:n]
		g.journalBase += uint64(half)
	}
	g.journal = append(g.journal, m)
}

// MutationSeq returns the current shape-mutation sequence number: the seq
// to pass to MutationsSince to receive only mutations applied after this
// call.
func (g *Graph) MutationSeq() uint64 { return g.mutations }

// MutationsSince returns the shape mutations applied since seq, in order.
// ok is false when the window has been trimmed past seq (or seq is from
// another graph's future); the observer must then resync from current
// state and restart its cursor at MutationSeq. The returned slice aliases
// the journal and is valid only until the next graph mutation.
func (g *Graph) MutationsSince(seq uint64) ([]Mutation, bool) {
	if seq < g.journalBase || seq > g.journalBase+uint64(len(g.journal)) {
		return nil, false
	}
	return g.journal[seq-g.journalBase:], true
}
