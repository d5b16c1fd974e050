// Epoch-pinned graph snapshots. The batch simulator reads the one live
// Graph it also mutates; a serving deployment cannot — query workers need a
// topology that holds still for the duration of a query while churn writers
// keep mutating. The SnapshotStore turns the mutable graph into a sequence
// of immutable epochs: a writer publishes a frozen copy (hub labels
// built), readers pin the current epoch with one atomic load plus a
// refcount, query it with zero locks on the hot path, and unpin when done.
//
// Publication is incremental, not copy-the-world: the store keeps a small
// pool of private graph buffers and brings the chosen buffer up to date by
// replaying the live graph's shape journal (see journal.go) from the
// buffer's cursor — O(mutations since this buffer last published), not
// O(E). A full clone happens only for a brand-new buffer, after a journal
// overflow, or if replay ever diverges (defensive). Buffers are recycled
// once their snapshot is retired (no longer current) and unpinned; readers
// that lose the publication race re-acquire, so a recycled buffer is never
// read mid-rewrite.
//
// The buffer's arc order — and therefore every Dijkstra tie-break —
// matches the live graph exactly, whether it was replayed or cloned, since
// both follow the ascending-EdgeID order rule (see csr.go): a query against
// the snapshot returns byte-identical paths to the same query against the
// live graph at publication time. TestSnapshotEquivalence pins this.
//
// Capacity changes are deliberately second-class: the shape journal excludes
// SetCapacity (a balance-gossip refresh writes O(E) capacities per tick), so
// Publish syncs the capacity column by a compare scan only when the
// capacity counter moved. A capacity-only delta does not force a new epoch
// unless the publisher asks (force): unit-weight routing — the serving hot
// path — is capacity-blind, and width-based path types tolerate gossip-stale
// balances by design, so top-ups share the current snapshot until the next
// shape change or forced refresh. See DESIGN.md "Serving layer & epoch
// snapshots".
package graph

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Snapshot is one published epoch: an immutable graph plus, when
// the store has label roots, a fully built hub-label tier. A Snapshot is
// obtained pinned from SnapshotStore.Acquire and MUST be released; between
// Acquire and Release any number of goroutines may read it, each through its
// own PathFinder (see PathFinder.Rebind).
type Snapshot struct {
	epoch  uint64
	seq    uint64 // live MutationSeq this snapshot reflects
	capSeq uint64 // live CapMutations the capacity column reflects
	buf    *snapshotBuf
	store  *SnapshotStore
	pins   atomic.Int64
}

// Epoch returns the publication sequence number (1 for the first publish).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Seq returns the live graph's shape-mutation sequence this epoch reflects.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Graph returns the frozen topology. It must be treated as read-only: the
// store rewrites the underlying buffer only after the snapshot is retired
// and fully unpinned.
func (s *Snapshot) Graph() *Graph { return s.buf.g }

// Labels returns the read-only hub-label view for this epoch. ok is false
// when the store has no label roots.
func (s *Snapshot) Labels() (LabelView, bool) {
	if s.buf.hl == nil || len(s.buf.hl.hubs) == 0 {
		return LabelView{}, false
	}
	return s.buf.hl.View(), true
}

// Release unpins the snapshot. The caller must not touch the snapshot (or
// anything read through it) afterwards.
func (s *Snapshot) Release() {
	s.store.activePins.Add(-1)
	s.pins.Add(-1)
}

// snapshotBuf is one reusable graph buffer. seq/capSeq are cursors into the
// LIVE graph's counters (what this buffer currently mirrors); rootsGen
// tracks the store's label-root set the buffer's hl was built for.
type snapshotBuf struct {
	g        *Graph
	hl       *HubLabels
	seq      uint64
	capSeq   uint64
	rootsGen uint64
	snap     *Snapshot // latest snapshot wrapping this buffer (nil before first publish)
}

// SnapshotStats counts store activity, for tests and the serving layer's
// stats endpoint.
type SnapshotStats struct {
	// Publishes counts published epochs. IncrementalBuilds is the subset
	// brought up to date by journal replay; FullBuilds cloned the live graph
	// (first use of a buffer, journal overflow, or replay divergence), and
	// Resyncs is the subset of FullBuilds forced by overflow/divergence on a
	// previously synced buffer.
	Publishes         uint64 `json:"publishes"`
	IncrementalBuilds uint64 `json:"incremental_builds"`
	FullBuilds        uint64 `json:"full_builds"`
	Resyncs           uint64 `json:"resyncs"`
	// SharedCapacity counts Publish calls skipped because only capacities
	// changed (the epoch is shared; see package comment). SharedNoop counts
	// Publish calls with no delta at all.
	SharedCapacity uint64 `json:"shared_capacity"`
	SharedNoop     uint64 `json:"shared_noop"`
	// Buffers is the number of graph buffers ever allocated; Recycled counts
	// publications that reused a retired buffer.
	Buffers  int    `json:"buffers"`
	Recycled uint64 `json:"recycled"`
	// ActivePins is the number of currently pinned snapshot references.
	ActivePins int64 `json:"active_pins"`
	// Epoch is the current epoch (0 before the first publish).
	Epoch uint64 `json:"epoch"`
}

// SnapshotStore publishes epoch snapshots of one live graph and hands them
// to concurrent readers. Writers (whoever mutates the live graph) call
// Publish after their mutation batch; readers call Acquire/Release. Publish
// calls are serialized by an internal mutex; Acquire/Release never block.
type SnapshotStore struct {
	mu       sync.Mutex // serializes publishers and guards bufs/stats/roots
	cur      atomic.Pointer[Snapshot]
	bufs     []*snapshotBuf
	epoch    uint64
	roots    []NodeID
	rootsGen uint64
	stats    SnapshotStats

	activePins atomic.Int64
}

// NewSnapshotStore returns an empty store. roots seeds the hub-label tier
// built into every snapshot (nil for label-free snapshots); call Publish to
// produce the first epoch.
func NewSnapshotStore(roots []NodeID) *SnapshotStore {
	return &SnapshotStore{roots: append([]NodeID(nil), roots...), rootsGen: 1}
}

// SetRoots replaces the label-root set for subsequent publications (a hub
// re-placement). Existing epochs keep their old tier; the next Publish
// rebuilds labels from the new roots.
func (st *SnapshotStore) SetRoots(roots []NodeID) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.roots = append(st.roots[:0], roots...)
	st.rootsGen++
}

// Epoch returns the current epoch (0 before the first publish).
func (st *SnapshotStore) Epoch() uint64 {
	if s := st.cur.Load(); s != nil {
		return s.epoch
	}
	return 0
}

// ActivePins returns the number of snapshot references currently pinned —
// the serving layer's shutdown test asserts this drains to zero.
func (st *SnapshotStore) ActivePins() int64 { return st.activePins.Load() }

// Stats returns a snapshot of the store counters.
func (st *SnapshotStore) Stats() SnapshotStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.stats
	s.ActivePins = st.activePins.Load()
	s.Epoch = st.epoch
	return s
}

// Acquire pins and returns the current snapshot (nil before the first
// publish). The hot path is one atomic load, one refcount increment and one
// confirming load; the retry loop runs only when a publication lands in
// that window. Callers MUST Release exactly once.
func (st *SnapshotStore) Acquire() *Snapshot {
	for {
		s := st.cur.Load()
		if s == nil {
			return nil
		}
		s.pins.Add(1)
		// Confirm s is still current. A publisher recycles a buffer only
		// when its snapshot is retired AND unpinned; if the publication
		// raced our pin, the confirm fails before we read anything through
		// the snapshot, so a recycled buffer is never observed mid-rewrite.
		if st.cur.Load() == s {
			st.activePins.Add(1)
			return s
		}
		s.pins.Add(-1)
	}
}

// Publish makes the live graph's current state the new epoch. It returns
// the epoch serving the state and whether a new snapshot was actually
// published: a no-delta call returns the current epoch unchanged, and a
// capacity-only delta shares the current epoch unless force is set (see the
// package comment for why that is sound). The caller must be the (single)
// writer of live, or otherwise ensure live is quiescent for the duration.
func (st *SnapshotStore) Publish(live *Graph, force bool) (uint64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.cur.Load()
	if cur != nil && cur.buf.rootsGen == st.rootsGen {
		if live.MutationSeq() == cur.seq {
			if live.CapMutations() == cur.capSeq {
				st.stats.SharedNoop++
				return cur.epoch, false
			}
			if !force {
				st.stats.SharedCapacity++
				return cur.epoch, false
			}
		}
	}
	buf := st.takeBuf(cur)
	st.syncBuf(buf, live)
	if buf.hl == nil || buf.rootsGen != st.rootsGen {
		buf.hl = nil
		if len(st.roots) > 0 {
			buf.hl = NewHubLabels(buf.g, nil, st.roots)
		}
		buf.rootsGen = st.rootsGen
	}
	if buf.hl != nil {
		buf.hl.BuildAll()
	}
	st.epoch++
	snap := &Snapshot{epoch: st.epoch, seq: buf.seq, capSeq: buf.capSeq, buf: buf, store: st}
	buf.snap = snap
	st.cur.Store(snap)
	st.stats.Publishes++
	return st.epoch, true
}

// takeBuf returns a buffer safe to rewrite: a retired, unpinned one when
// available, else a fresh one. cur's buffer is never eligible.
func (st *SnapshotStore) takeBuf(cur *Snapshot) *snapshotBuf {
	for _, b := range st.bufs {
		if cur != nil && b == cur.buf {
			continue
		}
		if b.snap == nil || b.snap.pins.Load() == 0 {
			if b.snap != nil {
				st.stats.Recycled++
			}
			b.snap = nil
			return b
		}
	}
	b := &snapshotBuf{}
	st.bufs = append(st.bufs, b)
	st.stats.Buffers++
	return b
}

// syncBuf brings buf's graph to the live graph's current state: journal
// replay from the buffer's cursor when the window allows, full clone
// otherwise, then a capacity-column sync if capacities moved.
func (st *SnapshotStore) syncBuf(buf *snapshotBuf, live *Graph) {
	if buf.g == nil {
		st.rebuildBuf(buf, live, false)
		return
	}
	muts, ok := live.MutationsSince(buf.seq)
	if !ok {
		st.rebuildBuf(buf, live, true)
		return
	}
	for _, m := range muts {
		if !applyMutation(buf.g, m, live) {
			// Divergence should be impossible (same mutation sequence on the
			// same prefix); resync defensively rather than serving a wrong
			// topology.
			st.rebuildBuf(buf, live, true)
			return
		}
	}
	buf.seq = live.MutationSeq()
	st.stats.IncrementalBuilds++
	st.syncCapacities(buf, live)
}

// applyMutation replays one live-graph shape mutation onto the buffer,
// reporting whether the buffer stayed aligned (same IDs).
func applyMutation(g *Graph, m Mutation, live *Graph) bool {
	switch m.Kind {
	case MutAddNode:
		return g.AddNode() == m.U
	case MutAddEdge:
		// Fund with the live edge's CURRENT capacities: the capacity sync
		// below overwrites them anyway, and the journal records shape only.
		e := live.Edge(m.Edge)
		id, err := g.AddEdge(m.U, m.V, e.CapFwd, e.CapRev)
		return err == nil && id == m.Edge
	case MutRemoveEdge:
		return g.RemoveEdge(m.Edge) == nil
	}
	return false
}

// rebuildBuf replaces the buffer's graph with a full clone of live.
func (st *SnapshotStore) rebuildBuf(buf *snapshotBuf, live *Graph, resync bool) {
	buf.g = live.Clone()
	buf.hl = nil // labels were bound to the old graph object
	buf.seq = live.MutationSeq()
	buf.capSeq = live.CapMutations()
	st.stats.FullBuilds++
	if resync {
		st.stats.Resyncs++
	}
}

// syncCapacities copies changed capacities from live into the buffer (and
// its CSR capacity column) with one compare scan, skipped entirely when the
// capacity counter did not move.
func (st *SnapshotStore) syncCapacities(buf *snapshotBuf, live *Graph) {
	if buf.capSeq == live.CapMutations() {
		return
	}
	for id := range live.edges {
		le := &live.edges[id]
		be := &buf.g.edges[id]
		if be.CapFwd != le.CapFwd || be.CapRev != le.CapRev {
			if buf.g.removed[id] {
				be.CapFwd, be.CapRev = le.CapFwd, le.CapRev
				continue
			}
			buf.g.SetCapacity(EdgeID(id), le.CapFwd, le.CapRev)
		}
	}
	buf.capSeq = live.CapMutations()
}

// ValidateSnapshot checks the internal consistency of a snapshot graph's
// packed adjacency against the order rule (see csr.go): every node's region
// lies in bounds and lists live incident edges in strictly ascending id,
// each arc leads to the edge's other endpoint and carries its current
// directional capacity, pos locates every arc, and the arcs number two per
// live edge. Readers in the concurrency tests call it to prove they never
// observe a half-applied mutation; it is exported because the serving-layer
// tests (outside this package) assert the same invariant.
func ValidateSnapshot(g *Graph) error {
	c := &g.csr
	if len(c.caps) != len(c.slab) || len(c.pos) != len(g.edges) {
		return fmt.Errorf("graph: CSR columns misaligned: slab %d, caps %d, pos %d for %d edges",
			len(c.slab), len(c.caps), len(c.pos), len(g.edges))
	}
	arcs := 0
	for u, s := range c.span {
		if s.off < 0 || s.n < 0 || s.n > s.cap || int(s.off+s.cap) > len(c.slab) {
			return fmt.Errorf("graph: node %d span {off %d, n %d, cap %d} invalid in slab %d", u, s.off, s.n, s.cap, len(c.slab))
		}
		prev := EdgeID(-1)
		for i := s.off; i < s.off+s.n; i++ {
			eid := c.slab[i].Edge()
			if eid <= prev || int(eid) >= len(g.edges) {
				return fmt.Errorf("graph: node %d arc %d is edge %d after edge %d (want ascending ids below %d)", u, i-s.off, eid, prev, len(g.edges))
			}
			prev = eid
			e := g.edges[eid]
			if g.removed[eid] {
				return fmt.Errorf("graph: node %d lists removed edge %d", u, eid)
			}
			side, to, capOut := 0, e.V, e.CapFwd
			if e.V == NodeID(u) {
				side, to, capOut = 1, e.U, e.CapRev
			} else if e.U != NodeID(u) {
				return fmt.Errorf("graph: node %d lists edge %d, which it is not an endpoint of", u, eid)
			}
			if c.slab[i].To() != to {
				return fmt.Errorf("graph: edge %d arc target mismatch at node %d", eid, u)
			}
			if c.caps[i] != capOut {
				return fmt.Errorf("graph: edge %d capacity column stale at node %d", eid, u)
			}
			if c.pos[eid][side] != i {
				return fmt.Errorf("graph: edge %d side %d: pos %d, arc at %d", eid, side, c.pos[eid][side], i)
			}
			arcs++
		}
	}
	if arcs != 2*g.numLive {
		return fmt.Errorf("graph: %d arcs listed, %d live edges", arcs, g.numLive)
	}
	return nil
}
