// Topology footprint estimation: how big is the network a spec would
// build, before any generator allocates it. The 100k-node scale series
// makes "run it and find out" an expensive way to discover an
// out-of-memory kill, so the cmd/scenarios front end estimates first and
// fails fast when the estimate exceeds available memory.
package scenario

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// Footprint is the estimated scale of a spec's simulation state.
type Footprint struct {
	// Nodes and Edges are the topology dimensions: exact for snapshots
	// (counted from the asset) and hub-spoke (structural), expected values
	// for the random generators.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// ApproxBytes is an order-of-magnitude estimate of one simulation
	// cell's resident state: graph with its packed CSR adjacency, channels
	// with queue headroom, path-finder scratch, route cache and label
	// trees. Parallel sweep workers each hold their own cell.
	ApproxBytes int64 `json:"approx_bytes"`
}

// ApproxMB returns ApproxBytes in mebibytes, rounded up.
func (f Footprint) ApproxMB() int64 { return (f.ApproxBytes + (1 << 20) - 1) >> 20 }

// Per-node and per-edge accounting behind ApproxBytes. Node state: CSR
// spans, finder scratch (state/dist/prev arrays), label
// tree rows, hub bookkeeping. Edge state: the graph edge, two packed CSR
// arcs with capacities and positions, the channel struct with queue
// headroom, cached paths. Calibrated against heap profiles of the figscale
// cells; deliberately generous so the gate errs toward refusing.
const (
	footprintBytesPerNode = 400
	footprintBytesPerEdge = 450
)

// EstimateFootprint sizes the topology a spec would build. Snapshot specs
// read the referenced asset (rows are counted, the graph is not built);
// generator specs use closed-form expected sizes.
func EstimateFootprint(s Spec) (Footprint, error) {
	s = s.normalize()
	t := s.Topology
	var f Footprint
	switch t.Type {
	case TopoWattsStrogatz:
		f.Nodes = t.Nodes
		f.Edges = t.Nodes * t.Degree / 2
	case TopoBarabasiAlbert:
		f.Nodes = t.Nodes
		f.Edges = t.Nodes * t.AttachEdges
	case TopoErdosRenyi:
		f.Nodes = t.Nodes
		f.Edges = int(t.EdgeProb * float64(t.Nodes) * float64(t.Nodes-1) / 2)
	case TopoHubSpoke:
		hubs := t.Cores * t.HubsPerCore
		clients := hubs * t.ClientsPerHub
		f.Nodes = t.Cores + hubs + clients
		// Core ring + up to cores/2 chords, one uplink per hub, one channel
		// per client.
		f.Edges = t.Cores + t.Cores/2 + hubs + clients
	case TopoSnapshot:
		nodes, edges, err := snapshotDims(t.Snapshot)
		if err != nil {
			return Footprint{}, err
		}
		f.Nodes, f.Edges = nodes, edges
	default:
		return Footprint{}, fmt.Errorf("scenario: unknown topology type %q", t.Type)
	}
	// Hub schemes reshape to a multi-star: up to one extra client→hub
	// channel per node on top of the base topology.
	edgesWithReshape := f.Edges + f.Nodes
	f.ApproxBytes = int64(f.Nodes)*footprintBytesPerNode + int64(edgesWithReshape)*footprintBytesPerEdge
	return f, nil
}

// snapshotDims counts a snapshot asset's dimensions without building the
// graph: rows become edges, the highest endpoint id + 1 is the node count.
func snapshotDims(ref string) (nodes, edges int, err error) {
	r, err := openAsset(ref)
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	maxID := -1
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false // header row
			continue
		}
		fields := strings.SplitN(line, ",", 3)
		if len(fields) < 2 {
			return 0, 0, fmt.Errorf("scenario: snapshot %s: malformed row %q", ref, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return 0, 0, fmt.Errorf("scenario: snapshot %s: %w", ref, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return 0, 0, fmt.Errorf("scenario: snapshot %s: %w", ref, err)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges++
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("scenario: snapshot %s: %w", ref, err)
	}
	return maxID + 1, edges, nil
}

// MaxFootprint estimates the largest cell an entry will run: the base spec
// (and BaseLarge where present) at every swept axis value, worst case.
// Static entries have no footprint.
func (e *Entry) MaxFootprint() (Footprint, error) {
	if e.Kind == KindStatic {
		return Footprint{}, nil
	}
	bases := []Spec{e.Base}
	if e.BaseLarge != nil {
		bases = append(bases, *e.BaseLarge)
	}
	var out Footprint
	for _, base := range bases {
		values := e.Axis.Values
		param := e.Axis.Param
		if param == "" || len(values) == 0 {
			param, values = "", []float64{0}
		}
		for _, x := range values {
			sp, err := base.withParam(param, x)
			if err != nil {
				return Footprint{}, err
			}
			f, err := EstimateFootprint(sp)
			if err != nil {
				return Footprint{}, err
			}
			if f.ApproxBytes > out.ApproxBytes {
				out = f
			}
		}
	}
	return out, nil
}
