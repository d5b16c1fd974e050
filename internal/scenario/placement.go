// Placement panels (Fig. 9): analytical evaluations of the hub-placement
// solver over a spec's topology. The build path reuses the spec pipeline, so
// each panel sees the same topology a simulation cell of that spec would.
package scenario

import (
	"fmt"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/placement"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/topology"
)

// placementParts materializes what every placement panel shares across its
// omega sweep — the topology (built once; it depends only on the seed, not
// on omega), the candidate list from the voting excellence proxy (top
// degree), and the remaining nodes as clients.
type placementParts struct {
	st      *buildState
	g       *graph.Graph
	cands   []graph.NodeID
	clients []graph.NodeID
}

func newPlacementParts(s Spec) (*placementParts, error) {
	st, err := s.beginBuild()
	if err != nil {
		return nil, err
	}
	p := &placementParts{st: st, g: st.g}
	p.cands = topology.TopDegreeNodes(p.g, s.hubCandidates())
	candSet := map[graph.NodeID]bool{}
	for _, c := range p.cands {
		candSet[c] = true
	}
	for i := 0; i < p.g.NumNodes(); i++ {
		if !candSet[graph.NodeID(i)] {
			p.clients = append(p.clients, graph.NodeID(i))
		}
	}
	return p, nil
}

// instance builds the placement instance for one omega.
func (p *placementParts) instance(omega float64) (*placement.Instance, error) {
	return placement.NewInstanceFromGraph(p.g, p.clients, p.cands, omega)
}

// solveBoth returns the approximation plan and (when the candidate set is
// small enough) the exact plan.
func solveBoth(inst *placement.Instance) (approx placement.Plan, exact placement.Plan, haveExact bool, err error) {
	approx, err = inst.SolveDoubleGreedy(nil)
	if err != nil {
		return placement.Plan{}, placement.Plan{}, false, err
	}
	if len(inst.Candidates) <= 16 {
		exact, err = inst.SolveExhaustive()
		if err != nil {
			return placement.Plan{}, placement.Plan{}, false, err
		}
		return approx, exact, true, nil
	}
	return approx, placement.Plan{}, false, nil
}

func bestPlan(inst *placement.Instance) (placement.Plan, error) {
	if len(inst.Candidates) <= 16 {
		return inst.SolveExhaustive()
	}
	return inst.SolveDoubleGreedy(nil)
}

// BalanceCostSeries is Fig. 9(a): average balance cost vs ω, model
// (approximation) vs optimal.
func BalanceCostSeries(base Spec, omegas []float64) ([]Series, error) {
	parts, err := newPlacementParts(base)
	if err != nil {
		return nil, err
	}
	model := Series{Name: "model"}
	optimal := Series{Name: "optimal"}
	for _, omega := range omegas {
		inst, err := parts.instance(omega)
		if err != nil {
			return nil, err
		}
		approx, exact, haveExact, err := solveBoth(inst)
		if err != nil {
			return nil, err
		}
		model.Points = append(model.Points, Point{X: omega, Y: approx.TotalCost})
		if haveExact {
			optimal.Points = append(optimal.Points, Point{X: omega, Y: exact.TotalCost})
		}
	}
	out := []Series{model}
	if len(optimal.Points) > 0 {
		out = append(out, optimal)
	}
	return out, nil
}

// TradeoffPoint is one annotated point of Fig. 9(b).
type TradeoffPoint struct {
	Omega    float64
	MgmtCost float64
	SyncCost float64
	NumHubs  int
}

// CostTradeoff is Fig. 9(b): the management-vs-synchronization cost curve,
// annotated with (ω, number of smooth nodes).
func CostTradeoff(base Spec, omegas []float64) ([]TradeoffPoint, error) {
	parts, err := newPlacementParts(base)
	if err != nil {
		return nil, err
	}
	var out []TradeoffPoint
	for _, omega := range omegas {
		inst, err := parts.instance(omega)
		if err != nil {
			return nil, err
		}
		plan, err := bestPlan(inst)
		if err != nil {
			return nil, err
		}
		out = append(out, TradeoffPoint{
			Omega:    omega,
			MgmtCost: plan.MgmtCost,
			SyncCost: plan.SyncCost,
			NumHubs:  plan.NumPlaced(),
		})
	}
	return out, nil
}

// HubCount is Fig. 9(c)/(d): the number of smooth nodes placed per ω. The
// series carries the spec's name, matching the historical legend.
func HubCount(base Spec, omegas []float64) (Series, error) {
	parts, err := newPlacementParts(base)
	if err != nil {
		return Series{}, err
	}
	s := Series{Name: base.Name}
	for _, omega := range omegas {
		inst, err := parts.instance(omega)
		if err != nil {
			return Series{}, err
		}
		plan, err := bestPlan(inst)
		if err != nil {
			return Series{}, err
		}
		s.Points = append(s.Points, Point{X: omega, Y: float64(plan.NumPlaced())})
	}
	return s, nil
}

// DelayOverheadPoint is one point of Fig. 9(e/f): average transaction delay
// vs total traffic overhead, with or without PCHs.
type DelayOverheadPoint struct {
	Omega    float64 // 0 for the "without PCHs" reference
	WithPCH  bool
	DelayMs  float64
	Overhead float64
}

// perHopDelayMs is the modeled per-hop communication latency for the
// Fig. 9(e/f) analytical curves.
const perHopDelayMs = 20

// DelayOverhead is Fig. 9(e)/9(f): iterate ω, compute the average payment
// delay (client → hub → hub → client path hops × per-hop latency) and the
// total communication overhead (management + synchronization cost mass);
// compare against the source-routing reference without PCHs, where every
// sender maintains the full topology.
func DelayOverhead(base Spec, omegas []float64) ([]DelayOverheadPoint, error) {
	parts, err := newPlacementParts(base)
	if err != nil {
		return nil, err
	}
	g, cands, clients := parts.g, parts.cands, parts.clients
	hopsFrom := make([][]int, len(cands))
	for i, c := range cands {
		hopsFrom[i] = g.BFSHops(c)
	}

	var out []DelayOverheadPoint
	for _, omega := range omegas {
		inst, err := parts.instance(omega)
		if err != nil {
			return nil, err
		}
		plan, err := bestPlan(inst)
		if err != nil {
			return nil, err
		}
		placed := plan.PlacedCandidates()
		// Average client→hub hop count under the plan's assignment.
		totalAccess := 0.0
		for m, hubIdx := range plan.Assign {
			totalAccess += float64(hopsFrom[hubIdx][clients[m]])
		}
		meanAccess := totalAccess / float64(len(clients))
		// Average hub→hub hop count.
		meanHubHub := 0.0
		if len(placed) > 1 {
			total, pairs := 0.0, 0
			for _, a := range placed {
				for _, b := range placed {
					if a != b {
						total += float64(hopsFrom[a][cands[b]])
						pairs++
					}
				}
			}
			meanHubHub = total / float64(pairs)
		}
		// A payment crosses: sender→hub, hub⇝hub, hub→recipient.
		delay := (2*meanAccess + meanHubHub) * perHopDelayMs
		overhead := plan.MgmtCost + plan.SyncCost
		out = append(out, DelayOverheadPoint{Omega: omega, WithPCH: true, DelayMs: delay, Overhead: overhead})
	}
	// Without PCHs: every sender source-routes. The per-payment delay has
	// three components the PCH side avoids: (i) the sender must probe its
	// candidate paths end-to-end before committing rates/amounts (a probe
	// round trip of 2×hops), (ii) the payment itself (hops), and (iii) the
	// sender-side route computation over the full topology. PCHs instead
	// decide from the epoch-synchronized global state and send immediately
	// (§III-C's management-cost motivation). Overhead: every node maintains
	// the full topology via gossip, costing management-cost-per-hop × mean
	// hops per node.
	meanPair, err := meanPairwiseHops(g, parts.st.src.Split(9), 200)
	if err != nil {
		return nil, err
	}
	computeMs := pcn.NewConfig(pcn.SchemeSpider).SenderComputeDelayPerNode * float64(g.NumNodes()) * 1000
	srcDelay := 3*meanPair*perHopDelayMs + computeMs
	srcOverhead := placement.DefaultMgmtPerHop * meanPair * float64(g.NumNodes())
	out = append(out, DelayOverheadPoint{Omega: 0, WithPCH: false, DelayMs: srcDelay, Overhead: srcOverhead})
	return out, nil
}

// meanPairwiseHops estimates the mean shortest-path hop count by sampling.
func meanPairwiseHops(g *graph.Graph, src *rng.Source, samples int) (float64, error) {
	if g.NumNodes() < 2 {
		return 0, fmt.Errorf("scenario: graph too small")
	}
	total, count := 0.0, 0
	for i := 0; i < samples; i++ {
		u := graph.NodeID(src.IntN(g.NumNodes()))
		dist := g.BFSHops(u)
		v := graph.NodeID(src.IntN(g.NumNodes()))
		if u == v || dist[v] < 0 {
			continue
		}
		total += float64(dist[v])
		count++
	}
	if count == 0 {
		return 0, fmt.Errorf("scenario: no connected samples")
	}
	return total / float64(count), nil
}
