package main

import (
	"fmt"
	"slices"
	"time"

	"github.com/splicer-pcn/splicer/internal/dynamics"
	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/placement"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/scenario"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// simWorkload is a seeded simulator workload: a scenario spec and the schemes
// one pass runs on it.
type simWorkload struct {
	spec    func(seed uint64) scenario.Spec
	schemes []pcn.Scheme
	// inputs is how many distinct seeded inputs one run cycles through, so
	// a run's figures average over inputs as well as over repeats.
	inputs int
}

var paperSchemes = []pcn.Scheme{pcn.SchemeSplicer, pcn.SchemeSpider, pcn.SchemeFlash, pcn.SchemeLandmark, pcn.SchemeA2L}

// panelLarge is the paper's large-scale cell (3000-node Watts–Strogatz,
// 400 tx/s, τ = 200 ms) for the five schemes, two planning workers each.
func panelLarge(seed uint64) scenario.Spec {
	s := scenario.LargeSpec()
	s.Seed = seed
	s.Routing.Parallelism = 2
	return s
}

// lifecycleSmall is the paper's small-scale cell run long enough for channel
// depletion: serial Splicer, where routing is a small share of the run.
func lifecycleSmall(seed uint64) scenario.Spec {
	s := scenario.SmallSpec()
	s.Seed = seed
	s.Workload.Duration = 40
	return s
}

// churnOnline is Splicer on a 1000-node Watts–Strogatz graph under 20 s of
// structural churn (2 events/s per process) with online re-placement every
// 2 s, two planning workers.
func churnOnline(seed uint64) scenario.Spec {
	s := scenario.ChurnSpec()
	s.Seed = seed
	s.Topology.Nodes = 1000
	s.Workload.Duration = 20
	s.Dynamics = &scenario.DynamicsSpec{ChurnRate: 2, ReplaceInterval: 2}
	s.Routing.Parallelism = 2
	return s
}

// cell is one scheme run: its inputs built from the seed, a fresh network,
// the run, and the counters read off the network afterwards.
type cell struct {
	scheme pcn.Scheme
	res    pcn.Result
	err    error

	setup                         time.Duration // build + NewNetwork
	buildTopo, buildTrace, newNet time.Duration
	placement                     time.Duration // direct solve, traced cells only
	run                           time.Duration

	spec                    pcn.SpeculationStats
	hits, misses, invalid   float64
	tu                      map[string]float64
	dynEvents, replacements int
	hubsMatch               bool // direct placement solve == the network's hubs

	pol *timedPolicy // traced cells only
}

var tuCounters = []string{"tu_sent", "tu_queued", "tu_completed", "tu_failed", "tu_marked"}

// config maps the spec's routing block onto pcn.Config the way the scenario
// layer does for the fields these workloads set.
func config(s scenario.Spec, scheme pcn.Scheme) pcn.Config {
	cfg := pcn.NewConfig(scheme)
	if s.Routing.HubCandidates > 0 {
		cfg.NumHubCandidates = s.Routing.HubCandidates
	}
	if s.Routing.UpdateTauMs > 0 {
		cfg.UpdateTau = s.Routing.UpdateTauMs / 1000
	}
	cfg.Parallelism = s.Routing.Parallelism
	return cfg
}

// dynConfig mirrors the scenario layer's mapping of a dynamics spec.
func dynConfig(s scenario.Spec) dynamics.Config {
	w := s.Workload
	dyn := dynamics.NewConfig(w.Duration)
	r := s.Dynamics.ChurnRate
	dyn.JoinRate, dyn.LeaveRate, dyn.OpenRate, dyn.CloseRate, dyn.TopUpRate = r, r, r, r, r
	dyn.ChannelScale = s.Topology.ChannelScale
	dyn.Rate = w.Rate
	dyn.ValueScale = w.ValueScale
	dyn.ZipfSkew = w.ZipfSkew
	dyn.Timeout = w.Timeout
	dyn.ReplaceInterval = s.Dynamics.ReplaceInterval
	return dyn
}

// runCell builds the inputs for one scheme and runs it. The rng splits follow
// the scenario layer's label contract (1 sizes, 2 topology, 3 workload,
// 4 dynamics), so the cell equals scenario.Spec.RunScheme. rec == nil runs
// untraced: the scheme's own policy, no decorator. setupOnly stops after
// pcn.NewNetwork.
func runCell(s scenario.Spec, scheme pcn.Scheme, rec *recorder, solvePlacement, setupOnly bool) cell {
	c := cell{scheme: scheme}
	t0 := time.Now()
	sp := rec.begin("build.topology", -1, -1)
	src := rng.New(s.Seed)
	sizes := workload.NewChannelSizeDist(src.Split(1), s.Topology.ChannelScale)
	t := s.Topology
	g, err := topology.WattsStrogatz(src.Split(2), t.Nodes, t.Degree, t.Beta, sizes.CapacityFunc())
	rec.end(sp)
	c.buildTopo = time.Since(t0)
	if err != nil {
		c.err = err
		return c
	}
	var trace []workload.Tx
	if s.Dynamics == nil { // a dynamic run draws its payments online
		t1 := time.Now()
		sp = rec.begin("build.trace", -1, -1)
		w := s.Workload
		clients := make([]graph.NodeID, g.NumNodes())
		for i := range clients {
			clients[i] = graph.NodeID(i)
		}
		trace, err = workload.Generate(src.Split(3), workload.Config{
			Clients: clients, Rate: w.Rate, Duration: w.Duration, Timeout: w.Timeout,
			ZipfSkew: w.ZipfSkew, ValueScale: w.ValueScale, CirculationFraction: w.CirculationFraction,
		})
		rec.end(sp)
		c.buildTrace = time.Since(t1)
		if err != nil {
			c.err = err
			return c
		}
	}

	cfg := config(s, scheme)
	var hubs []graph.NodeID
	if solvePlacement && scheme == pcn.SchemeSplicer {
		tp := time.Now()
		sp = rec.begin("placement.solve", -1, -1)
		hubs, err = solvePlacementDirect(g, cfg)
		rec.end(sp)
		c.placement = time.Since(tp)
		if err != nil {
			c.err = err
			return c
		}
	}
	if rec != nil {
		pol, err := newTimedPolicy(scheme, rec)
		if err != nil {
			c.err = err
			return c
		}
		c.pol = pol
		cfg.Policy = pol
	}
	t2 := time.Now()
	sp = rec.begin("pcn.new_network", -1, -1)
	if c.pol != nil {
		c.pol.runSpan = sp
	}
	net, err := pcn.NewNetwork(g, cfg)
	rec.end(sp)
	c.newNet = time.Since(t2)
	c.setup = c.buildTopo + c.buildTrace + c.newNet
	if err != nil || setupOnly {
		c.err = err
		return c
	}
	if solvePlacement && scheme == pcn.SchemeSplicer {
		c.hubsMatch = slices.Equal(hubs, net.Hubs())
	}

	var d *dynamics.Driver
	if s.Dynamics != nil {
		if d, err = dynamics.NewDriver(net, src.Split(4), dynConfig(s)); err != nil {
			c.err = err
			return c
		}
	}
	sp = rec.begin("sim.run", -1, -1)
	if c.pol != nil {
		c.pol.runSpan = sp
	}
	t3 := time.Now()
	if d != nil {
		c.res, err = d.Run()
	} else {
		c.res, err = net.Run(trace)
	}
	c.run = time.Since(t3)
	rec.end(sp)
	if err != nil {
		c.err = err
		return c
	}
	sp = rec.begin("check.conservation", -1, -1)
	c.err = net.CheckConservation()
	rec.end(sp)

	c.spec = net.SpeculationStats()
	rc := net.Routes()
	c.hits, c.misses, c.invalid = float64(rc.Hits()), float64(rc.Misses()), float64(rc.Generation())
	c.tu = map[string]float64{}
	for _, name := range tuCounters {
		c.tu[name] = net.Metrics().Counter(name)
	}
	if d != nil {
		for _, a := range d.Log() {
			if a.Skipped == "" {
				c.dynEvents++
			}
		}
		c.replacements, _ = d.ReplaceStats()
	}
	return c
}

// solvePlacementDirect runs the Splicer placement pipeline on g the way
// pcn.NewNetwork does for a static, connected network: top-degree
// candidates, the remaining nodes as clients, exhaustive search up to 16
// candidates and double-greedy beyond.
func solvePlacementDirect(g *graph.Graph, cfg pcn.Config) ([]graph.NodeID, error) {
	all := make([]graph.NodeID, g.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	numCand := min(cfg.NumHubCandidates, len(all)/2)
	numCand = max(numCand, 1)
	cands := topology.TopDegreeNodesOf(g, slices.Clone(all), numCand)
	isCand := map[graph.NodeID]bool{}
	for _, c := range cands {
		isCand[c] = true
	}
	var clients []graph.NodeID
	for _, v := range all {
		if !isCand[v] {
			clients = append(clients, v)
		}
	}
	inst, err := placement.NewInstanceFromGraph(g, clients, cands, cfg.PlacementOmega)
	if err != nil {
		return nil, err
	}
	var plan placement.Plan
	if len(cands) <= 16 {
		plan, err = inst.SolveExhaustive()
	} else {
		plan, err = inst.SolveDoubleGreedy(nil)
	}
	if err != nil {
		return nil, err
	}
	var hubs []graph.NodeID
	for _, idx := range plan.PlacedCandidates() {
		hubs = append(hubs, cands[idx])
	}
	return hubs, nil
}

// resultKey renders a Result for equality checks (%+v, since NaN fields
// break struct equality).
func resultKey(r pcn.Result) string { return fmt.Sprintf("%+v", r) }
