package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// timedPolicy wraps a scheme's pcn.SchemePolicy and times the calls the
// network makes into it, from outside the program. Setup records the live
// network: Plan calls on it are the serial committer's (they block the run),
// Plan calls on any other *pcn.Network are speculative workers planning on
// shadow copies (they run beside the committer).
type timedPolicy struct {
	pcn.SchemePolicy

	rec     *recorder
	runSpan int // parent span of committer calls; set before the run starts

	live atomic.Pointer[pcn.Network]

	// Committer-side counters: written only by the goroutine running the
	// event loop.
	commitDur []time.Duration
	tickCalls int
	tickDur   time.Duration

	// Worker-side counters: written concurrently by the speculation pool.
	specCalls atomic.Int64
	specNanos atomic.Int64
}

// newTimedPolicy returns a fresh, never-run instance of the scheme's
// registered policy wrapped in the decorator. pcn keeps its policy
// constructors private, so the instance comes from a throwaway network on a
// 3-node line; the policies either hold no state or re-initialise it in
// Setup, and the throwaway never runs, so the instance starts clean.
func newTimedPolicy(scheme pcn.Scheme, rec *recorder) (*timedPolicy, error) {
	g := graph.New(3)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}} {
		if _, err := g.AddEdge(e[0], e[1], 10, 10); err != nil {
			return nil, err
		}
	}
	throwaway, err := pcn.NewNetwork(g, pcn.NewConfig(scheme))
	if err != nil {
		return nil, fmt.Errorf("policy for %v: %w", scheme, err)
	}
	return &timedPolicy{SchemePolicy: throwaway.Policy(), rec: rec, runSpan: -1}, nil
}

// Setup records the live network before the inner policy reshapes it.
func (p *timedPolicy) Setup(n *pcn.Network) error {
	p.live.Store(n)
	i := p.rec.begin("policy.setup", -1, -1)
	defer p.rec.end(i)
	return p.SchemePolicy.Setup(n)
}

// Plan times the inner Plan and files it as committer or speculative time.
func (p *timedPolicy) Plan(n *pcn.Network, tx workload.Tx) ([]graph.Path, []pcn.Allocation, error) {
	start := time.Now()
	paths, allocs, err := p.SchemePolicy.Plan(n, tx)
	end := time.Now()
	if n == p.live.Load() {
		p.commitDur = append(p.commitDur, end.Sub(start))
		p.rec.add("route.plan", p.runSpan, int64(tx.ID), start, end)
	} else {
		p.specCalls.Add(1)
		p.specNanos.Add(int64(end.Sub(start)))
		p.rec.add("route.plan.spec", -1, int64(tx.ID), start, end)
	}
	return paths, allocs, err
}

// OnTick times the τ-periodic policy hook (Flash's gossip refresh).
func (p *timedPolicy) OnTick(n *pcn.Network) {
	start := time.Now()
	p.SchemePolicy.OnTick(n)
	end := time.Now()
	p.tickCalls++
	p.tickDur += end.Sub(start)
	p.rec.add("tick.on_tick", p.runSpan, -1, start, end)
}

// SpeculationSafe forwards the inner policy's eligibility. Without it the
// decorator would silently disarm the speculation pool and the benchmark
// would measure a different program.
func (p *timedPolicy) SpeculationSafe() bool {
	sp, ok := p.SchemePolicy.(pcn.SpeculativePlanner)
	return ok && sp.SpeculationSafe()
}

// planSeconds is the committer's total Plan time.
func (p *timedPolicy) planSeconds() float64 {
	var sum time.Duration
	for _, d := range p.commitDur {
		sum += d
	}
	return sum.Seconds()
}
