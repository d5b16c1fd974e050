package main

import (
	"runtime"
	"sort"
	"time"

	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/scenario"
)

// minSetups is how many set-ups setup_s takes its median over.
const minSetups = 11

// inputStride separates the scenario seeds of one run's inputs; input 0 is
// the --seed value itself.
const inputStride = 1_000_003

func inputSeed(seed uint64, k int) uint64 { return seed + uint64(k)*inputStride }

// pass is one run of every scheme of a workload on one of its inputs.
type pass struct {
	input  int
	spec   scenario.Spec
	cells  []cell
	peakMB float64 // highest live heap during the pass
}

// runPasses cycles through the workload's inputs, one pass each, until
// every input ran once and one more pass would end further past budget
// seconds than stopping now falls short of it, or for exactly n passes
// when n > 0.
func runPasses(w simWorkload, seed uint64, rec *recorder, heap *heapSampler, budget float64, n int) []pass {
	var out []pass
	start := time.Now()
	for p := 0; ; p++ {
		k := p % w.inputs
		ps := pass{input: k, spec: w.spec(inputSeed(seed, k))}
		for _, sch := range w.schemes {
			// Start every cell from a collected heap, so the previous cell's
			// garbage neither inflates the live-heap peak nor costs this
			// cell a collection.
			runtime.GC()
			heap.take()
			ps.cells = append(ps.cells, runCell(ps.spec, sch, rec, rec != nil, false))
			ps.peakMB = max(ps.peakMB, heap.take())
		}
		out = append(out, ps)
		elapsed := time.Since(start).Seconds()
		perPass := elapsed / float64(len(out))
		if n > 0 && len(out) >= n || n == 0 && len(out) >= w.inputs && elapsed+perPass/2 >= budget {
			return out
		}
	}
}

// runSim measures a simulator workload. One operation is one scheme run; it
// fails on an error, a conservation failure or a determinism mismatch.
func runSim(w simWorkload, o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	for k := 0; k < w.inputs; k++ {
		if err := w.spec(inputSeed(o.seed, k)).Validate(); err != nil {
			return nil, err
		}
	}
	heap := startHeapSampler(5 * time.Millisecond)
	m0 := readMem()
	budget := o.seconds
	if o.traced {
		budget /= 2 // the same passes run again traced
	}
	untraced := runPasses(w, o.seed, nil, heap, budget, 0)
	var traced []pass
	var rec *recorder
	if o.traced {
		rec = newRecorder()
		traced = runPasses(w, o.seed, rec, heap, 0, len(untraced))
	}
	var setups []float64
	for _, ps := range untraced {
		setups = append(setups, ps.cells[0].setup.Seconds())
	}
	for len(setups) < minSetups {
		runtime.GC() // as before every pass's cells
		setups = append(setups, runCell(untraced[0].spec, w.schemes[0], nil, false, true).setup.Seconds())
	}
	m1 := readMem()
	heap.finish()

	failed := checkSim(out, w, untraced, traced)
	out.set("setup_s", median(setups))
	// An input's peak is the median over its passes; the run reports the
	// median over inputs, so one heavy input does not set the figure alone.
	peaks := map[int][]float64{}
	for _, ps := range untraced {
		peaks[ps.input] = append(peaks[ps.input], ps.peakMB)
	}
	var inputPeaks []float64
	for _, ps := range peaks {
		inputPeaks = append(inputPeaks, median(ps))
	}
	out.set("peak_heap_mb", median(inputPeaks))

	// Host noise on a shared machine comes in bursts, so each (input, scheme)
	// cell time is its median over the repeats; throughput divides the
	// payments of one run of each cell by the sum of those medians.
	type key struct {
		input  int
		scheme pcn.Scheme
	}
	runs := map[key][]float64{}
	generated := map[key]int{}
	var completed, attempted float64 // the first scheme (Splicer), pooled over inputs
	for i, ps := range untraced {
		for j, c := range ps.cells {
			out.attempted++
			if failed[[2]int{i, j}] {
				out.failed++
				continue
			}
			k := key{ps.input, c.scheme}
			if _, seen := runs[k]; !seen && j == 0 {
				completed += float64(c.res.Completed)
				attempted += float64(c.res.Generated)
			}
			runs[k] = append(runs[k], c.run.Seconds())
			generated[k] = c.res.Generated
		}
	}
	var payments, cellSec float64
	for k, rs := range runs {
		payments += float64(generated[k])
		cellSec += median(rs)
	}
	out.set("ops_per_s", ratio(payments, cellSec))
	out.set("success_ratio", ratio(completed, attempted))

	head := untraced[0].cells[0].res // input 0, Splicer
	out.printf("inputs=%d passes=%d cells=%d; input 0: %d payments, splicer tsr=%.4f norm_throughput=%.4f mean_delay_s=%.4f",
		w.inputs, len(untraced), out.attempted, head.Generated, head.TSR, head.NormalizedThroughput, head.MeanDelay)
	for _, c := range untraced[0].cells {
		out.printf("  %-8s run=%.3fs setup=%.3fs tsr=%.4f norm_throughput=%.4f", c.scheme, c.run.Seconds(), c.setup.Seconds(),
			c.res.TSR, c.res.NormalizedThroughput)
	}
	sort.Float64s(inputPeaks)
	out.printf("live-heap peak per input (MB, sorted): %.2f", inputPeaks)
	if o.traced {
		layerMetrics(out, untraced, traced, rec, diffMem(m0, m1))
		if err := rec.write(o.spanFile()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkSim runs the output checks and returns the untraced cells that
// failed one, keyed by (pass, scheme index).
func checkSim(out *outcome, w simWorkload, untraced, traced []pass) map[[2]int]bool {
	failed := map[[2]int]bool{}
	fail := func(i, j int, format string, args ...any) {
		failed[[2]int{i, j}] = true
		out.problem(format, args...)
	}
	want := map[[2]int]string{} // (input, scheme index) → first untraced Result
	for i, ps := range untraced {
		for j, c := range ps.cells {
			k := [2]int{ps.input, j}
			switch {
			case c.err != nil:
				fail(i, j, "%v input %d pass %d: %v", c.scheme, ps.input, i, c.err)
			case want[k] == "":
				want[k] = resultKey(c.res)
			case resultKey(c.res) != want[k]:
				fail(i, j, "%v input %d pass %d: Result differs from the input's first run", c.scheme, ps.input, i)
			}
			if workers := ps.spec.Routing.Parallelism; workers >= 2 && speculationEligible(c.scheme) && c.spec.Workers != workers {
				fail(i, j, "%v pass %d: %d speculation workers, want %d", c.scheme, i, c.spec.Workers, workers)
			}
		}
	}
	for i, ps := range traced {
		for j, c := range ps.cells {
			if c.err != nil {
				out.problem("%v traced pass %d: %v", c.scheme, i, c.err)
			} else if resultKey(c.res) != want[[2]int{ps.input, j}] {
				out.problem("%v traced pass %d: Result differs from the untraced run", c.scheme, i)
			}
			if workers := ps.spec.Routing.Parallelism; workers >= 2 && speculationEligible(c.scheme) && c.spec.Workers != workers {
				out.problem("%v traced pass %d: %d speculation workers, want %d", c.scheme, i, c.spec.Workers, workers)
			}
			if c.scheme == pcn.SchemeSplicer && !c.hubsMatch {
				out.problem("%v traced pass %d: direct placement solve disagrees with the network's hubs", c.scheme, i)
			}
		}
	}
	// The benchmark must drive the same program as the scenario CLI.
	first := untraced[0]
	ref, err := first.spec.RunScheme(w.schemes[0])
	if err != nil {
		fail(0, 0, "scenario RunScheme(%v): %v", w.schemes[0], err)
	} else if resultKey(ref) != resultKey(first.cells[0].res) {
		fail(0, 0, "%v Result differs from scenario.Spec.RunScheme", w.schemes[0])
	}
	return failed
}

// speculationEligible reports whether the scheme's policy is
// speculation-safe (every paper scheme except Flash).
func speculationEligible(s pcn.Scheme) bool { return s != pcn.SchemeFlash }

// layerMetrics fills the per-layer metrics from the traced passes (timings
// and counters per pass) and the untraced passes (run times, overhead).
func layerMetrics(out *outcome, untraced, traced []pass, rec *recorder, mem memDelta) {
	passes := float64(len(traced))
	var topo, trace, newNet, place []float64
	var planCalls, planSec, specSec, runSec, untracedRun, ticks, tickSec float64
	var hits, misses, invalid, dynEvents, replacements float64
	var planUs []float64
	var ss pcn.SpeculationStats
	tu := map[string]float64{}
	schemeRun := map[pcn.Scheme][]float64{}
	schemePlan := map[pcn.Scheme]float64{}
	schemeTracedRun := map[pcn.Scheme]float64{}
	for _, ps := range untraced {
		for _, c := range ps.cells {
			untracedRun += c.run.Seconds()
			if ps.input == 0 {
				schemeRun[c.scheme] = append(schemeRun[c.scheme], c.run.Seconds())
			}
		}
	}
	for _, ps := range traced {
		for _, c := range ps.cells {
			topo = append(topo, c.buildTopo.Seconds())
			if ps.spec.Dynamics == nil {
				trace = append(trace, c.buildTrace.Seconds())
			}
			if c.scheme == pcn.SchemeSplicer {
				newNet = append(newNet, c.newNet.Seconds())
				place = append(place, c.placement.Seconds())
			}
			runSec += c.run.Seconds()
			schemeTracedRun[c.scheme] += c.run.Seconds()
			if p := c.pol; p != nil {
				planCalls += float64(len(p.commitDur))
				planSec += p.planSeconds()
				schemePlan[c.scheme] += p.planSeconds()
				specSec += float64(p.specNanos.Load()) / 1e9
				ticks += float64(p.tickCalls)
				tickSec += p.tickDur.Seconds()
				for _, d := range p.commitDur {
					planUs = append(planUs, float64(d)/1e3)
				}
			}
			hits += c.hits
			misses += c.misses
			invalid += c.invalid
			ss.Workers = max(ss.Workers, c.spec.Workers)
			ss.Planned += c.spec.Planned
			ss.MemoHits += c.spec.MemoHits
			ss.SerialPlans += c.spec.SerialPlans
			ss.Pauses += c.spec.Pauses
			for k, v := range c.tu {
				tu[k] += v
			}
			dynEvents += float64(c.dynEvents)
			replacements += float64(c.replacements)
		}
	}
	out.set("build.topology_s", median(topo))
	out.set("build.trace_s", median(trace))
	out.set("pcn.new_network_s", median(newNet))
	out.set("placement.solve_s", median(place))
	out.set("route.plan_calls", planCalls/passes)
	out.set("route.plan_s", planSec/passes)
	out.set("route.plan_share", ratio(planSec, runSec))
	out.set("route.plan_us_p50", quantile(planUs, 0.5))
	out.set("route.plan_us_p99", quantile(planUs, 0.99))
	out.set("route.spec_plan_s", specSec/passes)
	out.set("route_cache.hits", hits/passes)
	out.set("route_cache.misses", misses/passes)
	out.set("route_cache.hit_ratio", ratio(hits, hits+misses))
	out.set("route_cache.invalidations", invalid/passes)
	out.set("spec.workers", float64(ss.Workers))
	out.set("spec.planned", float64(ss.Planned)/passes)
	out.set("spec.memo_hits", float64(ss.MemoHits)/passes)
	out.set("spec.serial_plans", float64(ss.SerialPlans)/passes)
	out.set("spec.pauses", float64(ss.Pauses)/passes)
	out.set("spec.memo_hit_ratio", ratio(float64(ss.MemoHits), float64(ss.MemoHits+ss.SerialPlans)))
	for _, name := range tuCounters {
		out.set("tu."+name[len("tu_"):], tu[name]/passes)
	}
	out.set("tu.completed_ratio", ratio(tu["tu_completed"], tu["tu_sent"]))
	out.set("run.non_plan_s", (runSec-planSec)/passes)
	out.set("tick.count", ticks/passes)
	out.set("tick.on_tick_s", tickSec/passes)
	out.set("dynamics.events_applied", dynEvents/passes)
	out.set("dynamics.replacements", replacements/passes)

	head := untraced[0].cells[0].res
	out.set("sim.tsr", head.TSR)
	out.set("sim.norm_throughput", head.NormalizedThroughput)
	out.set("sim.mean_delay_s", head.MeanDelay)
	best := 0.0
	for _, c := range untraced[0].cells[1:] {
		best = max(best, c.res.NormalizedThroughput)
	}
	out.set("sim.throughput_gain_vs_best_baseline", ratio(head.NormalizedThroughput, best))
	for _, c := range untraced[0].cells {
		name := "scheme." + c.scheme.String()
		out.set(name+".run_s", median(schemeRun[c.scheme]))
		out.set(name+".plan_share", ratio(schemePlan[c.scheme], schemeTracedRun[c.scheme]))
		out.set(name+".tsr", c.res.TSR)
		out.set(name+".norm_throughput", c.res.NormalizedThroughput)
	}
	out.set("mem.total_alloc_mb", mem.totalAllocMB)
	out.set("mem.mallocs", mem.mallocs)
	out.set("gc.cycles", mem.gcCycles)
	out.set("gc.pause_s", mem.gcPauseS)
	out.set("trace.overhead_s", (runSec-untracedRun)/passes)
	out.set("trace.overhead_share", ratio(runSec-untracedRun, untracedRun))

	out.printf("layer report (per pass; shares are observations, not gates):")
	out.printf("  route.plan_share=%.3f spec.memo_hit_ratio=%.3f route_cache.hit_ratio=%.3f invalidations=%.0f spec.pauses=%.0f",
		out.metrics["route.plan_share"], out.metrics["spec.memo_hit_ratio"], out.metrics["route_cache.hit_ratio"],
		out.metrics["route_cache.invalidations"], out.metrics["spec.pauses"])
	for _, c := range traced[0].cells {
		memo := ratio(float64(c.spec.MemoHits), float64(c.spec.MemoHits+c.spec.SerialPlans))
		out.printf("  %-8s plan_share=%.3f memo_hit_ratio=%.3f (%d/%d) cache_hit_ratio=%.3f spec_workers=%d",
			c.scheme, out.metrics["scheme."+c.scheme.String()+".plan_share"], memo, c.spec.MemoHits,
			c.spec.MemoHits+c.spec.SerialPlans, ratio(c.hits, c.hits+c.misses), c.spec.Workers)
	}
	out.printf("self time per pass (s), traced run:")
	self := rec.selfTimes()
	for _, name := range sortedKeys(self) {
		out.printf("  %-20s %.4f", name, self[name]/passes)
	}
	out.printf("tracing overhead: traced run %.3fs - untraced run %.3fs = %.3fs per pass (%.1f%%)",
		runSec/passes, untracedRun/passes, (runSec-untracedRun)/passes, 100*ratio(runSec-untracedRun, untracedRun))
}
