// Command perfbench is the repository's benchmark: four seeded workloads
// over the simulator and the splicerd serving layer, each printing its
// end-to-end metrics (or, with -trace 1, its per-layer metrics) as one JSON
// line after a human-readable report. It times the calls into each layer
// from its own code and adds no tracing inside the program.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload panel-large --seed 2 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names a metric and its unit; the lists below are the order the
// JSON line reports them in and must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"success_ratio", "ratio"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"build.topology_s", "s"}, {"build.trace_s", "s"}, {"pcn.new_network_s", "s"}, {"placement.solve_s", "s"},
		{"route.plan_calls", "count"}, {"route.plan_s", "s"}, {"route.plan_share", "ratio"},
		{"route.plan_us_p50", "us"}, {"route.plan_us_p99", "us"}, {"route.spec_plan_s", "s"},
		{"route_cache.hits", "count"}, {"route_cache.misses", "count"}, {"route_cache.hit_ratio", "ratio"},
		{"route_cache.invalidations", "count"},
		{"spec.workers", "count"}, {"spec.planned", "count"}, {"spec.memo_hits", "count"}, {"spec.serial_plans", "count"},
		{"spec.pauses", "count"}, {"spec.memo_hit_ratio", "ratio"},
		{"tu.sent", "count"}, {"tu.queued", "count"}, {"tu.completed", "count"}, {"tu.failed", "count"},
		{"tu.marked", "count"}, {"tu.completed_ratio", "ratio"}, {"run.non_plan_s", "s"},
		{"tick.count", "count"}, {"tick.on_tick_s", "s"},
	}
	for _, s := range paperSchemes {
		defs = append(defs,
			metricDef{"scheme." + s.String() + ".run_s", "s"},
			metricDef{"scheme." + s.String() + ".plan_share", "ratio"},
			metricDef{"scheme." + s.String() + ".tsr", "ratio"},
			metricDef{"scheme." + s.String() + ".norm_throughput", "ratio"})
	}
	return append(defs,
		metricDef{"sim.tsr", "ratio"}, metricDef{"sim.norm_throughput", "ratio"},
		metricDef{"sim.mean_delay_s", "s"}, metricDef{"sim.throughput_gain_vs_best_baseline", "ratio"},
		metricDef{"dynamics.events_applied", "count"}, metricDef{"dynamics.replacements", "count"},
		metricDef{"serve.open_p50_ms", "ms"}, metricDef{"serve.open_p99_ms", "ms"},
		metricDef{"serve.served", "count"}, metricDef{"serve.errors", "count"}, metricDef{"serve.saturated", "count"},
		metricDef{"serve.timeouts", "count"}, metricDef{"serve.epochs", "count"}, metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.route_call_us_p50", "us"}, metricDef{"serve.route_call_us_p99", "us"},
		metricDef{"serve.http_overhead_us", "us"}, metricDef{"serve.write_s", "s"}, metricDef{"serve.generator_lag_ms", "ms"},
		metricDef{"mem.total_alloc_mb", "MB"}, metricDef{"mem.mallocs", "count"},
		metricDef{"gc.cycles", "count"}, metricDef{"gc.pause_s", "s"},
		metricDef{"trace.overhead_s", "s"}, metricDef{"trace.overhead_share", "ratio"},
	)
}()

// outcome is what one workload invocation measured.
type outcome struct {
	attempted, failed int
	problems          []string // failed output checks
	metrics           map[string]float64
	report            []string
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) printf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// problem records a failed output check.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
}

// spanFile is where a traced run writes its spans.
func (o options) spanFile() string {
	return fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", o.workload, o.seed)
}

type workloadFunc func(options) (*outcome, error)

var workloads = map[string]workloadFunc{
	"panel-large":     func(o options) (*outcome, error) { return runSim(simWorkload{panelLarge, paperSchemes, 1}, o) },
	"lifecycle-small": func(o options) (*outcome, error) { return runSim(simWorkload{lifecycleSmall, paperSchemes[:1], 6}, o) },
	"churn-online":    func(o options) (*outcome, error) { return runSim(simWorkload{churnOnline, paperSchemes[:1], 3}, o) },
	"serve-http":      runServe,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: panel-large, lifecycle-small, churn-online or serve-http")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time per run (s)")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run beside an untraced one")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	opts := options{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1}
	out, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("# num_cpu=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	for _, line := range out.report {
		fmt.Println("# " + line)
	}
	for _, p := range out.problems {
		fmt.Println("# CHECK FAILED: " + p)
	}
	defs := endToEnd
	if opts.traced {
		defs = perLayer
	}
	res := jsonResult{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = jsonMetric{Value: out.metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// commit identifies the code under test: the VCS revision the binary was
// built from when the build saw one, otherwise a hash of the Go sources and
// module files under the working directory (benchmark checkouts carry no
// VCS metadata).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}
