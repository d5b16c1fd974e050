package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/scenario"
)

// shortLarge is the panel-large spec cut to one second of payments, so the
// decorator tests stay quick (also under -race) while keeping the
// 3000-node topology and two planning workers.
func shortLarge() scenario.Spec {
	s := panelLarge(2)
	s.Workload.Duration = 1
	return s
}

func TestTimedPolicyForwardsSpeculationSafe(t *testing.T) {
	c := runCell(shortLarge(), pcn.SchemeSplicer, newRecorder(), false, false)
	if c.err != nil {
		t.Fatal(c.err)
	}
	if c.spec.Workers != 2 {
		t.Fatalf("speculation workers = %d, want 2: the decorator disarmed the pool", c.spec.Workers)
	}
	if c.spec.MemoHits == 0 {
		t.Fatalf("no memo hits: %+v", c.spec)
	}
}

// TestTimedPolicySeparatesShadowCalls checks that committer calls are exactly
// the serial run's Plan calls, that every speculative plan lands in the
// worker counters, and that the Result does not change.
func TestTimedPolicySeparatesShadowCalls(t *testing.T) {
	parallel := shortLarge()
	serial := shortLarge()
	serial.Routing.Parallelism = 0

	plain := runCell(parallel, pcn.SchemeSplicer, nil, false, false)
	par := runCell(parallel, pcn.SchemeSplicer, newRecorder(), false, false)
	ser := runCell(serial, pcn.SchemeSplicer, newRecorder(), false, false)
	for _, c := range []cell{plain, par, ser} {
		if c.err != nil {
			t.Fatal(c.err)
		}
	}
	if resultKey(par.res) != resultKey(plain.res) || resultKey(ser.res) != resultKey(plain.res) {
		t.Fatal("the decorator changed the Result")
	}
	if got, want := len(par.pol.commitDur), len(ser.pol.commitDur); got != want || got == 0 {
		t.Fatalf("committer Plan calls: parallel %d, serial %d", got, want)
	}
	if got := ser.pol.specCalls.Load(); got != 0 {
		t.Fatalf("serial run recorded %d speculative calls", got)
	}
	if got, want := uint64(par.pol.specCalls.Load()), par.spec.Planned; got != want || got == 0 {
		t.Fatalf("speculative Plan calls = %d, SpeculationStats.Planned = %d", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "plan", Start: 10, End: 30, Parent: 0},
		{Name: "plan", Start: 50, End: 60, Parent: 0},
		{Name: "open", Start: 70, End: -1, Parent: 0},
	}
	self := r.selfTimes()
	if math.Abs(self["run"]-70e-9) > 1e-18 || math.Abs(self["plan"]-30e-9) > 1e-18 {
		t.Fatalf("self times %v", self)
	}
	if _, ok := self["open"]; ok {
		t.Fatal("an unclosed span was counted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step: the JSON line must carry exactly the metrics the file names.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	want := sortedKeys(workloads)
	sort.Strings(names)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, want %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("workloads %v, want %v", names, want)
		}
	}
	for _, c := range []struct {
		file []metric
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.file), len(c.defs))
		}
		for i, m := range c.file {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
