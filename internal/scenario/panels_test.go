package scenario

import (
	"math"
	"strings"
	"testing"
)

// TestPanelBehaviour pins the qualitative shape of the paper's panels on a
// tiny 50-node, 3 s cell: the properties a reader checks a figure for, as
// opposed to the byte-level pins of TestGoldenConformance.
func TestPanelBehaviour(t *testing.T) {
	tiny := SmallSpec()
	tiny.Topology.Nodes = 50
	tiny.Workload.Rate = 30
	tiny.Workload.Duration = 3
	tiny.Routing.HubCandidates = 6

	// figure sweeps the five paper schemes over one axis and keys the
	// series by scheme name, checking every series has one point per x.
	figure := func(t *testing.T, base Spec, param string, xs []float64, metric Metric) map[string]Series {
		t.Helper()
		series, err := RunFigure(base, Axis{Param: param, Values: xs}, DefaultSchemes(), metric, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(series) != len(DefaultSchemes()) {
			t.Fatalf("series count %d, want %d", len(series), len(DefaultSchemes()))
		}
		byName := map[string]Series{}
		for _, s := range series {
			if len(s.Points) != len(xs) {
				t.Fatalf("%s has %d points, want %d", s.Name, len(s.Points), len(xs))
			}
			for i, p := range s.Points {
				if p.X != xs[i] {
					t.Fatalf("%s point %d at x=%v, want %v", s.Name, i, p.X, xs[i])
				}
				if p.Y < 0 || p.Y > 1 {
					t.Fatalf("%s %s %v out of range at x=%v", s.Name, metric, p.Y, p.X)
				}
			}
			byName[s.Name] = s
		}
		return byName
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"channel-size-monotone", func(t *testing.T) {
			// Larger channels help every scheme; check the flagship.
			sp := figure(t, tiny, "channel_scale", []float64{0.5, 2}, MetricTSR)["Splicer"]
			if sp.Points[1].Y+0.02 < sp.Points[0].Y {
				t.Fatalf("Splicer TSR fell with bigger channels: %v -> %v", sp.Points[0].Y, sp.Points[1].Y)
			}
		}},
		{"splicer-stable-in-tau", func(t *testing.T) {
			// Splicer stays high as τ grows; A2L is the weakest of the five.
			byName := figure(t, tiny, "tau_ms", []float64{200, 800}, MetricTSR)
			splicer, a2l := byName["Splicer"], byName["A2L"]
			for _, p := range splicer.Points {
				if p.Y < 0.5 {
					t.Fatalf("Splicer TSR %v at τ=%vms too low", p.Y, p.X)
				}
			}
			if last := len(a2l.Points) - 1; a2l.Points[last].Y > splicer.Points[last].Y {
				t.Fatalf("A2L (%v) beat Splicer (%v) at large τ", a2l.Points[last].Y, splicer.Points[last].Y)
			}
		}},
		{"balance-cost-near-optimal", func(t *testing.T) {
			series, err := BalanceCostSeries(tiny, []float64{0.05, 0.5, 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(series) != 2 {
				t.Fatalf("expected model+optimal, got %d series", len(series))
			}
			if gap := meanGap(series[0], series[1]); math.IsNaN(gap) || gap > 0.5 {
				t.Fatalf("approximation gap %v too large", gap)
			}
			for i := range series[1].Points {
				if series[0].Points[i].Y < series[1].Points[i].Y-1e-9 {
					t.Fatalf("approximation below the optimum at ω=%v", series[1].Points[i].X)
				}
			}
		}},
		{"hub-count-monotone", func(t *testing.T) {
			// Management-cost-dominated (small ω) places at least as many
			// hubs as sync-dominated (large ω): the Fig. 9(c/d) shape.
			s, err := HubCount(tiny, []float64{0.01, 5.12})
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Points) != 2 {
				t.Fatalf("points: %v", s.Points)
			}
			if s.Points[0].Y < s.Points[1].Y {
				t.Fatalf("hub count not monotone: %v", s.Points)
			}
			if s.Points[1].Y < 1 {
				t.Fatal("placement must keep at least one hub")
			}
		}},
		{"cost-tradeoff", func(t *testing.T) {
			points, err := CostTradeoff(tiny, []float64{0.05, 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(points) != 2 {
				t.Fatalf("points: %+v", points)
			}
			for _, p := range points {
				if p.NumHubs < 1 || p.MgmtCost < 0 || p.SyncCost < 0 {
					t.Fatalf("bad tradeoff point %+v", p)
				}
			}
			if tab := TradeoffTable("fig9b", points); len(tab.Rows) != 2 {
				t.Fatalf("tradeoff table has %d rows, want 2", len(tab.Rows))
			}
		}},
		{"delay-overhead", func(t *testing.T) {
			points, err := DelayOverhead(tiny, []float64{0.05, 1})
			if err != nil {
				t.Fatal(err)
			}
			var withPCH, without []DelayOverheadPoint
			for _, p := range points {
				if p.WithPCH {
					withPCH = append(withPCH, p)
				} else {
					without = append(without, p)
				}
			}
			if len(withPCH) != 2 || len(without) != 1 {
				t.Fatalf("points: %+v", points)
			}
			// With PCHs the average delay is much lower at similar overhead.
			for _, p := range withPCH {
				if p.DelayMs <= 0 {
					t.Fatalf("non-positive delay %+v", p)
				}
				if p.DelayMs >= without[0].DelayMs {
					t.Fatalf("PCH delay %v not below source-routing delay %v", p.DelayMs, without[0].DelayMs)
				}
			}
			if tab := DelayOverheadTable("fig9e", points); len(tab.Rows) != 3 {
				t.Fatalf("delay-overhead table has %d rows, want 3", len(tab.Rows))
			}
		}},
		{"table1", func(t *testing.T) {
			tab := TableI()
			if len(tab.Rows) != 6 {
				t.Fatalf("rows: %d", len(tab.Rows))
			}
			// Splicer's column (last) is all ✓.
			for _, row := range tab.Rows {
				if row[len(row)-1] != "✓" {
					t.Fatalf("Splicer missing property %q", row[0])
				}
			}
			if !strings.Contains(tab.Markdown(), "Optimal hub placement") {
				t.Fatal("markdown render broken")
			}
			if !strings.Contains(tab.CSV(), "Deadlock-free routing") {
				t.Fatal("csv render broken")
			}
		}},
		{"figscale-shape", func(t *testing.T) {
			// A tiny |V| grid; `scenarios run figscale` sweeps 2k-10k.
			s := tiny
			s.Workload.Duration = 2
			figure(t, s, "nodes", []float64{40, 80}, MetricThroughput)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// meanGap returns the mean relative gap of a from b over their shared X
// values (NaN when either is empty).
func meanGap(a, b Series) float64 {
	n := min(len(a.Points), len(b.Points))
	if n == 0 {
		return math.NaN()
	}
	total := 0.0
	for i := 0; i < n; i++ {
		if ref := b.Points[i].Y; ref != 0 {
			total += math.Abs(a.Points[i].Y-ref) / math.Abs(ref)
		}
	}
	return total / float64(n)
}
