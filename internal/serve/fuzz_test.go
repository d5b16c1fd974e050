package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/splicer-pcn/splicer/internal/graph"
)

// FuzzHandler drives /route and /plan with arbitrary query strings: no
// input may panic the handler or answer anything but 200, 400 or 503, and
// every 200 answer must be a src→dst path over live channels (and, for
// /plan, a bounded, non-empty unit split).
func FuzzHandler(f *testing.F) {
	n := testNetwork(f, 22, 40)
	s := NewServer(n, Options{Workers: 2})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	g := n.Graph() // no writer runs, so every epoch is this graph
	f.Add(false, "src=3&dst=27&k=1000000000")
	f.Add(true, "src=3&dst=27&value=Inf")
	f.Add(true, "src=3&dst=27&value=NaN")
	f.Add(false, "src=3&dst=27&k=4&type=EDW")
	f.Add(false, "src=5&dst=5")
	f.Fuzz(func(t *testing.T, plan bool, query string) {
		path := "/route"
		if plan {
			path = "/plan"
		}
		req := httptest.NewRequest("GET", path, nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case 200:
		case 400, 503:
			return
		default:
			t.Fatalf("%s?%s = %d %s", path, query, rec.Code, rec.Body.Bytes())
		}
		var resp PlanResponse // a /route answer decodes into its embedded RouteResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s?%s: 200 with undecodable body %q: %v", path, query, rec.Body.Bytes(), err)
		}
		src, _ := strconv.Atoi(req.URL.Query().Get("src"))
		dst, _ := strconv.Atoi(req.URL.Query().Get("dst"))
		for _, p := range resp.Paths {
			checkLivePath(t, g, p, graph.NodeID(src), graph.NodeID(dst))
		}
		if plan && (len(resp.Units) == 0 || len(resp.Units) > maxPlanUnits) {
			t.Fatalf("%s?%s: %d units", path, query, len(resp.Units))
		}
	})
}

// checkLivePath fails unless p runs from src to dst over live channels that
// join consecutive nodes.
func checkLivePath(t *testing.T, g *graph.Graph, p RoutePath, src, dst graph.NodeID) {
	t.Helper()
	if len(p.Nodes) < 2 || p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst {
		t.Fatalf("%d->%d: path %v has the wrong endpoints", src, dst, p.Nodes)
	}
	if len(p.Edges) != len(p.Nodes)-1 || p.Hops != len(p.Edges) {
		t.Fatalf("%d->%d: %d nodes, %d edges, %d hops", src, dst, len(p.Nodes), len(p.Edges), p.Hops)
	}
	for i, e := range p.Edges {
		if int(e) < 0 || int(e) >= g.NumEdges() || g.EdgeRemoved(e) {
			t.Fatalf("%d->%d: channel %d is not live", src, dst, e)
		}
		u, v := p.Nodes[i], p.Nodes[i+1]
		if ed := g.Edge(e); !(ed.U == u && ed.V == v) && !(ed.U == v && ed.V == u) {
			t.Fatalf("%d->%d: channel %d does not join %d and %d", src, dst, e, u, v)
		}
	}
}
