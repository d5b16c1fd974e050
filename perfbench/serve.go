package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/pcn"
	"github.com/splicer-pcn/splicer/internal/rng"
	"github.com/splicer-pcn/splicer/internal/serve"
	"github.com/splicer-pcn/splicer/internal/topology"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// serve-http workload parameters. The graph and hub count follow the
// serving benchmark in internal/benchsuite. The offered open-loop rate is a
// fixed number, well below the closed-loop capacity on a 2-CPU host.
const (
	serveGraphSeed   = 10
	serveNodes       = 10000
	serveHubs        = 16
	serveWorkers     = 2
	serveSetups      = 7
	serveConns       = 2      // closed-loop connections
	serveListLen     = 200000 // long enough that no phase repeats a request
	closedShare      = 8      // tenths of the list the closed loop draws from; the open loop gets the rest
	openRate         = 500    // requests/s offered in the open loop
	openSenders      = 32     // concurrent open-loop senders
	writeRate        = 2      // topology writes/s during the open loop
	sampleCheckEvery = 50     // every n-th closed-loop answer is checked against the exact finder
	closedWindow     = 500 * time.Millisecond
	openWindow       = 2 * time.Second
)

type request struct{ src, dst graph.NodeID }

// answer is one request's outcome as the client saw it.
type answer struct {
	req     int // index into the request list
	slot    int // open loop: due index; closed loop: completion window
	ok      bool
	latency time.Duration
	hops    int
	resp    *serve.RouteResponse // kept by the open loop, checked once its writes are known
}

// serveSetup builds the graph, the network (the hubs are the top-degree
// nodes, so no placement runs) and the server. The graph is the serving
// benchmark's fixed seed-10 graph; the workload seed draws the request list.
func serveSetup() (*serve.Server, time.Duration, error) {
	start := time.Now()
	src := rng.New(serveGraphSeed)
	sizes := workload.NewChannelSizeDist(src.Split(1), 1)
	g, err := topology.BarabasiAlbert(src.Split(2), serveNodes, 3, sizes.CapacityFunc())
	if err != nil {
		return nil, 0, err
	}
	cfg := pcn.NewConfig(pcn.SchemeSplicer)
	cfg.Hubs = topology.TopDegreeNodes(g, serveHubs)
	pn, err := pcn.NewNetwork(g, cfg)
	if err != nil {
		return nil, 0, err
	}
	s := serve.NewServer(pn, serve.Options{Workers: serveWorkers})
	return s, time.Since(start), nil
}

// requestList draws the fixed request list: workload.Generate's Zipf-0.8
// endpoint pairs with half the sources replaced by hubs, as serve.LoadGen
// draws them. Self-routes are dropped.
func requestList(seed uint64, nodes int, hubs []graph.NodeID) ([]request, error) {
	src := rng.New(seed)
	clients := make([]graph.NodeID, nodes)
	for i := range clients {
		clients[i] = graph.NodeID(i)
	}
	trace, err := workload.Generate(src.Split(3), workload.Config{
		Clients: clients, Rate: serveListLen, Duration: 1.1, Timeout: 3, ZipfSkew: 0.8, ValueScale: 1,
	})
	if err != nil {
		return nil, err
	}
	hubSrc := src.Split(4)
	var out []request
	for _, tx := range trace {
		s, d := tx.Sender, tx.Recipient
		if hubSrc.Float64() < 0.5 {
			s = hubs[hubSrc.IntN(len(hubs))]
		}
		if s == d {
			continue
		}
		out = append(out, request{src: s, dst: d})
		if len(out) == serveListLen {
			break
		}
	}
	return out, nil
}

// client issues requests over HTTP and decodes the answers.
type client struct {
	base string
	http *http.Client
}

func (c *client) do(ctx context.Context, r request) (*serve.RouteResponse, bool) {
	url := fmt.Sprintf("%s/route?src=%d&dst=%d&k=1", c.base, r.src, r.dst)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	var out serve.RouteResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	io.Copy(io.Discard, resp.Body)
	return &out, err == nil
}

// front is splicerd's HTTP handler for one server on a loopback listener,
// with a client pool sized for the open loop.
type front struct {
	srv    *http.Server
	served chan error
	tr     *http.Transport
	c      *client
}

func startFront(s *serve.Server) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{srv: &http.Server{Handler: s.Handler()}, served: make(chan error, 1)}
	go func() { f.served <- f.srv.Serve(ln) }()
	f.tr = &http.Transport{MaxIdleConnsPerHost: openSenders, MaxConnsPerHost: openSenders, DisableCompression: true}
	f.c = &client{base: "http://" + ln.Addr().String(), http: &http.Client{Transport: f.tr}}
	return f, nil
}

// stop closes the client's connections and the listener and waits for the
// serving goroutine to return.
func (f *front) stop(ctx context.Context) {
	f.tr.CloseIdleConnections()
	f.srv.Shutdown(ctx)
	<-f.served
}

// epochLog records which epochs each channel was live in, so an answer can
// be checked against the topology of the epoch it names.
type epochLog struct {
	opened map[graph.EdgeID]uint64 // first epoch with the channel
	closed map[graph.EdgeID]uint64 // first epoch without it
}

func (l *epochLog) live(e graph.EdgeID, epoch uint64) bool {
	if o, ok := l.opened[e]; ok && epoch < o {
		return false
	}
	if c, ok := l.closed[e]; ok && epoch >= c {
		return false
	}
	return true
}

// validator checks answers: each must be a src→dst path whose channels were
// all live in the epoch it names. g is the live graph, whose edge endpoints
// never change. check is safe for concurrent use while nothing writes the
// network.
type validator struct {
	g     *graph.Graph
	log   *epochLog
	mu    sync.Mutex
	bad   int
	first []string
}

func (v *validator) check(r request, resp *serve.RouteResponse) bool {
	err := validPath(v.g, v.log, r, resp)
	if err == nil {
		return true
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.bad++; v.bad <= 3 {
		v.first = append(v.first, err.Error())
	}
	return false
}

func (v *validator) report(out *outcome) {
	for _, e := range v.first {
		out.problem("invalid answer: %s", e)
	}
	if v.bad > len(v.first) {
		out.problem("%d invalid answers in all", v.bad)
	}
}

func validPath(g *graph.Graph, log *epochLog, r request, resp *serve.RouteResponse) error {
	if len(resp.Paths) != 1 {
		return fmt.Errorf("%d->%d: %d paths, want 1", r.src, r.dst, len(resp.Paths))
	}
	p := resp.Paths[0]
	if len(p.Nodes) < 2 || p.Nodes[0] != r.src || p.Nodes[len(p.Nodes)-1] != r.dst {
		return fmt.Errorf("%d->%d: path %v has the wrong endpoints", r.src, r.dst, p.Nodes)
	}
	if len(p.Edges) != len(p.Nodes)-1 || p.Hops != len(p.Edges) {
		return fmt.Errorf("%d->%d: %d nodes, %d edges, %d hops", r.src, r.dst, len(p.Nodes), len(p.Edges), p.Hops)
	}
	for i, e := range p.Edges {
		if int(e) < 0 || int(e) >= g.NumEdges() || !log.live(e, resp.Epoch) {
			return fmt.Errorf("%d->%d: channel %d not live in epoch %d", r.src, r.dst, e, resp.Epoch)
		}
		ed := g.Edge(e)
		u, v := p.Nodes[i], p.Nodes[i+1]
		if !(ed.U == u && ed.V == v) && !(ed.U == v && ed.V == u) {
			return fmt.Errorf("%d->%d: channel %d does not join %d and %d", r.src, r.dst, e, u, v)
		}
	}
	return nil
}

// closedLoop runs one connection per entry of counts, each issuing requests
// back to back from its own segment of the first n requests: counts[k] of
// them, or, when counts is nil, conns connections until d has passed. It
// returns each connection's answers and the elapsed time.
func closedLoop(n, conns int, d time.Duration, counts []int, call func(i int) answer) ([][]answer, time.Duration) {
	if counts != nil {
		conns = len(counts)
	}
	per := make([][]answer, conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			seg := n / conns
			for j := 0; ; j++ {
				if counts != nil && j == counts[k] || counts == nil && !time.Now().Before(deadline) {
					return
				}
				a := call(k*seg + j%seg)
				a.slot = int(time.Since(start) / closedWindow)
				per[k] = append(per[k], a)
			}
		}(k)
	}
	wg.Wait()
	return per, time.Since(start)
}

// httpCall returns a closedLoop call issuing request i over HTTP and
// checking the answer on arrival.
func httpCall(ctx context.Context, c *client, reqs []request, v *validator, rec *recorder) func(int) answer {
	return func(i int) answer {
		t0 := time.Now()
		resp, ok := c.do(ctx, reqs[i])
		t1 := time.Now()
		rec.add("http.route", -1, int64(i), t0, t1)
		a := answer{req: i, ok: ok && v.check(reqs[i], resp), latency: t1.Sub(t0)}
		if a.ok {
			a.hops = resp.Paths[0].Hops
		}
		return a
	}
}

// directCall returns a closedLoop call issuing request i through
// serve.Server.Route, without HTTP.
func directCall(ctx context.Context, s *serve.Server, reqs []request, rec *recorder) func(int) answer {
	return func(i int) answer {
		t0 := time.Now()
		_, err := s.Route(ctx, serve.RouteRequest{Src: reqs[i].src, Dst: reqs[i].dst, K: 1})
		t1 := time.Now()
		rec.add("serve.route", -1, int64(i), t0, t1)
		return answer{req: i, ok: err == nil, latency: t1.Sub(t0)}
	}
}

func flatten(per [][]answer) ([]answer, []int) {
	var all []answer
	counts := make([]int, len(per))
	for k, as := range per {
		all = append(all, as...)
		counts[k] = len(as)
	}
	return all, counts
}

// openLoopStats is what the open loop saw.
type openLoopStats struct {
	answers   []answer // answer.slot is the request's due index
	due       int
	lagMs     []float64
	writeDur  time.Duration
	writes    int
	cacheHits uint64 // summed over epochs
	cacheMiss uint64
}

// openLoop offers requests reqs[from:] at openRate for d, timing each from
// when it was due. Beside it, a single writer goroutine (the network's only
// writer, as in splicerd -churn) applies topology writes at writeRate and
// reads the server's cache counters just before each write.
func openLoop(ctx context.Context, c *client, s *serve.Server, reqs []request, from int, d time.Duration, seed uint64, log *epochLog, rec *recorder) openLoopStats {
	var st openLoopStats
	type job struct {
		slot, i int
		due     time.Time
	}
	n := int(openRate * d.Seconds())
	jobs := make(chan job, n) // sized to the number of sends
	results := make(chan answer, n)
	var senders sync.WaitGroup
	for k := 0; k < openSenders; k++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for j := range jobs {
				resp, ok := c.do(ctx, reqs[j.i])
				t1 := time.Now()
				rec.add("http.route.open", -1, int64(j.i), j.due, t1)
				results <- answer{req: j.i, slot: j.slot, ok: ok, latency: t1.Sub(j.due), resp: resp}
			}
		}()
	}
	stopWrites := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rnd := rand.New(rand.NewSource(int64(seed) + 7))
		var counted uint64 // lookups of the last epoch added, so none is added twice
		t := time.NewTicker(time.Duration(float64(time.Second) / writeRate))
		defer t.Stop()
		for {
			select {
			case <-stopWrites:
				return
			case <-t.C:
			}
			// The counters describe the current epoch's cache only: a
			// reading taken just before a write that publishes a new epoch
			// is that epoch's final count.
			before := s.Stats()
			t0 := time.Now()
			applyWrite(s.Network(), rnd, log, s.Snapshots())
			t1 := time.Now()
			if s.Snapshots().Epoch() != before.Epoch && before.CacheHits+before.CacheMiss != counted {
				st.cacheHits += before.CacheHits
				st.cacheMiss += before.CacheMiss
				counted = before.CacheHits + before.CacheMiss
			}
			rec.add("serve.write", -1, -1, t0, t1)
			st.writeDur += t1.Sub(t0)
			st.writes++
		}
	}()
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / openRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		st.lagMs = append(st.lagMs, float64(time.Since(due))/float64(time.Millisecond))
		jobs <- job{slot: i, i: from + i%(len(reqs)-from), due: due}
	}
	close(jobs)
	senders.Wait()
	close(stopWrites)
	writer.Wait()
	close(results)
	for a := range results {
		st.answers = append(st.answers, a)
	}
	st.due = n
	after := s.Stats()
	st.cacheHits += after.CacheHits
	st.cacheMiss += after.CacheMiss
	return st
}

// applyWrite applies one random topology write and logs the channel
// changes against the epoch they published.
func applyWrite(pn *pcn.Network, rnd *rand.Rand, log *epochLog, store *graph.SnapshotStore) {
	g := pn.Graph()
	switch rnd.Intn(3) {
	case 0:
		u := graph.NodeID(rnd.Intn(g.NumNodes()))
		v := graph.NodeID(rnd.Intn(g.NumNodes()))
		if u == v {
			return
		}
		if e, err := pn.OpenChannel(u, v, 50, 50); err == nil {
			log.opened[e] = store.Epoch()
		}
	case 1:
		e := graph.EdgeID(rnd.Intn(g.NumEdges()))
		if g.EdgeRemoved(e) {
			return
		}
		if err := pn.CloseChannel(e); err == nil {
			log.closed[e] = store.Epoch()
		}
	case 2:
		pn.TopUpChannel(graph.EdgeID(rnd.Intn(g.NumEdges())), 25, 25)
	}
}

// serveRun is what the phases of one serve-http invocation produced.
type serveRun struct {
	closed                       []answer
	closedElapsed, tracedElapsed time.Duration
	direct                       []answer
	open                         openLoopStats
	startEpoch                   uint64
}

// runServe measures splicerd's handler on a loopback listener: closed-loop
// capacity, then open-loop latency at a fixed offered rate under topology
// writes. One operation is one request; it fails on a transport error, a
// non-200 status or an invalid path.
func runServe(o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	heap := startHeapSampler(5 * time.Millisecond)
	m0 := readMem()
	var setups []float64
	var s *serve.Server
	for i := 0; i < serveSetups; i++ {
		runtime.GC()
		next, d, err := serveSetup()
		if err != nil {
			return nil, err
		}
		if s != nil {
			s.Shutdown(context.Background())
		}
		s = next
		setups = append(setups, d.Seconds())
	}
	defer s.Shutdown(context.Background())
	pn := s.Network()
	reqs, err := requestList(o.seed, pn.Graph().NumNodes(), pn.Hubs())
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	f, err := startFront(s)
	if err != nil {
		return nil, err
	}
	defer f.stop(ctx)
	// The heap peak covers the measured phases, not the benchmark's own
	// set-up garbage.
	runtime.GC()
	heap.take()

	// The closed loop, which gives ops_per_s, takes 60% of the budget and the
	// open loop the rest. A traced run adds a traced closed loop and a direct
	// Route loop, each repeating the untraced closed loop's requests on a
	// fresh server, so all three start from a cold route cache and do equal
	// work.
	closedDur := time.Duration(0.6 * o.seconds * float64(time.Second))
	openDur := time.Duration(0.4 * o.seconds * float64(time.Second))
	closedN := closedShare * len(reqs) / 10
	r := serveRun{startEpoch: s.Snapshots().Epoch()}
	log := &epochLog{opened: map[graph.EdgeID]uint64{}, closed: map[graph.EdgeID]uint64{}}
	v := &validator{g: pn.Graph(), log: log}
	per, elapsed := closedLoop(closedN, serveConns, closedDur, nil, httpCall(ctx, f.c, reqs, v, nil))
	r.closedElapsed = elapsed
	var counts []int
	r.closed, counts = flatten(per)
	checkHops(out, pn.Graph(), reqs, r.closed)

	var rec *recorder
	if o.traced {
		rec = newRecorder()
		ts := serve.NewServer(pn, serve.Options{Workers: serveWorkers})
		tf, err := startFront(ts)
		if err != nil {
			ts.Shutdown(ctx)
			return nil, err
		}
		_, r.tracedElapsed = closedLoop(closedN, 0, 0, counts, httpCall(ctx, tf.c, reqs, v, rec))
		tf.stop(ctx)
		ts.Shutdown(ctx)
		ds := serve.NewServer(pn, serve.Options{Workers: serveWorkers})
		per, _ = closedLoop(closedN, 0, 0, counts, directCall(ctx, ds, reqs, rec))
		r.direct, _ = flatten(per)
		ds.Shutdown(ctx)
	}

	r.open = openLoop(ctx, f.c, s, reqs, closedN, openDur, o.seed, log, rec)
	for i := range r.open.answers {
		a := &r.open.answers[i]
		a.ok = a.ok && v.check(reqs[a.req], a.resp)
		a.resp = nil
	}
	v.report(out)
	m1 := readMem()
	peak := heap.finish()

	out.set("setup_s", median(setups))
	out.set("peak_heap_mb", peak)
	serveMetrics(out, r, closedDur, openDur)
	if o.traced {
		serveLayerMetrics(out, s, r, rec, diffMem(m0, m1))
		if err := rec.write(o.spanFile()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveMetrics fills the end-to-end metrics and the open-loop latencies.
// Host noise on a shared machine comes in bursts, so each figure is the
// median over fixed windows: closed-loop answers by completion time,
// open-loop requests by due time.
func serveMetrics(out *outcome, r serveRun, closedDur, openDur time.Duration) {
	closedOK, openOK := 0, 0
	perWindow := make([]float64, int(closedDur/closedWindow))
	for _, a := range r.closed {
		if !a.ok {
			continue
		}
		closedOK++
		if a.slot < len(perWindow) {
			perWindow[a.slot] += 1 / closedWindow.Seconds()
		}
	}
	slotsPerWindow := int(openRate * openWindow.Seconds())
	openMs := make([][]float64, r.open.due/slotsPerWindow)
	var allOpenMs []float64
	for _, a := range r.open.answers {
		ms := float64(a.latency) / float64(time.Millisecond)
		if a.ok {
			openOK++
		} else {
			// A failed request misses any latency limit: count it as
			// taking the whole open loop.
			ms = float64(openDur) / float64(time.Millisecond)
		}
		allOpenMs = append(allOpenMs, ms)
		if w := a.slot / slotsPerWindow; w < len(openMs) {
			openMs[w] = append(openMs[w], ms)
		}
	}
	var p50s, p99s []float64
	for _, w := range openMs {
		p50s = append(p50s, quantile(w, 0.5))
		p99s = append(p99s, quantile(w, 0.99))
	}
	out.attempted = len(r.closed) + len(r.open.answers)
	out.failed = out.attempted - closedOK - openOK
	out.set("ops_per_s", median(perWindow))
	out.set("success_ratio", ratio(float64(closedOK+openOK), float64(out.attempted)))
	out.set("serve.open_p50_ms", median(p50s))
	out.set("serve.open_p99_ms", median(p99s))
	closedMs := answerMs(r.closed)
	out.printf("closed loop: %d conns, %d requests in %.2fs = %.0f routes/s overall, %.0f median over %d windows; latency p50 %.3f ms p99 %.3f ms",
		serveConns, len(r.closed), r.closedElapsed.Seconds(), float64(closedOK)/r.closedElapsed.Seconds(), out.metrics["ops_per_s"],
		len(perWindow), quantile(closedMs, 0.5), quantile(closedMs, 0.99))
	out.printf("open loop: %d req/s offered for %.1fs, %d answered, %d writes; latency from due over all %d: p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f ms; median over %d windows: p50 %.3f ms p99 %.3f ms; generator lag p99 %.3f ms",
		openRate, openDur.Seconds(), openOK, r.open.writes, len(allOpenMs), quantile(allOpenMs, 0.5), quantile(allOpenMs, 0.9),
		quantile(allOpenMs, 0.99), quantile(allOpenMs, 0.999), len(openMs), out.metrics["serve.open_p50_ms"], out.metrics["serve.open_p99_ms"],
		quantile(r.open.lagMs, 0.99))
}

// serveLayerMetrics fills the per-layer metrics of a traced run.
func serveLayerMetrics(out *outcome, s *serve.Server, r serveRun, rec *recorder, mem memDelta) {
	st := s.Stats()
	var directUs []float64
	for _, a := range r.direct {
		if !a.ok {
			out.problem("direct Route of request %d failed", a.req)
			continue
		}
		directUs = append(directUs, float64(a.latency)/1e3)
	}
	open := r.open
	out.set("serve.served", float64(st.Served))
	out.set("serve.errors", float64(st.Errors))
	out.set("serve.saturated", float64(st.Saturated))
	out.set("serve.timeouts", float64(st.Timeouts))
	out.set("serve.epochs", float64(st.Epoch-r.startEpoch))
	out.set("serve.cache_hit_ratio", ratio(float64(open.cacheHits), float64(open.cacheHits+open.cacheMiss)))
	out.set("serve.route_call_us_p50", quantile(directUs, 0.5))
	out.set("serve.route_call_us_p99", quantile(directUs, 0.99))
	out.set("serve.http_overhead_us", 1e3*quantile(answerMs(r.closed), 0.5)-quantile(directUs, 0.5))
	out.set("serve.write_s", open.writeDur.Seconds())
	out.set("serve.generator_lag_ms", quantile(open.lagMs, 0.99))
	out.set("mem.total_alloc_mb", mem.totalAllocMB)
	out.set("mem.mallocs", mem.mallocs)
	out.set("gc.cycles", mem.gcCycles)
	out.set("gc.pause_s", mem.gcPauseS)
	untracedPer := r.closedElapsed.Seconds() / float64(len(r.closed))
	tracedPer := r.tracedElapsed.Seconds() / float64(len(r.closed))
	out.set("trace.overhead_s", tracedPer-untracedPer)
	out.set("trace.overhead_share", ratio(tracedPer-untracedPer, untracedPer))
	out.printf("layer report (shares are observations, not gates):")
	out.printf("  cache hits %d / lookups %d over %d epochs (summed per epoch; ServerStats covers only the current epoch)",
		open.cacheHits, open.cacheHits+open.cacheMiss, st.Epoch-r.startEpoch+1)
	out.printf("  Server.Route p50 %.1f us p99 %.1f us; HTTP adds %.1f us at p50; writes %.4fs total; generator lag p99 %.3f ms max %.3f ms",
		quantile(directUs, 0.5), quantile(directUs, 0.99), out.metrics["serve.http_overhead_us"], open.writeDur.Seconds(),
		quantile(open.lagMs, 0.99), quantile(open.lagMs, 1))
	out.printf("self time (s), traced phases:")
	self := rec.selfTimes()
	for _, name := range sortedKeys(self) {
		out.printf("  %-20s %.4f", name, self[name])
	}
	out.printf("tracing overhead: %.2f us per closed-loop request (%.1f%%)", 1e6*(tracedPer-untracedPer), 100*ratio(tracedPer-untracedPer, untracedPer))
}

func answerMs(as []answer) []float64 {
	var out []float64
	for _, a := range as {
		if a.ok {
			out = append(out, float64(a.latency)/float64(time.Millisecond))
		}
	}
	return out
}

// checkHops compares a sample of static-topology answers with the exact
// finder's unit shortest-path hop counts.
func checkHops(out *outcome, g *graph.Graph, reqs []request, as []answer) {
	pf := graph.NewPathFinder(g)
	for i := 0; i < len(as); i += sampleCheckEvery {
		a := as[i]
		if !a.ok {
			continue
		}
		r := reqs[a.req]
		p, found := pf.UnitShortestPath(r.src, r.dst)
		if !found || p.Len() != a.hops {
			out.problem("%d->%d: served %d hops, exact finder %d (found %v)", r.src, r.dst, a.hops, p.Len(), found)
			return
		}
	}
}
