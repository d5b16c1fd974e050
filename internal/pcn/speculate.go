package pcn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/workload"
)

// Speculative payment-level parallelism (ROADMAP item 3, speculative shape).
//
// The discrete-event engine stays single-threaded: event ordering, channel
// state, HTLC locking, rate control and metrics all remain exactly the
// serial simulator. What parallelizes is the part the PR 4 profile showed
// dominating big cells — route planning. For most payments,
// SchemePolicy.Plan is a pure function of the routed topology (static edge
// capacities, hub assignments, config, and the payment endpoints): live
// channel balances never feed into path selection, and every topology
// mutation funnels through Network.InvalidateRoutes. That purity is what
// makes speculation sound, and policies opt into it explicitly via the
// SpeculativePlanner marker. A policy whose plan for some payments does
// read balance state (Flash's elephants, planned by max-flow on the gossip
// snapshot) skips those payments on a worker shadow; they plan serially on
// the committer exactly as in a serial run.
//
// Shape: when a run is armed (Config.Parallelism >= 2, exact routing, a
// marker-bearing policy), every payment handed to ScheduleArrival/Arrive is
// also enqueued to a bounded worker pool. Each worker owns a shadow Network
// — a shallow copy of the live one bound to a private graph.PathFinder —
// and speculatively executes the real policy.Plan against it. The plan
// result itself is discarded; the useful effect is a warmed session memo
// (specSession.entries) keyed by RouteKey, with each entry recording the
// nested planRoutes calls its computation performed (children), in order.
//
// The serial dispatch path then re-runs Plan as before, but planRoutes
// resolves cache misses from the memo by *replaying* the recorded lookup
// tree against the live RouteCache in the exact order the serial compute
// would have performed it — same Get/Put sequence, same hit/miss counter
// arithmetic, same stored values (the workers computed them over the same
// topology generation with the same deterministic finder). Payments whose
// speculation raced a topology mutation simply miss the memo and compute
// serially, which is the rollback-and-replay-in-timestamp-order fallback:
// the committed event stream, every metric, and every figure CSV are
// byte-identical to the serial run by construction (and pinned by the
// golden-conformance suite with parallelism forced on).
//
// Mutation safety: every mutator of worker-visible state (dynamic.go's
// channel/node operations, RePlaceHubs, ReshapeMultiStar, CapitalizeHubs)
// brackets itself with pauseSpeculation/resumeSpeculation, which waits out
// in-flight plans; InvalidateRoutes drops the memo alongside the live
// cache. Workers only ever block on each other's leader entries (the key
// space is a DAG: composed routes depend on transit legs, never the
// reverse), so pausing cannot deadlock.

// SpeculativePlanner marks a SchemePolicy whose Plan may run speculatively
// on a worker against a shadow Network (one with a non-nil specCtx).
// Implementations promise that Plan on a shadow (including everything
// reachable from it) never reads live channel balances or balance
// snapshots, never mutates policy or network state shared beyond the
// RouteCache funnel, and routes every cached computation through
// Network.planRoutes. A payment whose plan would read balance state is
// skipped on the shadow (Plan returns without planning) and plans serially
// on the committer. The shadow's plan result is discarded, so per-payment
// choices made from the shadow's own fields (Flash's TU-counter path pick)
// are harmless.
type SpeculativePlanner interface {
	SpeculationSafe() bool
}

// speculationArmed reports whether cfg+policy can run the speculative
// planning pool. Hub-label routing is excluded: the label tier's
// Served/Fallback/Builds counters flow into the Result (and panel CSVs),
// and its lazy per-hub tree builds mutate shared state per query — both
// would diverge under concurrent planning.
func speculationArmed(cfg Config, policy SchemePolicy) bool {
	if cfg.Parallelism < 2 || cfg.RoutingOverride != RoutingExact {
		return false
	}
	sp, ok := policy.(SpeculativePlanner)
	return ok && sp.SpeculationSafe()
}

// specEntry is one memoized route computation. The creating worker (leader)
// fills paths/err/children and closes done; concurrent workers needing the
// same key — and the serial committer, if dispatch catches up with an
// in-flight plan — wait on done. children lists the RouteKeys the leader's
// compute consulted via nested planRoutes, in call order, whether they were
// served from the live cache or from sibling entries: the commit replay
// reproduces the serial lookup sequence from it.
type specEntry struct {
	done     chan struct{}
	paths    []graph.Path
	err      error
	children []RouteKey
}

// SpeculationStats reports the speculative planning pool's activity. All
// zero for serial runs. The stats are observability-only: they are not part
// of Result, so result rows and CSVs stay column-identical to serial runs.
type SpeculationStats struct {
	Workers     int
	Enqueued    uint64 // payments handed to the pool
	Planned     uint64 // speculative plans executed (incl. aborted ones)
	MemoHits    uint64 // dispatch plans served by replaying the memo
	SerialPlans uint64 // dispatch plans computed serially (memo miss/stale)
	Pauses      uint64 // mutator quiesce barriers taken
}

// specSession is the per-run speculative planning pool.
type specSession struct {
	n       *Network // live network (serial committer's view)
	workers int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []workload.Tx
	head    int
	paused  int // pause depth (mutator re-entrancy: DepartNode→CloseChannel)
	active  int // workers currently inside a speculative plan
	started bool
	closing bool
	wg      sync.WaitGroup

	emu     sync.RWMutex
	entries map[RouteKey]*specEntry

	enqueued    atomic.Uint64
	planned     atomic.Uint64
	memoHits    atomic.Uint64
	serialPlans atomic.Uint64
	pauses      atomic.Uint64
}

func newSpecSession(n *Network, workers int) *specSession {
	sp := &specSession{
		n:       n,
		workers: workers,
		entries: map[RouteKey]*specEntry{},
	}
	sp.cond = sync.NewCond(&sp.mu)
	return sp
}

// enqueue hands a payment to the pool, starting the workers lazily on first
// use (so networks that never schedule arrivals never spawn goroutines).
// Runs on the serial goroutine only.
func (sp *specSession) enqueue(tx workload.Tx) {
	sp.enqueued.Add(1)
	sp.mu.Lock()
	if !sp.started {
		sp.started = true
		sp.closing = false
		for i := 0; i < sp.workers; i++ {
			w := sp.newWorker()
			sp.wg.Add(1)
			go w.loop()
		}
	}
	sp.queue = append(sp.queue, tx)
	sp.mu.Unlock()
	sp.cond.Signal()
}

// stop tears the pool down, waiting out in-flight plans so no goroutine
// touches the graph after Execute returns. Pending unplanned payments are
// dropped (their dispatch already happened or will compute serially). The
// session stays reusable: a later enqueue restarts the workers.
func (sp *specSession) stop() {
	sp.mu.Lock()
	if !sp.started {
		sp.mu.Unlock()
		return
	}
	sp.closing = true
	sp.mu.Unlock()
	sp.cond.Broadcast()
	sp.wg.Wait()
	sp.mu.Lock()
	sp.started = false
	sp.queue = nil
	sp.head = 0
	sp.mu.Unlock()
}

// pause quiesces the pool: it blocks until no worker is inside a plan and
// holds new plans off until the matching resume. Nested pause/resume pairs
// (mutators calling mutators) stack. Serial goroutine only.
func (sp *specSession) pause() {
	sp.pauses.Add(1)
	sp.mu.Lock()
	sp.paused++
	for sp.active > 0 {
		sp.cond.Wait()
	}
	sp.mu.Unlock()
}

func (sp *specSession) resume() {
	sp.mu.Lock()
	sp.paused--
	sp.mu.Unlock()
	sp.cond.Broadcast()
}

// invalidate drops the memo. Called from InvalidateRoutes on the serial
// goroutine; the surrounding mutator holds the pause, so no worker is
// mid-plan and no waiter is parked on an entry.
func (sp *specSession) invalidate() {
	sp.emu.Lock()
	sp.entries = map[RouteKey]*specEntry{}
	sp.emu.Unlock()
}

func (sp *specSession) lookup(key RouteKey) *specEntry {
	sp.emu.RLock()
	e := sp.entries[key]
	sp.emu.RUnlock()
	return e
}

// entry returns the memo entry for key, creating it if absent. leader is
// true for the creator, which must fill the entry and close done.
func (sp *specSession) entry(key RouteKey) (e *specEntry, leader bool) {
	sp.emu.Lock()
	e = sp.entries[key]
	if e == nil {
		e = &specEntry{done: make(chan struct{})}
		sp.entries[key] = e
		leader = true
	}
	sp.emu.Unlock()
	return e, leader
}

// stats snapshots the pool counters.
func (sp *specSession) stats() SpeculationStats {
	return SpeculationStats{
		Workers:     sp.workers,
		Enqueued:    sp.enqueued.Load(),
		Planned:     sp.planned.Load(),
		MemoHits:    sp.memoHits.Load(),
		SerialPlans: sp.serialPlans.Load(),
		Pauses:      sp.pauses.Load(),
	}
}

// specWorker is one planning worker: a shadow Network (shallow copy of the
// live one with a private PathFinder) plus the per-worker plan context.
type specWorker struct {
	sess   *specSession
	shadow *Network
	ctx    specWorkerCtx
}

// specWorkerCtx threads the memo through a worker's (possibly nested) plan
// computation; cur is the entry currently being computed, so nested
// planRoutes calls register as its children.
type specWorkerCtx struct {
	sess *specSession
	cur  *specEntry
}

// newWorker builds a worker with its shadow Network. The shadow shares the
// graph, channel slice, hub maps and config with the live network — all
// either immutable during speculation or mutated only under pause — but
// owns its PathFinder (Dijkstra scratch is the one per-query mutable state
// Plan needs). Speculation is exact-routing-only, so the copied label-tier
// pointers are never consulted (HubLabels() returns nil).
func (sp *specSession) newWorker() *specWorker {
	w := &specWorker{sess: sp}
	w.ctx.sess = sp
	shadow := *sp.n
	shadow.pathFinder = graph.NewPathFinder(sp.n.g)
	shadow.spec = nil
	shadow.specCtx = &w.ctx
	w.shadow = &shadow
	return w
}

func (w *specWorker) loop() {
	sp := w.sess
	defer sp.wg.Done()
	for {
		sp.mu.Lock()
		for {
			if sp.closing {
				sp.mu.Unlock()
				return
			}
			if sp.paused == 0 && sp.head < len(sp.queue) {
				break
			}
			sp.cond.Wait()
		}
		tx := sp.queue[sp.head]
		sp.head++
		sp.active++
		sp.mu.Unlock()

		w.plan(tx)

		sp.mu.Lock()
		sp.active--
		wake := sp.active == 0 && sp.paused > 0
		sp.mu.Unlock()
		if wake {
			sp.cond.Broadcast() // release a waiting pause()
		}
	}
}

// plan speculatively executes the policy's Plan against the shadow. The
// result is discarded — the warmed memo is the product. Panics are captured
// into the in-flight entry (planSpeculative's recover) or swallowed here;
// the serial committer recomputes and surfaces them debuggably.
func (w *specWorker) plan(tx workload.Tx) {
	w.sess.planned.Add(1)
	// SetHubs reassigns the hub slice (online re-placement); re-sync per
	// plan. Safe: hub mutations happen only under pause.
	w.shadow.hubs = w.sess.n.hubs
	defer func() { _ = recover() }() // see planSpeculative
	w.shadow.policy.Plan(w.shadow, tx)
}

// planSpeculative is planRoutes on a shadow Network: resolve from the live
// cache (counter-free Peek) or the memo, becoming the leader and computing
// when the key is cold. Every key consulted is recorded as a child of the
// enclosing computation.
func (ctx *specWorkerCtx) planSpeculative(key RouteKey, compute func() ([]graph.Path, error)) ([]graph.Path, error) {
	sp := ctx.sess
	if paths, ok := sp.n.routes.Peek(key); ok {
		ctx.record(key)
		return paths, nil
	}
	e, leader := sp.entry(key)
	if !leader {
		<-e.done
		ctx.record(key)
		return e.paths, e.err
	}
	parent := ctx.cur
	ctx.cur = e
	func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("pcn: speculative plan panicked: %v", r)
			}
		}()
		e.paths, e.err = compute()
	}()
	ctx.cur = parent
	close(e.done)
	ctx.record(key)
	if e.err != nil {
		// Propagate (panics included, as errors) so outer computes abort;
		// the entry is terminally erred for any waiter, and the serial
		// committer will recompute — resurfacing a panic debuggably on the
		// main goroutine.
		return nil, e.err
	}
	return e.paths, nil
}

func (ctx *specWorkerCtx) record(key RouteKey) {
	if ctx.cur != nil {
		ctx.cur.children = append(ctx.cur.children, key)
	}
}

// planCommit is planRoutes on the armed live network (serial goroutine).
// It reproduces GetOrCompute's observable behavior exactly: Get bumps one
// hit on a hit and one miss on a miss — the same arithmetic GetOrCompute
// performs — and on a miss either replays the memo (identical values,
// identical nested Get/Put order) or falls back to the serial compute.
func (sp *specSession) planCommit(key RouteKey, compute func() ([]graph.Path, error)) ([]graph.Path, error) {
	if paths, ok := sp.n.routes.Get(key); ok {
		return paths, nil
	}
	if e := sp.lookup(key); e != nil {
		<-e.done // bounded: one route computation
		if e.err == nil && sp.replayable(e) {
			sp.replay(e)
			sp.n.routes.Put(key, e.paths)
			sp.memoHits.Add(1)
			return e.paths, nil
		}
	}
	sp.serialPlans.Add(1)
	paths, err := compute()
	if err != nil {
		return nil, err
	}
	sp.n.routes.Put(key, paths)
	return paths, nil
}

// replayable reports whether e's full child tree can be reproduced against
// the live cache without side effects (Peek only): every child either
// already committed or has an error-free memo entry. In the current
// lifecycle this cannot fail for a surviving entry — children are either
// live-cache hits that persist until an invalidation (which also drops e) or
// memo entries dropped only by that same invalidation — but verifying first
// keeps the counter arithmetic exact even if a future change breaks that.
func (sp *specSession) replayable(e *specEntry) bool {
	for _, ck := range e.children {
		if _, ok := sp.n.routes.Peek(ck); ok {
			continue
		}
		ce := sp.lookup(ck)
		if ce == nil {
			return false
		}
		<-ce.done
		if ce.err != nil || !sp.replayable(ce) {
			return false
		}
	}
	return true
}

// replay performs the recorded lookup tree's live-cache effects in call
// order: a Get per child (hit if some earlier commit stored it, else a
// miss), recursing into and then Put-ing entries not yet committed —
// exactly the sequence the serial nested GetOrCompute calls would have
// produced.
func (sp *specSession) replay(e *specEntry) {
	for _, ck := range e.children {
		if _, ok := sp.n.routes.Get(ck); ok {
			continue
		}
		ce := sp.lookup(ck) // non-nil: replayable() verified
		sp.replay(ce)
		sp.n.routes.Put(ck, ce.paths)
	}
}

// planRoutes is the route-computation funnel every speculation-safe policy
// uses instead of calling Routes().GetOrCompute directly. Three modes:
// worker shadow (memoize speculatively), armed live network (commit via
// memo replay), plain serial (exact GetOrCompute passthrough — one nil
// check, no allocation).
func (n *Network) planRoutes(key RouteKey, compute func() ([]graph.Path, error)) ([]graph.Path, error) {
	if n.specCtx != nil {
		return n.specCtx.planSpeculative(key, compute)
	}
	if n.spec != nil {
		return n.spec.planCommit(key, compute)
	}
	return n.routes.GetOrCompute(key, compute)
}

// pauseSpeculation quiesces the speculative planning pool before a mutation
// of worker-visible state; resumeSpeculation releases it. No-ops (one nil
// check) on serial runs. Pairs nest.
func (n *Network) pauseSpeculation() {
	if n.spec != nil {
		n.spec.pause()
	}
}

func (n *Network) resumeSpeculation() {
	if n.spec != nil {
		n.spec.resume()
	}
}

// SpeculationStats returns the speculative planning pool's counters (zero
// Stats on serial runs).
func (n *Network) SpeculationStats() SpeculationStats {
	if n.spec == nil {
		return SpeculationStats{}
	}
	return n.spec.stats()
}
