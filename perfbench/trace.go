package main

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/collab/api"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
)

// The traced run times each layer from outside, at three store boundaries
// the benchmark composes by hand:
//
//	collab.Repository → [below collab] → standing.Tap → [below tap] →
//	closurecache.Cache → [below cache] → shardedstore.Router
//
// plus a wrapper around collab's http.Handler and, for PQL, a forwarding
// sharded view whose shard handles time Runs/RunLog. A boundary call is
// attributed to the request being served by matching its arguments: a
// closure by (root, direction), a publish by run ID. Two
// in-flight requests with identical arguments do identical work, so which
// of them a call is charged to does not bias the figures.

// boundary indexes the three store boundaries.
type boundary int

const (
	belowCollab boundary = iota // calls collab makes into the standing Tap
	belowTap                    // calls the Tap makes into the closure cache
	belowCache                  // calls the cache makes into the router
	numBoundaries
)

// span is one traced operation: an HTTP request or an in-process publish.
type span struct {
	kind   OpKind
	reqID  string
	dir    store.Direction
	root   string        // closure root
	runID  string        // publish
	server time.Duration // handler time (reads) or PublishRun time
	bytes  int           // response bytes
	below  [numBoundaries]time.Duration
	seen   [numBoundaries]bool
	scan   *scanGroup
}

// scanGroup gathers one PQL leaf scan's shard handles.
type scanGroup struct {
	handles []*shardHandle
}

// wall is the scatter's wall time: first shard call to last.
func (g *scanGroup) wall() time.Duration {
	var first, last time.Time
	for _, h := range g.handles {
		if h.calls == 0 {
			continue
		}
		if first.IsZero() || h.first.Before(first) {
			first = h.first
		}
		if h.last.After(last) {
			last = h.last
		}
	}
	if first.IsZero() {
		return 0
	}
	return last.Sub(first)
}

// tracer records spans and boundary timings. Safe for concurrent use.
type tracer struct {
	mu       sync.Mutex
	inflight []*span
	done     []*span
	open     []*scanGroup // scan groups still missing a shard
	scans    []*scanGroup // every scan group, for load counts
	nShards  int

	// Latencies (ms) of every call into the router, whether or not a
	// request claimed it: standing maintenance and auto-checkpoints call
	// through that boundary too.
	routerClosure, routerIngest, routerCheckpoint Dist
}

func newTracer(nShards int) *tracer { return &tracer{nShards: nShards} }

func (t *tracer) begin(sp *span) {
	t.mu.Lock()
	t.inflight = append(t.inflight, sp)
	t.mu.Unlock()
}

func (t *tracer) end(sp *span) {
	t.mu.Lock()
	for i, x := range t.inflight {
		if x == sp {
			t.inflight = append(t.inflight[:i], t.inflight[i+1:]...)
			break
		}
	}
	t.done = append(t.done, sp)
	t.mu.Unlock()
}

// claim charges d at boundary b to the first in-flight span match
// accepts, and records a call into the router in router.
func (t *tracer) claim(b boundary, d time.Duration, router *Dist, match func(*span) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b == belowCache {
		router.AddDur(d)
	}
	for _, sp := range t.inflight {
		if !sp.seen[b] && match(sp) {
			sp.seen[b] = true
			sp.below[b] = d
			return
		}
	}
}

func (t *tracer) onClosure(b boundary, seed string, dir store.Direction, d time.Duration) {
	t.claim(b, d, &t.routerClosure, func(sp *span) bool { return sp.kind == OpLineage && sp.root == seed && sp.dir == dir })
}

func (t *tracer) onIngest(b boundary, runID string, d time.Duration) {
	t.claim(b, d, &t.routerIngest, func(sp *span) bool { return sp.kind == OpPublish && sp.runID == runID })
}

func (t *tracer) onCheckpoint(d time.Duration) {
	t.mu.Lock()
	t.routerCheckpoint.AddDur(d)
	t.mu.Unlock()
}

// shardHandle is called for shard i by one scan goroutine; it joins the
// oldest open scan group lacking shard i, and a new group is charged to
// the oldest in-flight PQL request without a scan.
func (t *tracer) shardHandle(i int, s store.Store) *shardHandle {
	h := &shardHandle{Store: s, shard: i}
	t.mu.Lock()
	defer t.mu.Unlock()
	for gi, g := range t.open {
		if !g.has(i) {
			g.handles = append(g.handles, h)
			if len(g.handles) == t.nShards {
				t.open = append(t.open[:gi], t.open[gi+1:]...)
			}
			return h
		}
	}
	g := &scanGroup{handles: []*shardHandle{h}}
	t.scans = append(t.scans, g)
	if t.nShards > 1 {
		t.open = append(t.open, g)
	}
	for _, sp := range t.inflight {
		if sp.kind == OpQuery && sp.scan == nil {
			sp.scan = g
			break
		}
	}
	return h
}

func (g *scanGroup) has(i int) bool {
	for _, h := range g.handles {
		if h.shard == i {
			return true
		}
	}
	return false
}

// reset drops everything recorded so far (set-up and warm-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done, t.open, t.scans = nil, nil, nil
	t.routerClosure, t.routerIngest, t.routerCheckpoint = Dist{}, Dist{}, Dist{}
}

// --- HTTP boundary ------------------------------------------------------------

// handler wraps collab's handler: it registers a span per read request
// (keyed by the client's X-Request-ID) and times ServeHTTP.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := &span{kind: -1, reqID: r.Header.Get(api.HeaderRequestID)}
		switch r.URL.Path {
		case api.V1Prefix + "/lineage":
			sp.kind, sp.root, sp.dir = OpLineage, r.URL.Query().Get("id"), store.Up
		case api.V1Prefix + "/query":
			sp.kind = OpQuery
		}
		cw := &countingWriter{ResponseWriter: w}
		t.begin(sp)
		start := time.Now()
		h.ServeHTTP(cw, r)
		sp.server = time.Since(start)
		sp.bytes = cw.n
		t.end(sp)
	})
}

// countingWriter counts response body bytes. It exposes Unwrap so the
// handler chain can still find the connection's http.Flusher.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// --- store boundaries -----------------------------------------------------------

// timedStore times the Store calls that cross one boundary and forwards
// the rest untouched.
type timedStore struct {
	s  store.Store
	b  boundary
	tr *tracer
}

func (t *timedStore) PutRunLog(l *provenance.RunLog) error {
	start := time.Now()
	err := t.s.PutRunLog(l)
	t.tr.onIngest(t.b, l.Run.ID, time.Since(start))
	return err
}

func (t *timedStore) Closure(seed string, dir store.Direction) ([]string, error) {
	start := time.Now()
	out, err := t.s.Closure(seed, dir)
	t.tr.onClosure(t.b, seed, dir, time.Since(start))
	return out, err
}

func (t *timedStore) Expand(ids []string, dir store.Direction) (map[string][]string, error) {
	return t.s.Expand(ids, dir)
}

func (t *timedStore) RunLog(id string) (*provenance.RunLog, error) { return t.s.RunLog(id) }
func (t *timedStore) Runs() ([]string, error)                      { return t.s.Runs() }
func (t *timedStore) Artifact(id string) (*provenance.Artifact, error) {
	return t.s.Artifact(id)
}
func (t *timedStore) Execution(id string) (*provenance.Execution, error) {
	return t.s.Execution(id)
}
func (t *timedStore) GeneratorOf(id string) (string, error)   { return t.s.GeneratorOf(id) }
func (t *timedStore) ConsumersOf(id string) ([]string, error) { return t.s.ConsumersOf(id) }
func (t *timedStore) Used(id string) ([]string, error)        { return t.s.Used(id) }
func (t *timedStore) Generated(id string) ([]string, error)   { return t.s.Generated(id) }
func (t *timedStore) Stats() (store.Stats, error)             { return t.s.Stats() }
func (t *timedStore) Name() string                            { return t.s.Name() }
func (t *timedStore) Close() error                            { return t.s.Close() }

// tripleMatcher is the triple-pattern face the Tap and the cache test for.
type tripleMatcher interface {
	Match(subj, pred, obj string) []store.Triple
	MatchBatch(patterns []store.Triple) [][]store.Triple
}

// layerShim wraps a layering store (the Tap or the cache), forwarding the
// optional faces both always have: Underlying, Checkpointer and the
// triple matcher.
type layerShim struct{ timedStore }

type layering interface {
	store.Store
	store.Checkpointer
	tripleMatcher
	Underlying() store.Store
}

var _ layering = (*layerShim)(nil)

func newLayerShim(s layering, b boundary, tr *tracer) *layerShim {
	return &layerShim{timedStore{s: s, b: b, tr: tr}}
}

func (l *layerShim) Underlying() store.Store { return l.s.(layering).Underlying() }
func (l *layerShim) Checkpoint() error       { return l.s.(layering).Checkpoint() }
func (l *layerShim) Match(s, p, o string) []store.Triple {
	return l.s.(layering).Match(s, p, o)
}
func (l *layerShim) MatchBatch(ps []store.Triple) [][]store.Triple {
	return l.s.(layering).MatchBatch(ps)
}

// routerShim sits between the cache and the router. The router has no
// triple face, so neither does the shim (the cache would otherwise take
// its triple-store path). Its Underlying is the sharded view, so the PQL
// scan's Unwrap stops there and reaches the shards through timed handles.
type routerShim struct {
	timedStore
	view *shardView
}

var (
	_ store.Checkpointer = (*routerShim)(nil)
	_ store.Store        = (*routerShim)(nil)
)

func newRouterShim(r *shardedstore.Router, tr *tracer) *routerShim {
	return &routerShim{
		timedStore: timedStore{s: r, b: belowCache, tr: tr},
		view:       &shardView{Router: r, tr: tr},
	}
}

func (r *routerShim) Underlying() store.Store { return r.view }

func (r *routerShim) Checkpoint() error {
	start := time.Now()
	err := r.s.(store.Checkpointer).Checkpoint()
	r.tr.onCheckpoint(time.Since(start))
	return err
}

// shardView is the router with Shard(i) returning timed handles: the
// NumShards/Shard/Runs face the PQL scan looks for. It has no Underlying,
// so scan.Unwrap stops at it.
type shardView struct {
	*shardedstore.Router
	tr *tracer
}

func (v *shardView) Shard(i int) store.Store { return v.tr.shardHandle(i, v.Router.Shard(i)) }

// shardHandle times one scan goroutine's Runs/RunLog calls on a shard.
// It is used by that goroutine alone, and read after the scan returns.
type shardHandle struct {
	store.Store
	shard       int
	first, last time.Time
	calls       int
	loads       Dist // RunLog latencies (ms)
}

var (
	_ store.LocalCloser  = (*shardHandle)(nil)
	_ store.Checkpointer = (*shardHandle)(nil)
)

func (h *shardHandle) mark(start time.Time) time.Duration {
	now := time.Now()
	if h.calls == 0 {
		h.first = start
	}
	h.last = now
	h.calls++
	return now.Sub(start)
}

func (h *shardHandle) Runs() ([]string, error) {
	start := time.Now()
	out, err := h.Store.Runs()
	h.mark(start)
	return out, err
}

func (h *shardHandle) RunLog(id string) (*provenance.RunLog, error) {
	start := time.Now()
	out, err := h.Store.RunLog(id)
	h.loads.AddDur(h.mark(start))
	return out, err
}

// CloseLocal and Checkpoint forward the FileStore faces the router tests
// its shards for.
func (h *shardHandle) CloseLocal(seeds []string, dir store.Direction, skip func(string) bool, buf []store.LocalNeighbors) ([]store.LocalNeighbors, error) {
	return h.Store.(store.LocalCloser).CloseLocal(seeds, dir, skip, buf)
}

func (h *shardHandle) Checkpoint() error { return h.Store.(store.Checkpointer).Checkpoint() }
