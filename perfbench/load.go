package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collab/api"
	"repro/internal/provenance"
	"repro/internal/query/pql"
)

// Each client issues its next operation only after the previous one
// completed. In a closed loop it issues it at once; in an open loop
// (Workload.Rate) at the time the client's schedule makes it due, or at
// once if it is already late, and the operation is timed from when it was
// due, so a stall also counts against the operations it delays. There are
// as many clients as the host has CPUs, at most 2, and the HTTP transport
// is capped at one connection per client.
const maxClients = 2

func numClients() int { return min(maxClients, runtime.NumCPU()) }

// transport is the clients' shared HTTP transport, capped at n
// connections; dials counts the connections it opened.
type transport struct {
	*http.Transport
	dials atomic.Int64
}

func newTransport(n int) *transport {
	t := &transport{}
	d := &net.Dialer{Timeout: 5 * time.Second}
	t.Transport = &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			t.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	return t
}

// idTransport stamps each request with a client-unique X-Request-ID, so
// the traced run can join the client's timing with the server's.
type idTransport struct {
	rt     http.RoundTripper
	prefix string
	seq    int
	last   string
}

func (t *idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.seq++
	t.last = fmt.Sprintf("%s-%d", t.prefix, t.seq)
	r = r.Clone(r.Context())
	r.Header.Set(api.HeaderRequestID, t.last)
	resp, err := t.rt.RoundTrip(r)
	if err == nil {
		resp.Body = drainCloser{resp.Body}
	}
	return resp, err
}

// drainCloser reads a response body to its end before closing it: the
// JSON decoder stops at the end of the value, and a body closed before
// EOF costs the transport its keep-alive connection.
type drainCloser struct{ io.ReadCloser }

func (d drainCloser) Close() error {
	_, _ = io.Copy(io.Discard, d.ReadCloser) // the body is already decoded
	return d.ReadCloser.Close()
}

// sample is one completed operation.
type sample struct {
	kind  OpKind
	dur   time.Duration // from due (open loop) or start to completion
	late  time.Duration // open loop: start after due
	done  time.Time     // completion
	err   bool
	reqID string // reads
	runID string // publishes
}

// answer is a read's result kept for verification outside the timed
// region.
type answer struct {
	op     Op
	ids    []string // lineage
	rows   int      // PQL
	digest uint64   // PQL
}

// Answers kept per client: every PQL answer (as a digest), and closure
// answers spread over the whole window: every stride-th read,
// where the stride starts at keepEvery and doubles, dropping every other
// kept read answer, whenever keepMax of them are held.
const (
	keepEvery = 8
	keepMax   = 400
)

// client is one load goroutine's state.
type client struct {
	stream  *OpStream
	api     *api.Client
	ids     *idTransport
	samples []sample
	answers []answer
	acked   []*provenance.RunLog
	errs    []string
	reads   int           // reads made
	kept    int           // read answers held
	stride  int           // every stride-th read is kept
	every   time.Duration // open loop: interval between the client's operations
	due     time.Time     // open loop: when the next operation is due
}

func newClient(id int, stream *OpStream, base string, tr *transport) *client {
	ids := &idTransport{rt: tr, prefix: fmt.Sprintf("c%d", id)}
	c := &client{
		stream: stream, ids: ids, stride: keepEvery,
		api: api.NewClient(base, &http.Client{Transport: ids, Timeout: 60 * time.Second}),
	}
	if rate := stream.w.Rate; rate > 0 {
		c.every = time.Duration(numClients()) * time.Second / time.Duration(rate)
	}
	return c
}

// nextDue returns when the client's next operation is due and advances
// its schedule: now in a closed loop, the next slot of the schedule in an
// open loop.
func (c *client) nextDue(now time.Time) time.Time {
	if c.every == 0 {
		return now
	}
	due := c.due
	c.due = c.due.Add(c.every)
	return due
}

// do executes one operation due at due and keeps what verification
// needs.
func (c *client) do(s *stack, op Op, due time.Time) sample {
	smp := sample{kind: op.Kind}
	var (
		err  error
		ans  answer
		keep bool
	)
	start := time.Now()
	smp.late = start.Sub(due)
	switch op.Kind {
	case OpLineage:
		ans.ids, err = c.api.Lineage(op.IDs[0])
	case OpQuery:
		var res *pql.Result
		res, err = c.api.Query(pqlQueries[op.Query])
		if err == nil {
			ans.rows, ans.digest = len(res.Rows), digest(res)
		}
	case OpPublish:
		err = s.publish(op.Log)
	}
	smp.done = time.Now()
	smp.dur = smp.done.Sub(due)
	switch op.Kind {
	case OpPublish:
		smp.runID = op.Log.Run.ID
		if err == nil {
			c.acked = append(c.acked, op.Log)
		}
	case OpQuery:
		keep = true
		smp.reqID = c.ids.last
	default:
		c.reads++
		keep = c.reads%c.stride == 0
		smp.reqID = c.ids.last
	}
	if err != nil {
		smp.err = true
		if len(c.errs) < 5 {
			c.errs = append(c.errs, fmt.Sprintf("%s: %v", op.Kind, err))
		}
	} else if keep {
		ans.op = op
		c.answers = append(c.answers, ans)
		if op.Kind != OpQuery {
			if c.kept++; c.kept == keepMax {
				c.thin()
			}
		}
	}
	return smp
}

// thin drops every other kept read answer and doubles the stride. The
// reads kept were those at multiples of the stride; those left are at
// multiples of the new stride, so the sample stays even over every read
// made so far.
func (c *client) thin() {
	kept := c.answers[:0]
	n := 0
	for _, a := range c.answers {
		if a.op.Kind != OpQuery {
			if n++; n%2 == 1 {
				continue
			}
		}
		kept = append(kept, a)
	}
	clear(c.answers[len(kept):])
	c.answers = kept
	c.kept /= 2
	c.stride *= 2
}

// publish is the write path: collab.Repository.PublishRun in-process
// (provd has no HTTP route for run logs). In the traced run it is a span
// the store boundaries charge by run ID.
func (s *stack) publish(l *provenance.RunLog) error {
	user := "agent-" + l.Run.WorkflowID
	if s.tr == nil {
		return s.repo.PublishRun(l.Run.WorkflowID, user, l)
	}
	sp := &span{kind: OpPublish, runID: l.Run.ID}
	s.tr.begin(sp)
	start := time.Now()
	err := s.repo.PublishRun(l.Run.WorkflowID, user, l)
	sp.server = time.Since(start)
	s.tr.end(sp)
	return err
}

// digest hashes a PQL result's columns and rows.
func digest(r *pql.Result) uint64 {
	h := fnv.New64a()
	for _, c := range r.Columns {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	for _, row := range r.Rows {
		for _, v := range row {
			h.Write([]byte(v))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return h.Sum64()
}

// window is one measured phase's outcome.
type window struct {
	clients  []*client
	start    time.Time
	elapsed  time.Duration
	heap     Dist   // live heap (MB), read every 10 ms
	allocs   uint64 // bytes allocated
	gcCPU    float64
	totalCPU float64
}

func (w *window) ops() int {
	n := 0
	for _, c := range w.clients {
		n += len(c.samples)
	}
	return n
}

func (w *window) failed() int {
	n := 0
	for _, c := range w.clients {
		for _, s := range c.samples {
			if s.err {
				n++
			}
		}
	}
	return n
}

var runtimeSamples = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// prefill has the clients publish runs runs between them before timing.
// A client stops at its first failed operation; the failures are
// returned.
func prefill(s *stack, clients []*client, runs int) []string {
	var wg sync.WaitGroup
	failed := make([]string, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(c.acked) < runs/len(clients) {
				op := c.stream.Next()
				if c.do(s, op, time.Now()).err {
					failed[i] = fmt.Sprintf("%s failed before the window", op.Kind)
					return
				}
			}
		}()
	}
	wg.Wait()
	var out []string
	for _, f := range failed {
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

// runWindow drives the clients against s for d and returns what they did.
func runWindow(s *stack, clients []*client, d time.Duration) *window {
	w := &window{clients: clients}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	before := readRuntime()
	go func() {
		defer close(sampled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		probe := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			metrics.Read(probe)
			w.heap.Add(float64(probe[0].Value.Uint64()) / (1 << 20))
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	start := time.Now()
	w.start = start
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		// Stagger the clients' schedules evenly.
		c.due = start.Add(c.every * time.Duration(i) / time.Duration(len(clients)))
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				op := c.stream.Next()
				due := c.nextDue(time.Now())
				if !due.Before(deadline) {
					return
				}
				time.Sleep(time.Until(due))
				c.samples = append(c.samples, c.do(s, op, due))
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	close(stop)
	<-sampled
	after := readRuntime()
	w.allocs = after[1].Value.Uint64() - before[1].Value.Uint64()
	w.gcCPU = after[2].Value.Float64() - before[2].Value.Float64()
	w.totalCPU = after[3].Value.Float64() - before[3].Value.Float64()
	return w
}
