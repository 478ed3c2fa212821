// Command perfbench is the repository's end-to-end benchmark. It runs
// provd's serving stack in-process, drives it from a closed loop of
// clients through api.Client over loopback, verifies the answers against
// the reference implementations, and prints one JSON result line.
//
//	go run . --workload publish --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and reports the per-layer metrics. Workloads,
// metrics and the layers each workload should load are described in
// README.md. run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/collab/api"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/store"
)

var started = time.Now()

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.2fs: %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

// A run opens a fresh copy of the seeded store at least minSetups times,
// and more while the set-ups took under setupBudget in all (a small store
// opens in a tenth of a second, where a median of three is mostly noise),
// up to maxSetups; setup_s is their median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name (pql-scan, publish)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 30, "length of each measured window (BENCHMARK.json: 30)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		work     = flag.String("work", filepath.Join(".bench_build", "work"), "directory for generated stores (emptied afterwards)")
	)
	flag.Parse()
	w, ok := workloadByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (pql-scan or publish), --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	if err := checkHygiene(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &runner{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	res, err := r.run(*work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	res.print(os.Stdout, w.Name)
	if !res.Correct {
		os.Exit(1)
	}
}

// checkHygiene asserts the load limits: GOMAXPROCS at its default
// and no more load goroutines than CPUs.
func checkHygiene() error {
	if v := os.Getenv("GOMAXPROCS"); v != "" || runtime.GOMAXPROCS(0) != runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS must be left at its default (NumCPU=%d, GOMAXPROCS=%d, env %q)", runtime.NumCPU(), runtime.GOMAXPROCS(0), v)
	}
	if n := numClients(); n < 1 || n > runtime.NumCPU() {
		return fmt.Errorf("%d load goroutines on %d CPUs", n, runtime.NumCPU())
	}
	return nil
}

// runner runs one workload for one seed.
type runner struct {
	w      Workload
	seed   int64
	window time.Duration
	trace  bool

	dir       string // scratch directory for this run
	logs      []*provenance.RunLog
	userBytes int64
	hot       []string
	copies    int
}

func (r *runner) run(work string) (*result, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, r.w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r.dir = dir
	if err := r.prepare(); err != nil {
		return nil, fmt.Errorf("seed store: %w", err)
	}
	logf("%s: seeded store of %d runs built", r.w.Name, r.w.Runs)
	if !r.trace {
		p, err := r.pass(nil, minSetups)
		if err != nil {
			return nil, err
		}
		res := outcome(p)
		res.endToEnd(r, p)
		return res, nil
	}
	plain, err := r.pass(nil, 1)
	if err != nil {
		return nil, err
	}
	traced, err := r.pass(newTracer(numShards), 1)
	if err != nil {
		return nil, err
	}
	traced.bad = append(traced.bad, equivalent(plain, traced)...)
	res := outcome(plain, traced)
	res.perLayer(r, plain, traced)
	return res, nil
}

// prepare generates the archive and builds the seeded store template with
// durability none: ingest, warm the closure cache with the workload's
// standing working set, checkpoint. The on-disk format is the one the
// measured stack reopens.
func (r *runner) prepare() error {
	a := Archive{Seed: r.seed, Runs: r.w.Runs}
	r.logs = a.Logs()
	for _, l := range r.logs {
		b, err := json.Marshal(l)
		if err != nil {
			return err
		}
		r.userBytes += int64(len(b))
	}
	r.hot = a.HotSet()
	st, closer, err := core.OpenPersistentStore(stackOptions(r.template(), store.DurabilityNone))
	if err != nil {
		return err
	}
	for _, l := range r.logs {
		if err := st.PutRunLog(l); err != nil {
			closer()
			return err
		}
	}
	for _, k := range r.warmSet() {
		if _, err := st.Closure(k.id, k.dir); err != nil {
			closer()
			return err
		}
	}
	if err := st.(store.Checkpointer).Checkpoint(); err != nil {
		closer()
		return err
	}
	return closer()
}

func (r *runner) template() string { return filepath.Join(r.dir, "template") }

type closureKey struct {
	id  string
	dir store.Direction
}

// warmSet is what a long-running server would hold in its closure cache
// for this workload: the hot set in both directions for the ingest
// workload. PQL bypasses the cache.
func (r *runner) warmSet() []closureKey {
	var out []closureKey
	if r.w.Lineage > 0 {
		for _, id := range r.hot {
			out = append(out, closureKey{id, store.Up}, closureKey{id, store.Down})
		}
	}
	return out
}

// fresh copies the template to a new directory.
func (r *runner) fresh() (string, error) {
	r.copies++
	dst := filepath.Join(r.dir, fmt.Sprintf("open-%d", r.copies))
	src := r.template()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
	return dst, err
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// passResult is one pass: set-ups, a measured window, verification.
type passResult struct {
	setups     []time.Duration
	opens      []time.Duration // traced: shardedstore.OpenWith
	cacheOpens []time.Duration // traced: closurecache.New
	firsts     []time.Duration // traced: stack assembled to first response
	win        *window
	before     counters
	after      counters
	storeBytes int64
	ackedBytes int64
	tr         *tracer
	dials      int64
	errs       []string // the first errors of failed operations
	bad        []string // failed checks
}

// outcome sums passes into the result's correctness fields: every failed
// operation and every failed check counts as one failure.
func outcome(ps ...*passResult) *result {
	res := &result{}
	for _, p := range ps {
		res.Attempted += p.win.ops()
		res.Failed += p.win.failed() + len(p.bad)
		res.bad = append(res.bad, p.bad...)
		for _, e := range p.errs {
			res.bad = append(res.bad, "operation failed: "+e)
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// setup opens a fresh copy of the seeded store and times it from the
// open to the first successful response.
func (r *runner) setup(tr *tracer, p *passResult) (*stack, *transport, error) {
	dir, err := r.fresh()
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	s, err := openStack(dir, tr)
	if err != nil {
		return nil, nil, err
	}
	assembled := time.Now()
	tp := newTransport(numClients())
	probe := api.NewClient(s.base, &http.Client{Transport: tp, Timeout: 60 * time.Second})
	if _, err := probe.Lineage(r.hot[0]); err != nil {
		s.shutdown()
		return nil, nil, fmt.Errorf("first request: %w", err)
	}
	p.setups = append(p.setups, time.Since(start))
	if tr != nil {
		p.opens = append(p.opens, s.openS)
		p.cacheOpens = append(p.cacheOpens, s.cacheOpenS)
		p.firsts = append(p.firsts, time.Since(assembled))
	}
	return s, tp, nil
}

// pass runs set-up at least repeats times (more for a fast set-up, see
// setupBudget; the last stack stays open), the measured window, and the
// checks.
func (r *runner) pass(tr *tracer, repeats int) (*passResult, error) {
	p := &passResult{tr: tr}
	var (
		s  *stack
		tp *transport
	)
	var spent time.Duration
	for i := 0; i < repeats || (repeats > 1 && spent < setupBudget && i < maxSetups); i++ {
		if s != nil {
			tp.CloseIdleConnections()
			if err := s.shutdown(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(s.dir); err != nil {
				return nil, err
			}
		}
		var err error
		if s, tp, err = r.setup(tr, p); err != nil {
			return nil, err
		}
		spent += p.setups[len(p.setups)-1]
	}
	logf("set-up %v", p.setups)
	n := numClients()
	admin := api.NewClient(s.base, &http.Client{Transport: tp, Timeout: 60 * time.Second})
	var subIDs []string
	specs := subscriptionSpecs(r.hot)
	if r.w.Subs {
		for _, spec := range specs {
			resp, err := admin.Subscribe(spec)
			if err != nil {
				s.shutdown()
				return nil, fmt.Errorf("subscribe: %w", err)
			}
			subIDs = append(subIDs, resp.ID)
		}
	}
	if len(subIDs) > 0 {
		logf("%d subscriptions registered", len(subIDs))
	}
	clients := make([]*client, n)
	a := Archive{Seed: r.seed, Runs: r.w.Runs}
	for i := range clients {
		clients[i] = newClient(i, NewOpStream(r.w, a, i, n), s.base, tp)
	}
	p.bad = append(p.bad, prefill(s, clients, r.w.Prefill)...)
	if tr != nil {
		tr.reset()
	}
	dials0 := tp.dials.Load()
	p.before = readCounters(s.cache)
	runtime.GC()
	p.win = runWindow(s, clients, r.window)
	p.after = readCounters(s.cache)
	p.dials = tp.dials.Load() - dials0
	if p.dials > int64(n) {
		p.bad = append(p.bad, fmt.Sprintf("hygiene: %d connections opened for %d clients", p.dials, n))
	}
	for _, c := range clients {
		p.errs = append(p.errs, c.errs...)
		for _, l := range c.acked {
			b, err := json.Marshal(l)
			if err != nil {
				return nil, err
			}
			p.ackedBytes += int64(len(b))
		}
	}
	var err error
	if p.storeBytes, err = dirBytes(s.dir); err != nil {
		return nil, err
	}
	if all := latencies(p.win); !all.Supports(tailQuantile) {
		p.bad = append(p.bad, fmt.Sprintf("only %d operations in the window: too few for a p%.0f", all.Len(), tailQuantile*100))
	}
	if !p.win.heap.Supports(heapQuantile) {
		p.bad = append(p.bad, fmt.Sprintf("only %d heap samples in the window: too few for a p%.0f", p.win.heap.Len(), heapQuantile*100))
	}

	// Checks, outside the timed region.
	logf("window: %d operations", p.win.ops())
	var acked []*provenance.RunLog
	for _, c := range clients {
		acked = append(acked, c.acked...)
	}
	ref, err := newReference(r.logs, acked)
	if err != nil {
		return nil, fmt.Errorf("reference store: %w", err)
	}
	bad, err := ref.checkAnswers(clients)
	if err != nil {
		return nil, fmt.Errorf("verify answers: %w", err)
	}
	p.bad = append(p.bad, bad...)
	if r.w.Subs {
		bad, err := ref.checkSubscriptions(admin, subIDs, specs)
		if err != nil {
			return nil, fmt.Errorf("verify subscriptions: %w", err)
		}
		p.bad = append(p.bad, bad...)
	}
	logf("answers verified")
	tp.CloseIdleConnections()
	if err := s.shutdown(); err != nil {
		return nil, err
	}
	if len(acked) > 0 {
		bad, err := verifyDurable(s.dir, acked)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		p.bad = append(p.bad, bad...)
		logf("%d acknowledged runs read back after reopen", len(acked))
	}
	return p, os.RemoveAll(s.dir)
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable extras, printed before the result
	bad   []string // failed operations and checks
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *result) set(name string, v float64, unit string) {
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (res *result) print(w io.Writer, workload string) {
	for _, b := range res.bad {
		fmt.Fprintf(w, "FAIL %s\n", b)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "%s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-14s %-40s %14.4f %s\n", workload, name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "%s\n", line)
}
