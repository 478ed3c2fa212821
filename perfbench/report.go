package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/store/closurecache"
)

// counters are the program's own counters, read by snapshot difference
// around the measured window: the closure cache's instance metrics and
// the obs families below the router, which the benchmark does not wrap.
type counters struct {
	cache                           closurecache.Metrics
	walAppends, walFsyncs, walBytes uint64
	execRows, standingDeltas        uint64
	rounds, crossings               obs.HistSnapshot
	storeIngest, walCommit          obs.HistSnapshot
}

func histogram(name string) obs.HistSnapshot {
	if h, ok := obs.Default().FindHistogram(name); ok {
		return h.Snapshot()
	}
	return obs.HistSnapshot{}
}

func counter(name string) uint64 { return obs.Default().Counter(name, "").Value() }

func readCounters(c *closurecache.Cache) counters {
	return counters{
		cache:          c.Metrics(),
		walAppends:     counter("prov_wal_appends_total"),
		walFsyncs:      counter("prov_wal_fsyncs_total"),
		walBytes:       counter("prov_wal_bytes_total"),
		execRows:       counter("prov_exec_rows_total"),
		standingDeltas: counter("prov_standing_deltas_total"),
		rounds:         histogram("prov_router_closure_rounds"),
		crossings:      histogram("prov_router_closure_crossings"),
		storeIngest:    histogram("prov_store_ingest_seconds"),
		walCommit:      histogram("prov_wal_commit_seconds"),
	}
}

// opCounts counts a window's completed operations per kind.
func opCounts(w *window) [numOpKinds]float64 {
	var n [numOpKinds]float64
	for _, c := range w.clients {
		for _, s := range c.samples {
			n[s.kind]++
		}
	}
	return n
}

// programCounts are the per-operation program counters the traced run
// must reproduce: if a shim changed which code runs, these would move.
func programCounts(p *passResult) map[string]float64 {
	n := opCounts(p.win)
	cm := p.after.cache
	cb := p.before.cache
	rounds := p.after.rounds.Sub(p.before.rounds)
	crossings := p.after.crossings.Sub(p.before.crossings)
	return map[string]float64{
		"cache closure hit ratio":      ratio(float64(cm.ClosureHits-cb.ClosureHits), float64(cm.ClosureHits-cb.ClosureHits+cm.ClosureMisses-cb.ClosureMisses)),
		"WAL appends per publish":      ratio(float64(p.after.walAppends-p.before.walAppends), n[OpPublish]),
		"exec rows per query":          ratio(float64(p.after.execRows-p.before.execRows), n[OpQuery]),
		"router rounds per closure":    ratio(float64(rounds.Sum), float64(rounds.Count)),
		"router crossings per closure": ratio(float64(crossings.Sum), float64(crossings.Count)),
	}
}

// equivalent compares the traced run's program counters with the
// untraced run's. Both run the same seed for the same time; the traced
// run completes fewer operations, so the cache hit ratios (which rise as
// a run goes on) may differ by as much as two runs of one seed do.
func equivalent(plain, traced *passResult) []string {
	a, b := programCounts(plain), programCounts(traced)
	var bad []string
	for name, x := range a {
		y := b[name]
		if math.Abs(x-y) > 0.15*math.Max(math.Abs(x), math.Abs(y))+0.03 {
			bad = append(bad, fmt.Sprintf("traced run is not equivalent: %s %.4f untraced vs %.4f traced", name, x, y))
		}
	}
	return bad
}

// durations collects a window's client-side latencies (ms) per kind.
func durations(w *window) (per [numOpKinds]Dist) {
	for _, c := range w.clients {
		for _, s := range c.samples {
			if !s.err {
				per[s.kind].AddDur(s.dur)
			}
		}
	}
	return per
}

// tailQuantile is the percentile tail_ms reports: the highest every
// workload supports, as pql-scan completes a few hundred queries a window.
// The publish p99 is printed and traced.
const tailQuantile = 0.90

// heapQuantile is the percentile of the live-heap samples heap_p99_mb
// reports. The single highest sample is a GC cycle that ended while both
// clients held a query's working set, and moved from 47 to 72 MB between
// unchanged pql-scan runs; the 99th percentile has at least ten samples
// beyond it (a window reads the heap every 10 ms).
const heapQuantile = 0.99

// opTails is the tail percentile reported per operation type: a window
// holds too few lineage reads and PQL queries for a p99.
var opTails = [numOpKinds]float64{OpLineage: 0.90, OpQuery: 0.90, OpPublish: 0.99}

// latencies collects a window's client-side latencies (ms) over every
// operation type.
func latencies(w *window) *Dist {
	per := durations(w)
	var all Dist
	for k := range per {
		all.Merge(&per[k])
	}
	return &all
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// endToEnd sets the end-to-end metrics, measured untraced. Every workload
// reports all six; the per-type figures the table prints are context.
func (res *result) endToEnd(r *runner, p *passResult) {
	per := durations(p.win)
	all := latencies(p.win)
	p50, _ := all.Percentile(0.50)
	tail, _ := all.Percentile(tailQuantile)
	res.set("setup_s", median(seconds(p.setups)), "s")
	res.set("ops_per_s", float64(p.win.ops())/p.win.elapsed.Seconds(), "1/s")
	res.set("p50_ms", p50, "ms")
	res.set("tail_ms", tail, "ms")
	heap, _ := p.win.heap.Percentile(heapQuantile)
	res.set("heap_p99_mb", heap, "MB")
	res.set("store_bytes_per_user_byte", float64(p.storeBytes)/float64(r.userBytes+p.ackedBytes), "ratio")

	res.notes = append(res.notes, fmt.Sprintf("# %s seed %d: %d operations in %.2fs, %d failed (failed_ratio %.4f); %d connections for %d clients",
		r.w.Name, r.seed, p.win.ops(), p.win.elapsed.Seconds(), res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), p.dials, numClients()))
	if r.w.Rate > 0 {
		var late int
		var latest time.Duration
		for _, c := range p.win.clients {
			for _, s := range c.samples {
				if s.late > time.Millisecond {
					late++
				}
				latest = max(latest, s.late)
			}
		}
		res.notes = append(res.notes, fmt.Sprintf("#   open loop at %d operations/s: %d started more than 1 ms after due, the latest %.1f ms after", r.w.Rate, late, float64(latest)/1e6))
	}
	for k := OpKind(0); k < numOpKinds; k++ {
		if per[k].Len() == 0 {
			continue
		}
		v, _ := per[k].Percentile(0.50)
		res.notes = append(res.notes, fmt.Sprintf("#   %s_p50_ms %.4f (n=%d)", k, v, per[k].Len()))
		if v, ok := per[k].Percentile(opTails[k]); ok {
			res.notes = append(res.notes, fmt.Sprintf("#   %s_p%.0f_ms %.4f", k, opTails[k]*100, v))
		} else {
			res.notes = append(res.notes, fmt.Sprintf("#   %s_p%.0f_ms not reported: fewer than %d samples beyond it", k, opTails[k]*100, minBeyond))
		}
	}
	if n := per[OpPublish].Len(); n > 0 {
		res.notes = append(res.notes, fmt.Sprintf("#   publish_runs_per_s %.2f", float64(n)/p.win.elapsed.Seconds()))
		a, b := p.before.cache.Ingests, p.after.cache.Ingests
		res.notes = append(res.notes, fmt.Sprintf("#   %d run-count checkpoints in the window (runs since open %d to %d)", b/checkpointEvery-a/checkpointEvery, a, b))
	}
}

// layer metric helpers: a percentile the sample does not support is
// reported as 0, as is a metric of an operation type the workload lacks.
func (res *result) pct(name string, d *Dist, q float64) {
	v, ok := d.Percentile(q)
	if !ok {
		v = 0
	}
	res.set(name, v, "ms")
}

func (res *result) pcts(name string, d *Dist, tail float64) {
	res.pct(name+".p50", d, 0.50)
	res.pct(fmt.Sprintf("%s.p%.0f", name, tail*100), d, tail)
}

func (res *result) hist(name string, h obs.HistSnapshot) {
	for _, q := range []float64{0.50, 0.99} {
		v := 0.0
		if h.Count > 0 && float64(h.Count)-math.Ceil(q*float64(h.Count)) >= minBeyond {
			v = float64(h.Quantile(q)) / 1e6
		}
		res.set(fmt.Sprintf("%s.p%.0f", name, q*100), v, "ms")
	}
}

// perLayer sets the per-layer metrics from the traced pass, with the
// untraced pass as the overhead baseline.
func (res *result) perLayer(r *runner, plain, traced *passResult) {
	t := traced.tr
	n := opCounts(traced.win)
	ops := float64(traced.win.ops())

	// Join client samples with the server spans they caused.
	spans := map[string]*span{}
	pubs := map[string]*span{}
	for _, sp := range t.done {
		if sp.kind == OpPublish {
			pubs[sp.runID] = sp
		} else if sp.reqID != "" {
			spans[sp.reqID] = sp
		}
	}
	var (
		server, self, wire, bytes [numOpKinds]Dist
		cacheSelf                 [numOpKinds]Dist
		pubSelf, apply, patch     Dist
		serverTotal, unattributed float64
		scanWall, queryServer     float64
		loads                     Dist
	)
	for _, c := range traced.win.clients {
		for _, s := range c.samples {
			if s.err {
				continue
			}
			if s.kind == OpPublish {
				sp := pubs[s.runID]
				if sp == nil || !sp.seen[belowCollab] || !sp.seen[belowTap] {
					continue
				}
				pubSelf.AddDur(sp.server - sp.below[belowCollab])
				apply.AddDur(sp.below[belowCollab] - sp.below[belowTap])
				patch.AddDur(sp.below[belowTap] - sp.below[belowCache])
				continue
			}
			sp := spans[s.reqID]
			if sp == nil {
				continue
			}
			k := s.kind
			server[k].AddDur(sp.server)
			wire[k].AddDur(s.dur - sp.server)
			bytes[k].Add(float64(sp.bytes))
			serverTotal += sp.server.Seconds()
			switch {
			case k == OpQuery && sp.scan != nil:
				w := sp.scan.wall()
				scanWall += w.Seconds()
				queryServer += sp.server.Seconds()
				self[k].AddDur(sp.server - w)
			case k != OpQuery && sp.seen[belowCollab]:
				self[k].AddDur(sp.server - sp.below[belowCollab])
				if sp.seen[belowTap] {
					cacheSelf[k].AddDur(sp.below[belowTap] - sp.below[belowCache])
				}
			default:
				unattributed += sp.server.Seconds()
			}
		}
	}
	var fileLoads float64
	for _, g := range t.scans {
		for _, h := range g.handles {
			loads.Merge(&h.loads)
			fileLoads += float64(h.loads.Len())
		}
	}
	for _, k := range []OpKind{OpLineage, OpQuery} {
		res.pcts("collab.server_ms."+k.String(), &server[k], opTails[k])
		res.pcts("collab.self_ms."+k.String(), &self[k], opTails[k])
		res.pcts("collab.wire_ms."+k.String(), &wire[k], opTails[k])
		res.set("collab.resp_bytes."+k.String(), bytes[k].Mean(), "bytes")
	}
	res.pcts("collab.publish_self_ms", &pubSelf, 0.99)
	res.pcts("standing.apply_ms", &apply, 0.99)
	res.set("standing.deltas_per_run", ratio(float64(traced.after.standingDeltas-traced.before.standingDeltas), n[OpPublish]), "count")

	pc := programCounts(traced)
	res.set("cache.closure_hit_ratio", pc["cache closure hit ratio"], "ratio")
	res.pcts("cache.self_ms.lineage", &cacheSelf[OpLineage], opTails[OpLineage])
	res.pcts("cache.patch_ms", &patch, 0.99)
	res.set("cache.evictions_per_kop", 1000*ratio(float64(traced.after.cache.Evicted-traced.before.cache.Evicted), ops), "count")

	res.pct("router.closure_ms.p50", &t.routerClosure, 0.50) // no workload supports a p99
	res.pcts("router.ingest_ms", &t.routerIngest, 0.99)
	cp, _ := t.routerCheckpoint.Percentile(0.5)
	res.set("router.checkpoint_ms.p50", cp, "ms")
	res.set("router.rounds_per_closure", pc["router rounds per closure"], "count")
	res.set("router.crossings_per_closure", pc["router crossings per closure"], "count")

	res.pcts("store.runlog_load_ms", &loads, 0.99)
	res.set("store.loads_per_query", ratio(fileLoads, n[OpQuery]), "count")
	res.hist("store.ingest_ms", traced.after.storeIngest.Sub(traced.before.storeIngest))
	res.hist("wal.commit_ms", traced.after.walCommit.Sub(traced.before.walCommit))
	appends := float64(traced.after.walAppends - traced.before.walAppends)
	res.set("wal.runs_per_fsync", ratio(appends, float64(traced.after.walFsyncs-traced.before.walFsyncs)), "count")
	res.set("wal.bytes_per_run", ratio(float64(traced.after.walBytes-traced.before.walBytes), appends), "bytes")

	res.set("pql.scan_share", ratio(scanWall, queryServer), "ratio")
	res.set("pql.rows_per_query", pc["exec rows per query"], "count")

	w := traced.win
	res.set("proc.alloc_mb_per_op", ratio(float64(w.allocs)/(1<<20), ops), "MB")
	res.set("proc.gc_cpu_share", ratio(w.gcCPU, w.totalCPU), "ratio")
	res.set("setup.open_s", median(seconds(traced.opens)), "s")
	res.set("setup.cache_open_s", median(seconds(traced.cacheOpens)), "s")
	res.set("setup.first_response_s", median(seconds(traced.firsts)), "s")
	plainP50, _ := latencies(plain.win).Percentile(0.50)
	tracedP50, _ := latencies(w).Percentile(0.50)
	res.set("trace.overhead_share", ratio(tracedP50, plainP50)-1, "ratio")
	res.set("trace.unattributed_share", ratio(unattributed, serverTotal), "ratio")

	a, b := programCounts(plain), programCounts(traced)
	for _, name := range []string{"cache closure hit ratio", "WAL appends per publish", "exec rows per query", "router rounds per closure", "router crossings per closure"} {
		res.notes = append(res.notes, fmt.Sprintf("# equivalence: %-29s untraced %.4f traced %.4f", name, a[name], b[name]))
	}
	res.notes = append(res.notes, fmt.Sprintf("# %s seed %d: untraced %d ops in %.2fs, traced %d ops in %.2fs",
		r.w.Name, r.seed, plain.win.ops(), plain.win.elapsed.Seconds(), w.ops(), w.elapsed.Seconds()))
}
