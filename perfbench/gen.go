package main

import (
	"fmt"
	"math/rand"

	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/workflow"
)

// The generator models a provenance archive of project chains: 64 projects
// each run one workflow again and again, every run reading the previous
// generation's product. Everything here is a pure function of the seed, so
// the program under test only ever sees the generated inputs.
const (
	numProjects = 64
	execsPerRun = 4
	// epochGens bounds lineage depth: every 16th generation restarts its
	// chain from a fresh raw input, so closures stay at tens to hundreds
	// of nodes while still spanning several shards.
	epochGens = 16
	// neighbourEvery: one run in 8 also reads a neighbouring project's
	// product, which links chains across projects (and shards).
	neighbourEvery = 8
	// failEvery: about one execution in 16 fails, so PQL status filters
	// select something.
	failEvery = 16
	// cacheClosureCap is closurecache's default MaxClosures; the workload
	// sizes below are stated relative to it.
	cacheClosureCap = 4096
	// hotProducts is the publish workload's warm set: the newest
	// products, whose closures the cache holds in both directions.
	hotProducts = 512
)

var moduleTypes = [execsPerRun]string{"Ingest", "Align", "Model", "Render"}

func runID(p, g int) string     { return fmt.Sprintf("pb-p%02d-g%05d", p, g) }
func execID(p, g, j int) string { return fmt.Sprintf("pb-p%02d-g%05d-e%d", p, g, j) }
func artID(p, g, j int) string  { return fmt.Sprintf("pb-p%02d-g%05d-a%d", p, g, j) }
func rawID(p, g int) string     { return fmt.Sprintf("pb-p%02d-g%05d-in", p, g) }
func productID(p, g int) string { return artID(p, g, execsPerRun-1) }
func workflowID(p int) string   { return fmt.Sprintf("pb-wf-%02d", p) }

// runRand is the per-run random source: the same (seed, project,
// generation) always draws the same sizes and hashes, whether the run is
// archived or published during the measured window.
func runRand(seed int64, p, g int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(p)*100_019 + int64(g)))
}

// makeRun builds generation g of project p. neighbourGen reports the
// newest generation of project q available as an input (-1: none), so
// published runs only link to products that already exist.
func makeRun(seed int64, p, g int, neighbourGen func(q int) int) *provenance.RunLog {
	r := runRand(seed, p, g)
	id := runID(p, g)
	l := &provenance.RunLog{Run: provenance.Run{
		ID: id, WorkflowID: workflowID(p), Agent: fmt.Sprintf("agent-%d", p%8),
		Start: uint64(g) * 1000, End: uint64(g)*1000 + 900, Status: provenance.StatusOK,
	}}
	var inputs []string
	if g%epochGens == 0 {
		inputs = append(inputs, rawID(p, g))
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: rawID(p, g), RunID: id, Type: "raw", Size: 1024})
	} else {
		inputs = append(inputs, productID(p, g-1))
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: productID(p, g-1), RunID: id, Type: "product"})
	}
	// Links and failures are placed by position, shifted by the seed, so
	// every seed's archive has the same number of each and the workloads'
	// costs do not drift with the seed.
	shift := int(uint64(seed) % (neighbourEvery * failEvery))
	if (p*5+g*3+shift)%neighbourEvery == 0 {
		q := (p + 1) % numProjects
		// Only within the same epoch, so the link cannot stretch lineage
		// past the epoch boundary.
		if ng := neighbourGen(q); ng >= 0 && ng/epochGens == g/epochGens && ng < g {
			inputs = append(inputs, productID(q, ng))
			l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: productID(q, ng), RunID: id, Type: "product"})
		}
	}
	var seq uint64
	event := func(kind provenance.EventKind, exec, art string) {
		seq++
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: id, Kind: kind, ExecutionID: exec, ArtifactID: art})
	}
	for j := 0; j < execsPerRun; j++ {
		status := provenance.StatusOK
		if (p*7+g*3+j*5+shift)%failEvery == 0 {
			status = provenance.StatusFailed
		}
		e := execID(p, g, j)
		l.Executions = append(l.Executions, &provenance.Execution{
			ID: e, RunID: id, ModuleID: fmt.Sprintf("m%d", j), ModuleType: moduleTypes[j],
			Start: uint64(g)*1000 + uint64(j)*200, End: uint64(g)*1000 + uint64(j)*200 + 150,
			WallNanos: int64(1000 + r.Intn(9000)), Status: status,
		})
		typ := "intermediate"
		if j == execsPerRun-1 {
			typ = "product"
		}
		a := artID(p, g, j)
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{
			ID: a, RunID: id, Type: typ, Size: int64(4096 + r.Intn(1<<16)),
			ContentHash: fmt.Sprintf("%016x", r.Uint64()),
		})
		for _, in := range inputs {
			event(provenance.EventArtifactUsed, e, in)
		}
		event(provenance.EventArtifactGen, e, a)
		inputs = []string{a}
	}
	return l
}

// Archive is a generated store's contents: runs 0..Runs-1 laid out
// round-robin over the projects (run i is generation i/64 of project
// i%64), in ingest order.
type Archive struct {
	Seed int64
	Runs int
}

func (a Archive) project(i int) (p, g int) { return i % numProjects, i / numProjects }

// lastGen is the newest archived generation of project p (-1: none).
func (a Archive) lastGen(p int) int {
	if p >= a.Runs {
		return -1
	}
	return (a.Runs - 1 - p) / numProjects
}

// Log generates archived run i.
func (a Archive) Log(i int) *provenance.RunLog {
	p, g := a.project(i)
	return makeRun(a.Seed, p, g, func(q int) int {
		// In ingest order run (q, g-1) precedes run (p, g).
		if last := a.lastGen(q); g-1 <= last {
			return g - 1
		}
		return -1
	})
}

// Logs generates every archived run, in ingest order.
func (a Archive) Logs() []*provenance.RunLog {
	out := make([]*provenance.RunLog, a.Runs)
	for i := range out {
		out[i] = a.Log(i)
	}
	return out
}

// HotSet is the warm set: the products of the newest archived runs,
// newest first.
func (a Archive) HotSet() []string {
	n := min(hotProducts, a.Runs)
	out := make([]string, 0, n)
	for i := a.Runs - 1; i >= a.Runs-n; i-- {
		p, g := a.project(i)
		out = append(out, productID(p, g))
	}
	return out
}

// Workflow is the published workflow every run of project p executes.
func Workflow(p int) *workflow.Workflow {
	b := workflow.NewBuilder(workflowID(p), fmt.Sprintf("project %d pipeline", p))
	for j := 0; j < execsPerRun; j++ {
		b.Module(fmt.Sprintf("m%d", j), moduleTypes[j], workflow.In("in", "blob"), workflow.Out("out", "blob"))
		if j > 0 {
			b.Connect(fmt.Sprintf("m%d", j-1), "out", fmt.Sprintf("m%d", j), "in")
		}
	}
	return b.MustBuild()
}

// OpKind is one kind of benchmark operation.
type OpKind int

const (
	OpLineage OpKind = iota // /v1/lineage
	OpQuery                 // /v1/query
	OpPublish               // collab.Repository.PublishRun
	numOpKinds
)

var opNames = [numOpKinds]string{"lineage", "pql", "publish"}

func (k OpKind) String() string { return opNames[k] }

// Op is one operation a client issues.
type Op struct {
	Kind  OpKind
	IDs   []string        // lineage: one root
	Dir   store.Direction // lineage
	Query int             // index into pqlQueries
	Log   *provenance.RunLog
}

// pqlQueries is the pql-scan battery: E17-style joins of two provenance
// tables over the generated schema. Two carry selective predicates, one
// sorts and truncates, one is an unselective count.
var pqlQueries = []string{
	"SELECT module, artifact FROM executions JOIN gens ON executions.id = exec WHERE status = 'failed' ORDER BY artifact",
	"SELECT exec, type FROM gens JOIN artifacts ON artifact = artifacts.id WHERE type = 'product' ORDER BY exec",
	"SELECT workflow, module FROM runs JOIN executions ON runs.id = run WHERE moduleType = 'Model' ORDER BY module LIMIT 50",
	"SELECT COUNT(*) FROM executions JOIN uses ON executions.id = exec WHERE status = 'ok'",
}

// Workload describes one traffic mix.
type Workload struct {
	Name string
	Runs int // archive size
	// Lineage is the share of lineage reads, each of the client's last
	// published product.
	Lineage float64
	Query   float64 // share of PQL operations
	Publish float64 // share of publishes; the rest of the mix
	Subs    bool    // register the standing subscriptions before timing
	// Rate, when set, makes the load an open loop: the clients issue this
	// many operations a second between them on a fixed schedule, so a
	// window does the same work on a slow host as on a fast one. 0 is a
	// closed loop.
	Rate int
	// Prefill is how many runs the clients publish before timing. The
	// cache checkpoints every checkpointEvery runs since the store was
	// opened, so this fixes where in the window the checkpoints fall.
	Prefill int
}

var workloads = []Workload{
	{Name: "pql-scan", Runs: 128, Query: 1},
	{Name: "publish", Runs: 2000, Lineage: 0.10, Publish: 0.90, Subs: true, Prefill: 200, Rate: 40},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// OpStream is one client's deterministic operation sequence.
type OpStream struct {
	w     Workload
	a     Archive
	r     *rand.Rand
	query int
	// Publishing state: the client owns the projects p with
	// p%clients == client, so its runs extend chains no other client
	// writes and every run's predecessor is already acknowledged.
	owned   []int
	nextGen map[int]int
	pubs    int
	lastOwn string
}

// NewOpStream returns client c's stream out of n clients.
func NewOpStream(w Workload, a Archive, c, n int) *OpStream {
	r := rand.New(rand.NewSource(a.Seed*7919 + int64(c)*104_729 + 17))
	s := &OpStream{w: w, a: a, r: r, nextGen: map[int]int{}}
	s.query = r.Intn(len(pqlQueries))
	for p := c; p < numProjects; p += n {
		s.owned = append(s.owned, p)
		s.nextGen[p] = a.lastGen(p) + 1
	}
	if len(s.owned) > 0 {
		// Rotate the starting project so clients do not move in lockstep.
		k := r.Intn(len(s.owned))
		s.owned = append(s.owned[k:], s.owned[:k]...)
	}
	return s
}

// Next draws the client's next operation.
func (s *OpStream) Next() Op {
	u := s.r.Float64()
	switch {
	case u < s.w.Lineage:
		if s.lastOwn == "" {
			return s.Publish() // nothing of its own to read yet
		}
		return Op{Kind: OpLineage, IDs: []string{s.lastOwn}, Dir: store.Up}
	case u < s.w.Lineage+s.w.Query:
		q := s.query
		s.query = (s.query + 1) % len(pqlQueries)
		return Op{Kind: OpQuery, Query: q}
	default:
		return s.Publish()
	}
}

// Publish returns the client's next run to publish.
func (s *OpStream) Publish() Op {
	p := s.owned[s.pubs%len(s.owned)]
	s.pubs++
	g := s.nextGen[p]
	s.nextGen[p] = g + 1
	l := makeRun(s.a.Seed, p, g, func(q int) int { return s.a.lastGen(q) })
	s.lastOwn = productID(p, g)
	return Op{Kind: OpPublish, Log: l}
}
