package main

import (
	"fmt"
	"strings"

	"repro/internal/collab/api"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/query/datalog"
	"repro/internal/query/pql"
	"repro/internal/query/standing"
	"repro/internal/store"
)

// Verification runs outside the timed region against the repository's
// reference implementations: store.NaiveClosure over a MemStore built
// from the same generated logs, and pql.ExecuteEager for PQL. The
// workload reads only lineage (up), which a later publish never changes
// (a published run only consumes existing products), so a closure answer
// must equal the reference over the archive plus every acknowledged run,
// as a set.

func memStore(logs ...[]*provenance.RunLog) (*store.MemStore, error) {
	m := store.NewMemStore()
	for _, ls := range logs {
		for _, l := range ls {
			if err := m.PutRunLog(l); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// sameSet reports whether a and b hold the same elements, as sets.
func sameSet(a, b []string) bool {
	in := func(small, big []string) bool {
		set := make(map[string]bool, len(big))
		for _, x := range big {
			set[x] = true
		}
		for _, x := range small {
			if !set[x] {
				return false
			}
		}
		return true
	}
	return in(a, b) && in(b, a)
}

// reference holds the reference store: the archive plus every run
// acknowledged in the window.
type reference struct {
	final *store.MemStore
	logs  [][]*provenance.RunLog
}

func newReference(archive, acked []*provenance.RunLog) (*reference, error) {
	final, err := memStore(archive, acked)
	if err != nil {
		return nil, err
	}
	return &reference{final: final, logs: [][]*provenance.RunLog{archive, acked}}, nil
}

// checkAnswers checks every kept answer and returns the mismatches.
func (ref *reference) checkAnswers(clients []*client) ([]string, error) {
	final := ref.final
	var bad []string
	refPQL := map[int]answer{}
	for _, c := range clients {
		for _, a := range c.answers {
			op := a.op
			ok := true
			switch op.Kind {
			case OpLineage:
				want, err := store.NaiveClosure(final, op.IDs[0], op.Dir)
				if err != nil {
					return nil, err
				}
				ok = sameSet(a.ids, want)
			case OpQuery:
				ref, have := refPQL[op.Query]
				if !have {
					q, err := pql.Parse(pqlQueries[op.Query])
					if err != nil {
						return nil, err
					}
					res, err := pql.ExecuteEager(final, q)
					if err != nil {
						return nil, err
					}
					ref = answer{rows: len(res.Rows), digest: digest(res)}
					refPQL[op.Query] = ref
				}
				ok = a.rows == ref.rows && a.digest == ref.digest
			}
			if !ok {
				bad = append(bad, fmt.Sprintf("%s %v %s: answer differs from the reference", op.Kind, op.IDs, op.Dir))
			}
		}
	}
	return bad, nil
}

// subscriptionSpecs are the 64 standing subscriptions the publish
// workload registers before timing: 32 closure, 16 triple and 16
// conjunctive, rooted at the hot set so publishes keep changing them.
func subscriptionSpecs(hot []string) []api.SubscribeRequest {
	var out []api.SubscribeRequest
	for i := 0; i < 32; i++ {
		dir := "down"
		if i%4 == 3 {
			dir = "up"
		}
		out = append(out, api.SubscribeRequest{Kind: api.SubscriptionKindClosure, Root: hot[i], Direction: dir})
	}
	for i := 0; i < 12; i++ {
		out = append(out, api.SubscribeRequest{Kind: api.SubscriptionKindTriple, Predicate: store.PredUsed, Object: hot[32+i]})
	}
	out = append(out,
		api.SubscribeRequest{Kind: api.SubscriptionKindTriple, Predicate: store.PredStatus, Object: string(provenance.StatusFailed)},
		api.SubscribeRequest{Kind: api.SubscriptionKindTriple, Predicate: store.PredModuleType, Object: "Render"},
		api.SubscribeRequest{Kind: api.SubscriptionKindTriple, Predicate: store.PredArtType, Object: "raw"},
		api.SubscribeRequest{Kind: api.SubscriptionKindTriple, Predicate: store.PredWorkflow, Object: workflowID(0)},
	)
	// Many clients watching the same standing query is the common case
	// (experiment E20): the manager evaluates identical queries once per
	// delta and shares the rows. One query is watched here because each
	// distinct conjunctive query costs about 6 ms per publish at 2,000 runs
	// (maintenance rescans the base relations), so four would leave too
	// few publishes in a window for a steady figure.
	for i := 0; i < 16; i++ {
		out = append(out, api.SubscribeRequest{Kind: api.SubscriptionKindConjunctive,
			Query: fmt.Sprintf("used(E, '%s'), moduleType(E, '%s')", hot[44], moduleTypes[0]), Output: []string{"E"}})
	}
	return out
}

// checkSubscriptions compares each subscription's maintained result with
// a fresh evaluation of its query over the reference store: NaiveClosure
// for closures, a scan of the flattened triples for patterns, and the
// Datalog engine for conjunctions.
func (ref *reference) checkSubscriptions(c *api.Client, ids []string, specs []api.SubscribeRequest) ([]string, error) {
	var (
		bad  []string
		prog *datalog.Program
	)
	for i, id := range ids {
		spec := specs[i]
		cur, err := c.Subscription(id)
		if err != nil {
			return nil, err
		}
		var want []string
		switch spec.Kind {
		case api.SubscriptionKindClosure:
			dir, err := store.ParseDirection(spec.Direction)
			if err != nil {
				return nil, err
			}
			if want, err = store.NaiveClosure(ref.final, spec.Root, dir); err != nil {
				return nil, err
			}
		case api.SubscriptionKindTriple:
			for _, ls := range ref.logs {
				for _, l := range ls {
					for _, tr := range store.TriplesOf(l) {
						if (spec.Subject == "" || tr.S == spec.Subject) && (spec.Predicate == "" || tr.P == spec.Predicate) && (spec.Object == "" || tr.O == spec.Object) {
							want = append(want, standing.TripleItem(tr))
						}
					}
				}
			}
		case api.SubscriptionKindConjunctive:
			if prog == nil {
				prog = datalog.NewProgram()
				if err := datalog.LoadStore(prog, ref.final); err != nil {
					return nil, err
				}
			}
			if want, err = conjunction(prog, i, spec); err != nil {
				return nil, err
			}
		}
		if !sameSet(cur.Items, want) {
			bad = append(bad, fmt.Sprintf("subscription %s (%s): %d maintained items, %d in the reference", id, spec.Kind, len(cur.Items), len(want)))
		}
	}
	return bad, nil
}

// conjunction evaluates a conjunctive subscription's query as the rule
// q<i>(Output) :- Query.
func conjunction(p *datalog.Program, i int, spec api.SubscribeRequest) ([]string, error) {
	head := fmt.Sprintf("q%d(%s)", i, strings.Join(spec.Output, ", "))
	r, err := datalog.ParseRule(head + " :- " + spec.Query)
	if err != nil {
		return nil, err
	}
	if err := p.AddRule(r); err != nil {
		return nil, err
	}
	goal, err := datalog.ParseAtom(head)
	if err != nil {
		return nil, err
	}
	res, err := p.Query(goal)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(res.Rows))
	for j, row := range res.Rows {
		out[j] = strings.Join(row, " ")
	}
	return out, nil
}

// verifyDurable reopens the closed store directory and checks that every
// acknowledged run is readable and intact.
func verifyDurable(dir string, acked []*provenance.RunLog) ([]string, error) {
	st, closer, err := core.OpenPersistentStore(stackOptions(dir, store.DurabilityGroup))
	if err != nil {
		return nil, err
	}
	defer closer()
	var bad []string
	for _, l := range acked {
		got, err := st.RunLog(l.Run.ID)
		if err != nil || got.Run.ID != l.Run.ID || len(got.Events) != len(l.Events) || len(got.Artifacts) != len(l.Artifacts) {
			bad = append(bad, fmt.Sprintf("acknowledged run %s not readable after reopen: %v", l.Run.ID, err))
		}
	}
	return bad, nil
}
