package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/provenance"
	"repro/internal/store"
)

func marshalArchive(t *testing.T, a Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < a.Runs; i++ {
		b, err := json.Marshal(a.Log(i))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSameSeedGivesIdenticalLogs(t *testing.T) {
	a := marshalArchive(t, Archive{Seed: 7, Runs: 300})
	b := marshalArchive(t, Archive{Seed: 7, Runs: 300})
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different logs")
	}
	if bytes.Equal(a, marshalArchive(t, Archive{Seed: 8, Runs: 300})) {
		t.Fatal("different seeds generated identical logs")
	}
}

func TestSameSeedGivesIdenticalOperations(t *testing.T) {
	for _, w := range workloads {
		a := Archive{Seed: 3, Runs: 256}
		s1 := NewOpStream(w, a, 1, 2)
		s2 := NewOpStream(w, a, 1, 2)
		for i := 0; i < 300; i++ {
			x, y := s1.Next(), s2.Next()
			bx, _ := json.Marshal(x)
			by, _ := json.Marshal(y)
			if !bytes.Equal(bx, by) {
				t.Fatalf("%s: operation %d differs between two streams of one seed", w.Name, i)
			}
		}
	}
}

// TestLogsValidate checks archived runs, and runs published during a
// window, against provenance.RunLog.Validate and the store's ingest.
func TestLogsValidate(t *testing.T) {
	a := Archive{Seed: 11, Runs: 2000}
	m := store.NewMemStore()
	for i := 0; i < a.Runs; i++ {
		l := a.Log(i)
		if err := l.Validate(); err != nil {
			t.Fatalf("archived run %d: %v", i, err)
		}
		if err := m.PutRunLog(l); err != nil {
			t.Fatalf("archived run %d: %v", i, err)
		}
	}
	w, _ := workloadByName("publish")
	for c := 0; c < 2; c++ {
		s := NewOpStream(w, a, c, 2)
		for i := 0; i < 400; i++ {
			op := s.Next()
			if op.Kind != OpPublish {
				continue
			}
			if err := op.Log.Validate(); err != nil {
				t.Fatalf("published run %s: %v", op.Log.Run.ID, err)
			}
			// Every input is a raw input declared by the run or an
			// already stored product: a published run never waits for
			// another client's run.
			local := map[string]bool{rawIDOf(op.Log): true}
			for _, ev := range op.Log.Events {
				if ev.Kind == provenance.EventArtifactGen {
					local[ev.ArtifactID] = true
					continue
				}
				if _, err := m.Artifact(ev.ArtifactID); err != nil && !local[ev.ArtifactID] {
					t.Fatalf("published run %s uses %s, which is not stored yet", op.Log.Run.ID, ev.ArtifactID)
				}
			}
			if err := m.PutRunLog(op.Log); err != nil {
				t.Fatalf("published run %s: %v", op.Log.Run.ID, err)
			}
		}
	}
}

// rawIDOf returns the raw input a run declares, if any.
func rawIDOf(l *provenance.RunLog) string {
	for _, a := range l.Artifacts {
		if a.Type == "raw" {
			return a.ID
		}
	}
	return ""
}

// TestWorkloadSizes pins the sizes the workload design rests on, relative
// to the closure cache's 4,096-closure cap.
func TestWorkloadSizes(t *testing.T) {
	pub, _ := workloadByName("publish")
	a := Archive{Seed: 5, Runs: pub.Runs}
	if n := 2 * len(a.HotSet()); n >= cacheClosureCap {
		t.Fatalf("the warm set holds %d closures, not under the %d cap", n, cacheClosureCap)
	}

	// Closures stay at tens to hundreds of nodes.
	m, err := memStore(a.Logs())
	if err != nil {
		t.Fatal(err)
	}
	var largest int
	for _, id := range a.HotSet()[:64] {
		for _, dir := range []store.Direction{store.Up, store.Down} {
			c, err := store.NaiveClosure(m, id, dir)
			if err != nil {
				t.Fatal(err)
			}
			largest = max(largest, len(c))
		}
		up, _ := store.NaiveClosure(m, id, store.Up)
		if len(up) < 2 {
			t.Fatalf("lineage of %s has %d nodes", id, len(up))
		}
	}
	if largest < 10 || largest > 1000 {
		t.Fatalf("largest hot closure has %d nodes, want tens to hundreds", largest)
	}
}

func TestWorkloadMixesSumToOne(t *testing.T) {
	for _, w := range workloads {
		if s := w.Lineage + w.Query + w.Publish; s < 0.999 || s > 1.001 {
			t.Errorf("%s: mix sums to %v", w.Name, s)
		}
	}
}
