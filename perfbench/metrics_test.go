package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/collab/api"
)

func dist(n int) *Dist {
	d := &Dist{}
	for i := n; i >= 1; i-- { // unsorted on purpose
		d.Add(float64(i))
	}
	return d
}

// TestPercentileNeedsTenBeyond pins the reporting rule: a percentile is
// reported only when at least ten samples lie beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := dist(c.n).Percentile(c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d q=%v: got (%v, %v), want (%v, %v)", c.n, c.q, got, ok, c.want, c.ok)
		}
		if s := dist(c.n).Supports(c.q); s != c.ok {
			t.Errorf("n=%d q=%v: Supports=%v, want %v", c.n, c.q, s, c.ok)
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 values: %v", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median of 4 values: %v", m)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	if m := dist(4).Mean(); m != 2.5 {
		t.Errorf("mean: %v", m)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio by zero: %v", r)
	}
}

// TestTransportCapsConnections drives a server from the benchmark's
// clients and asserts they never open more connections than there are
// clients, with bodies the JSON decoder leaves unread.
func TestTransportCapsConnections(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ids := make([]string, 500)
		for i := range ids {
			ids[i] = "art-000001"
		}
		json.NewEncoder(w).Encode(ids) // ends with a newline the decoder does not read
	}))
	defer srv.Close()
	n := numClients()
	if n > runtime.NumCPU() || n > maxClients {
		t.Fatalf("%d clients on %d CPUs", n, runtime.NumCPU())
	}
	tp := newTransport(n)
	defer tp.CloseIdleConnections()
	if tp.MaxConnsPerHost != n {
		t.Fatalf("transport allows %d connections per host, want %d", tp.MaxConnsPerHost, n)
	}
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ids := &idTransport{rt: tp, prefix: "t"}
			cl := api.NewClient(srv.URL, &http.Client{Transport: ids, Timeout: 10 * time.Second})
			for i := 0; i < 200; i++ {
				if _, err := cl.Lineage("art-000001"); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if d := tp.dials.Load(); d > int64(n) {
		t.Fatalf("%d connections opened for %d clients", d, n)
	}
}

// TestReportedMetricsMatchBenchmarkJSON checks that the metric names the
// benchmark emits are exactly the ones BENCHMARK.json declares.
func TestReportedMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found: ", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	empty := func() *passResult {
		return &passResult{win: &window{elapsed: time.Second}, tr: newTracer(numShards)}
	}
	r := &runner{w: workloads[0], userBytes: 1}
	check := func(res *result, want []struct{ Name, Unit string }) {
		t.Helper()
		var names []string
		for _, m := range want {
			names = append(names, m.Name)
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("BENCHMARK.json declares %s, which the benchmark does not report", m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: unit %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
			}
		}
		sort.Strings(names)
		for name := range res.Metrics {
			if i := sort.SearchStrings(names, name); i == len(names) || names[i] != name {
				t.Errorf("the benchmark reports %s, which BENCHMARK.json does not declare", name)
			}
		}
	}
	e2e := &result{}
	e2e.endToEnd(r, empty())
	check(e2e, spec.EndToEnd)
	layers := &result{}
	layers.perLayer(r, empty(), empty())
	check(layers, spec.PerLayer)
}
