package main

import (
	"context"
	"math"
	"runtime"
	"testing"
)

// testConfig scales the workloads down and runs one client, so every
// op sequence, cache decision and group commit is deterministic and
// the two assemblies must issue the same RPCs.
func testConfig() config {
	return config{
		clients:    1,
		cacheBytes: 1 << 20,
		warmOps:    256,
		warmSpans:  4,
		blocks:     1024,
		keys:       256,
		payload:    16 << 10,
		region:     3 << 20,
		span:       768 << 10,
	}
}

var testOps = map[string]int{"block-rw": 1000, "object-hot": 400, "bulk-seq": 16}

// serverCallsPerOp runs a fixed number of ops of the named workload and
// returns the servers' per-op-type RPC counts per user op, plus the
// spans recorded when tr is non-nil.
func serverCallsPerOp(t *testing.T, name string, tr *tracer) (map[string]float64, []span) {
	t.Helper()
	ctx := context.Background()
	st, wl, clients, err := setup(ctx, t.TempDir(), name, testConfig(), 7, tr)
	if err != nil {
		t.Fatalf("set-up: %v", err)
	}
	before := st.cl.counters()
	if tr != nil {
		tr.enable()
	}
	w, err := drive(ctx, st, wl, clients, func(_ *client, n int) bool { return n >= testOps[name] })
	var spans []span
	if tr != nil {
		spans = tr.disable()
	}
	after := st.cl.counters()
	if ferr := finish(ctx, st, wl); err == nil {
		err = ferr
	}
	if err != nil {
		t.Fatal(err)
	}
	if w.failed > 0 {
		t.Fatalf("%d of %d ops failed", w.failed, w.ops())
	}
	out := map[string]float64{}
	for _, op := range shardOpNames {
		key := "rpc." + op + ".calls"
		if d := after[key] - before[key]; d > 0 {
			out[op] = d / float64(w.ops())
		}
	}
	return out, spans
}

// TestTracedAssemblyMatchesFacade checks that the traced assembly
// issues the same RPCs per user op as ecstore.Connect — a shim that
// drops a capability (BatchAddMulti falling back to per-stripe adds,
// say) changes the counts — and that every seam records spans.
func TestTracedAssemblyMatchesFacade(t *testing.T) {
	// One core is enough for one client and keeps this test from
	// starving timing-sensitive tests of packages running beside it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			facade, _ := serverCallsPerOp(t, name, nil)
			traced, spans := serverCallsPerOp(t, name, newTracer())
			for op, want := range facade {
				if got := traced[op]; math.Abs(got-want) > 0.01*want {
					t.Errorf("%s calls per op: traced %.4f, facade %.4f", op, got, want)
				}
			}
			for op, got := range traced {
				if _, ok := facade[op]; !ok {
					t.Errorf("%s calls per op: traced %.4f, facade none", op, got)
				}
			}
			var seen [nLayers]int
			for _, s := range spans {
				seen[s.layer]++
			}
			for l, n := range seen {
				if n == 0 && (layerID(l) != layerGateway || name == "object-hot") {
					t.Errorf("no %s spans recorded", layerNames[l])
				}
			}
			t.Logf("facade RPCs per op %v; %d spans", facade, len(spans))
		})
	}
}
