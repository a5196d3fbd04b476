// Command e2ebench is the repository's end-to-end benchmark. It runs a
// closed-loop workload against the real request path in one process:
// five storage.Node servers behind rpc.Serve on 127.0.0.1, each over a
// blockstore.File, with an ecstore.Connect Store (small-write tier and
// read cache on) on top and, for object-hot, a gateway.Gateway over
// that Store. Every read is checked against what was written.
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// runs the same workload on the facade and then on a traced assembly
// of the same layers with a timing shim at every seam, prints the
// per-layer ledger, and writes the spans to a CSV file.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Any verification failure exits 1 without it.
//
// Usage (from the repository root; e2ebench/run.sh builds and runs):
//
//	e2ebench --workload block-rw --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// setupReps is how many times a --trace 0 run sets the stack up; it
// reports the median set-up time and measures on the last stack.
const setupReps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value, 0 when not a sample statistic
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// info holds metrics printed for people but not gated: on a shared
	// 2-vCPU VM, episodes of host CPU steal move them further between
	// runs than any usable bound.
	info map[string]metric
}

func main() {
	name := flag.String("workload", "block-rw", "workload: block-rw, object-hot or bulk-seq")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ledger")
	work := flag.String("workdir", ".bench_build", "directory for server data and span files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	ctx := context.Background()
	d := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(ctx, *work, *name, fullConfig(), *seed, d)
	} else {
		res, err = runTraced(ctx, *work, *name, fullConfig(), *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	printTable(res.Metrics, "")
	printTable(res.info, "  [not gated]")
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printTable prints metrics by name with unit and sample count.
func printTable(ms map[string]metric, note string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		count := ""
		if m.n > 0 {
			count = fmt.Sprintf("(n=%d)", m.n)
		}
		fmt.Printf("%-36s %14.4f %-6s %-10s%s\n", n, m.Value, m.Unit, count, note)
	}
}

// runEndToEnd sets the facade stack up setupReps times and measures
// the last one with tracing off.
func runEndToEnd(ctx context.Context, work, name string, cfg config, seed uint64, d time.Duration) (*result, error) {
	var setups []float64
	var (
		st      *stack
		wl      workload
		clients []*client
	)
	for i := 0; i < setupReps; i++ {
		if st != nil {
			wl.release()
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		st, wl, clients, err = setup(ctx, runDir(work, i), name, cfg, seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	wire0, cpu0 := wireBytes(st), processCPU()
	steal0, host0 := hostTicks()
	hs := startSampler(nil)
	w, err := timed(ctx, st, wl, clients, d)
	hs.end()
	wire, cpu := wireBytes(st)-wire0, processCPU()-cpu0
	steal1, host1 := hostTicks()
	if err != nil {
		wl.release()
		_ = st.close()
		return nil, fmt.Errorf("%s window: %w", name, err)
	}
	if err := finish(ctx, st, wl); err != nil {
		return nil, fmt.Errorf("%s final check: %w", name, err)
	}
	m, info := endToEnd(w, wire, hs.peak)
	m["setup_s"] = metric{Value: median(setups), Unit: "s", n: len(setups)}
	m["cpu_us_per_op"] = metric{Value: ratio(cpu.Seconds()*1e6, float64(w.ops())), Unit: "us", n: w.ops()}
	info["host.steal_frac"] = metric{Value: ratio(steal1-steal0, host1-host0), Unit: "ratio"}
	return &result{Correct: true, Attempted: w.ops(), Failed: w.failed, Metrics: m, info: info}, nil
}

// wireBytes is the framed RPC bytes in + out at the servers.
func wireBytes(st *stack) float64 {
	c := st.cl.counters()
	return c["rpc.bytes_in"] + c["rpc.bytes_out"]
}

// endToEnd computes the user-visible metrics of one window: the gated
// ones and the tail latencies reported alongside. Rates and latency
// quantiles are medians over time slices of the window, which keeps a
// burst of host noise in one slice from moving the result: throughput
// over one-second slices, and a latency quantile over as many equal
// slices (at most one per second) as leave at least ten samples beyond
// the quantile in each.
func endToEnd(w *window, wire float64, peakHeap uint64) (gated, info map[string]metric) {
	secs := int(w.elapsed / time.Second)
	var userBytes int
	perSec := make([][2]float64, secs) // ops, bytes
	for _, s := range w.samples {
		userBytes += s.bytes
		if i := int(s.at / time.Second); i < secs {
			perSec[i][0]++
			perSec[i][1] += float64(s.bytes)
		}
	}
	rate := func(j int) float64 {
		xs := make([]float64, secs)
		for i, v := range perSec {
			xs[i] = v[j]
		}
		return median(xs)
	}
	lat := func(read bool, q float64) metric {
		var n int
		for _, s := range w.samples {
			if s.read == read {
				n++
			}
		}
		k := max(1, min(secs, int(float64(n)*(1-q)/10)))
		slices := make([][]float64, k)
		for _, s := range w.samples {
			if s.read == read {
				i := min(k-1, int(int64(s.at)*int64(k)/int64(w.elapsed)))
				slices[i] = append(slices[i], s.ms)
			}
		}
		var qs []float64
		for _, xs := range slices {
			if len(xs) > 0 {
				qs = append(qs, quantile(xs, q))
			}
		}
		return metric{Value: median(qs), Unit: "ms", n: n}
	}
	gated = map[string]metric{
		"wire_bytes_per_user_byte": {Value: ratio(wire, float64(userBytes)), Unit: "ratio"},
		"peak_heap_MiB":            {Value: float64(peakHeap) / (1 << 20), Unit: "MiB"},
	}
	info = map[string]metric{
		"ops_per_s":    {Value: rate(0), Unit: "ops/s", n: w.ops()},
		"user_MBps":    {Value: rate(1) / 1e6, Unit: "MB/s"},
		"read_p50_ms":  lat(true, 0.50),
		"write_p50_ms": lat(false, 0.50),
		"read_p99_ms":  lat(true, 0.99),
		"write_p99_ms": lat(false, 0.99),
		"failed_frac":  {Value: ratio(float64(w.failed), float64(w.ops())), Unit: "ratio", n: w.ops()},
	}
	// p99.9 only where at least ten samples lie beyond it.
	if p := lat(false, 0.999); float64(p.n)*0.001 >= 10 {
		info["write_p999_ms"] = p
	}
	return gated, info
}
