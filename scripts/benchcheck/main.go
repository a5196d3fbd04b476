// Command benchcheck guards committed performance baselines against
// regressions. It runs the benchmarks named in each baseline file's
// "ci_baseline" section, takes the min ns/op over -count runs, and
// fails if any benchmark is more than -tolerance slower than its
// recorded baseline.
//
// Usage (from the repo root):
//
//	go run ./scripts/benchcheck [-baseline BENCH_kernels.json,BENCH_bulkio.json] [-tolerance 0.20]
//
// -baseline accepts a comma-separated list; every file is checked with
// the same tolerance and a regression in any of them fails the run.
//
// The compare is deliberately one-sided and tolerant: shared CI
// runners are noisy, so only a sustained slowdown beyond the tolerance
// band fails the build. Improvements never fail; refresh the baseline
// when kernels get faster.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type baselineFile struct {
	CIBaseline map[string]json.RawMessage `json:"ci_baseline"`
}

// benchLine matches one `go test -bench` result row, e.g.
// "BenchmarkMulSlice16K-8   500220   463.1 ns/op   35375.27 MB/s ..."
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	baselinePaths := flag.String("baseline", "BENCH_kernels.json", "comma-separated baseline JSON files, each with a ci_baseline section")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional slowdown before failing (0.20 = +20%)")
	benchtime := flag.String("benchtime", "200ms", "per-benchmark time passed to go test")
	count := flag.Int("count", 3, "benchmark repetitions; the min ns/op is compared")
	flag.Parse()

	failed := false
	for _, path := range strings.Split(*baselinePaths, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		if !checkBaseline(path, *tolerance, *benchtime, *count) {
			failed = true
		}
	}
	if failed {
		fmt.Println("benchcheck: performance regression beyond tolerance")
		os.Exit(1)
	}
	fmt.Println("benchcheck: all benchmarks within tolerance")
}

// checkBaseline runs one baseline file's benchmarks and reports
// whether everything stayed within tolerance.
func checkBaseline(baselinePath string, tolerance float64, benchtime string, count int) bool {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fatalf("read baseline: %v", err)
	}
	var bf baselineFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fatalf("parse %s: %v", baselinePath, err)
	}
	if len(bf.CIBaseline) == 0 {
		fatalf("%s has no ci_baseline section", baselinePath)
	}

	ok := true
	pkgs := make([]string, 0, len(bf.CIBaseline))
	for pkg := range bf.CIBaseline {
		if pkg == "comment" {
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		var want map[string]float64
		if err := json.Unmarshal(bf.CIBaseline[pkg], &want); err != nil {
			fatalf("ci_baseline[%q]: %v", pkg, err)
		}
		got, err := runBenches(pkg, want, benchtime, count)
		if err != nil {
			fatalf("%s: %v", pkg, err)
		}
		names := make([]string, 0, len(want))
		for name := range want {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			base := want[name]
			min, ran := got[name]
			switch {
			case !ran:
				fmt.Printf("FAIL  %-28s %s: benchmark did not run\n", name, pkg)
				ok = false
			case min > base*(1+tolerance):
				fmt.Printf("FAIL  %-28s %s: %.0f ns/op vs baseline %.0f (+%.0f%% > +%.0f%% allowed)\n",
					name, pkg, min, base, (min/base-1)*100, tolerance*100)
				ok = false
			default:
				fmt.Printf("ok    %-28s %s: %.0f ns/op vs baseline %.0f (%+.0f%%)\n",
					name, pkg, min, base, (min/base-1)*100)
			}
		}
	}
	return ok
}

// runBenches executes the named benchmarks in pkg and returns the min
// ns/op seen per benchmark (cpu suffixes stripped). A name may pick a
// sub-benchmark ("BenchmarkX/sub"): its top-level benchmark runs whole
// and the sub-benchmark is matched by its full name.
func runBenches(pkg string, want map[string]float64, benchtime string, count int) (map[string]float64, error) {
	seen := make(map[string]bool, len(want))
	names := make([]string, 0, len(want))
	for name := range want {
		top, _, _ := strings.Cut(strings.TrimPrefix(name, "Benchmark"), "/")
		if !seen[top] {
			seen[top] = true
			names = append(names, top)
		}
	}
	sort.Strings(names)
	re := "^Benchmark(" + strings.Join(names, "|") + ")$"
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", re, "-benchtime", benchtime, "-count", strconv.Itoa(count),
		"./"+strings.TrimPrefix(pkg, "./"))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, out.String())
	}
	got := make(map[string]float64)
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if cur, ok := got[m[1]]; !ok || ns < cur {
			got[m[1]] = ns
		}
	}
	return got, sc.Err()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(1)
}
