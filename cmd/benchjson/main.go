// Command benchjson turns `go test -bench` output into a machine-readable
// BENCH.json, seeding the repository's perf trajectory. It tees stdin to
// stdout unchanged (so `make bench` still shows the familiar text) while
// collecting every benchmark line — standard ns/op, B/op, allocs/op and
// custom b.ReportMetric units such as the T1 headline metrics (speedup,
// energy-%, gates) — into one JSON document.
//
// Usage:
//
//	go test -run NONE -bench . -benchmem . | benchjson -o BENCH.json
//	go test -run NONE -bench . -benchmem . | benchjson -o BENCH.json -baseline old.json
//
// -o and -baseline must name different files; the same file for both
// exits 2 before reading anything.
//
// With -baseline, the new results are diffed against a previous
// BENCH.json and the run fails (exit 1) if any Stage* benchmark
// regressed by more than 10%: allocs/op is gated
// unconditionally (it is exact and machine-independent), ns/op only when
// the baseline was recorded on the same CPU. This is the perf ratchet
// `make bench` and CI run.
//
// Repeated result lines for one benchmark (from `go test -count=N`) are
// merged by keeping the sample with the lowest ns/op — the standard
// low-noise estimator, since timing noise on a shared host is strictly
// additive. `make bench` runs -count=3 for exactly this reason.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark without the "Benchmark" prefix or the
	// -GOMAXPROCS suffix, e.g. "StageSimulate" or "PartitionerSelection/90-10".
	Name string `json:"name"`
	// N is the iteration count the timing is averaged over.
	N int64 `json:"n"`
	// Metrics maps unit -> value, e.g. "ns/op": 204790, "speedup": 6.33.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the BENCH.json document.
type Report struct {
	Go         string      `json:"go"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH.json", "output path for the JSON report")
	baseline := flag.String("baseline", "", "previous BENCH.json to diff against; >10% Stage* regressions fail the run")
	flag.Parse()
	if *baseline != "" && filepath.Clean(*out) == filepath.Clean(*baseline) {
		// Writing the report first would replace the baseline, and the
		// diff would then compare the new results with themselves.
		fmt.Fprintf(os.Stderr, "benchjson: -o and -baseline both name %s; write the report to another file (e.g. -o /tmp/bench.json)\n", filepath.Clean(*out))
		os.Exit(2)
	}

	rep := Report{Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			rep.CPU = strings.TrimSpace(cpu)
			continue
		}
		if b, ok := parseBenchLine(line); ok {
			rep.merge(b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)

	if *baseline != "" {
		old, err := readReport(*baseline)
		if err != nil {
			// A first run has no baseline; report and carry on so `make
			// bench` works on a fresh checkout.
			fmt.Fprintf(os.Stderr, "benchjson: no usable baseline: %v\n", err)
			return
		}
		regressions := diffReports(os.Stderr, old, rep)
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION: %s\n", r)
			}
			os.Exit(1)
		}
	}
}

// merge folds one parsed result line into the report. A benchmark seen
// for the first time is appended; a repeat (go test -count=N emits one
// line per run) keeps whichever sample has the lower ns/op, so the
// recorded numbers are the run's least-disturbed measurement. Samples
// without ns/op never replace one that has it.
func (r *Report) merge(b Benchmark) {
	for i, have := range r.Benchmarks {
		if have.Name != b.Name {
			continue
		}
		oldNs, haveOld := have.Metrics["ns/op"]
		newNs, haveNew := b.Metrics["ns/op"]
		if haveNew && (!haveOld || newNs < oldNs) {
			r.Benchmarks[i] = b
		}
		return
	}
	r.Benchmarks = append(r.Benchmarks, b)
}

func readReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// regressLimit is the fractional slowdown tolerated before a gated
// (Stage*) benchmark fails the baseline gate.
const regressLimit = 0.10

// diffReports prints a per-benchmark comparison and returns the gate
// violations: Stage* benchmarks more than regressLimit
// worse than the baseline on allocs/op (always) or ns/op (only when both
// reports were recorded on the same CPU, since wall-clock does not
// transfer across machines).
func diffReports(w io.Writer, old, cur Report) []string {
	cpuMatch := old.CPU != "" && old.CPU == cur.CPU
	base := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		base[b.Name] = b
	}
	fmt.Fprintf(w, "benchjson: baseline diff (ns/op gate %s: cpu %q vs %q)\n",
		map[bool]string{true: "on", false: "off"}[cpuMatch], old.CPU, cur.CPU)

	var regressions []string
	for _, b := range cur.Benchmarks {
		ob, ok := base[b.Name]
		if !ok {
			continue
		}
		gated := strings.HasPrefix(b.Name, "Stage")
		for _, unit := range []string{"ns/op", "allocs/op"} {
			nv, haveNew := b.Metrics[unit]
			ov, haveOld := ob.Metrics[unit]
			if !haveNew || !haveOld {
				continue
			}
			if ov == 0 {
				// A zero baseline has no relative delta, but it must not
				// unhook the gate: a stage that reached 0 allocs/op and
				// regresses to N would otherwise pass CI silently
				// forever. Gate any absolute growth from zero.
				if nv == 0 {
					continue
				}
				fmt.Fprintf(w, "  %-28s %-9s %12.0f -> %12.0f  (from zero)\n", b.Name, unit, ov, nv)
				if !gated || (unit == "ns/op" && !cpuMatch) {
					continue
				}
				regressions = append(regressions,
					fmt.Sprintf("%s %s grew from a zero baseline to %g", b.Name, unit, nv))
				continue
			}
			delta := nv/ov - 1
			fmt.Fprintf(w, "  %-28s %-9s %12.0f -> %12.0f  %+6.1f%%\n", b.Name, unit, ov, nv, 100*delta)
			if !gated || delta <= regressLimit {
				continue
			}
			if unit == "ns/op" && !cpuMatch {
				continue
			}
			regressions = append(regressions,
				fmt.Sprintf("%s %s %+.1f%% (limit %+.0f%%)", b.Name, unit, 100*delta, 100*regressLimit))
		}
	}
	return regressions
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8   1406   807229 ns/op   5.40 speedup   16144 B/op
//
// i.e. the benchmark name, the iteration count, then (value, unit) pairs.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, N: n, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}
