// Command perfbench is the repository's end-to-end benchmark. It drives
// the partitioner only from outside — through the public layer
// functions, and through a bpartd daemon built from the same tree and
// reached over loopback HTTP — checks every output against an
// independent oracle, and prints one JSON result line.
//
//	perfbench -root . -bpartd .bench_build/bin/bpartd \
//	    --workload suite-cold|serve-warm|serve-mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics, with --trace 1
// the per-layer metrics of a traced run. run.sh builds both binaries and
// runs this; see README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run (BENCHMARK.json's end_to_end list).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"upload_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics (BENCHMARK.json's per_layer
// list). A layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"mcc.compile_ms", "ms"},
	{"mcc.text_words", "count"},
	{"sim.execute_ms", "ms"},
	{"sim.steps", "count"},
	{"sim.ns_per_step", "ns"},
	{"decompile.decompile_ms", "ms"},
	{"decompile.funcs_recovered_share", "ratio"},
	{"dopt.optimize_ms", "ms"},
	{"dopt.instrs_removed", "count"},
	{"synth.synthesize_ms", "ms"},
	{"synth.regions", "count"},
	{"synth.gates", "count"},
	{"core.analyze_ms", "ms"},
	{"core.analyze_coverage", "ratio"},
	{"core.evaluate_us", "us"},
	{"partition.selected", "count"},
	{"core.render_us", "us"},
	{"core.render_bytes", "bytes"},
	{"cache.analysis_hit_share", "ratio"},
	{"cache.analysis_misses", "count"},
	{"bpartd.server_mean_us", "us"},
	{"bpartd.http_overhead_us", "us"},
	{"bpartd.json_decode_us", "us"},
	{"bpartd.json_encode_us", "us"},
	{"bpartd.stage_wall_ms.analyze", "ms"},
	{"bpartd.stage_wall_ms.sim", "ms"},
	{"bpartd.stage_wall_ms.lift", "ms"},
	{"bpartd.stage_wall_ms.synth", "ms"},
	{"bpartd.stage_wall_ms.evaluate", "ms"},
	{"bpartd.queue_depth_max", "count"},
	{"bpartd.rejected", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.samples", "count"},
	{"trace.overhead_share", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.spans", "count"},
	{"host.steal_share", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one run's settings.
type runConfig struct {
	root     string // repository checkout the run reads and writes in
	bpartd   string // daemon binary built from the checkout
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workers  int // nproc: worker goroutines and client connections
}

// measure is what a workload reports back: its counts and the values of
// the metrics of its mode, keyed by name.
type measure struct {
	attempted, failed int64
	values            map[string]float64
}

func newMeasure() *measure { return &measure{values: map[string]float64{}} }

func (m *measure) set(name string, v float64) { m.values[name] = v }

func main() {
	os.Exit(run())
}

func run() int {
	root := flag.String("root", ".", "repository checkout to run in")
	bpartd := flag.String("bpartd", "", "bpartd binary built from the checkout")
	workload := flag.String("workload", "", "suite-cold, serve-warm or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()

	cfg := runConfig{
		root: *root, bpartd: *bpartd, workload: *workload, seed: *seed,
		seconds: *seconds, traced: *trace == 1, workers: runtime.NumCPU(),
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var m *measure
	var err error
	switch cfg.workload {
	case "suite-cold":
		m, err = runSuiteCold(cfg)
	case "serve-warm", "serve-mixed":
		m, err = runServe(cfg)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res := result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := m.values[d.name]
		if !ok && !cfg.traced {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", d.name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// forEach calls fn(i) for every i in [0, n) over workers goroutines.
func forEach(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// percentile is the nearest-rank q-quantile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// sample is one operation of a run's measured phase.
type sample struct {
	at   time.Duration // completion, since the phase started
	lat  time.Duration
	ok   bool
	cold bool // a fresh binary: a generated program or an upload
}

// maxWindows is how many equal slices of the measured phase the
// end-to-end figures are computed over, at most; each figure is the
// median over the slices, so a burst of load from elsewhere on the
// machine moves one slice rather than the result.
const maxWindows = 10

// minWindowSamples keeps ten samples beyond every window's p99.
const minWindowSamples = 1000

// summarize sets throughput_per_s (completed operations per second),
// latency_p50_ms and latency_p99_ms and, with cold, upload_p50_ms (the
// p50 latency of cold samples), each the median over the windows. It
// uses as many windows, up to maxWindows, as each hold minWindowSamples
// samples; a run too short for one window fails.
func summarize(m *measure, samples []sample, elapsed time.Duration, cold bool) error {
	for n := maxWindows; n >= 1; n-- {
		wins := splitWindows(samples, elapsed, n)
		if wins == nil {
			continue
		}
		var tput, p50, p99, coldP50 []float64
		for i, w := range wins {
			var lat, coldLat []time.Duration
			ok := 0
			for _, s := range w {
				lat = append(lat, s.lat)
				if s.ok {
					ok++
				}
				if s.cold {
					coldLat = append(coldLat, s.lat)
				}
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			lo, hi := elapsed*time.Duration(i)/time.Duration(n), elapsed*time.Duration(i+1)/time.Duration(n)
			tput = append(tput, float64(ok)/(hi-lo).Seconds())
			p50 = append(p50, ms(percentile(lat, 0.50)))
			p99 = append(p99, ms(percentile(lat, 0.99)))
			coldP50 = append(coldP50, ms(median(coldLat)))
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d samples in %d windows: throughput %.5g, p50 %.4g, p99 %.4g\n",
			len(samples), n, tput, p50, p99)
		m.set("throughput_per_s", medianF(tput))
		m.set("latency_p50_ms", medianF(p50))
		m.set("latency_p99_ms", medianF(p99))
		if cold {
			m.set("upload_p50_ms", medianF(coldP50))
		}
		return nil
	}
	return fmt.Errorf("%d latency samples: p99 needs at least %d (10 beyond it)", len(samples), minWindowSamples)
}

// splitWindows cuts samples into n equal slices of the phase by
// completion time, or returns nil if a slice holds fewer than
// minWindowSamples.
func splitWindows(samples []sample, elapsed time.Duration, n int) [][]sample {
	wins := make([][]sample, n)
	for _, s := range samples {
		i := int(int64(s.at) * int64(n) / int64(elapsed))
		if i >= n {
			i = n - 1
		}
		wins[i] = append(wins[i], s)
	}
	for _, w := range wins {
		if len(w) < minWindowSamples {
			return nil
		}
	}
	return wins
}

func medianF(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 0.5)
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuTicks are the machine-wide CPU tick counters of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks reads them; on a machine without /proc/stat it returns
// zeros and the steal share reads 0.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		t.total += n
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = n
		}
	}
	return t
}

// reportSteal prints, and records as host.steal_share, the share of the
// machine's CPU time a hypervisor gave to other guests since before: the
// main source of run-to-run noise on a shared host.
func reportSteal(m *measure, before cpuTicks) {
	after := readCPUTicks()
	share := 0.0
	if d := after.total - before.total; d > 0 {
		share = float64(after.steal-before.steal) / float64(d)
	}
	fmt.Fprintf(os.Stderr, "perfbench: host steal during the measured phase: %.1f%%\n", 100*share)
	m.set("host.steal_share", share)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
