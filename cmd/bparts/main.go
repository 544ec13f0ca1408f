// Command bparts is the end-to-end binary partitioner: it takes one or
// more MIPS SBF binaries, runs the decompilation-based partitioning flow,
// prints each report, and optionally writes the generated VHDL for every
// hardware region.
//
// Usage:
//
//	bparts [-mhz 200] [-device XC2V2000] [-alg 90-10|greedy|gclp]
//	       [-j N] [-cachedir dir] [-vhdl dir] program.sbf...
//	bparts -sweep devices program.sbf...   # area sweep over the Virtex-II catalog
//	bparts -sweep clocks  program.sbf...   # CPU clock sweep (see -clocks)
//
// With several inputs the flows run concurrently over -j workers sharing
// one stage cache (identical binaries lift once); reports print in
// argument order regardless of completion order.
//
// The sweep modes analyze each binary once (profile, decompile,
// synthesize) and price every sweep point with core.Evaluate, so a
// full-catalog sweep costs barely more than a single run.
//
// Observability: -trace streams per-stage spans as JSONL (a .gz path
// gzip-compresses), -stats prints the per-stage and cache tables with
// p50/p90/p99 latency columns to stderr (-cachestats is the old alias),
// -manifest writes a run manifest, and -debug-addr serves expvar +
// net/pprof + Prometheus-text /metrics. All of it is off — and
// alloc-free — by default. The caches and every observability surface
// open and close through internal/runsess.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/fpga"
	"binpart/internal/obs"
	"binpart/internal/platform"
	"binpart/internal/runsess"
	"binpart/internal/sim"
	"binpart/internal/vhdl"
)

func main() {
	mhz := flag.Float64("mhz", 200, "CPU clock in MHz")
	device := flag.String("device", "XC2V2000", "Virtex-II device")
	alg := flag.String("alg", "90-10", "partitioning algorithm: 90-10, greedy, gclp")
	whole := flag.Bool("whole", false, "partition whole call-free functions instead of loops")
	structure := flag.Bool("structure", false, "print recovered control structure per function")
	jumpTables := flag.Bool("jumptables", true, "recover switch jump tables at indirect jumps (=false reproduces the paper's failures)")
	engine := flag.String("engine", "fused", "simulator engine: reference, block, or fused")
	vhdlDir := flag.String("vhdl", "", "directory to write VHDL for selected regions")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "worker pool size when partitioning several binaries")
	cacheDir := flag.String("cachedir", "", "directory for the on-disk stage cache (empty: memory only)")
	cacheDirMax := flag.String("cachedir-max", "", "byte budget for -cachedir (e.g. 256M); oldest-mtime blobs are evicted past it (empty: unbounded)")
	stats := flag.Bool("stats", false, "print per-stage span and cache counters to stderr")
	cacheStats := flag.Bool("cachestats", false, "alias for -stats (the old cache-only counters)")
	trace := flag.String("trace", "", "stream per-stage spans to this file as JSONL")
	manifestPath := flag.String("manifest", "", "write a run manifest (config, git, per-stage totals, cache accounting) to this JSON file")
	debugAddr := flag.String("debug-addr", "", "serve expvar + net/pprof on this address (e.g. :6060)")
	sweep := flag.String("sweep", "", "sweep mode: devices (Virtex-II catalog) or clocks (see -clocks)")
	clockList := flag.String("clocks", "40,100,200,400", "CPU clocks in MHz for -sweep clocks")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: bparts [flags] program.sbf...")
		os.Exit(2)
	}

	dev, err := fpga.ByName(*device)
	if err != nil {
		fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Platform = platform.MIPS(*mhz, dev)
	switch *alg {
	case "90-10":
		opts.Algorithm = core.AlgNinetyTen
	case "greedy":
		opts.Algorithm = core.AlgGreedy
	case "gclp":
		opts.Algorithm = core.AlgGCLP
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *alg))
	}
	if *whole {
		opts.Granularity = core.GranFunctions
	}
	opts.RecoverJumpTables = *jumpTables
	eng, err := sim.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}
	opts.Sim.Engine = eng

	var clocks []float64
	switch *sweep {
	case "", "devices":
	case "clocks":
		for _, s := range strings.Split(*clockList, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v <= 0 {
				fatal(fmt.Errorf("bad -clocks entry %q", s))
			}
			clocks = append(clocks, v)
		}
	default:
		fatal(fmt.Errorf("unknown sweep mode %q (want devices or clocks)", *sweep))
	}

	paths := flag.Args()
	outputs := make([]string, len(paths))
	errs := make([]error, len(paths))
	pool := *workers
	if pool < 1 {
		pool = 1
	}
	if pool > len(paths) {
		pool = len(paths)
	}

	sess, err := runsess.Open(runsess.Config{
		Tool:        "bparts",
		Args:        os.Args[1:],
		Workers:     pool,
		CacheDir:    *cacheDir,
		CacheDirMax: *cacheDirMax,
		Stats:       *stats || *cacheStats,
		Trace:       *trace,
		Manifest:    *manifestPath,
		DebugAddr:   *debugAddr,
	})
	if err != nil {
		fatal(err)
	}
	if sess.Debug != nil {
		fmt.Fprintf(os.Stderr, "debug listener on http://%s/debug/vars (metrics on /metrics)\n", sess.Debug.Addr())
	}
	caches, rec := sess.Caches, sess.Rec
	jobCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobCh {
				sc := rec.Scope(paths[i], -1, worker)
				sp := sc.Start(obs.StageJob)
				if *sweep != "" {
					outputs[i], errs[i] = sweepOne(paths[i], opts, caches, *sweep, clocks, len(paths) > 1, sc)
				} else {
					outputs[i], errs[i] = partitionOne(paths[i], opts, caches, *structure, *vhdlDir, len(paths) > 1, sc)
				}
				sp.End()
			}
		}(w)
	}
	for i := range paths {
		jobCh <- i
	}
	close(jobCh)
	wg.Wait()

	// Reports print in argument order up to the first failing input,
	// whose error is reported after the session closes: the trace and
	// manifest still cover every binary that ran.
	var failed error
	for i := range paths {
		if errs[i] != nil {
			failed = errs[i]
			break
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(outputs[i])
	}
	if err := sess.Close(false); err != nil {
		failed = errors.Join(failed, err)
	}
	if failed != nil {
		fatal(failed)
	}
}

// sweepOne analyzes one binary once and prices every sweep point with
// core.Evaluate.
func sweepOne(path string, opts core.Options, caches *core.Caches,
	mode string, clocks []float64, multi bool, sc *obs.Scope) (string, error) {

	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	img, err := binimg.Unmarshal(data)
	if err != nil {
		return "", err
	}
	a, err := core.AnalyzeScoped(img, opts, caches, sc)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	if multi {
		fmt.Fprintf(&b, "==> %s\n", path)
	}
	b.WriteString(core.RenderSweepHeader(mode, opts))
	var pts []core.SweepPoint
	switch mode {
	case "devices":
		pts = core.DeviceSweepPoints(a, opts, sc)
	case "clocks":
		pts = core.ClockSweepPoints(a, opts, clocks, sc)
	}
	for _, pt := range pts {
		b.WriteString(pt.Text)
	}
	return b.String(), nil
}

// partitionOne runs the flow on one binary and renders its report.
func partitionOne(path string, opts core.Options, caches *core.Caches,
	structure bool, vhdlDir string, multi bool, sc *obs.Scope) (string, error) {

	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	img, err := binimg.Unmarshal(data)
	if err != nil {
		return "", err
	}
	rep, err := core.RunScoped(img, opts, caches, sc)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	if multi {
		fmt.Fprintf(&b, "==> %s\n", path)
	}
	b.WriteString(core.RenderReport(rep, structure))

	if vhdlDir != "" {
		files, err := rep.VHDL()
		if err != nil {
			return "", err
		}
		if err := os.MkdirAll(vhdlDir, 0o755); err != nil {
			return "", err
		}
		for name, text := range files {
			path := filepath.Join(vhdlDir, name+".vhd")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "wrote %s\n", path)
		}
		for _, r := range rep.SelectedRegions() {
			tb, err := vhdl.EmitTestbench(r.Design)
			if err != nil {
				return "", err
			}
			path := filepath.Join(vhdlDir, r.Name+"_tb.vhd")
			if err := os.WriteFile(path, []byte(tb), 0o644); err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "wrote %s\n", path)
		}
	}
	return b.String(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
