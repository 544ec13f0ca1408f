// Command experiments regenerates the paper's tables and figures (see
// DESIGN.md's experiment index).
//
// Usage:
//
//	experiments              # everything
//	experiments -table 1     # one table (1-4)
//	experiments -figure 1    # the area-sweep figure
//	experiments -ablation    # partitioner + pass ablations
//	experiments -corpus 1000 # differential fuzz corpus of generated programs
//	experiments -corpus 1000 -corpus-seed 7 -corpus-out sum.json
//	experiments -engines     # simulator engine ablation (batched, differential)
//	experiments -engine reference  # run every sweep on one engine
//	experiments -fusion-out f.json # write the engine ablation stats artifact
//	experiments -j 8         # fan sweep points over 8 workers
//	experiments -cachedir d  # persist the stage cache under d
//	experiments -cachedir d -cachedir-max 256M  # bound it (oldest-mtime eviction)
//	experiments -trace t.jsonl     # stream per-stage spans as JSONL (.gz gzips)
//	experiments -stats             # per-stage span + cache tables (p50/p90/p99) to stderr
//	experiments -manifest m.json   # write the run manifest (config, git, totals)
//	experiments -debug-addr :6060  # expvar + net/pprof + /metrics for long sweeps
//	experiments -cpuprofile p.out  # write a pprof CPU profile of the run
//	experiments -memprofile m.out  # write a pprof heap profile at exit
//
// Tables are byte-identical at any -j and with tracing on or off: the
// executor reassembles rows in submission order and the recorder only
// observes. The stage cache is shared by every experiment in one
// invocation, so the full run lifts each distinct binary once. The
// caches and every observability surface open and close through
// internal/runsess.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"

	"binpart/internal/exper"
	"binpart/internal/runsess"
	"binpart/internal/sim"
)

func main() {
	table := flag.Int("table", 0, "run a single table (1-4)")
	figure := flag.Int("figure", 0, "run a single figure (1)")
	ablation := flag.Bool("ablation", false, "run the ablation studies")
	extension := flag.Bool("extension", false, "run the jump-table recovery extension experiment")
	corpusN := flag.Int("corpus", 0, "sweep N generated switch-shaped programs through the differential corpus (0: off)")
	corpusSeed := flag.Int64("corpus-seed", 1, "first generator seed for -corpus")
	corpusOut := flag.String("corpus-out", "", "write the corpus summary (recovery rate, speedup distribution, mismatches) to this JSON file")
	engines := flag.Bool("engines", false, "run the simulator engine ablation (batched differential across reference/block/fused)")
	engine := flag.String("engine", "fused", "simulator engine for every sweep point: reference, block, or fused")
	fusionOut := flag.String("fusion-out", "", "write the engine ablation (wall times, fusion counters) to this JSON file")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "worker pool size for experiment sweeps")
	cacheDir := flag.String("cachedir", "", "directory for the on-disk stage cache (empty: memory only)")
	cacheDirMax := flag.String("cachedir-max", "", "byte budget for -cachedir (e.g. 256M); oldest-mtime blobs are evicted past it (empty: unbounded)")
	stats := flag.Bool("stats", false, "print per-stage span and cache counters to stderr")
	cacheStats := flag.Bool("cachestats", false, "alias for -stats (the old cache-only counters)")
	trace := flag.String("trace", "", "stream per-stage spans to this file as JSONL (gzip when the path ends in .gz)")
	manifestPath := flag.String("manifest", "", "write a run manifest (config, git, per-stage totals, cache accounting) to this JSON file")
	debugAddr := flag.String("debug-addr", "", "serve expvar + net/pprof + Prometheus /metrics on this address (e.g. :6060) for long sweeps")
	noCache := flag.Bool("nocache", false, "disable the stage cache entirely")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	// Signals are watched from the start of the run: an unhandled
	// SIGINT/SIGTERM mid-sweep would die by default termination and
	// silently lose the partially written -trace and -manifest. The channel buffers two so a signal delivered before the
	// handling goroutine starts is not dropped.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	eng, err := sim.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	sess, err := runsess.Open(runsess.Config{
		Tool:        "experiments",
		Args:        os.Args[1:],
		Workers:     *workers,
		NoCache:     *noCache,
		CacheDir:    *cacheDir,
		CacheDirMax: *cacheDirMax,
		Stats:       *stats || *cacheStats,
		Trace:       *trace,
		Manifest:    *manifestPath,
		DebugAddr:   *debugAddr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if sess.Debug != nil {
		fmt.Fprintf(os.Stderr, "debug listener on http://%s/debug/vars (metrics on /metrics)\n", sess.Debug.Addr())
	}

	runner := exper.NewRunner(*workers, sess.Caches)
	runner.Obs = sess.Rec
	runner.Engine = eng

	// First signal: cancel the sweep — queued points fail fast with
	// ErrInterrupted, in-flight ones drain, and the tail below still
	// flushes the trace and writes the manifest (marked interrupted)
	// before exiting nonzero. Second signal: give up and exit hard.
	var gotSig atomic.Value
	go func() {
		s := <-sigCh
		gotSig.Store(s)
		fmt.Fprintf(os.Stderr, "experiments: %v: cancelling run (trace/manifest will still flush; signal again to force exit)\n", s)
		runner.Interrupt()
		<-sigCh
		fmt.Fprintln(os.Stderr, "experiments: second signal: exiting immediately")
		os.Exit(2)
	}()

	all := *table == 0 && *figure == 0 && !*ablation && !*extension && *corpusN == 0 && !*engines
	// A failure no longer exits on the spot: it skips the remaining
	// experiments and falls through to the tail, so the trace and
	// manifest always flush — the exit code is settled at the bottom.
	failed := false
	run := func(name string, f func() (fmt.Stringer, error)) {
		if failed {
			return
		}
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			failed = true
			return
		}
		fmt.Println(out)
	}

	if all || *table == 1 {
		run("table 1", func() (fmt.Stringer, error) { return wrap(runner.Table1()) })
	}
	if all || *table == 2 {
		run("table 2", func() (fmt.Stringer, error) { return wrap(runner.Table2()) })
	}
	if all || *table == 3 {
		run("table 3", func() (fmt.Stringer, error) { return wrap(runner.Table3()) })
	}
	if all || *table == 4 {
		run("table 4", func() (fmt.Stringer, error) { return wrap(runner.Table4()) })
	}
	if all || *figure == 1 {
		run("figure 1", func() (fmt.Stringer, error) { return wrap(runner.Figure1()) })
	}
	if all || *ablation {
		run("ablation 1", func() (fmt.Stringer, error) { return wrap(runner.PartitionerComparison()) })
		run("ablation 2", func() (fmt.Stringer, error) { return wrap(runner.PassAblation()) })
	}
	if all || *extension {
		run("extension 1", func() (fmt.Stringer, error) { return wrap(runner.JumpTableExtension()) })
	}
	// Like the corpus, the ablation runs only when asked for: its table
	// contains measured wall/CPU times, which would break the
	// serial-vs-parallel byte-identity of the default full run.
	if *engines && !failed {
		switch abl, err := runner.EngineAblation(); {
		case err != nil:
			fmt.Fprintf(os.Stderr, "engine ablation: %v\n", err)
			failed = true
		default:
			fmt.Println(abl.Format())
			if *fusionOut != "" {
				if err := abl.WriteStats(*fusionOut); err != nil {
					fmt.Fprintf(os.Stderr, "engine ablation stats: %v\n", err)
					failed = true
				}
			}
			// The ablation is a differential gate: any engine deviating from
			// the reference stepper fails the run.
			if !abl.Identical() {
				fmt.Fprintln(os.Stderr, "engine ablation: engines are not bit-identical")
				failed = true
			}
		}
	}
	if *corpusN > 0 && !failed {
		switch corpus, err := runner.Corpus(*corpusN, *corpusSeed); {
		case err != nil:
			fmt.Fprintf(os.Stderr, "corpus: %v\n", err)
			failed = true
		default:
			fmt.Println(corpus.Format())
			if *corpusOut != "" {
				if err := corpus.WriteSummary(*corpusOut); err != nil {
					fmt.Fprintf(os.Stderr, "corpus summary: %v\n", err)
					failed = true
				}
			}
			// A corpus invocation is a differential gate, not just a report:
			// any mismatch or a recovery rate below 99% fails the run.
			if s := corpus.Summary(); len(s.Mismatches) > 0 || s.RecoveryRate < 0.99 {
				fmt.Fprintf(os.Stderr, "corpus: %d mismatches, recovery rate %.2f%%\n",
					len(s.Mismatches), 100*s.RecoveryRate)
				failed = true
			}
		}
	}

	// The session flushes even for a failed or interrupted sweep: a
	// partial trace that reconciles is evidence, a vanished one is a bug.
	if err := sess.Close(gotSig.Load() != nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		failed = true
	}
	// Exit code: 128+signum for a signal-cancelled run (the shell
	// convention), 1 for any other failure, 0 only for a clean sweep.
	if s := gotSig.Load(); s != nil {
		code := 130
		if sn, ok := s.(syscall.Signal); ok {
			code = 128 + int(sn)
		}
		os.Exit(code)
	}
	if failed {
		os.Exit(1)
	}
}

// formatter adapts the exper result types to fmt.Stringer.
type formatter struct{ format func() string }

func (f formatter) String() string { return f.format() }

func wrap[T interface{ Format() string }](v T, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return formatter{v.Format}, nil
}
