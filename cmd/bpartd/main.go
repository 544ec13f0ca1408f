// Command bpartd serves the partitioner: a long-running HTTP daemon in
// front of the analyze-once/evaluate-in-microseconds flow and its
// memory + disk stage caches.
//
//	POST /v1/partition  {"bench":"crc","opt":1,...}   -> priced partition report as JSON
//	POST /v1/sweep      {"bench":"crc","sweep":"devices",...} -> per-point results as
//	                    chunked ndjson (header line, one line per point, done line)
//
// The report text inside the responses is byte-identical to what the
// bparts CLI prints for the same inputs — both render through
// core.RenderReport and friends.
//
// Serving backbone: a bounded admission queue (-queue; full returns 429
// with Retry-After), a bounded execution pool (-inflight), per-tenant
// token-bucket rate limits keyed on the X-Tenant header (-tenant-rps),
// and a per-request deadline (-deadline). SIGINT/SIGTERM drains
// in-flight requests (-drain budget), then closes the run session
// (internal/runsess): flushes the -trace stream, verifies the span/cache
// reconciliation invariant, writes the -manifest, stops the ops
// listener, and removes the addr files. It exits 0 only when all of
// that succeeded.
//
// Ops surface (-ops-addr): /healthz, /readyz (503 while draining),
// /metrics (the shared binpart exposition plus bpartd_* serving
// families), expvar, and net/pprof — obs.ServeDebug promoted to a
// daemon lifecycle.
//
// Client modes (same binary, for scripts and the smoke test):
//
//	bpartd -post URL -data '{"bench":"crc","opt":1}'   # POST JSON, print response
//	bpartd -get URL                                    # GET, print body
//	bpartd -loadgen URL -loadgen-duration 2s           # sustained load + latency report
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"binpart/internal/core"
	"binpart/internal/fpga"
	"binpart/internal/platform"
	"binpart/internal/runsess"
	"binpart/internal/sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "serve the v1 API on this address (\":0\" picks a free port)")
	addrFile := flag.String("addr-file", "", "also write the bound API address to this file (removed on clean exit)")
	opsAddr := flag.String("ops-addr", "", "serve /healthz, /readyz, /metrics, expvar, pprof on this address")
	opsAddrFile := flag.String("ops-addr-file", "", "with -ops-addr, also write the bound ops address to this file (removed on clean exit)")
	queue := flag.Int("queue", 64, "admission bound: max requests admitted (waiting + executing); beyond it POSTs get 429")
	inflight := flag.Int("inflight", runtime.GOMAXPROCS(0), "execution bound: max requests partitioning concurrently")
	tenantRPS := flag.Float64("tenant-rps", 0, "per-tenant token-bucket refill rate in req/s, keyed on X-Tenant (0: unlimited)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant bucket depth (0: 2x -tenant-rps)")
	deadline := flag.Duration("deadline", 30*time.Second, "per-request deadline (admission wait + compute)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown budget for draining in-flight requests")
	mhz := flag.Float64("mhz", 200, "default CPU clock in MHz (request \"mhz\" overrides)")
	device := flag.String("device", "XC2V2000", "default Virtex-II device (request \"device\" overrides)")
	alg := flag.String("alg", "90-10", "default partitioning algorithm (request \"alg\" overrides)")
	engine := flag.String("engine", "fused", "default simulator engine (request \"engine\" overrides)")
	cacheDir := flag.String("cachedir", "", "directory for the on-disk stage cache (empty: memory only)")
	cacheDirMax := flag.String("cachedir-max", "", "byte budget for -cachedir (e.g. 256M)")
	trace := flag.String("trace", "", "stream per-stage spans to this file as JSONL (flushed on shutdown)")
	manifestPath := flag.String("manifest", "", "write a run manifest to this JSON file on shutdown")
	stats := flag.Bool("stats", false, "print per-stage span and cache counters to stderr on shutdown")
	post := flag.String("post", "", "client mode: POST -data to this URL, print the response, exit")
	get := flag.String("get", "", "client mode: GET this URL, print the body, exit")
	data := flag.String("data", "", "request body for -post (a JSON string, or @file)")
	loadgen := flag.String("loadgen", "", "client mode: drive sustained load at this /v1/partition URL, print throughput + latency, exit")
	lgBench := flag.String("loadgen-bench", "crc", "benchmark the load generator posts")
	lgOpt := flag.Int("loadgen-opt", 1, "opt level the load generator posts")
	lgConns := flag.Int("loadgen-conns", 4, "concurrent load-generator connections")
	lgDur := flag.Duration("loadgen-duration", 2*time.Second, "how long the load generator runs")
	lgMinRPS := flag.Float64("loadgen-min-rps", 0, "exit nonzero when sustained req/s falls below this")
	flag.Parse()

	switch {
	case *get != "":
		os.Exit(clientGet(*get))
	case *post != "":
		os.Exit(clientPost(*post, *data))
	case *loadgen != "":
		os.Exit(runLoadgen(loadgenConfig{
			url: *loadgen, bench: *lgBench, opt: *lgOpt,
			conns: *lgConns, dur: *lgDur, minRPS: *lgMinRPS,
		}))
	}

	// Signals are watched from before the listener opens: a SIGTERM at
	// any point of the daemon's life must run the drain path, not die by
	// default termination with the trace and manifest unwritten.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "bpartd:", err)
		os.Exit(1)
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
	eng, err := sim.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}
	opts.Sim.Engine = eng

	d := newDaemon(daemonConfig{
		Opts:        opts,
		Queue:       *queue,
		Inflight:    *inflight,
		TenantRPS:   *tenantRPS,
		TenantBurst: *tenantBurst,
		Deadline:    *deadline,
	})
	// The recorder always exists: every shutdown reconciles the serving
	// spans against the cache counters.
	sess, err := runsess.Open(runsess.Config{
		Tool:        "bpartd",
		Args:        os.Args[1:],
		Workers:     *inflight,
		CacheDir:    *cacheDir,
		CacheDirMax: *cacheDirMax,
		Stats:       *stats,
		Trace:       *trace,
		Manifest:    *manifestPath,
		DebugAddr:   *opsAddr,
		Metrics:     d.WriteMetrics,
		Record:      true,
	})
	if err != nil {
		fatal(err)
	}
	// Before the API listener opens, so no handler sees the daemon
	// without them; the ops /metrics reads only the daemon's counters.
	d.caches, d.rec = sess.Caches, sess.Rec

	if sess.Debug != nil {
		sess.Debug.Handle("/healthz", http.HandlerFunc(d.handleHealthz))
		sess.Debug.Handle("/readyz", http.HandlerFunc(d.handleReadyz))
		fmt.Fprintf(os.Stderr, "bpartd: ops on http://%s/metrics\n", sess.Debug.Addr())
		if *opsAddrFile != "" {
			if err := sess.WriteAddrFile(*opsAddrFile, sess.Debug.Addr()); err != nil {
				fatal(err)
			}
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{
		Handler:           d.Mux(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       time.Minute,
		// No WriteTimeout: /v1/sweep streams chunks for as long as the
		// request deadline allows.
	}
	fmt.Fprintf(os.Stderr, "bpartd: serving on http://%s/v1/partition\n", ln.Addr())
	if *addrFile != "" {
		if err := sess.WriteAddrFile(*addrFile, ln.Addr().String()); err != nil {
			fatal(err)
		}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case s := <-sigCh:
		fmt.Fprintf(os.Stderr, "bpartd: %v: draining (budget %v)\n", s, *drain)
	case err := <-serveErr:
		fatal(fmt.Errorf("serve: %v", err))
	}

	// Shutdown order: stop admitting (readyz flips 503), drain in-flight
	// requests, then close the session — traces and manifests must
	// capture every span the drained requests recorded.
	d.SetDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	drainErr := srv.Shutdown(ctx)
	cancel()
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "bpartd: drain incomplete: %v\n", drainErr)
	}
	// The invariant that makes the trace trustworthy: every span outcome
	// the drained requests recorded reconciles against the cache
	// counters. A daemon that drops spans on shutdown fails in Close.
	closeErr := sess.Close(drainErr != nil)
	if closeErr != nil {
		fmt.Fprintf(os.Stderr, "bpartd: %v\n", closeErr)
	}
	if drainErr != nil || closeErr != nil {
		fmt.Fprintln(os.Stderr, "bpartd: shutdown with errors")
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bpartd: drained %d requests, trace reconciled, shutdown clean\n", d.Served())
}
