package obs

import (
	"context"
	"expvar"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"binpart/internal/cache"
	"binpart/internal/obs/hist"
)

// DebugSources is what the debug listener reads: the live recorder, the
// per-stage cache counters, and the per-stage disk-read latency
// histograms. Every field may be nil — the corresponding metrics are
// simply absent.
type DebugSources struct {
	Rec           *Recorder
	Caches        func() map[string]cache.Stats
	DiskLatencies func() map[string]hist.Snapshot
	// Extra, when set, is appended to the /metrics exposition after the
	// standard families — how a front-end (the bpartd daemon) publishes
	// its own counters through the shared ops surface.
	Extra func(io.Writer)
}

// debugSources holds what the expvar callbacks read. Set by ServeDebug;
// the callbacks are registered once per process (expvar.Publish panics on
// duplicates) and always read the latest sources.
var debugSources struct {
	mu  sync.Mutex
	src DebugSources
}

var publishOnce sync.Once

// DebugServer is the handle returned by ServeDebug: the ops listener on
// a properly configured http.Server. Callers register extra routes with
// Handle before traffic matters and tear the listener down with
// Shutdown (drains in-flight scrapes) or Close (abrupt).
type DebugServer struct {
	addr string
	mux  *http.ServeMux
	srv  *http.Server
	done chan struct{} // closed when the Serve goroutine returns
}

// ServeDebug starts an HTTP listener for long sweeps and daemons:
// /debug/vars serves expvar (including binpart.stages, the live
// per-stage span totals, and binpart.caches, the live cache counters),
// /debug/pprof/* serves net/pprof, and /metrics serves the Prometheus
// text exposition — stage counters and latency summaries, disk-read
// latencies, and whatever src.Extra appends. The listener runs on an http.Server with
// read-header and idle timeouts so a slow or stalled client cannot
// wedge it; stop it with Shutdown or Close on the returned handle.
func ServeDebug(addr string, src DebugSources) (*DebugServer, error) {
	debugSources.mu.Lock()
	debugSources.src = src
	debugSources.mu.Unlock()

	publishOnce.Do(func() {
		expvar.Publish("binpart.stages", expvar.Func(func() any {
			return currentSources().Rec.StageTotals()
		}))
		expvar.Publish("binpart.caches", expvar.Func(func() any {
			if f := currentSources().Caches; f != nil {
				return f()
			}
			return nil
		}))
	})

	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s := currentSources()
		WriteMetrics(w, s)
		if s.Extra != nil {
			s.Extra(w)
		}
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{
		addr: ln.Addr().String(),
		mux:  mux,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       time.Minute,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown/Close
	}()
	return d, nil
}

// Addr is the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.addr }

// Handle registers an extra route on the ops mux — how bpartd mounts
// /healthz and /readyz next to the shared /metrics and pprof surface.
func (d *DebugServer) Handle(pattern string, h http.Handler) { d.mux.Handle(pattern, h) }

// Shutdown stops accepting connections and drains in-flight requests,
// then waits for the serve loop to exit.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	err := d.srv.Shutdown(ctx)
	select {
	case <-d.done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// Close tears the listener and all connections down immediately.
func (d *DebugServer) Close() error {
	err := d.srv.Close()
	<-d.done
	return err
}

func currentSources() DebugSources {
	debugSources.mu.Lock()
	defer debugSources.mu.Unlock()
	return debugSources.src
}

// WriteMetrics renders the pipeline metrics in the Prometheus text
// exposition format: per-stage span counters, cache-outcome counters,
// and latency summaries; per-cache counters; and per-cache disk-read
// latencies. Every canonical stage and every cache outcome is emitted
// from the first scrape, zero-valued until it happens, so a scraper can
// take rates without waiting for the first event.
func WriteMetrics(w io.Writer, src DebugSources) {
	p := hist.NewProm(w)
	var totals []StageTotal
	if src.Rec != nil {
		totals = withCanonicalStages(src.Rec.StageTotals())
	}
	for _, st := range totals {
		p.Counter("binpart_stage_spans_total", hist.Label("stage", st.Stage), float64(st.Spans))
	}
	for _, st := range totals {
		p.Counter("binpart_stage_wall_seconds_total", hist.Label("stage", st.Stage), float64(st.WallUS)/1e6)
	}
	for _, st := range totals {
		if CacheForStage[st.Stage] == "" {
			continue
		}
		stage := hist.Label("stage", st.Stage)
		for _, oc := range []struct {
			name string
			n    uint64
		}{
			{"hit", st.Hit}, {"miss", st.Miss}, {"wait", st.Wait},
			{"disk", st.Disk}, {"corrupt", st.Corrupt},
		} {
			p.Counter("binpart_stage_cache_outcomes_total",
				hist.Labels(stage, hist.Label("outcome", oc.name)), float64(oc.n))
		}
	}
	for _, st := range totals {
		p.SummaryFromStart("binpart_stage_latency_seconds", hist.Label("stage", st.Stage), st.Latency)
	}
	if src.Caches != nil {
		stats := src.Caches()
		names := sortedKeys(stats)
		// Group by family, not by cache: the exposition format wants
		// every sample of one family contiguous.
		for _, name := range names {
			p.Counter("binpart_cache_hits_total", hist.Label("cache", name), float64(stats[name].Hits))
		}
		for _, name := range names {
			p.Counter("binpart_cache_misses_total", hist.Label("cache", name), float64(stats[name].Misses))
		}
		for _, name := range names {
			p.Counter("binpart_cache_evictions_total", hist.Label("cache", name), float64(stats[name].Evictions))
		}
		for _, name := range names {
			p.Gauge("binpart_cache_entries", hist.Label("cache", name), float64(stats[name].Entries))
		}
	}
	if src.DiskLatencies != nil {
		lats := src.DiskLatencies()
		for _, name := range sortedKeys(lats) {
			p.SummaryFromStart("binpart_cache_tier_latency_seconds",
				hist.Labels(hist.Label("cache", name), hist.Label("tier", "disk")), lats[name])
		}
	}
}

// withCanonicalStages adds a zero total for every pipeline stage that
// has not recorded a span yet, keeping pipeline order.
func withCanonicalStages(totals []StageTotal) []StageTotal {
	seen := make(map[string]bool, len(totals))
	for _, st := range totals {
		seen[st.Stage] = true
	}
	for stage := range stageRank {
		if !seen[stage] {
			totals = append(totals, StageTotal{Stage: stage})
		}
	}
	sortStageTotals(totals)
	return totals
}

// sortedKeys orders a string-keyed map for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
