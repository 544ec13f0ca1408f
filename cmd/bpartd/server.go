package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/fpga"
	"binpart/internal/obs"
	"binpart/internal/obs/hist"
	"binpart/internal/platform"
	"binpart/internal/sim"
)

// apiRequest is the body of both /v1/partition and /v1/sweep. Either a
// benchmark name (compiled through the compile cache) or a raw SBF
// image (base64 in JSON) names the binary; the platform/budget fields
// override the daemon's defaults when present.
type apiRequest struct {
	Bench string `json:"bench,omitempty"`
	Opt   int    `json:"opt,omitempty"`
	SBF   []byte `json:"sbf,omitempty"`

	MHz             float64 `json:"mhz,omitempty"`
	Device          string  `json:"device,omitempty"`
	Alg             string  `json:"alg,omitempty"`
	AreaBudgetGates int     `json:"area_budget_gates,omitempty"`
	Whole           bool    `json:"whole,omitempty"`
	JumpTables      *bool   `json:"jumptables,omitempty"`
	Engine          string  `json:"engine,omitempty"`
	Structure       bool    `json:"structure,omitempty"`

	// Sweep selects /v1/sweep's mode: "devices" or "clocks".
	Sweep  string    `json:"sweep,omitempty"`
	Clocks []float64 `json:"clocks,omitempty"`
}

// metricsJSON is the priced summary embedded in responses.
type metricsJSON struct {
	AppSpeedup    float64 `json:"app_speedup"`
	KernelSpeedup float64 `json:"kernel_speedup"`
	EnergySavings float64 `json:"energy_savings"`
	AreaGates     int     `json:"area_gates"`
}

func metricsFrom(m platform.Metrics) metricsJSON {
	return metricsJSON{
		AppSpeedup:    m.AppSpeedup,
		KernelSpeedup: m.KernelSpeedup,
		EnergySavings: m.EnergySavings,
		AreaGates:     m.AreaGates,
	}
}

// partitionResponse is /v1/partition's body. Report is byte-identical
// to the bparts CLI's output for the same inputs.
type partitionResponse struct {
	Report    string      `json:"report"`
	Metrics   metricsJSON `json:"metrics"`
	Selected  int         `json:"selected"`
	SWCycles  uint64      `json:"sw_cycles"`
	ExitCode  int32       `json:"exit_code"`
	ElapsedUS int64       `json:"elapsed_us"`
}

// sweepChunk is one ndjson line of /v1/sweep's stream: the header line
// carries Header, each point line carries Label/Text/Metrics, and the
// final line carries Done/Points. Concatenating Header and every Text
// reproduces the bparts sweep output byte for byte.
type sweepChunk struct {
	Header  string       `json:"header,omitempty"`
	Label   string       `json:"label,omitempty"`
	Text    string       `json:"text,omitempty"`
	Metrics *metricsJSON `json:"metrics,omitempty"`
	Done    bool         `json:"done,omitempty"`
	Points  int          `json:"points,omitempty"`
}

type daemonConfig struct {
	Opts        core.Options
	Caches      *core.Caches
	Rec         *obs.Recorder
	Queue       int
	Inflight    int
	TenantRPS   float64
	TenantBurst float64
	Deadline    time.Duration
}

// daemon is the serving core: admission, rate limits, the two API
// handlers, and the counters /metrics exposes.
type daemon struct {
	opts     core.Options
	caches   *core.Caches
	rec      *obs.Recorder
	deadline time.Duration

	// queue bounds everything admitted (waiting + executing); slots
	// bounds execution and carries worker ids for span attribution.
	queue chan struct{}
	slots chan int

	draining atomic.Bool

	rps, burst float64
	tenantMu   sync.Mutex
	tenants    map[string]*tokenBucket

	served                      atomic.Uint64
	codes                       [2]syncCounters // indexed by route
	rejectQueue, rejectRate     atomic.Uint64
	rejectDrain, rejectDeadline atomic.Uint64
	lat                         [2]hist.Histogram

	// gate, when set by a test, runs while the request holds its
	// execution slot — how the e2e tests pin a request in flight.
	gate func()
}

const (
	routePartition = 0
	routeSweep     = 1
)

var routeNames = [2]string{"partition", "sweep"}

// syncCounters tallies response codes for one route.
type syncCounters struct {
	mu sync.Mutex
	m  map[int]uint64
}

func (c *syncCounters) add(code int) {
	c.mu.Lock()
	if c.m == nil {
		c.m = map[int]uint64{}
	}
	c.m[code]++
	c.mu.Unlock()
}

func (c *syncCounters) snapshot() map[int]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]uint64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// tokenBucket is a hand-rolled token bucket (stdlib only — no
// golang.org/x/time dependency): refilled at rps up to burst, one token
// per request.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newDaemon(cfg daemonConfig) *daemon {
	if cfg.Queue < 1 {
		cfg.Queue = 1
	}
	if cfg.Inflight < 1 {
		cfg.Inflight = 1
	}
	if cfg.Inflight > cfg.Queue {
		cfg.Inflight = cfg.Queue
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	burst := cfg.TenantBurst
	if burst <= 0 {
		burst = 2 * cfg.TenantRPS
	}
	d := &daemon{
		opts:     cfg.Opts,
		caches:   cfg.Caches,
		rec:      cfg.Rec,
		deadline: cfg.Deadline,
		queue:    make(chan struct{}, cfg.Queue),
		slots:    make(chan int, cfg.Inflight),
		rps:      cfg.TenantRPS,
		burst:    burst,
		tenants:  map[string]*tokenBucket{},
	}
	for i := 0; i < cfg.Inflight; i++ {
		d.slots <- i
	}
	return d
}

// Mux is the serving handler: the two API routes plus health endpoints
// (also mounted on the ops listener, so probes work against either).
func (d *daemon) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/partition", d.handlePartition)
	mux.HandleFunc("/v1/sweep", d.handleSweep)
	mux.HandleFunc("/healthz", d.handleHealthz)
	mux.HandleFunc("/readyz", d.handleReadyz)
	return mux
}

// SetDraining flips the daemon into shutdown mode: /readyz turns 503
// and new API requests are refused while in-flight ones drain.
func (d *daemon) SetDraining() { d.draining.Store(true) }

// Served is the count of requests that completed with a 200.
func (d *daemon) Served() uint64 { return d.served.Load() }

func (d *daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (d *daemon) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if d.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// allowTenant charges the request's tenant (X-Tenant header, ""
// otherwise) one token.
func (d *daemon) allowTenant(r *http.Request) bool {
	if d.rps <= 0 {
		return true
	}
	tenant := r.Header.Get("X-Tenant")
	now := time.Now()
	d.tenantMu.Lock()
	defer d.tenantMu.Unlock()
	b := d.tenants[tenant]
	if b == nil {
		b = &tokenBucket{tokens: d.burst, last: now}
		d.tenants[tenant] = b
	}
	b.tokens = math.Min(d.burst, b.tokens+now.Sub(b.last).Seconds()*d.rps)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// admit runs the admission pipeline: draining check, tenant rate limit,
// bounded queue (429 + Retry-After when full), then an execution slot
// under the request deadline. On success the caller owns a slot and
// must call the returned release.
func (d *daemon) admit(w http.ResponseWriter, r *http.Request, route int) (release func(), worker int, ok bool) {
	if d.draining.Load() {
		d.rejectDrain.Add(1)
		d.codes[route].add(http.StatusServiceUnavailable)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return nil, 0, false
	}
	if !d.allowTenant(r) {
		d.rejectRate.Add(1)
		d.codes[route].add(http.StatusTooManyRequests)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "tenant rate limit", http.StatusTooManyRequests)
		return nil, 0, false
	}
	select {
	case d.queue <- struct{}{}:
	default:
		d.rejectQueue.Add(1)
		d.codes[route].add(http.StatusTooManyRequests)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return nil, 0, false
	}
	select {
	case wkr := <-d.slots:
		return func() { d.slots <- wkr; <-d.queue }, wkr, true
	case <-r.Context().Done():
		<-d.queue
		d.rejectDeadline.Add(1)
		d.codes[route].add(http.StatusServiceUnavailable)
		http.Error(w, "deadline waiting for a slot", http.StatusServiceUnavailable)
		return nil, 0, false
	}
}

// decode parses and validates the request body against the daemon's
// default options.
func (d *daemon) decode(r *http.Request) (*apiRequest, core.Options, error) {
	var req apiRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		return nil, core.Options{}, err
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, core.Options{}, fmt.Errorf("bad request body: %w", err)
	}
	if req.Bench == "" && len(req.SBF) == 0 {
		return nil, core.Options{}, fmt.Errorf("request needs \"bench\" or \"sbf\"")
	}

	opts := d.opts
	if req.MHz != 0 || req.Device != "" {
		mhz := opts.Platform.CPUMHz
		if req.MHz != 0 {
			mhz = req.MHz
		}
		dev := opts.Platform.Device
		if req.Device != "" {
			if dev, err = fpga.ByName(req.Device); err != nil {
				return nil, core.Options{}, err
			}
		}
		opts.Platform = platform.MIPS(mhz, dev)
	}
	switch req.Alg {
	case "":
	case "90-10":
		opts.Algorithm = core.AlgNinetyTen
	case "greedy":
		opts.Algorithm = core.AlgGreedy
	case "gclp":
		opts.Algorithm = core.AlgGCLP
	default:
		return nil, core.Options{}, fmt.Errorf("unknown algorithm %q", req.Alg)
	}
	if req.AreaBudgetGates > 0 {
		opts.AreaBudgetGates = req.AreaBudgetGates
	}
	if req.Whole {
		opts.Granularity = core.GranFunctions
	}
	if req.JumpTables != nil {
		opts.RecoverJumpTables = *req.JumpTables
	}
	if req.Engine != "" {
		eng, err := sim.ParseEngine(req.Engine)
		if err != nil {
			return nil, core.Options{}, err
		}
		opts.Sim.Engine = eng
	}
	return &req, opts, nil
}

// image resolves the request's binary: a raw SBF image, or a benchmark
// compiled through the compile cache with a span recording the outcome
// — the same discipline as the experiment runner, which is what keeps
// the daemon's trace reconciling against its cache counters.
func (d *daemon) image(req *apiRequest, sc *obs.Scope) (*binimg.Image, error) {
	if len(req.SBF) > 0 {
		return binimg.Unmarshal(req.SBF)
	}
	b, ok := bench.ByName(req.Bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", req.Bench)
	}
	sp := sc.Start(obs.StageCompile)
	defer sp.End()
	if d.caches != nil && d.caches.Compile != nil {
		img, out, err := d.caches.Compile.GetOrComputeOutcome(
			bench.CompileKey(b.Source, req.Opt),
			func() (*binimg.Image, error) { return b.Compile(req.Opt) })
		sp.SetOutcome(out)
		return img, err
	}
	return b.Compile(req.Opt)
}

// jobName labels the request's spans.
func (req *apiRequest) jobName() string {
	if req.Bench != "" {
		return req.Bench
	}
	return "sbf"
}

func (d *daemon) handlePartition(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	release, worker, ok := d.admit(w, r, routePartition)
	if !ok {
		return
	}
	defer release()
	if d.gate != nil {
		d.gate()
	}
	ctx, cancel := context.WithTimeout(r.Context(), d.deadline)
	defer cancel()

	req, opts, err := d.decode(r)
	if err != nil {
		d.codes[routePartition].add(http.StatusBadRequest)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if ctx.Err() != nil {
		d.codes[routePartition].add(http.StatusServiceUnavailable)
		http.Error(w, "deadline", http.StatusServiceUnavailable)
		return
	}
	sc := d.rec.Scope(req.jobName(), req.Opt, worker)
	sp := sc.Start(obs.StageJob)
	rep, err := func() (*core.Report, error) {
		img, err := d.image(req, sc)
		if err != nil {
			return nil, err
		}
		return core.RunScoped(img, opts, d.caches, sc)
	}()
	sp.End()
	if err != nil {
		d.codes[routePartition].add(http.StatusBadRequest)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	resp := partitionResponse{
		Report:    core.RenderReport(rep, req.Structure),
		Metrics:   metricsFrom(rep.Metrics),
		Selected:  len(rep.SelectedRegions()),
		SWCycles:  rep.SWCycles,
		ExitCode:  rep.ExitCode,
		ElapsedUS: time.Since(start).Microseconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // client went away
	d.codes[routePartition].add(http.StatusOK)
	d.served.Add(1)
	d.lat[routePartition].Record(time.Since(start))
}

func (d *daemon) handleSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	release, worker, ok := d.admit(w, r, routeSweep)
	if !ok {
		return
	}
	defer release()
	if d.gate != nil {
		d.gate()
	}
	ctx, cancel := context.WithTimeout(r.Context(), d.deadline)
	defer cancel()

	req, opts, err := d.decode(r)
	if err != nil {
		d.codes[routeSweep].add(http.StatusBadRequest)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Sweep != "devices" && req.Sweep != "clocks" {
		d.codes[routeSweep].add(http.StatusBadRequest)
		http.Error(w, fmt.Sprintf("unknown sweep mode %q (want devices or clocks)", req.Sweep), http.StatusBadRequest)
		return
	}
	if req.Sweep == "clocks" && len(req.Clocks) == 0 {
		req.Clocks = []float64{40, 100, 200, 400}
	}

	sc := d.rec.Scope(req.jobName(), req.Opt, worker)
	sp := sc.Start(obs.StageJob)
	a, err := func() (*core.Analysis, error) {
		img, err := d.image(req, sc)
		if err != nil {
			return nil, err
		}
		return core.AnalyzeScoped(img, opts, d.caches, sc)
	}()
	if err != nil {
		sp.End()
		d.codes[routeSweep].add(http.StatusBadRequest)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Stream: header chunk, one chunk per priced point, done trailer.
	// Each chunk is flushed so clients see points as they are priced.
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	enc.Encode(sweepChunk{Header: core.RenderSweepHeader(req.Sweep, opts)}) //nolint:errcheck // stream errors surface on later writes
	flush()
	var pts []core.SweepPoint
	if req.Sweep == "devices" {
		pts = core.DeviceSweepPoints(a, opts, sc)
	} else {
		pts = core.ClockSweepPoints(a, opts, req.Clocks, sc)
	}
	sp.End()
	n := 0
	for _, pt := range pts {
		if ctx.Err() != nil {
			return // client gone or out of time: stop streaming
		}
		m := metricsFrom(pt.Rep.Metrics)
		if err := enc.Encode(sweepChunk{Label: pt.Label, Text: pt.Text, Metrics: &m}); err != nil {
			return
		}
		flush()
		n++
	}
	enc.Encode(sweepChunk{Done: true, Points: n}) //nolint:errcheck // trailer is best-effort
	flush()
	d.codes[routeSweep].add(http.StatusOK)
	d.served.Add(1)
	d.lat[routeSweep].Record(time.Since(start))
}

// knownCodes are the response codes the API handlers answer with. Each
// (route, code) pair is exposed from the first scrape, zero until it
// happens, so a scraper can take rates from process start.
var knownCodes = []int{
	http.StatusOK,
	http.StatusBadRequest,
	http.StatusTooManyRequests,
	http.StatusServiceUnavailable,
}

// WriteMetrics appends the daemon's serving families to the shared
// /metrics exposition (wired in as obs.DebugSources.Extra). Every
// family is present from process start.
func (d *daemon) WriteMetrics(w io.Writer) {
	p := hist.NewProm(w)
	for route, name := range routeNames {
		counts := d.codes[route].snapshot()
		codes := append([]int(nil), knownCodes...)
		for code := range counts {
			if !slices.Contains(codes, code) {
				codes = append(codes, code)
			}
		}
		slices.Sort(codes)
		for _, code := range codes {
			p.Counter("bpartd_requests_total",
				hist.Labels(hist.Label("route", name), hist.Label("code", strconv.Itoa(code))), float64(counts[code]))
		}
	}
	p.Counter("bpartd_rejected_total", hist.Label("reason", "queue"), float64(d.rejectQueue.Load()))
	p.Counter("bpartd_rejected_total", hist.Label("reason", "rate"), float64(d.rejectRate.Load()))
	p.Counter("bpartd_rejected_total", hist.Label("reason", "draining"), float64(d.rejectDrain.Load()))
	p.Counter("bpartd_rejected_total", hist.Label("reason", "deadline"), float64(d.rejectDeadline.Load()))
	p.Gauge("bpartd_queue_depth", "", float64(len(d.queue)))
	p.Gauge("bpartd_inflight", "", float64(cap(d.slots)-len(d.slots)))
	for route, name := range routeNames {
		p.SummaryFromStart("bpartd_request_latency_seconds", hist.Label("route", name), d.lat[route].Snapshot())
	}
}
