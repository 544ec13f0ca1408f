package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/fpga"
	"binpart/internal/mcc"
	"binpart/internal/platform"
)

const (
	// warmSeqLen is the length of the serve-warm request sequence the
	// closed loop cycles through.
	warmSeqLen = 4096
	// mixedRate is serve-mixed's offered load in requests per second,
	// fixed well below serve-warm's capacity (see README.md).
	mixedRate = 600
	// warmRSSAt is the serve-warm request count after which the daemon's
	// peak RSS is read: the daemon's memory grows with requests served,
	// so a fixed count keeps the reading independent of throughput.
	warmRSSAt = 40000
	// mixedDeadline is the latency past which a serve-mixed request
	// counts as failed.
	mixedDeadline = 2 * time.Second
	// replayOps bounds the traced run's in-process replay: the first
	// replayOps requests of the traced phase's sequence.
	replayOps = 1024
)

// outcome is one request's result as the client saw it.
type outcome struct {
	seq     int           // index into the request sequence
	ok      bool          // 200 with a well-formed body
	digest  uint64        // of the masked report, or of the reassembled sweep
	lat     time.Duration // from due (open loop) or send (closed loop) to completion
	service time.Duration // from send to completion
	late    time.Duration // how late the generator sent it (open loop)
	at      time.Duration // completion, since the phase started
}

// request is one sequence entry ready to send.
type request struct {
	kind int
	path string
	body []byte
	req  apiRequest
	img  *binimg.Image // the uploaded program, for uploads
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// send posts one request and digests the response the way the oracle
// digests the in-process rendering.
func send(hc *http.Client, base string, r *request, l *spanLog) (ok bool, dg uint64) {
	root := l.begin("http.request", 0)
	defer l.end(root)
	resp, err := hc.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return false, 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, 0
	}
	sp := l.begin("json.Decode", root)
	defer l.end(sp)
	if r.kind == opSweep {
		return decodeSweep(body)
	}
	var pr struct {
		Report string `json:"report"`
	}
	if err := json.Unmarshal(body, &pr); err != nil || pr.Report == "" {
		return false, 0
	}
	return true, digest(maskReport(pr.Report))
}

// decodeSweep reassembles a /v1/sweep ndjson stream — header line, one
// line per point, done trailer — into the sweep text.
func decodeSweep(body []byte) (bool, uint64) {
	var text bytes.Buffer
	points := 0
	done := false
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var c struct {
			Header string `json:"header"`
			Text   string `json:"text"`
			Done   bool   `json:"done"`
			Points int    `json:"points"`
		}
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			return false, 0
		}
		switch {
		case c.Done:
			done = c.Points == points
		case c.Header != "":
			text.WriteString(c.Header)
		default:
			text.WriteString(c.Text)
			points++
		}
	}
	if !done || sc.Err() != nil {
		return false, 0
	}
	return true, digest(text.String())
}

// closedServe runs workers clients in a closed loop for dur, cycling
// through reqs. A non-nil onCount sees the running completion count
// after every request.
func closedServe(hc *http.Client, base string, reqs []*request, workers int, dur time.Duration, tr *tracer, onCount func(int64)) ([]outcome, time.Duration) {
	outs := make([][]outcome, workers)
	logs := make([]*spanLog, workers)
	for w := range logs {
		logs[w] = tr.log()
	}
	var next, completed atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var last atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1)-1) % len(reqs)
				t0 := time.Now()
				ok, dg := send(hc, base, reqs[k], logs[w])
				d := time.Since(t0)
				at := time.Since(start)
				outs[w] = append(outs[w], outcome{seq: k, ok: ok, digest: dg, lat: d, service: d, at: at})
				last.Store(int64(at))
				if n := completed.Add(1); onCount != nil {
					onCount(n)
				}
			}
		}(w)
	}
	wg.Wait()
	var all []outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	return all, time.Duration(last.Load())
}

// openServe sends reqs[lo:hi] on a fixed schedule of mixedRate per
// second over workers connections, timing each from when it was due.
func openServe(hc *http.Client, base string, reqs []*request, lo, hi, workers int, tr *tracer) ([]outcome, time.Duration) {
	type item struct {
		seq  int
		due  time.Time
		late time.Duration
	}
	interval := time.Second / mixedRate
	// Sized to the number of sends, so the generator never blocks.
	ch := make(chan item, hi-lo)
	start := time.Now()
	go func() {
		for k := lo; k < hi; k++ {
			due := start.Add(time.Duration(k-lo) * interval)
			sleepUntil(due)
			ch <- item{seq: k, due: due, late: time.Since(due)}
		}
		close(ch)
	}()
	outs := make([][]outcome, workers)
	logs := make([]*spanLog, workers)
	for w := range logs {
		logs[w] = tr.log()
	}
	var last atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := range ch {
				t0 := time.Now()
				ok, dg := send(hc, base, reqs[it.seq], logs[w])
				t1 := time.Now()
				lat := t1.Sub(it.due)
				if lat > mixedDeadline {
					ok = false
				}
				outs[w] = append(outs[w], outcome{seq: it.seq, ok: ok, digest: dg, lat: lat, service: t1.Sub(t0), late: it.late, at: t1.Sub(start)})
				last.Store(int64(t1.Sub(start)))
			}
		}(w)
	}
	wg.Wait()
	var all []outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	return all, time.Duration(last.Load())
}

// sleepUntil blocks the calling thread until t. It calls nanosleep
// directly: Go's timers fire on the network poller's millisecond ticks,
// which would send every open-loop request up to a millisecond late.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps the rest
	}
}

// oracle computes the in-process answer to any request of a run: the
// daemon's report must equal core.RenderReport(core.Evaluate(...)) on an
// analysis built here, and a sweep the in-process sweep text.
type oracle struct {
	analyses map[string]*core.Analysis // by bench/opt
}

func analysisKey(b string, opt int) string { return fmt.Sprintf("%s/%d", b, opt) }

// buildSuiteAnalyses analyzes the 80 suite binaries in-process.
func buildSuiteAnalyses(workers int) (*oracle, error) {
	suite := bench.All()
	as := make([]*core.Analysis, 4*len(suite))
	errs := make([]error, len(as))
	forEach(len(as), workers, func(i int) {
		img, err := suite[i/4].Compile(i % 4)
		if err == nil {
			as[i], err = core.Analyze(img, core.DefaultOptions())
		}
		errs[i] = err
	})
	o := &oracle{analyses: map[string]*core.Analysis{}}
	for i, a := range as {
		if errs[i] != nil {
			return nil, errs[i]
		}
		o.analyses[analysisKey(suite[i/4].Name, i%4)] = a
	}
	return o, nil
}

// platformOf resolves a request's platform and algorithm as bpartd does.
func platformOf(req apiRequest) (platform.Platform, core.Algorithm, error) {
	dev, err := fpga.ByName(req.Device)
	if err != nil {
		return platform.Platform{}, 0, err
	}
	alg := core.AlgNinetyTen
	switch req.Alg {
	case "greedy":
		alg = core.AlgGreedy
	case "gclp":
		alg = core.AlgGCLP
	}
	return platform.MIPS(req.MHz, dev), alg, nil
}

// expect returns the digest the daemon's answer to r must have.
func (o *oracle) expect(r *request, a *core.Analysis) (uint64, error) {
	p, alg, err := platformOf(r.req)
	if err != nil {
		return 0, err
	}
	if r.kind == opSweep {
		opts := core.DefaultOptions()
		opts.Platform, opts.Algorithm = p, alg
		text := core.RenderSweepHeader(r.req.Sweep, opts)
		var pts []core.SweepPoint
		if r.req.Sweep == "devices" {
			pts = core.DeviceSweepPoints(a, opts, nil)
		} else {
			pts = core.ClockSweepPoints(a, opts, r.req.Clocks, nil)
		}
		for _, pt := range pts {
			text += pt.Text
		}
		return digest(text), nil
	}
	return digest(maskReport(core.RenderReport(core.Evaluate(a, p, r.req.AreaBudgetGates, alg), false))), nil
}

// analysisFor returns the analysis a request's answer derives from: a
// suite analysis, or for an upload a fresh in-process analysis of the
// uploaded image, first held to the reference simulator.
func (o *oracle) analysisFor(r *request) (*core.Analysis, error) {
	if r.kind != opUpload {
		a := o.analyses[analysisKey(r.req.Bench, r.req.Opt)]
		if a == nil {
			return nil, fmt.Errorf("no analysis for %s -O%d", r.req.Bench, r.req.Opt)
		}
		return a, nil
	}
	a, err := core.Analyze(r.img, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return a, checkReference("upload", r.img, a.ExitCode, a.SWCycles)
}

// verify compares every successful outcome with the oracle and returns
// the number of wrong answers; every sequence index is checked once.
func (o *oracle) verify(reqs []*request, outs []outcome) int64 {
	want := map[int]uint64{}
	bad := map[int]bool{}
	var wrong int64
	for _, oc := range outs {
		if !oc.ok {
			continue
		}
		w, seen := want[oc.seq]
		if !seen && !bad[oc.seq] {
			a, err := o.analysisFor(reqs[oc.seq])
			if err == nil {
				w, err = o.expect(reqs[oc.seq], a)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", oc.seq, err)
				bad[oc.seq] = true
			} else {
				want[oc.seq] = w
			}
		}
		if bad[oc.seq] || oc.digest != want[oc.seq] {
			wrong++
		}
	}
	return wrong
}

// primeRequests are the 80 (bench, opt) analyses every daemon computes
// during set-up, on the daemon's default platform.
func primeRequests() []*request {
	var out []*request
	for _, b := range bench.All() {
		for opt := 0; opt <= 3; opt++ {
			req := apiRequest{Bench: b.Name, Opt: opt, MHz: 200, Device: "XC2V2000", Alg: "90-10"}
			out = append(out, &request{kind: opPartition, path: "/v1/partition", body: marshalBody(req), req: req})
		}
	}
	return out
}

// prime sends every priming request once over workers connections.
func prime(hc *http.Client, base string, reqs []*request, workers int) []outcome {
	outs := make([]outcome, len(reqs))
	forEach(len(reqs), workers, func(k int) {
		t0 := time.Now()
		ok, dg := send(hc, base, reqs[k], nil)
		d := time.Since(t0)
		outs[k] = outcome{seq: k, ok: ok, digest: dg, lat: d, service: d}
	})
	return outs
}

// serveRequests builds the workload's request sequence: the warm
// sequence, or the serve-mixed schedule with its uploads compiled.
func serveRequests(cfg runConfig) ([]*request, error) {
	if cfg.workload == "serve-warm" {
		var out []*request
		for _, req := range warmRequests(cfg.seed, warmSeqLen) {
			out = append(out, &request{kind: opPartition, path: "/v1/partition", body: marshalBody(req), req: req})
		}
		return out, nil
	}
	ops, uploads := mixedSchedule(cfg.seed, int(cfg.seconds*mixedRate))
	out := make([]*request, len(ops))
	for i, op := range ops {
		r := &request{kind: op.Kind, path: "/v1/partition", req: op.Req}
		if op.Kind == opSweep {
			r.path = "/v1/sweep"
		}
		if op.Kind == opUpload {
			j := uploads[op.Upload]
			img, err := mcc.Compile(j.Source, mcc.Options{OptLevel: j.Opt})
			if err != nil {
				return nil, fmt.Errorf("%s -O%d: %w", j.Name, j.Opt, err)
			}
			sbf, err := img.Marshal()
			if err != nil {
				return nil, err
			}
			r.img = img
			r.req.SBF = sbf
		}
		r.body = marshalBody(r.req)
		out[i] = r
	}
	return out, nil
}

func runServe(cfg runConfig) (*measure, error) {
	m := newMeasure()
	mixed := cfg.workload == "serve-mixed"
	reqs, err := serveRequests(cfg)
	if err != nil {
		return nil, err
	}
	primes := primeRequests()
	hc := newHTTPClient(cfg.workers)
	defer hc.CloseIdleConnections()
	dir := filepath.Join(cfg.root, ".bench_build", "run", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(dir)

	// Set-up: start a fresh daemon, wait for /readyz, and analyze the 80
	// suite binaries through it. The last daemon serves the timed run.
	rounds := setupRounds
	if cfg.traced {
		rounds = 1
	}
	var d *daemon
	var setups, primeLat []time.Duration
	var primeOuts []outcome
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		d, err = startDaemon(cfg.bpartd, dir)
		if err != nil {
			return nil, err
		}
		outs := prime(hc, d.api, primes, cfg.workers)
		setups = append(setups, time.Since(t0))
		for _, o := range outs {
			primeLat = append(primeLat, o.lat)
		}
		primeOuts = append(primeOuts, outs...)
		if r < rounds-1 {
			hc.CloseIdleConnections()
			if err := d.stop(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				m.failed++
			}
		}
	}
	defer d.kill()
	m.set("setup_s", median(setups).Seconds())
	m.set("upload_p50_ms", ms(median(primeLat)))

	dur := time.Duration(cfg.seconds * float64(time.Second))
	// On serve-warm, peak_rss_mb is read after warmRSSAt requests (or at
	// the end, if fewer complete); serve-mixed sends a fixed count.
	var rss float64
	var rssErr error
	readRSS := func(n int64) {
		if n == warmRSSAt {
			rss, rssErr = peakRSSMB(d.pid())
		}
	}
	phase := func(lo, hi int, dur time.Duration, tr *tracer) ([]outcome, time.Duration) {
		if mixed {
			return openServe(hc, d.api, reqs, lo, hi, cfg.workers, tr)
		}
		return closedServe(hc, d.api, reqs, cfg.workers, dur, tr, readRSS)
	}

	var outs, touts []outcome
	var elapsed time.Duration
	var before, after map[string]float64
	var tr *tracer
	var depthMax float64
	ticks := readCPUTicks()
	if !cfg.traced {
		outs, elapsed = phase(0, len(reqs), dur, nil)
	} else {
		// Untraced, then traced with /metrics scraped around it and
		// sampled during it: half the run each.
		outs, _ = phase(0, len(reqs)/2, dur/2, nil)
		tr = newTracer(fmt.Sprintf("%s-seed%d-pid%d", cfg.workload, cfg.seed, os.Getpid()))
		if before, err = d.scrape(hc); err != nil {
			return nil, err
		}
		stopSampler := sampleQueueDepth(d, hc)
		touts, _ = phase(len(reqs)/2, len(reqs), dur/2, tr)
		depthMax = stopSampler()
		if after, err = d.scrape(hc); err != nil {
			return nil, err
		}
	}
	reportSteal(m, ticks)
	if rss == 0 && rssErr == nil {
		rss, rssErr = peakRSSMB(d.pid())
	}
	if rssErr != nil {
		return nil, rssErr
	}
	hc.CloseIdleConnections()
	if err := d.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		m.failed++
	}

	// Oracles, outside the timed region.
	o, err := buildSuiteAnalyses(cfg.workers)
	if err != nil {
		return nil, err
	}
	countOutcomes(m, o, primes, primeOuts)
	countOutcomes(m, o, reqs, outs)
	countOutcomes(m, o, reqs, touts)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests, %d latency samples, %d failed\n",
		cfg.workload, len(outs)+len(touts), len(outs), m.failed)

	if !cfg.traced {
		samples := make([]sample, len(outs))
		for i, oc := range outs {
			samples[i] = sample{at: oc.at, lat: oc.lat, ok: oc.ok, cold: reqs[oc.seq].kind == opUpload}
		}
		if err := summarize(m, samples, elapsed, mixed); err != nil {
			return nil, err
		}
		m.set("peak_rss_mb", rss)
		return m, nil
	}

	replayed, err := replay(o, reqs[len(reqs)/2:], tr)
	if err != nil {
		return nil, err
	}
	spans := tr.all()
	if err := writeJSONL(traceFile(cfg.root, cfg.workload, cfg.seed), spans); err != nil {
		return nil, err
	}
	lt := fold(spans)
	setLayerMetrics(m, lt, replayed.counts, replayed.steps)
	m.set("mcc.compile_ms", 0) // uploads arrive compiled; no request compiles
	m.set("mcc.text_words", 0)

	var untraced, traced []time.Duration
	for _, oc := range outs {
		untraced = append(untraced, oc.service)
	}
	for _, oc := range touts {
		traced = append(traced, oc.service)
	}
	delta := func(key string) float64 { return after[key] - before[key] }
	serverMean := delta(`bpartd_request_latency_seconds_sum{route="partition"}`) /
		delta(`bpartd_request_latency_seconds_count{route="partition"}`) * 1e6
	var clientPartition []time.Duration
	for _, oc := range touts {
		if reqs[oc.seq].kind != opSweep {
			clientPartition = append(clientPartition, oc.service)
		}
	}
	httpOverhead := us(mean(clientPartition)) - serverMean
	m.set("bpartd.server_mean_us", serverMean)
	m.set("bpartd.http_overhead_us", httpOverhead)
	m.set("bpartd.json_decode_us", us(lt["json.Unmarshal"].meanSelf()))
	m.set("bpartd.json_encode_us", us(lt["json.Marshal"].meanSelf()))
	for _, st := range []string{"analyze", "sim", "lift", "synth", "evaluate"} {
		m.set("bpartd.stage_wall_ms."+st, 1e3*delta(`binpart_stage_wall_seconds_total{stage="`+st+`"}`))
	}
	m.set("bpartd.queue_depth_max", depthMax)
	m.set("bpartd.rejected", sumPrefix(after, "bpartd_rejected_total")-sumPrefix(before, "bpartd_rejected_total"))
	hits := delta(`binpart_cache_hits_total{cache="analysis"}`)
	misses := delta(`binpart_cache_misses_total{cache="analysis"}`)
	m.set("cache.analysis_hit_share", hits/(hits+misses))
	m.set("cache.analysis_misses", misses)
	if mixed {
		var late []time.Duration
		for _, oc := range touts {
			late = append(late, oc.late)
		}
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		m.set("loadgen.late_p99_ms", ms(percentile(late, 0.99)))
	}
	m.set("loadgen.samples", float64(len(outs)))
	m.set("trace.spans", float64(len(spans)))
	m.set("trace.overhead_share", float64(mean(traced)-mean(untraced))/float64(mean(untraced)))
	// A replayed request's own time excludes the layer-by-layer replay of
	// an upload's analysis, which its core.Analyze call repeats.
	replayPerRequest := (lt["request"].Total - total(lt, "layers")) / time.Duration(lt["request"].Count)
	m.set("trace.coverage", (us(replayPerRequest)+httpOverhead)/us(mean(untraced)))
	return m, nil
}

// countOutcomes adds a phase's requests to the attempted count and its
// errors, refusals, missed deadlines and wrong answers to the failed
// count.
func countOutcomes(m *measure, o *oracle, reqs []*request, outs []outcome) {
	m.attempted += int64(len(outs))
	for _, oc := range outs {
		if !oc.ok {
			m.failed++
		}
	}
	m.failed += o.verify(reqs, outs)
}

// sampleQueueDepth scrapes bpartd_queue_depth every second until the
// returned stop function is called; stop returns the largest depth seen.
func sampleQueueDepth(d *daemon, hc *http.Client) (stop func() float64) {
	quit := make(chan struct{})
	res := make(chan float64)
	go func() {
		maxDepth := 0.0
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-quit:
				res <- maxDepth
				return
			case <-t.C:
				if s, err := d.scrape(hc); err == nil && s["bpartd_queue_depth"] > maxDepth {
					maxDepth = s["bpartd_queue_depth"]
				}
			}
		}
	}()
	return func() float64 { close(quit); return <-res }
}

// replayStats is what the in-process replay counted.
type replayStats struct {
	counts layerCounts
	steps  uint64
}

// replay runs the first replayOps requests of seq in-process, each under
// a "request" span: decode the body, analyze (uploads: the layers one by
// one, then core.Analyze), evaluate, render, encode the response — what
// the daemon does minus HTTP and admission.
func replay(o *oracle, seq []*request, tr *tracer) (replayStats, error) {
	var st replayStats
	if len(seq) > replayOps {
		seq = seq[:replayOps]
	}
	l := tr.log()
	for _, r := range seq {
		root := l.begin("request", 0)
		sp := l.begin("json.Unmarshal", root)
		var req apiRequest
		err := json.Unmarshal(r.body, &req)
		l.end(sp)
		if err != nil {
			return st, err
		}
		p, alg, err := platformOf(req)
		if err != nil {
			return st, err
		}
		a := o.analyses[analysisKey(req.Bench, req.Opt)]
		if r.kind == opUpload {
			sp = l.begin("binimg.Unmarshal", root)
			img, err := binimg.Unmarshal(req.SBF)
			l.end(sp)
			if err != nil {
				return st, err
			}
			opts := core.DefaultOptions()
			var c layerCounts
			sp = l.begin("layers", root)
			err = splitLayers(img, opts, l, sp, &c)
			l.end(sp)
			if err != nil {
				return st, err
			}
			st.counts.add(c)
			st.steps += c.steps
			sp = l.begin("core.Analyze", root)
			a, err = core.Analyze(img, opts)
			l.end(sp)
			if err != nil {
				return st, err
			}
		}
		var resp any
		if r.kind == opSweep {
			type chunk struct {
				Label string `json:"label"`
				Text  string `json:"text"`
			}
			opts := core.DefaultOptions()
			opts.Platform, opts.Algorithm = p, alg
			sp = l.begin("core.SweepPoints", root)
			var pts []core.SweepPoint
			if req.Sweep == "devices" {
				pts = core.DeviceSweepPoints(a, opts, nil)
			} else {
				pts = core.ClockSweepPoints(a, opts, req.Clocks, nil)
			}
			l.end(sp)
			chunks := make([]chunk, len(pts))
			for i, pt := range pts {
				chunks[i] = chunk{pt.Label, pt.Text}
			}
			resp = chunks
		} else {
			sp = l.begin("core.Evaluate", root)
			rep := core.Evaluate(a, p, req.AreaBudgetGates, alg)
			l.end(sp)
			sp = l.begin("core.RenderReport", root)
			text := core.RenderReport(rep, false)
			l.end(sp)
			st.counts.selected += len(rep.SelectedRegions())
			st.counts.renderBytes += len(maskReport(text))
			resp = struct {
				Report   string `json:"report"`
				Selected int    `json:"selected"`
				SWCycles uint64 `json:"sw_cycles"`
				ExitCode int32  `json:"exit_code"`
			}{text, len(rep.SelectedRegions()), rep.SWCycles, rep.ExitCode}
		}
		sp = l.begin("json.Marshal", root)
		_, err = json.Marshal(resp)
		l.end(sp)
		l.end(root)
		if err != nil {
			return st, err
		}
	}
	return st, nil
}
