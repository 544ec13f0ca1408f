package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"binpart/internal/bench"
	"binpart/internal/core"
	"binpart/internal/obs"
)

// testOptions mirrors the daemon's default option construction.
func testOptions(t *testing.T) core.Options {
	t.Helper()
	opts := core.DefaultOptions()
	return opts
}

func testDaemon(t *testing.T, cfg daemonConfig) *daemon {
	t.Helper()
	if cfg.Opts.Platform.Name == "" {
		cfg.Opts = testOptions(t)
	}
	if cfg.Caches == nil {
		cfg.Caches = core.NewCaches()
	}
	if cfg.Rec == nil {
		cfg.Rec = obs.NewRecorder()
	}
	if cfg.Queue == 0 {
		cfg.Queue = 64
	}
	if cfg.Inflight == 0 {
		cfg.Inflight = 8
	}
	return newDaemon(cfg)
}

// postJSON posts req and returns the response with its body read. A
// transport failure is reported with t.Error — legal from the poster
// goroutines, where t.Fatal is not — and returns a nil response, which
// callers answer by returning.
func postJSON(t *testing.T, client *http.Client, url string, req apiRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	return resp, out
}

// partitionTime is the one non-deterministic token in a report — the
// heuristic's measured wall time. Everything else must match
// byte-for-byte between the daemon and the CLI rendering.
var partitionTime = regexp.MustCompile(`partition \(([^,]+), [^)]+\)`)

func stripTiming(s string) string {
	return partitionTime.ReplaceAllString(s, "partition ($1)")
}

// TestPartitionMatchesCLI posts concurrent partition requests (8 at a
// time, mixed benchmarks, under -race) and checks every response's
// report text is byte-identical (modulo the measured partition wall
// time) to what the bparts rendering produces for the same inputs.
func TestPartitionMatchesCLI(t *testing.T) {
	d := testDaemon(t, daemonConfig{})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	benches := []string{"crc", "fir", "brev", "bcnt"}
	want := make(map[string]string)
	opts := testOptions(t)
	for _, name := range benches {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("unknown bench %s", name)
		}
		img, err := b.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.RunScoped(img, opts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = core.RenderReport(rep, false)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := benches[g%len(benches)]
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/partition", apiRequest{Bench: name, Opt: 1})
			if resp == nil {
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", name, resp.StatusCode, body)
				return
			}
			var pr partitionResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if stripTiming(pr.Report) != stripTiming(want[name]) {
				t.Errorf("%s: daemon report differs from CLI rendering:\n--- daemon ---\n%s\n--- cli ---\n%s",
					name, pr.Report, want[name])
			}
			if pr.Selected == 0 || pr.SWCycles == 0 {
				t.Errorf("%s: empty summary fields: %+v", name, pr)
			}
		}(g)
	}
	wg.Wait()
}

// TestSweepStreamMatchesCLI reassembles the ndjson sweep stream and
// checks header + point texts concatenate to exactly the bparts sweep
// body, with a correct done trailer.
func TestSweepStreamMatchesCLI(t *testing.T) {
	d := testDaemon(t, daemonConfig{})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	opts := testOptions(t)
	b, _ := bench.ByName("crc")
	img, err := b.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.AnalyzeScoped(img, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	want.WriteString(core.RenderSweepHeader("devices", opts))
	wantPoints := 0
	for _, pt := range core.DeviceSweepPoints(a, opts, nil) {
		want.WriteString(pt.Text)
		wantPoints++
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", apiRequest{Bench: "crc", Opt: 1, Sweep: "devices"})
	if resp == nil {
		return
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got strings.Builder
	done := false
	points := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var ch sweepChunk
		if err := json.Unmarshal(sc.Bytes(), &ch); err != nil {
			t.Fatalf("bad chunk %q: %v", sc.Text(), err)
		}
		switch {
		case ch.Done:
			done = true
			if ch.Points != wantPoints {
				t.Errorf("done trailer points = %d, want %d", ch.Points, wantPoints)
			}
		case ch.Header != "":
			got.WriteString(ch.Header)
		default:
			got.WriteString(ch.Text)
			points++
		}
	}
	if !done {
		t.Error("stream missing done trailer")
	}
	if got.String() != want.String() {
		t.Errorf("sweep stream differs from CLI rendering:\n--- daemon ---\n%s\n--- cli ---\n%s", got.String(), want.String())
	}
}

// TestQueueFullReturns429 pins one request in flight through the gate
// hook with queue bound 1: the next request must be refused with 429
// and a Retry-After header, not parked.
func TestQueueFullReturns429(t *testing.T) {
	d := testDaemon(t, daemonConfig{Queue: 1, Inflight: 1})
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	d.gate = func() {
		entered <- struct{}{}
		<-hold
	}
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	first := make(chan struct{})
	go func() {
		defer close(first)
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/partition", apiRequest{Bench: "crc", Opt: 1})
		if resp != nil && resp.StatusCode != http.StatusOK {
			t.Errorf("pinned request: status %d", resp.StatusCode)
		}
	}()
	<-entered

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/partition", apiRequest{Bench: "crc", Opt: 1})
	if resp != nil && resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("queue-full status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp != nil && resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	close(hold)
	<-first
}

// TestTenantRateLimit exhausts one tenant's bucket and checks the next
// request from that tenant is 429 while another tenant still passes.
func TestTenantRateLimit(t *testing.T) {
	d := testDaemon(t, daemonConfig{TenantRPS: 0.001, TenantBurst: 1})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	post := func(tenant string) int {
		body, _ := json.Marshal(apiRequest{Bench: "crc", Opt: 1})
		req, _ := http.NewRequest("POST", ts.URL+"/v1/partition", bytes.NewReader(body))
		req.Header.Set("X-Tenant", tenant)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("a"); code != http.StatusOK {
		t.Fatalf("tenant a first request: %d", code)
	}
	if code := post("a"); code != http.StatusTooManyRequests {
		t.Errorf("tenant a second request = %d, want 429", code)
	}
	if code := post("b"); code != http.StatusOK {
		t.Errorf("tenant b first request = %d, want 200 (buckets must be per-tenant)", code)
	}
}

// TestInflightCompletesAcrossShutdown holds a request in flight, starts
// a graceful Shutdown, and checks the request still completes with 200
// while new requests are refused (draining).
func TestInflightCompletesAcrossShutdown(t *testing.T) {
	d := testDaemon(t, daemonConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: d.Mux(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck
	base := "http://" + ln.Addr().String()

	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	d.gate = func() {
		entered <- struct{}{}
		<-hold
	}

	client := &http.Client{Timeout: 60 * time.Second}
	inflight := make(chan int, 1)
	go func() {
		code := 0
		if resp, _ := postJSON(t, client, base+"/v1/partition", apiRequest{Bench: "crc", Opt: 1}); resp != nil {
			code = resp.StatusCode
		}
		inflight <- code
	}()
	<-entered

	d.SetDraining()
	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { shutdownDone <- srv.Shutdown(ctx) }()

	// While draining, a fresh request is refused (the listener may
	// already be closed, or the daemon answers 503 — either refusal is
	// correct; what matters is it is not silently queued).
	time.Sleep(50 * time.Millisecond)
	if resp, err := client.Post(base+"/v1/partition", "application/json",
		strings.NewReader(`{"bench":"crc","opt":1}`)); err == nil {
		if resp.StatusCode == http.StatusOK {
			t.Error("new request served during drain")
		}
		resp.Body.Close()
	}

	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was still in flight")
	case <-time.After(100 * time.Millisecond):
	}

	close(hold)
	if code := <-inflight; code != http.StatusOK {
		t.Errorf("in-flight request across Shutdown: status %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestMetricsScrapeableMidLoad scrapes the ops /metrics surface while
// posters hammer the API, checking the bpartd_* families appear and
// every scrape succeeds mid-mutation.
func TestMetricsScrapeableMidLoad(t *testing.T) {
	rec := obs.NewRecorder()
	caches := core.NewCaches()
	d := testDaemon(t, daemonConfig{Rec: rec, Caches: caches})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	dbg, err := obs.ServeDebug("127.0.0.1:0", obs.DebugSources{
		Rec:    rec,
		Caches: caches.StatsMap,
		Extra:  d.WriteMetrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	stop := make(chan struct{})
	var posters sync.WaitGroup
	for g := 0; g < 4; g++ {
		posters.Add(1)
		go func() {
			defer posters.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/partition", apiRequest{Bench: "crc", Opt: 1})
				if resp == nil {
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("post under load: %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	// A failing scrape stops the loop with t.Error rather than t.Fatal,
	// so the posters are always stopped and joined before the servers
	// they talk to are torn down.
	url := "http://" + dbg.Addr() + "/metrics"
	deadline := time.Now().Add(2 * time.Second)
	scrapes := 0
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err != nil {
			t.Errorf("scrape: %v", err)
			break
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("scrape: status %d err %v", resp.StatusCode, err)
			break
		}
		if scrapes > 0 && !strings.Contains(string(body), "bpartd_requests_total") {
			t.Errorf("scrape missing bpartd families:\n%s", body)
			break
		}
		scrapes++
	}
	close(stop)
	posters.Wait()
	if scrapes < 2 {
		t.Errorf("only %d scrapes completed", scrapes)
	}

	// The serving spans must reconcile against the cache counters even
	// mid-life — the same invariant the daemon checks at shutdown.
	tf := &obs.TraceFile{Trace: rec.TraceID(), Spans: rec.Records(), Caches: caches.StatsMap()}
	if err := tf.Reconcile(); err != nil {
		t.Errorf("mid-load reconcile: %v", err)
	}
}

// TestMetricsFamiliesFromStart is the determinism fix behind the
// mid-load scrape test: a daemon that has served nothing yet must
// already expose every bpartd_* family, with zero-valued series for
// each known (route, code) pair and reject reason, so a scraper never
// depends on racing the first request.
func TestMetricsFamiliesFromStart(t *testing.T) {
	d := testDaemon(t, daemonConfig{})
	var b strings.Builder
	d.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		`bpartd_requests_total{route="partition",code="200"} 0`,
		`bpartd_requests_total{route="partition",code="429"} 0`,
		`bpartd_requests_total{route="sweep",code="400"} 0`,
		`bpartd_requests_total{route="sweep",code="503"} 0`,
		`bpartd_rejected_total{reason="queue"} 0`,
		`bpartd_rejected_total{reason="deadline"} 0`,
		"bpartd_queue_depth 0",
		"bpartd_inflight 0",
		`bpartd_request_latency_seconds{route="partition",quantile="0.99"} NaN`,
		`bpartd_request_latency_seconds_count{route="sweep"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fresh daemon's metrics missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE bpartd_requests_total counter"); n != 1 {
		t.Errorf("bpartd_requests_total typed %d times, want once", n)
	}
}

// TestBadRequests covers the 400 paths: no binary named, unknown bench,
// unknown sweep mode, malformed JSON.
func TestBadRequests(t *testing.T) {
	d := testDaemon(t, daemonConfig{})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	for _, tc := range []struct {
		route, body string
	}{
		{"/v1/partition", `{}`},
		{"/v1/partition", `{"bench":"no-such-bench"}`},
		{"/v1/partition", `not json`},
		{"/v1/sweep", `{"bench":"crc","sweep":"nope"}`},
	} {
		resp, err := ts.Client().Post(ts.URL+tc.route, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %q: status %d, want 400", tc.route, tc.body, resp.StatusCode)
		}
	}
}
