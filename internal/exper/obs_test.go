package exper

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"binpart/internal/core"
	"binpart/internal/obs"
)

// TestFanOutJoinsConcurrentErrors is the regression test for the
// first-error-only bug: when several jobs fail before the abort
// propagates, every failure must appear in the returned error, not just
// the one that crossed the finish line first.
func TestFanOutJoinsConcurrentErrors(t *testing.T) {
	// Two workers, two jobs, and a barrier holding both jobs in flight
	// until each has started: neither failure can win the abort race
	// before the other job is already running, so both must be reported.
	var barrier sync.WaitGroup
	barrier.Add(2)
	_, err := fanOut(2, 2, func(worker, i int) (int, error) {
		barrier.Done()
		barrier.Wait()
		return 0, fmt.Errorf("job %d exploded", i)
	})
	if err == nil {
		t.Fatal("concurrent failures produced no error")
	}
	for i := 0; i < 2; i++ {
		if want := fmt.Sprintf("job %d exploded", i); !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

// TestFanOutSkippedJobsNotJoined checks the complement: jobs abandoned
// after the abort flag was raised must not pollute the joined error, and
// a successful fan-out returns nil (not a joined slice of nils).
func TestFanOutSkippedJobsNotJoined(t *testing.T) {
	// Serial pool: job 0 fails, so jobs 1..3 are never attempted.
	_, err := fanOut(1, 4, func(worker, i int) (int, error) {
		if i == 0 {
			return 0, errors.New("first failure")
		}
		t.Errorf("job %d ran after failure in the serial path", i)
		return i, nil
	})
	if err == nil || strings.Contains(err.Error(), "skipped") {
		t.Errorf("serial error = %v", err)
	}

	out, err := fanOut(4, 8, func(worker, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatalf("clean fan-out errored: %v", err)
	}
	for i, v := range out {
		if v != i {
			t.Errorf("out[%d] = %d", i, v)
		}
	}
}

// TestTracedSweepMatchesUntraced pins the tentpole's observer contract:
// attaching a Recorder to an 8-worker sweep must not change a byte of the
// rendered table. The recorder only watches.
func TestTracedSweepMatchesUntraced(t *testing.T) {
	plain, err := NewRunner(8, core.NewCaches()).Table3()
	if err != nil {
		t.Fatal(err)
	}

	traced := NewRunner(8, core.NewCaches())
	traced.Obs = obs.NewRecorder()
	got, err := traced.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if got.Format() != plain.Format() {
		t.Errorf("tracing changed the table:\n--- untraced ---\n%s--- traced ---\n%s", plain.Format(), got.Format())
	}
	if len(traced.Obs.Spans()) == 0 {
		t.Error("traced run recorded no spans")
	}
}

// stageCounts aggregates a recorder's spans into stage -> span count.
func stageCounts(rec *obs.Recorder) map[string]int {
	out := map[string]int{}
	for _, st := range rec.StageTotals() {
		out[st.Stage] = st.Spans
	}
	return out
}

// TestParallelSpanCountsMatchSerial checks that fan-out width never
// changes what the trace claims happened: a stage executes once per
// distinct cache key no matter how many workers race (coalesced waiters
// record wait spans, not duplicate computes), so the per-stage span
// counts of an 8-worker sweep equal a serial run's.
func TestParallelSpanCountsMatchSerial(t *testing.T) {
	serial := NewRunner(1, core.NewCaches())
	serial.Obs = obs.NewRecorder()
	if _, err := serial.Table3(); err != nil {
		t.Fatal(err)
	}

	parallel := NewRunner(8, core.NewCaches())
	parallel.Obs = obs.NewRecorder()
	if _, err := parallel.Table3(); err != nil {
		t.Fatal(err)
	}

	want := stageCounts(serial.Obs)
	got := stageCounts(parallel.Obs)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("per-stage span counts differ: serial %v, parallel %v", want, got)
	}
}

// TestManifestReconciliation is the unified-accounting property test: on
// a shared-recorder 8-worker sweep, the manifest's cache section must be
// exactly the -stats snapshot, its span total must equal the recorder's,
// and per stage the span outcomes must sum to the corresponding cache's
// counters (hits = hit + wait + disk spans, misses = miss + corrupt
// spans). Run under -race this doubles as the recorder's concurrency test.
func TestManifestReconciliation(t *testing.T) {
	caches := core.NewCaches()
	r := NewRunner(8, caches)
	r.Obs = obs.NewRecorder()
	if _, err := r.Table3(); err != nil {
		t.Fatal(err)
	}

	statsMap := caches.StatsMap()
	m := obs.BuildManifest("test", nil, 8, r.Obs, statsMap)

	if fmt.Sprint(m.Caches) != fmt.Sprint(statsMap) {
		t.Errorf("manifest caches %v != stats map %v", m.Caches, statsMap)
	}
	if got := len(r.Obs.Spans()); m.Spans != got {
		t.Errorf("manifest spans = %d, recorder has %d", m.Spans, got)
	}

	for _, st := range m.Stages {
		cacheName, ok := obs.CacheForStage[st.Stage]
		if !ok {
			continue // job/evaluate stages have no cache
		}
		s := statsMap[cacheName]
		if got, want := st.Hit+st.Wait+st.Disk, s.Hits; got != want {
			t.Errorf("%s: span hits %d (hit %d + wait %d + disk %d) != cache %q hits %d",
				st.Stage, got, st.Hit, st.Wait, st.Disk, cacheName, want)
		}
		if got, want := st.Miss+st.Corrupt, s.Misses; got != want {
			t.Errorf("%s: span misses %d (miss %d + corrupt %d) != cache %q misses %d",
				st.Stage, got, st.Miss, st.Corrupt, cacheName, want)
		}
	}
}

// TestMetricsScrapeDuringSweep hammers the /metrics endpoint from four
// scraper goroutines while an 8-worker sweep runs underneath it. Every
// scrape must return 200 with well-formed exposition text (scrapes see a
// live Recorder and live cache histograms mid-mutation), and the final
// scrape must report the finished sweep's stage spans. Run under -race
// this is the lock-discipline test for the whole DebugSources surface.
func TestMetricsScrapeDuringSweep(t *testing.T) {
	caches := core.NewCaches()
	r := NewRunner(8, caches)
	r.Obs = obs.NewRecorder()

	dbg, err := obs.ServeDebug("127.0.0.1:0", obs.DebugSources{
		Rec:           r.Obs,
		Caches:        caches.StatsMap,
		DiskLatencies: caches.DiskLatencyMap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	url := "http://" + dbg.Addr() + "/metrics"

	scrape := func() string {
		resp, err := http.Get(url)
		if err != nil {
			t.Errorf("scrape: %v", err)
			return ""
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("scrape: status %d, err %v", resp.StatusCode, err)
		}
		return string(body)
	}

	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				body := scrape()
				// Structural sanity on a mid-sweep snapshot: every
				// non-comment line is "name{labels} value".
				for _, line := range strings.Split(body, "\n") {
					if line == "" || strings.HasPrefix(line, "#") {
						continue
					}
					if !strings.HasPrefix(line, "binpart_") || len(strings.Fields(line)) != 2 {
						t.Errorf("malformed exposition line %q", line)
					}
				}
			}
		}()
	}

	if _, err := r.Table3(); err != nil {
		t.Fatal(err)
	}
	close(done)
	scrapers.Wait()

	final := scrape()
	for _, want := range []string{
		`binpart_stage_spans_total{stage="sim"}`,
		`binpart_stage_latency_seconds{stage="sim",quantile="0.99"}`,
		`binpart_cache_hits_total{cache="sim"}`,
	} {
		if !strings.Contains(final, want) {
			t.Errorf("final scrape missing %q", want)
		}
	}
}
