package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"binpart/internal/cache"
	"binpart/internal/obs/hist"
)

// TestNilDisabledPath checks the whole disabled surface: a nil recorder
// hands out nil scopes, nil scopes start inert spans, and every method is
// a safe no-op.
func TestNilDisabledPath(t *testing.T) {
	var rec *Recorder
	sc := rec.Scope("bench", 2, 1)
	if sc != nil {
		t.Fatalf("nil recorder returned a live scope")
	}
	sp := sc.Start(StageSim)
	sp.SetOutcome(cache.OutcomeHit)
	sp.SetInstrs(1)
	sp.SetRegions(2)
	sp.SetSelected(3)
	sp.End()

	if got := rec.Spans(); got != nil {
		t.Errorf("nil recorder spans = %v", got)
	}
	if got := rec.StageTotals(); got != nil {
		t.Errorf("nil recorder totals = %v", got)
	}
	if err := rec.Flush(); err != nil {
		t.Errorf("nil recorder flush = %v", err)
	}
	rec.StreamTo(&bytes.Buffer{})
}

// TestDisabledPathAllocs pins the contract the Stage* benchmark gates
// depend on: with recording off, the full span protocol allocates nothing.
func TestDisabledPathAllocs(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		sc := rec.Scope("bench", 2, 1)
		sp := sc.Start(StageSim)
		sp.SetOutcome(cache.OutcomeMiss)
		sp.SetInstrs(42)
		sp.SetRegions(7)
		sp.SetSelected(1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.0f per run, want 0", allocs)
	}
}

// TestSpanRecordingAndAggregation drives a recorder through a synthetic
// two-benchmark run and checks the per-stage totals, ordering, and the
// rendered table.
func TestSpanRecordingAndAggregation(t *testing.T) {
	rec := NewRecorder()
	a := rec.Scope("fir", 0, 0)
	b := rec.Scope("brev", 2, 1)

	sp := a.Start(StageSim)
	sp.SetOutcome(cache.OutcomeMiss)
	sp.SetInstrs(1000)
	sp.End()

	sp = b.Start(StageSim)
	sp.SetOutcome(cache.OutcomeHit)
	sp.SetInstrs(500)
	sp.End()

	sp = a.Start(StageLift)
	sp.SetOutcome(cache.OutcomeDisk)
	sp.SetRegions(3)
	sp.End()

	sp = b.Start(StageEvaluate)
	sp.SetSelected(2)
	sp.End()

	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[1].Bench != "brev" || spans[1].Level != 2 || spans[1].Worker != 1 {
		t.Errorf("attribution lost: %+v", spans[1])
	}

	totals := rec.StageTotals()
	order := make([]string, len(totals))
	byStage := map[string]StageTotal{}
	for i, st := range totals {
		order[i] = st.Stage
		byStage[st.Stage] = st
	}
	want := []string{StageSim, StageLift, StageEvaluate}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("stage order = %v, want %v", order, want)
	}
	sim := byStage[StageSim]
	if sim.Spans != 2 || sim.Hit != 1 || sim.Miss != 1 || sim.Instrs != 1500 {
		t.Errorf("sim totals = %+v", sim)
	}
	if lift := byStage[StageLift]; lift.Disk != 1 || lift.Regions != 3 {
		t.Errorf("lift totals = %+v", lift)
	}
	if ev := byStage[StageEvaluate]; ev.Selected != 2 {
		t.Errorf("evaluate totals = %+v", ev)
	}

	table := rec.Table()
	for _, want := range []string{"sim", "lift", "evaluate", "1500 instructions simulated", "3 regions recovered", "2 selected"} {
		if !bytes.Contains([]byte(table), []byte(want)) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestStreamJSONL checks the -trace surface: a meta header line carrying
// the recorder's trace ID, then one JSON object per span, in emission
// order, with the documented field names.
func TestStreamJSONL(t *testing.T) {
	rec := NewRecorder()
	if len(rec.TraceID()) != 32 {
		t.Fatalf("trace ID %q, want 128 bits of hex", rec.TraceID())
	}
	var buf bytes.Buffer
	rec.StreamTo(&buf)

	sc := rec.Scope("fir", 1, 3)
	for i := 0; i < 5; i++ {
		sp := sc.Start(StageSynth)
		sp.SetOutcome(cache.OutcomeMiss)
		sp.End()
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	scanner := bufio.NewScanner(&buf)
	n, metas := 0, 0
	for scanner.Scan() {
		var line struct {
			Meta   string `json:"meta"`
			Stage  string `json:"stage"`
			Bench  string `json:"bench"`
			Level  int    `json:"opt"`
			Worker int    `json:"worker"`
			Trace  string `json:"trace"`
			Cache  string `json:"cache"`
			DurUS  *int64 `json:"dur_us"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &line); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if line.Meta != "" {
			if metas != 0 || n != 0 {
				t.Errorf("meta line %q after %d spans, want exactly one header", line.Meta, n)
			}
			if line.Meta != MetaTrace || line.Trace != rec.TraceID() {
				t.Errorf("bad stream header: %+v", line)
			}
			metas++
			continue
		}
		if line.Stage != StageSynth || line.Bench != "fir" || line.Level != 1 || line.Worker != 3 {
			t.Errorf("line %d attribution: %+v", n, line)
		}
		if line.Cache != "miss" {
			t.Errorf("line %d cache = %q, want miss", n, line.Cache)
		}
		if line.DurUS == nil {
			t.Errorf("line %d missing dur_us", n)
		}
		n++
	}
	if metas != 1 || n != 5 {
		t.Errorf("streamed %d meta + %d span lines, want 1 + 5", metas, n)
	}
}

// TestManifestRoundTrip builds a manifest from a live recorder and cache
// snapshot, writes it, reads it back, and checks the reconciliation
// surface: span totals and cache counters survive the round trip exactly.
func TestManifestRoundTrip(t *testing.T) {
	rec := NewRecorder()
	sc := rec.Scope("fir", 0, 0)
	sp := sc.Start(StageSim)
	sp.SetOutcome(cache.OutcomeMiss)
	sp.SetInstrs(123)
	sp.End()
	sp = sc.Start(StageLift)
	sp.SetOutcome(cache.OutcomeHit)
	sp.End()

	caches := map[string]cache.Stats{
		"sim":  {Hits: 0, Misses: 1},
		"lift": {Hits: 1, Misses: 0},
	}
	m := BuildManifest("test", []string{"-table", "1"}, 4, rec, caches)
	if m.Spans != 2 {
		t.Errorf("manifest spans = %d, want 2", m.Spans)
	}
	if m.Workers != 4 || m.Tool != "test" {
		t.Errorf("manifest header = %+v", m)
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spans != m.Spans || len(back.Stages) != len(m.Stages) {
		t.Errorf("round trip lost stages: %+v vs %+v", back, m)
	}
	if fmt.Sprint(back.Caches) != fmt.Sprint(caches) {
		t.Errorf("round trip lost cache stats: %+v vs %+v", back.Caches, caches)
	}
}

// TestBuildManifestNil checks the degenerate inputs the CLIs can produce:
// no recorder and no caches must still yield a writable manifest.
func TestBuildManifestNil(t *testing.T) {
	m := BuildManifest("test", nil, 1, nil, nil)
	if m.Spans != 0 || m.Stages != nil {
		t.Errorf("nil recorder produced stages: %+v", m)
	}
	if err := m.Write(filepath.Join(t.TempDir(), "m.json")); err != nil {
		t.Fatal(err)
	}
}

// TestServeDebug smoke-tests the -debug-addr listener: expvar must serve
// the live per-stage totals and cache counters, and /metrics the
// Prometheus exposition with stage and disk-latency series.
func TestServeDebug(t *testing.T) {
	rec := NewRecorder()
	sp := rec.Scope("fir", 0, 0).Start(StageSim)
	sp.End()

	dbg, err := ServeDebug("127.0.0.1:0", DebugSources{
		Rec: rec,
		Caches: func() map[string]cache.Stats {
			return map[string]cache.Stats{"sim": {Hits: 7}}
		},
		DiskLatencies: func() map[string]hist.Snapshot {
			var s hist.Snapshot
			s.Observe(3 * time.Millisecond)
			return map[string]hist.Snapshot{"sim": s}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	addr := dbg.Addr()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Stages []StageTotal           `json:"binpart.stages"`
		Caches map[string]cache.Stats `json:"binpart.caches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if len(vars.Stages) != 1 || vars.Stages[0].Stage != StageSim {
		t.Errorf("expvar stages = %+v", vars.Stages)
	}
	if vars.Caches["sim"].Hits != 7 {
		t.Errorf("expvar caches = %+v", vars.Caches)
	}

	mresp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`binpart_stage_spans_total{stage="sim"} 1`,
		`binpart_cache_hits_total{cache="sim"} 7`,
		`binpart_stage_latency_seconds{stage="sim",quantile="0.5"}`,
		`binpart_stage_latency_seconds{stage="sim",quantile="0.95"}`,
		`binpart_stage_latency_seconds{stage="sim",quantile="0.99"}`,
		`binpart_cache_tier_latency_seconds{cache="sim",tier="disk",quantile="0.99"}`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestSpanOutcomeReconciliation pins the span↔counter invariant the
// manifest property test in exper relies on: per cache, summing span
// outcomes must reproduce the aggregate Stats exactly.
func TestSpanOutcomeReconciliation(t *testing.T) {
	c := cache.New[int](8)
	rec := NewRecorder()
	sc := rec.Scope("x", 0, 0)
	key := func(i int) cache.Key { return cache.NewHasher("t").Int(int64(i)).Sum() }

	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			sp := sc.Start(StageSim)
			_, out, err := c.GetOrComputeOutcome(key(i), func() (int, error) { return i, nil })
			if err != nil {
				t.Fatal(err)
			}
			sp.SetOutcome(out)
			sp.End()
		}
	}

	st := rec.StageTotals()[0]
	s := c.Stats()
	if st.Hit+st.Wait+st.Disk != s.Hits {
		t.Errorf("span hits %d+%d+%d != cache hits %d",
			st.Hit, st.Wait, st.Disk, s.Hits)
	}
	if st.Miss+st.Corrupt != s.Misses {
		t.Errorf("span misses %d+%d != cache misses %d", st.Miss, st.Corrupt, s.Misses)
	}
}

// TestMetricsFamiliesFromFirstScrape: before any span is recorded, the
// exposition already carries every pipeline stage's span, wall, and
// latency series and every cached stage's outcome series, at zero — a
// scraper never has to race the first event to find a family.
func TestMetricsFamiliesFromFirstScrape(t *testing.T) {
	var b bytes.Buffer
	WriteMetrics(&b, DebugSources{Rec: NewRecorder()})
	out := b.String()
	for _, want := range []string{
		`binpart_stage_spans_total{stage="job"} 0`,
		`binpart_stage_spans_total{stage="evaluate"} 0`,
		`binpart_stage_wall_seconds_total{stage="sim"} 0`,
		`binpart_stage_cache_outcomes_total{stage="analyze",outcome="hit"} 0`,
		`binpart_stage_cache_outcomes_total{stage="synth",outcome="corrupt"} 0`,
		`binpart_stage_latency_seconds{stage="lift",quantile="0.5"} NaN`,
		`binpart_stage_latency_seconds_count{stage="compile"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("first scrape missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `stage="job",outcome=`) {
		t.Error("uncached job stage exposes cache outcomes")
	}
}
