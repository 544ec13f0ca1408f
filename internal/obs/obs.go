// Package obs is the pipeline's observability layer: stage-scoped spans,
// per-stage aggregation, run manifests, and a debug HTTP listener.
//
// A Recorder observes Spans — one per pipeline stage execution, tagged
// with the benchmark, optimization level, worker id, wall time, cache
// outcome, and the stage's key counters — from the flow (core.Analyze /
// core.Evaluate), the content-addressed stage caches, and the experiment
// executor. A nil *Recorder (and the nil *Scope it hands out) is the
// disabled fast path: every method returns immediately and allocates
// nothing, so threading observability through the hot pipeline costs a
// pointer test when it is off. The cmd/benchjson Stage* allocs/op gates
// hold the disabled path to zero overhead.
//
// The recorder keeps no span: each one is folded into its stage's live
// total the moment it ends, so its memory is O(stages) however long the
// process runs. Per-span data exists only in the JSONL stream (-trace),
// written as the run executes. The totals surface as a per-stage table
// at exit (-stats) and in a run manifest written alongside sweep output
// (-manifest, see manifest.go); for long sweeps and daemons, ServeDebug
// (debug.go) exposes them over expvar and /metrics, next to net/pprof.
package obs

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"binpart/internal/cache"
	"binpart/internal/obs/hist"
)

// Canonical stage names. The pipeline emits exactly these; the table and
// manifest render them in pipeline order.
const (
	StageJob      = "job"      // one sweep point end to end (executor)
	StageAnalyze  = "analyze"  // assembled platform-independent analysis
	StageCompile  = "compile"  // MicroC compilation
	StageSim      = "sim"      // profiling simulation
	StageLift     = "lift"     // decompile + decompiler optimizations
	StageSynth    = "synth"    // behavioral synthesis of one region
	StageEvaluate = "evaluate" // price + partition + platform evaluation
)

// stageRank orders known stages pipeline-first; unknown stages sort after
// by name, so the table and manifest are deterministic at any worker count.
var stageRank = map[string]int{
	StageJob:      0,
	StageAnalyze:  1,
	StageCompile:  2,
	StageSim:      3,
	StageLift:     4,
	StageSynth:    5,
	StageEvaluate: 6,
}

// Span is one recorded stage execution. The exported fields are the trace
// schema; Start/Dur are filled in by End.
type Span struct {
	rec   *Recorder
	begin time.Time

	Stage  string
	Bench  string // benchmark name or input path ("" if not attributable)
	Level  int    // compiler optimization level (-1 when unknown)
	Worker int    // executor worker id (0 for serial / unpooled work)
	// Start is the span's offset from the recorder's epoch; Dur its wall
	// time. Both are set by End.
	Start time.Duration
	Dur   time.Duration
	// Outcome is the stage-cache outcome (OutcomeNone for uncached work).
	Outcome cache.Outcome
	// Engine is the simulator engine that produced a sim span ("" for
	// stages where the engine is irrelevant).
	Engine string
	// Counters. Zero means "not applicable" and is omitted from the trace.
	Instrs   uint64 // instructions simulated
	Regions  uint64 // regions/functions recovered (lift), candidates (analyze)
	Selected uint64 // regions partitioned to hardware
}

// SetOutcome records the stage-cache outcome.
func (s *Span) SetOutcome(o cache.Outcome) {
	if s.rec == nil {
		return
	}
	s.Outcome = o
}

// SetEngine records the simulator engine behind a sim span.
func (s *Span) SetEngine(engine string) {
	if s.rec == nil {
		return
	}
	s.Engine = engine
}

// SetInstrs records instructions simulated.
func (s *Span) SetInstrs(n uint64) {
	if s.rec == nil {
		return
	}
	s.Instrs = n
}

// SetRegions records regions recovered / candidates built.
func (s *Span) SetRegions(n uint64) {
	if s.rec == nil {
		return
	}
	s.Regions = n
}

// SetSelected records regions partitioned to hardware.
func (s *Span) SetSelected(n uint64) {
	if s.rec == nil {
		return
	}
	s.Selected = n
}

// End stamps the span's duration and emits it to the recorder. A span
// from a nil scope is a no-op.
func (s *Span) End() {
	if s.rec == nil {
		return
	}
	now := time.Now()
	s.Dur = now.Sub(s.begin)
	s.Start = s.begin.Sub(s.rec.epoch)
	s.rec.emit(s)
}

// Scope carries the attribution attributes — benchmark, opt level, worker
// id — that every span under one sweep point shares. A nil *Scope is the
// disabled path; it starts inert spans and costs one pointer test.
type Scope struct {
	r      *Recorder
	bench  string
	level  int
	worker int
}

// Start opens a span for one stage execution under this scope.
func (s *Scope) Start(stage string) Span {
	if s == nil {
		return Span{}
	}
	return Span{
		rec:    s.r,
		begin:  time.Now(),
		Stage:  stage,
		Bench:  s.bench,
		Level:  s.level,
		Worker: s.worker,
	}
}

// Recorder folds a run's spans into per-stage totals, and streams each
// one as a trace line when StreamTo is set. Safe for concurrent use by
// every worker of a sweep. The zero value is not usable; create with
// NewRecorder. A nil *Recorder is the disabled fast path.
type Recorder struct {
	epoch time.Time

	mu        sync.Mutex
	traceID   string
	totals    stageTotals
	bw        *bufio.Writer
	enc       *json.Encoder
	streamErr error
}

// NewRecorder starts a recorder; its epoch is the creation time. It
// mints a random 128-bit run identifier that tags the trace stream's
// header and the run manifest, so the two can be matched up later.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), traceID: newTraceID(), totals: stageTotals{}}
}

// newTraceID mints a random 128-bit run identifier as lowercase hex.
func newTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back
		// to a time-derived ID rather than an empty one.
		return fmt.Sprintf("t%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// TraceID returns the run identifier ("" on a nil recorder).
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	return r.traceID
}

// Scope returns span attribution for one sweep point. bench may be a
// benchmark name or an input path; level is the compiler optimization
// level (-1 when unknown); worker is the executor worker id. On a nil
// recorder it returns nil, the disabled scope.
func (r *Recorder) Scope(bench string, level, worker int) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{r: r, bench: bench, level: level, worker: worker}
}

// StreamTo mirrors every span to w as one JSON object per line, in
// emission order (see SpanRecord for the schema). The stream opens with
// one TraceMeta header line carrying the trace ID. Call before the run
// starts; finish with Flush.
func (r *Recorder) StreamTo(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.bw = bufio.NewWriter(w)
	r.enc = json.NewEncoder(r.bw)
	r.encodeLocked(TraceMeta{Meta: MetaTrace, Trace: r.traceID})
	r.mu.Unlock()
}

// encodeLocked writes one JSON line to the stream, recording the first
// error. Callers hold r.mu.
func (r *Recorder) encodeLocked(v any) {
	if r.enc == nil {
		return
	}
	if err := r.enc.Encode(v); err != nil && r.streamErr == nil {
		r.streamErr = err
	}
}

// EmitCaches appends a cache-accounting meta line to the stream: the
// same per-stage counter snapshot the -stats table prints. Emitted as
// the trace's trailer, it lets any reader of the file reconcile span
// outcomes against the cache counters (see TraceFile.Reconcile). No-op
// when not streaming.
func (r *Recorder) EmitCaches(stats map[string]cache.Stats) {
	if r == nil || stats == nil {
		return
	}
	r.mu.Lock()
	r.encodeLocked(TraceMeta{Meta: MetaCaches, Caches: stats})
	r.mu.Unlock()
}

// Flush drains the stream buffer and reports the first stream error.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bw != nil {
		if err := r.bw.Flush(); err != nil && r.streamErr == nil {
			r.streamErr = err
		}
	}
	return r.streamErr
}

// Trace meta line kinds (the TraceMeta.Meta field).
const (
	// MetaTrace is the stream header: the trace ID.
	MetaTrace = "trace"
	// MetaCaches is the accounting trailer: per-stage cache counters.
	MetaCaches = "caches"
)

// TraceMeta is the schema of the non-span lines in a trace stream. A
// line is a meta line iff its "meta" field is non-empty; everything else
// is a SpanRecord. Readers that predate a given meta kind skip it.
type TraceMeta struct {
	Meta   string                 `json:"meta"`
	Trace  string                 `json:"trace,omitempty"`
	Caches map[string]cache.Stats `json:"caches,omitempty"`
}

// SpanRecord is the trace line schema. Durations are integer
// microseconds: stable to diff, trivial to load into anything. StartUS
// is the offset from the recorder's epoch.
type SpanRecord struct {
	Stage    string `json:"stage"`
	Bench    string `json:"bench,omitempty"`
	Level    int    `json:"opt"`
	Worker   int    `json:"worker"`
	StartUS  int64  `json:"start_us"`
	DurUS    int64  `json:"dur_us"`
	Cache    string `json:"cache,omitempty"`
	Engine   string `json:"engine,omitempty"`
	Instrs   uint64 `json:"instrs,omitempty"`
	Regions  uint64 `json:"regions,omitempty"`
	Selected uint64 `json:"selected,omitempty"`
}

// toRecord renders a span for the trace stream.
func toRecord(s *Span) SpanRecord {
	return SpanRecord{
		Stage:    s.Stage,
		Bench:    s.Bench,
		Level:    s.Level,
		Worker:   s.Worker,
		StartUS:  s.Start.Microseconds(),
		DurUS:    s.Dur.Microseconds(),
		Cache:    s.Outcome.String(),
		Engine:   s.Engine,
		Instrs:   s.Instrs,
		Regions:  s.Regions,
		Selected: s.Selected,
	}
}

// emit folds a finished span into its stage's running total and, when
// streaming, writes its trace line. The fold goes through the same
// SpanRecord form a trace file holds, so live and file-read totals agree
// to the microsecond.
func (r *Recorder) emit(sp *Span) {
	rec := toRecord(sp)
	r.mu.Lock()
	r.totals.add(&rec)
	if r.enc != nil {
		r.encodeLocked(rec)
	}
	r.mu.Unlock()
}

// StageTotal aggregates every span of one stage: span count, total wall
// time, latency percentiles, cache outcomes, and counter sums. The
// percentiles are bucket upper bounds of the stage's fixed log-bucketed
// latency histogram (see internal/obs/hist).
type StageTotal struct {
	Stage    string        `json:"stage"`
	Spans    int           `json:"spans"`
	WallUS   int64         `json:"wall_us"`
	P50US    int64         `json:"p50_us,omitempty"`
	P90US    int64         `json:"p90_us,omitempty"`
	P99US    int64         `json:"p99_us,omitempty"`
	Hit      uint64        `json:"hit"`
	Miss     uint64        `json:"miss"`
	Wait     uint64        `json:"wait"`
	Disk     uint64        `json:"disk"`
	Corrupt  uint64        `json:"corrupt"`
	Instrs   uint64        `json:"instrs,omitempty"`
	Regions  uint64        `json:"regions,omitempty"`
	Selected uint64        `json:"selected,omitempty"`
	Latency  hist.Snapshot `json:"-"`
}

// countOutcome routes a span's cache-outcome string to its StageTotal
// counter. The strings are cache.Outcome.String() values; counting by
// string keeps trace files (which only have the JSONL form)
// aggregatable by the same code as live spans.
func (st *StageTotal) countOutcome(outcome string) {
	switch outcome {
	case "hit":
		st.Hit++
	case "miss":
		st.Miss++
	case "wait":
		st.Wait++
	case "disk":
		st.Disk++
	case "corrupt":
		st.Corrupt++
	}
}

// add folds one span into the total. It is the only fold: the live
// recorder and AggregateRecords (trace files read back from disk) both
// observe a span through its SpanRecord form, so the latency histogram
// sees the same integer-microsecond duration either way.
func (st *StageTotal) add(sp *SpanRecord) {
	st.Spans++
	st.WallUS += sp.DurUS
	st.Latency.Observe(time.Duration(sp.DurUS) * time.Microsecond)
	st.countOutcome(sp.Cache)
	st.Instrs += sp.Instrs
	st.Regions += sp.Regions
	st.Selected += sp.Selected
}

// stageTotals is a running per-stage fold, keyed by stage name.
type stageTotals map[string]*StageTotal

func (m stageTotals) add(sp *SpanRecord) {
	st := m[sp.Stage]
	if st == nil {
		st = &StageTotal{Stage: sp.Stage}
		m[sp.Stage] = st
	}
	st.add(sp)
}

// snapshot copies the totals out with their percentiles resolved, in
// pipeline order (unknown stages after, by name).
func (m stageTotals) snapshot() []StageTotal {
	out := make([]StageTotal, 0, len(m))
	for _, st := range m {
		t := *st
		t.P50US = t.Latency.QuantileUS(0.50)
		t.P90US = t.Latency.QuantileUS(0.90)
		t.P99US = t.Latency.QuantileUS(0.99)
		out = append(out, t)
	}
	sortStageTotals(out)
	return out
}

// AggregateRecords folds trace lines into per-stage totals, in pipeline
// order (unknown stages after, by name): the offline view of a trace
// file, identical to what the live recorder's StageTotals reported for
// the same spans.
func AggregateRecords(records []SpanRecord) []StageTotal {
	m := stageTotals{}
	for i := range records {
		m.add(&records[i])
	}
	return m.snapshot()
}

// sortStageTotals orders totals pipeline-first, unknown stages after by
// name.
func sortStageTotals(out []StageTotal) {
	sort.Slice(out, func(i, j int) bool {
		ri, iKnown := stageRank[out[i].Stage]
		rj, jKnown := stageRank[out[j].Stage]
		switch {
		case iKnown && jKnown:
			return ri < rj
		case iKnown != jKnown:
			return iKnown
		default:
			return out[i].Stage < out[j].Stage
		}
	})
}

// StageTotals snapshots the live per-stage totals, in pipeline order
// (unknown stages after, by name). It costs O(stages), not O(spans), so
// a /metrics scrape of a long-lived daemon stays cheap. A nil recorder
// returns nil.
func (r *Recorder) StageTotals() []StageTotal {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals.snapshot()
}

// Table renders the per-stage aggregation as the -stats text table.
func (r *Recorder) Table() string {
	if r == nil {
		return "obs: disabled\n"
	}
	return FormatStageTable(r.StageTotals())
}

// FormatStageTable renders stage totals as the -stats text table.
func FormatStageTable(totals []StageTotal) string {
	var b strings.Builder
	b.WriteString("obs    stage     spans   wall(ms)  p50(us)  p90(us)  p99(us)    hit   miss   wait   disk corrupt\n")
	var instrs, regions, selected uint64
	for _, st := range totals {
		fmt.Fprintf(&b, "obs    %-8s %6d %10.1f %8d %8d %8d %6d %6d %6d %6d %7d\n",
			st.Stage, st.Spans, float64(st.WallUS)/1e3,
			st.P50US, st.P90US, st.P99US,
			st.Hit, st.Miss, st.Wait, st.Disk, st.Corrupt)
		instrs += st.Instrs
		regions += st.Regions
		selected += st.Selected
	}
	fmt.Fprintf(&b, "obs    counters: %d instructions simulated, %d regions recovered, %d selected for hardware\n",
		instrs, regions, selected)
	return b.String()
}
