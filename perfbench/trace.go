package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one benchmark-side span around a call into a layer. IDs are
// unique within a run; Parent is 0 for a root span.
type span struct {
	Run    string `json:"run"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
}

// spanLog records one goroutine's spans in memory. A nil *spanLog is the
// untraced path: every method is a no-op returning span ID 0.
type spanLog struct {
	run   string
	epoch time.Time
	base  int64 // high bits of every ID, distinct per log
	spans []span
}

// tracer hands out one spanLog per goroutine, so recording never takes
// a lock; the logs are merged when the run ends.
type tracer struct {
	run   string
	epoch time.Time
	logs  []*spanLog
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

// log returns a fresh per-goroutine span log. Call it before starting
// the goroutine that owns the log; a nil tracer returns nil.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{run: t.run, epoch: t.epoch, base: int64(len(t.logs)+1) << 40}
	t.logs = append(t.logs, l)
	return l
}

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string, parent int64) int64 {
	if l == nil {
		return 0
	}
	id := l.base + int64(len(l.spans)) + 1
	l.spans = append(l.spans, span{Run: l.run, ID: id, Parent: parent, Name: name, Start: int64(time.Since(l.epoch))})
	return id
}

// end closes the span begin returned.
func (l *spanLog) end(id int64) {
	if l == nil {
		return
	}
	l.spans[id-l.base-1].End = int64(time.Since(l.epoch))
}

// all returns every recorded span, ordered by start time.
func (t *tracer) all() []span {
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeJSONL writes the spans, one JSON object a line, to path.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the folded time of every span with one name.
type layerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the time child spans cover
}

// meanSelf is the average self time per span; zero for a layer with no
// spans.
func (lt *layerTime) meanSelf() time.Duration {
	if lt == nil || lt.Count == 0 {
		return 0
	}
	return lt.Self / time.Duration(lt.Count)
}

// self is the named layer's total self time; zero when it has no spans.
func self(lt map[string]*layerTime, name string) time.Duration {
	if l := lt[name]; l != nil {
		return l.Self
	}
	return 0
}

// total is the named layer's summed span duration; zero when it has no
// spans.
func total(lt map[string]*layerTime, name string) time.Duration {
	if l := lt[name]; l != nil {
		return l.Total
	}
	return 0
}

// fold folds spans into per-name self time. A span's self time is its
// duration minus the part its child spans cover; children of one span
// never overlap, because each span log belongs to one goroutine.
func fold(spans []span) map[string]*layerTime {
	childTime := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			childTime[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.Count++
		lt.Total += d
		lt.Self += d - childTime[s.ID]
	}
	return out
}

// traceFile names the JSONL span file of one traced run.
func traceFile(root, workload string, seed int64) string {
	return filepath.Join(root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
