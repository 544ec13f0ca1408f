package runsess

import (
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"binpart/internal/cache"
	"binpart/internal/core"
	"binpart/internal/obs"
)

// orderedSink wraps the session's trace file and checks, at the moment
// the trace closes, that the manifest does not exist yet — the close
// order under test. closeErr, when set, is returned after the real close
// as an injected trace failure.
type orderedSink struct {
	traceSink
	manifest    string
	closed      bool
	manifestAtC bool
	closeErr    error
}

func (o *orderedSink) Close() error {
	o.closed = true
	if _, err := os.Stat(o.manifest); err == nil {
		o.manifestAtC = true
	}
	if err := o.traceSink.Close(); err != nil {
		return err
	}
	return o.closeErr
}

// recordLift records one cached lift lookup under a span, so the trace
// has content and the reconciliation has something to check.
func recordLift(t *testing.T, s *Session, key string) {
	t.Helper()
	sp := s.Rec.Scope("fir", 1, 0).Start(obs.StageLift)
	k := cache.NewHasher("t").String(key).Sum()
	_, out, err := s.Caches.Lift.GetOrComputeOutcome(k, func() (*core.LiftResult, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	sp.SetOutcome(out)
	sp.End()
}

func readManifest(t *testing.T, path string) obs.Manifest {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCloseOrder checks the close sequence end to end: the trace is
// flushed (its cache trailer present) and closed before the manifest is
// written, and the manifest covers the same spans.
func TestCloseOrder(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "m.json")
	s, err := Open(Config{Tool: "test", Trace: filepath.Join(dir, "t.jsonl"), Manifest: manifest})
	if err != nil {
		t.Fatal(err)
	}
	sink := &orderedSink{traceSink: s.trace, manifest: manifest}
	s.trace = sink
	recordLift(t, s, "a")
	recordLift(t, s, "a")

	if err := s.Close(false); err != nil {
		t.Fatalf("clean close: %v", err)
	}
	if !sink.closed {
		t.Fatal("trace never closed")
	}
	if sink.manifestAtC {
		t.Error("manifest written before the trace was closed")
	}
	tf, err := obs.ReadTrace(filepath.Join(dir, "t.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) != 2 || tf.Caches == nil || tf.Trace != s.Rec.TraceID() {
		t.Fatalf("trace not flushed whole: %d spans, caches %v, trace %q", len(tf.Spans), tf.Caches, tf.Trace)
	}
	if err := tf.Reconcile(); err != nil {
		t.Error(err)
	}
	m := readManifest(t, manifest)
	if m.Spans != 2 || m.Trace != tf.Trace || m.Interrupted {
		t.Errorf("manifest = %d spans, trace %q, interrupted %v", m.Spans, m.Trace, m.Interrupted)
	}
}

// TestCloseTraceFailureStillWritesManifest: a trace that fails to write
// (a full disk) or to close must not cost the run its manifest, and
// every failure must come back in the joined error.
func TestCloseTraceFailureStillWritesManifest(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full to fail trace writes")
	}
	manifest := filepath.Join(t.TempDir(), "m.json")
	s, err := Open(Config{Tool: "test", Trace: "/dev/full", Manifest: manifest})
	if err != nil {
		t.Fatal(err)
	}
	closeFail := errors.New("injected close failure")
	s.trace = &orderedSink{traceSink: s.trace, manifest: manifest, closeErr: closeFail}
	recordLift(t, s, "b")

	err = s.Close(true)
	if err == nil {
		t.Fatal("trace write failure not reported")
	}
	if !strings.Contains(err.Error(), "no space left") {
		t.Errorf("joined error lacks the flush failure: %v", err)
	}
	if !errors.Is(err, closeFail) {
		t.Errorf("joined error lacks the close failure: %v", err)
	}
	if m := readManifest(t, manifest); m.Spans != 1 || !m.Interrupted {
		t.Errorf("manifest = %d spans, interrupted %v; want 1, true", m.Spans, m.Interrupted)
	}
}

// TestCloseRemovesAddrFilesAndStopsDebug: Close removes every addr file
// the session wrote and shuts the ops listener down.
func TestCloseRemovesAddrFilesAndStopsDebug(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rec == nil || s.Debug == nil {
		t.Fatal("a debug listener needs a recorder and a server")
	}
	addr := s.Debug.Addr()
	files := []string{filepath.Join(dir, "ops.addr"), filepath.Join(dir, "api.addr")}
	for _, f := range files {
		if err := s.WriteAddrFile(f, addr); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := os.ReadFile(files[0]); string(got) != addr {
		t.Fatalf("addr file holds %q, want %q", got, addr)
	}

	if err := s.Close(false); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s survived Close (err=%v)", f, err)
		}
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("debug listener %s still accepting after Close", addr)
	}
}

// TestNilRecorderSessionAllocsNothing pins the disabled fast path: a
// session with every observability surface off hands out a nil
// recorder, and a stage's span plus a warm cache lookup through it
// allocate nothing.
func TestNilRecorderSessionAllocsNothing(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(false)
	if s.Rec != nil {
		t.Fatal("no surface reads the recorder, yet one was built")
	}
	k := cache.NewHasher("t").String("warm").Sum()
	s.Caches.Lift.Put(k, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := s.Rec.Scope("fir", 1, 0).Start(obs.StageLift)
		_, out, _ := s.Caches.Lift.GetOrComputeOutcome(k, nil)
		sp.SetOutcome(out)
		sp.SetRegions(3)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil-recorder stage path allocates %.1f per run", allocs)
	}
}

// TestOpenCacheSettings covers the cache flags: -nocache leaves the
// session cacheless (and Close still succeeds), -cachedir-max is parsed
// in the byte-size grammar, and a bad budget fails Open.
func TestOpenCacheSettings(t *testing.T) {
	s, err := Open(Config{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Caches != nil {
		t.Error("-nocache session has caches")
	}
	if err := s.Close(false); err != nil {
		t.Errorf("cacheless close: %v", err)
	}

	dir := t.TempDir()
	s, err = Open(Config{CacheDir: dir, CacheDirMax: "1M"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Caches.Sim.DiskLatency(); !ok {
		t.Error("-cachedir did not attach the disk store to the sim cache")
	}
	s.Close(false)

	if _, err := Open(Config{CacheDir: dir, CacheDirMax: "lots"}); err == nil {
		t.Error("bad -cachedir-max accepted")
	}
}
