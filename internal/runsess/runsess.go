// Package runsess is the run lifecycle shared by the three front-ends
// (cmd/bparts, cmd/experiments, cmd/bpartd). Open builds the stage
// caches, the span recorder, the trace writer, and the debug/ops
// listener from the settings the front-end parsed; Close tears them
// down in one fixed order and reports every failure. The front-ends
// keep only their own work — sweeps, partitioning, serving — and their
// exit-code policy.
package runsess

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"binpart/internal/cache"
	"binpart/internal/core"
	"binpart/internal/obs"
)

// Config is what a front-end's flags say about the run lifecycle. The
// zero value is an in-memory cache set with every observability surface
// off.
type Config struct {
	// Tool, Args, and Workers identify the run in the manifest.
	Tool    string
	Args    []string
	Workers int

	// NoCache disables the stage caches entirely (-nocache).
	NoCache bool
	// CacheDir persists the serializable stages on disk (-cachedir);
	// CacheDirMax bounds it in the -cachedir-max grammar ("" or "0":
	// unbounded).
	CacheDir    string
	CacheDirMax string

	// Stats prints the per-stage span table and the cache table to
	// stderr on Close (-stats).
	Stats bool
	// Trace streams spans to this file as JSONL, gzipped for ".gz"
	// (-trace).
	Trace string
	// Manifest writes the run manifest to this file on Close
	// (-manifest).
	Manifest string
	// DebugAddr serves expvar, pprof, and /metrics on this address
	// (-debug-addr, bpartd's -ops-addr); Metrics, when set, appends the
	// front-end's own families to /metrics.
	DebugAddr string
	Metrics   func(io.Writer)
	// Record keeps a recorder even when no surface above reads it, so
	// Close can reconcile spans against the cache counters (bpartd
	// checks that on every shutdown).
	Record bool
}

// Session is one open run. Caches and Rec are what the front-end
// threads through its work; Rec is nil unless some surface reads it,
// which keeps the pipeline on its alloc-free fast path. Debug is the
// ops listener (nil without DebugAddr), for extra routes.
type Session struct {
	Caches *core.Caches
	Rec    *obs.Recorder
	Debug  *obs.DebugServer

	cfg       Config
	trace     traceSink
	addrFiles []string
}

// traceSink is the trace file behind -trace (an *obs.TraceWriter).
type traceSink interface {
	Writer() io.Writer
	Close() error
}

// Open builds the session's caches, recorder, trace writer, and debug
// listener, in that order. On error nothing is left open.
func Open(cfg Config) (*Session, error) {
	s := &Session{cfg: cfg}
	if !cfg.NoCache {
		s.Caches = core.NewCaches()
		if cfg.CacheDir != "" {
			var maxBytes int64
			if cfg.CacheDirMax != "" {
				n, err := cache.ParseByteSize(cfg.CacheDirMax)
				if err != nil {
					return nil, err
				}
				maxBytes = n
			}
			if _, err := s.Caches.WithDiskMax(cfg.CacheDir, maxBytes); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Record || cfg.Stats || cfg.Trace != "" || cfg.Manifest != "" || cfg.DebugAddr != "" {
		s.Rec = obs.NewRecorder()
	}
	if cfg.Trace != "" {
		tw, err := obs.CreateTrace(cfg.Trace)
		if err != nil {
			return nil, err
		}
		s.trace = tw
		s.Rec.StreamTo(tw.Writer())
	}
	if cfg.DebugAddr != "" {
		dbg, err := obs.ServeDebug(cfg.DebugAddr, obs.DebugSources{
			Rec:           s.Rec,
			Caches:        s.Caches.StatsMap,
			DiskLatencies: s.Caches.DiskLatencyMap,
			Extra:         cfg.Metrics,
		})
		if err != nil {
			if s.trace != nil {
				s.trace.Close()
			}
			return nil, err
		}
		s.Debug = dbg
	}
	return s, nil
}

// WriteAddrFile writes a bound listen address to path so scripts can
// find a ":0" port, and has Close remove it: a stale file must never
// point a later run at a dead process.
func (s *Session) WriteAddrFile(path, addr string) error {
	if err := os.WriteFile(path, []byte(addr), 0o644); err != nil {
		return err
	}
	s.addrFiles = append(s.addrFiles, path)
	return nil
}

// Close ends the run, in this order: print the stats tables, append the
// cache-accounting trailer to the trace, flush and close the trace,
// reconcile every span outcome against the cache counters, write the
// manifest (marked interrupted when the run was cut short), shut the
// debug listener down, and remove the addr files. A failing step does
// not skip the later ones: a partial trace that reconciles is evidence,
// a missing manifest is a bug. Every failure comes back through
// errors.Join; the debug shutdown is best effort and never fails the
// run.
func (s *Session) Close(interrupted bool) error {
	var errs []error
	stats := s.Caches.StatsMap()
	if s.cfg.Stats {
		fmt.Fprint(os.Stderr, s.Rec.Table())
		fmt.Fprint(os.Stderr, s.Caches.StatsString())
	}
	if s.trace != nil {
		s.Rec.EmitCaches(stats)
		if err := s.Rec.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("trace: %w", err))
		}
		if err := s.trace.Close(); err != nil {
			errs = append(errs, fmt.Errorf("trace: %w", err))
		}
	}
	if s.Rec != nil && s.Caches != nil {
		if err := obs.ReconcileTotals(s.Rec.StageTotals(), stats); err != nil {
			errs = append(errs, err)
		}
	}
	if s.cfg.Manifest != "" {
		m := obs.BuildManifest(s.cfg.Tool, s.cfg.Args, s.cfg.Workers, s.Rec, stats)
		m.Interrupted = interrupted
		if err := m.Write(s.cfg.Manifest); err != nil {
			errs = append(errs, fmt.Errorf("manifest: %w", err))
		}
	}
	if s.Debug != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		s.Debug.Shutdown(ctx) //nolint:errcheck // ops scrapes are best effort at exit
		cancel()
	}
	for _, path := range s.addrFiles {
		if err := os.Remove(path); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
