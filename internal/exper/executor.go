package exper

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/obs"
	"binpart/internal/sim"
)

// Runner executes experiment sweeps over a bounded worker pool with an
// optional content-addressed stage-cache set. Every table and figure
// fans its (benchmark, opt level, options) points out across Workers
// goroutines and reassembles the rows in submission order, so the
// rendered tables are byte-identical to a serial run at any worker
// count. The zero value runs serially without caching.
type Runner struct {
	// Workers is the pool size; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Caches memoizes the compile, simulate, lift, and synthesis stages
	// across sweep points; nil disables caching.
	Caches *core.Caches
	// Obs records per-stage spans for every sweep point, attributed with
	// the benchmark, opt level, and worker id; nil disables recording
	// (the alloc-free fast path — tables are byte-identical either way).
	Obs *obs.Recorder
	// Engine selects the simulator engine for every sweep point. The zero
	// value is sim.EngineFused, the simulator's default; all engines are
	// bit-identical, so tables don't change with the engine — only wall
	// time does (and the engine-differential suite holds them to that).
	Engine sim.Engine

	// interrupted, once set by Interrupt, makes every not-yet-started job
	// fail fast with ErrInterrupted; in-flight jobs drain normally. That
	// rides the fanOut abort machinery, so an interrupted sweep returns
	// promptly with spans and cache counters intact for the trace flush.
	interrupted atomic.Bool
}

// ErrInterrupted is the error every sweep returns once Interrupt has
// been called — callers distinguish a cancelled run (flush partial
// observability, exit on the signal path) from a genuine failure.
var ErrInterrupted = errors.New("exper: run interrupted")

// Interrupt cancels the runner: jobs not yet started fail with
// ErrInterrupted, in-flight jobs complete. Safe from any goroutine
// (it is called from signal handlers).
func (r *Runner) Interrupt() { r.interrupted.Store(true) }

// NewRunner builds a Runner. workers <= 0 selects GOMAXPROCS; caches may
// be nil.
func NewRunner(workers int, caches *core.Caches) *Runner {
	return &Runner{Workers: workers, Caches: caches}
}

// defaultRunner backs the package-level Run* entry points: serial and
// cacheless, preserving the historical behavior the per-stage benchmarks
// in bench_test.go measure.
var defaultRunner = &Runner{Workers: 1}

// rowJob is one sweep point: a benchmark compiled at one optimization
// level and partitioned under one configuration.
type rowJob struct {
	bench bench.Benchmark
	level int
	opts  core.Options
}

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// fanOut runs n indexed jobs over a bounded worker pool and returns the
// results in index order regardless of completion order: workers pull
// indexes from a channel and send indexed results back, and the collector
// writes each into its slot. run receives the worker id (0 in the serial
// path) so per-job observability spans can attribute contention. The
// first error aborts the sweep (remaining jobs are skipped, in-flight
// ones drain), but every job that failed before the abort propagated is
// reported: the errors are joined in job-index order, so a sweep broken
// on three benchmarks names all three, not just the first across the
// finish line.
func fanOut[T any](workers, n int, run func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := run(0, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	type result struct {
		index int
		val   T
		err   error
	}
	jobCh := make(chan int)
	resCh := make(chan result, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobCh {
				if failed.Load() {
					resCh <- result{index: i, err: errSkipped}
					continue
				}
				v, err := run(worker, i)
				if err != nil {
					failed.Store(true)
				}
				resCh <- result{index: i, val: v, err: err}
			}
		}(w)
	}
	go func() {
		for i := 0; i < n; i++ {
			jobCh <- i
		}
		close(jobCh)
		wg.Wait()
		close(resCh)
	}()

	errs := make([]error, n) // per-index slots keep the join deterministic
	nerr := 0
	for res := range resCh {
		if res.err != nil {
			if res.err != errSkipped {
				errs[res.index] = res.err
				nerr++
			}
			continue
		}
		out[res.index] = res.val
	}
	if nerr > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}

// scope attributes spans for one sweep point; nil when recording is off.
func (r *Runner) scope(j rowJob, worker int) *obs.Scope {
	return r.Obs.Scope(j.bench.Name, j.level, worker)
}

// rows executes every job through the full flow, one Row per job, in job
// order. Each job records a "job" span covering the whole sweep point.
func (r *Runner) rows(jobs []rowJob) ([]Row, error) {
	return fanOut(r.workers(), len(jobs), func(w, i int) (Row, error) {
		if r.interrupted.Load() {
			return Row{}, ErrInterrupted
		}
		sc := r.scope(jobs[i], w)
		sp := sc.Start(obs.StageJob)
		row, err := r.runOne(jobs[i], sc)
		sp.End()
		return row, err
	})
}

// analyses builds each job's platform-independent core.Analysis through
// the worker pool, in job order. Sweeps whose points differ only in
// platform, area budget, or algorithm analyze once per benchmark here and
// fan the points over core.Evaluate, which costs microseconds per call.
func (r *Runner) analyses(jobs []rowJob) ([]*core.Analysis, error) {
	return fanOut(r.workers(), len(jobs), func(w, i int) (*core.Analysis, error) {
		if r.interrupted.Load() {
			return nil, ErrInterrupted
		}
		j := jobs[i]
		j.opts.Sim.Engine = r.Engine
		sc := r.scope(j, w)
		sp := sc.Start(obs.StageJob)
		defer sp.End()
		img, err := r.compile(j, sc)
		if err != nil {
			return nil, err
		}
		a, err := core.AnalyzeScoped(img, j.opts, r.Caches, sc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.bench.Name, err)
		}
		return a, nil
	})
}

// errSkipped marks jobs abandoned after another job already failed.
var errSkipped = fmt.Errorf("exper: skipped after earlier failure")

// compile builds a job's binary, through the compile cache when present,
// recording a compile span with the cache outcome.
func (r *Runner) compile(j rowJob, sc *obs.Scope) (*binimg.Image, error) {
	sp := sc.Start(obs.StageCompile)
	defer sp.End()
	if r.Caches != nil && r.Caches.Compile != nil {
		img, out, err := r.Caches.Compile.GetOrComputeOutcome(
			bench.CompileKey(j.bench.Source, j.level),
			func() (*binimg.Image, error) { return j.bench.Compile(j.level) })
		sp.SetOutcome(out)
		return img, err
	}
	return j.bench.Compile(j.level)
}

// runOne executes the full flow for one sweep point.
func (r *Runner) runOne(j rowJob, sc *obs.Scope) (Row, error) {
	j.opts.Sim.Engine = r.Engine
	img, err := r.compile(j, sc)
	if err != nil {
		return Row{}, err
	}
	rep, err := core.RunScoped(img, j.opts, r.Caches, sc)
	if err != nil {
		return Row{}, fmt.Errorf("%s: %w", j.bench.Name, err)
	}
	return rowFrom(j, rep), nil
}

// rowFrom flattens one sweep point's Report into a Row.
func rowFrom(j rowJob, rep *core.Report) Row {
	_, failed := rep.Recovery.FailReasons[j.bench.KernelFunc]
	return Row{
		Name:          j.bench.Name,
		Suite:         j.bench.Suite,
		OptLevel:      j.level,
		SWTimeMs:      rep.Metrics.SWTimeS * 1e3,
		HWSWTimeMs:    rep.Metrics.HWSWTimeS * 1e3,
		AppSpeedup:    rep.Metrics.AppSpeedup,
		KernelSpeedup: rep.Metrics.KernelSpeedup,
		EnergySavings: rep.Metrics.EnergySavings,
		AreaGates:     rep.Metrics.AreaGates,
		Selected:      len(rep.SelectedRegions()),
		KernelFailed:  failed,
		PartitionTime: rep.PartitionTime,
		Recovery:      rep.Recovery,
	}
}
